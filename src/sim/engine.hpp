// bbsim -- discrete-event simulation kernel.
//
// A minimal, deterministic event engine in the style of SimGrid's kernel:
// a virtual clock and a binary min-heap of timestamped events. Everything
// above (flows, storage services, the workflow engine) is driven by
// callbacks scheduled here.
//
// Determinism: the heap orders events by (time, id), and ids are issued in
// scheduling order, so ties in time break FIFO and two runs of the same
// program produce the same event interleaving.
//
// Cancellation is lazy: cancel() drops the handler immediately (so
// pending_count() is always the live count) and leaves a tombstone record
// in the heap, discarded when popped; when tombstones outnumber live
// events the heap is compacted and re-heapified in one O(stored) pass.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace bbsim::sim {

/// Simulated time in seconds.
using Time = double;

/// Handle for a scheduled event, usable with Engine::cancel().
using EventId = std::uint64_t;

/// One pending event: absolute timestamp and handler key. Ids rise with
/// scheduling order, so ordering by (time, id) breaks ties FIFO.
struct EventRecord {
  Time time = 0.0;
  EventId id = 0;
};

/// Callback invoked when an event fires. It runs at `Engine::now()` equal to
/// the event's timestamp and may schedule further events.
using EventHandler = std::function<void()>;

/// The engine's one instrument hook (exec::Instruments fans it out).
/// Callbacks fire inline after the engine's state changed (pending_count()
/// is already the live count) and must not mutate it. With no observer
/// installed each call site costs one null-pointer test.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  /// `when` is the event's absolute timestamp; `now` the clock at scheduling.
  virtual void on_scheduled(EventId id, Time now, Time when) = 0;
  /// Fired immediately before the handler runs, with the clock at `when`.
  virtual void on_executed(EventId id, Time when) = 0;
  /// Fired when the handler of the event last passed to on_executed()
  /// returned: the pair brackets the handler's own cost.
  virtual void on_dispatched(EventId /*id*/) {}
  /// Fired when a pending event is successfully cancelled.
  virtual void on_cancelled(EventId id) = 0;
};

/// The simulation engine: virtual clock + event queue.
///
/// Usage:
///   Engine e;
///   e.schedule_in(5.0, []{ ... });
///   e.run();
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time (seconds). Starts at 0.
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be finite and >= now()).
  /// NaN and infinite times are rejected with an error naming the value.
  EventId schedule_at(Time t, EventHandler fn);

  /// Schedule `fn` after a delay of `dt` seconds (must be >= 0).
  EventId schedule_in(Time dt, EventHandler fn) {
    return schedule_at(now_ + dt, std::move(fn));
  }

  /// Cancel a pending event. Cancelling an already-fired or already-cancelled
  /// event is a harmless no-op (returns false).
  bool cancel(EventId id);

  /// Run until the event queue is empty. Returns the final clock value.
  Time run();

  /// Process all events with timestamp <= `t`, then set the clock to `t`.
  /// Returns true if the queue still holds future events.
  bool run_until(Time t);

  /// Execute exactly one event (the earliest); returns false if none pending.
  bool step();

  /// Number of events executed so far.
  std::size_t executed_count() const { return executed_; }

  /// Number of events currently pending. This is the *live* count --
  /// cancelled events never appear, regardless of whether their queue
  /// tombstones have been discarded yet.
  std::size_t pending_count() const { return handlers_.size(); }

  /// Install the lifecycle observer (nullptr disables; the default). The
  /// observer must outlive the engine or be cleared before destruction.
  void set_observer(EngineObserver* observer) { observer_ = observer; }

 private:
  Time now_ = 0.0;
  EventId next_id_ = 1;
  std::size_t executed_ = 0;
  /// Min-heap on (time, id) under std::push_heap/pop_heap.
  std::vector<EventRecord> queue_;
  std::unordered_map<EventId, EventHandler> handlers_;
  /// Cancelled records still sitting in queue_; compacted when they
  /// outnumber the live events (plus slack, so small queues never compact).
  std::size_t tombstones_ = 0;

  EngineObserver* observer_ = nullptr;

  void push(const EventRecord& r);
  /// Pops the next live record (discarding tombstones) or returns false.
  bool pop_live(EventRecord& out);
  /// Advances the clock to `r.time` and runs its handler.
  void execute(const EventRecord& r);
};

}  // namespace bbsim::sim
