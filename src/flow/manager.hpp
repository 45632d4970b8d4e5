// bbsim -- FlowManager: binds the max-min Network to the event Engine.
//
// The manager advances flow progress between events, re-solves the rate
// allocation whenever the flow set (or a capacity) changes, and fires each
// flow's completion callback at the exact simulated time its byte count
// reaches zero. It also integrates per-resource accounting (bytes served,
// busy time) used for the achieved-bandwidth experiment (paper Figure 9).
//
// Cost per event. The manager owns one record per active flow in a
// creation-ordered vector: its remaining bytes, the rate of the last solve
// and a cached time-to-completion. Each event makes one contiguous pass
// over those records to settle progress and the per-resource ledger, plus
// a min over the cached completion times for the next wake-up (and a
// wake-up scans the same cache for finished flows) -- O(active flows) of
// flat arithmetic, no hashing, no list walks, no sorts. Only the flows the
// incremental solve re-solved (Network::for_each_resolved) get a new rate
// and completion time: O(closure). Removed records are tombstones until
// they outnumber the live ones; then the vector is compacted in order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "flow/network.hpp"
#include "sim/engine.hpp"

namespace bbsim::flow {

/// Invoked at the simulated instant a flow's last byte arrives.
using CompletionHandler = std::function<void()>;

class FlowManager {
 public:
  /// The engine must outlive the manager.
  explicit FlowManager(sim::Engine& engine) : engine_(engine) {}
  FlowManager(const FlowManager&) = delete;
  FlowManager& operator=(const FlowManager&) = delete;

  /// Expose the underlying network for resource creation and inspection.
  Network& network() { return net_; }
  const Network& network() const { return net_; }

  /// Start a flow; `on_complete` fires when all bytes have moved.
  /// A zero-volume flow completes at the current time (via a scheduled
  /// zero-delay event, preserving run-to-completion semantics).
  FlowId start(FlowSpec spec, CompletionHandler on_complete);

  /// Abort an in-progress flow; its handler is never called.
  /// Returns false if the flow already completed.
  bool abort(FlowId id);

  /// Cancel an in-flight transfer mid-flow: progress up to the current
  /// simulated time is settled into the per-resource ledger (bytes_served /
  /// busy_time), the unmoved remainder is discarded, and the completion
  /// handler never fires. Returns the bytes that actually moved, or
  /// std::nullopt when the flow is unknown or already completed (a no-op --
  /// cancelling after the handler ran does not reopen anything). This is
  /// the primitive the resilience layer uses to kill a crashed host's I/O
  /// without losing the ledger's account of what already transferred.
  std::optional<double> cancel(FlowId id);

  /// Change a resource capacity at the current simulated time (interference
  /// injection); progress is settled first, then rates are recomputed.
  void set_capacity(ResourceId id, double capacity);

  /// Current transfer rate of an active flow (bytes/sec).
  double current_rate(FlowId id) const { return net_.flow(id).rate; }

  /// Number of in-flight flows.
  std::size_t active_count() const { return net_.flow_count(); }

  /// Test hook: re-runs the solver invariant checks, then verifies the
  /// manager's cache against the network -- records in the network's
  /// creation order, each live record's rate and completion time bitwise
  /// equal to a fresh computation, and the pending wake-up at the minimum
  /// completion time. Throws InvariantError on the first violation.
  void check_invariants() const;

  /// Install the flow layer's observer on the manager and its network
  /// (nullptr disables; the default). It must outlive the manager.
  void set_observer(FlowObserver* observer) {
    observer_ = observer;
    net_.set_observer(observer);
  }

 private:
  static constexpr FlowId kRetired = static_cast<FlowId>(-1);

  /// The record of one started flow lives at the same index of slots_ and
  /// owners_, in creation order. slots_ holds what every event reads and
  /// owners_ the rest, so the per-event passes stream 40 bytes per flow.
  /// A retired record (completed or cancelled) is a tombstone: rate 0,
  /// remaining 0, eta infinite and an empty path, so every pass treats it
  /// as a starved flow and needs no liveness test.
  struct Slot {
    double remaining = 0.0;  ///< bytes still to transfer
    double rate = 0.0;       ///< the last solve's allocation (bytes/s)
    double tolerance = 0.0;  ///< finished once remaining <= tolerance
    /// Cached time to completion from the last settle point: 0 when
    /// finished or unlimited, infinite when starved, else remaining / rate.
    double eta = kUnlimited;
    std::uint32_t path_begin = 0;  ///< the flow's path is paths_[begin, +size)
    std::uint32_t path_size = 0;
  };
  struct Owner {
    FlowId id = kRetired;  ///< kRetired marks a tombstone
    sim::Time started = 0.0;
    CompletionHandler on_complete;
  };

  sim::Engine& engine_;
  Network net_;
  std::vector<Slot> slots_;
  std::vector<Owner> owners_;
  /// Every record's path, back to back in record order, so settle() reads
  /// paths sequentially too; compacted with the records.
  std::vector<ResourceId> paths_;
  std::size_t tombstones_ = 0;
  std::vector<std::size_t> slot_of_;  ///< FlowId -> record index
  sim::EventId wake_event_ = 0;
  bool wake_scheduled_ = false;
  double horizon_ = 0.0;  ///< the minimum eta the pending wake-up targets
  sim::Time last_settle_ = 0.0;
  /// Per-resource settle scratch, reused across calls so the per-event cost
  /// is O(active flows + touched resources), not O(all resources) plus an
  /// allocation. Entries outside touched_ are always zero, so the whole
  /// vector is the interval's per-resource byte count handed to the
  /// observer.
  std::vector<double> res_bytes_;
  std::vector<char> res_busy_;
  std::vector<ResourceId> touched_;
  std::vector<std::size_t> done_;  ///< completion scratch for on_wake()
  FlowObserver* observer_ = nullptr;

  /// Apply elapsed progress since the last settle point: one pass over the
  /// records that moves bytes, charges the ledger and refreshes eta.
  void settle();
  /// Turn record `i` into a tombstone, dropping its handler.
  void retire(std::size_t i);
  /// Drop the tombstones, keeping creation order, once they outnumber the
  /// live records (amortised O(1) per retired flow).
  void compact_if_sparse();
  /// Re-solve rates and (re)schedule the next completion event.
  void reschedule();
  /// Fired at the next completion instant.
  void on_wake();
};

}  // namespace bbsim::flow
