#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

namespace bbsim::sim {

namespace {
// The std::*_heap algorithms keep the greatest element on top, so ordering
// by "later" puts the earliest (time, id) record there.
bool later(const EventRecord& a, const EventRecord& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.id > b.id;
}
}  // namespace

EventId Engine::schedule_at(Time t, EventHandler fn) {
  // Finiteness first: NaN compares false with everything, so a past-time
  // check alone would blame NaN on "the past" instead of naming it.
  if (!std::isfinite(t)) {
    if (std::isnan(t)) {
      throw util::InvariantError("schedule_at: time is NaN (now=" +
                                 std::to_string(now_) + ")");
    }
    throw util::InvariantError("schedule_at: non-finite time " + std::to_string(t));
  }
  if (t < now_) {
    throw util::InvariantError("schedule_at: time " + std::to_string(t) +
                               " is in the past (now=" + std::to_string(now_) + ")");
  }
  const EventId id = next_id_++;
  push(EventRecord{t, id});
  handlers_.emplace(id, std::move(fn));
  if (observer_ != nullptr) observer_->on_scheduled(id, now_, t);
  return id;
}

bool Engine::cancel(EventId id) {
  if (handlers_.count(id) == 0) return false;
  handlers_.erase(id);
  ++tombstones_;
  // Compact once tombstones dominate the queue, so cancel-heavy phases
  // (e.g. every flow completion cancelling the manager's wake event) keep
  // the stored size proportional to the live size. The +64 slack keeps
  // small queues from compacting on every other cancellation.
  if (tombstones_ > handlers_.size() + 64) {
    std::erase_if(queue_, [this](const EventRecord& r) {
      return handlers_.count(r.id) == 0;
    });
    std::make_heap(queue_.begin(), queue_.end(), later);
    tombstones_ = 0;
  }
  if (observer_ != nullptr) observer_->on_cancelled(id);
  return true;
}

void Engine::push(const EventRecord& r) {
  queue_.push_back(r);
  std::push_heap(queue_.begin(), queue_.end(), later);
}

bool Engine::pop_live(EventRecord& out) {
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), later);
    out = queue_.back();
    queue_.pop_back();
    if (handlers_.count(out.id) != 0) return true;
    if (tombstones_ > 0) --tombstones_;  // lazily discarded cancellation
  }
  return false;
}

void Engine::execute(const EventRecord& r) {
  now_ = r.time;
  // Move the handler out before invoking: the callback may schedule or
  // cancel other events, mutating handlers_.
  auto it = handlers_.find(r.id);
  EventHandler fn = std::move(it->second);
  handlers_.erase(it);
  ++executed_;
  if (observer_ != nullptr) observer_->on_executed(r.id, r.time);
  fn();
  if (observer_ != nullptr) observer_->on_dispatched(r.id);
}

bool Engine::step() {
  EventRecord r{};
  if (!pop_live(r)) return false;
  execute(r);
  return true;
}

Time Engine::run() {
  while (step()) {
  }
  return now_;
}

bool Engine::run_until(Time t) {
  EventRecord r{};
  while (pop_live(r)) {
    if (r.time > t) {
      push(r);  // keeps its original id: ordering is unchanged
      now_ = t;
      return true;
    }
    execute(r);
  }
  now_ = std::max(now_, t);
  return false;
}

}  // namespace bbsim::sim
