#include "flow/manager.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

namespace bbsim::flow {

namespace {
/// A flow counts as finished when its residual is this small. Progress is
/// accumulated in doubles, so a volume-relative component is required: a
/// multi-MB transfer legitimately ends with an O(1e-6)-byte residue, and a
/// residue that small at multi-GB/s rates yields a completion horizon far
/// below the clock's representable resolution (the wake-up would not
/// advance time at all -- an infinite loop).
double completion_tolerance(double volume) { return 1e-6 + 1e-9 * volume; }

/// Time to completion at `rate`: 0 for finished and unlimited flows (they
/// complete at the next wake-up), infinite for starved flows (they wait for
/// capacity to free up).
double time_to_completion(double remaining, double rate, double tolerance) {
  if (remaining <= tolerance || rate == kUnlimited) return 0.0;
  if (rate <= 0.0) return kUnlimited;
  return remaining / rate;
}

bool bitwise_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

FlowId FlowManager::start(FlowSpec spec, CompletionHandler on_complete) {
  settle();
  const FlowId id = net_.add_flow(std::move(spec));
  const FlowState& st = net_.flow(id);
  Slot slot;  // its rate and eta come from the solve below
  slot.remaining = st.spec.volume;
  slot.tolerance = completion_tolerance(st.spec.volume);
  slot.path_begin = static_cast<std::uint32_t>(paths_.size());
  slot.path_size = static_cast<std::uint32_t>(st.spec.path.size());
  paths_.insert(paths_.end(), st.spec.path.begin(), st.spec.path.end());
  if (slot_of_.size() <= id) slot_of_.resize(id + 1);
  slot_of_[id] = slots_.size();
  slots_.push_back(slot);
  owners_.push_back(Owner{id, engine_.now(), std::move(on_complete)});
  if (observer_ != nullptr) {
    observer_->on_flow_begin(id, engine_.now(), st.spec, net_.flow_count());
  }
  reschedule();
  return id;
}

bool FlowManager::abort(FlowId id) { return cancel(id).has_value(); }

std::optional<double> FlowManager::cancel(FlowId id) {
  if (!net_.has_flow(id)) return std::nullopt;
  // Settle first so the bytes moved between the last event and now land in
  // the per-resource ledger (and in this flow's progress) before removal.
  settle();
  const std::size_t i = slot_of_[id];
  const double moved = std::max(0.0, net_.flow(id).spec.volume - slots_[i].remaining);
  net_.remove_flow(id);
  if (observer_ != nullptr) {
    observer_->on_flow_end(id, engine_.now(), owners_[i].started, false, net_.flow_count());
  }
  retire(i);
  compact_if_sparse();
  reschedule();
  return moved;
}

void FlowManager::retire(std::size_t i) {
  slots_[i] = Slot{};
  owners_[i] = Owner{};
  ++tombstones_;
}

void FlowManager::compact_if_sparse() {
  if (2 * tombstones_ <= slots_.size()) return;
  // Moves only ever go towards the front, so the in-place copies of records
  // and of their paths never overwrite anything still to be read.
  std::size_t kept = 0;
  std::uint32_t path_end = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (owners_[i].id == kRetired) continue;
    Slot& slot = slots_[kept];
    slot = slots_[i];
    std::copy_n(paths_.begin() + slot.path_begin, slot.path_size,
                paths_.begin() + path_end);
    slot.path_begin = path_end;
    path_end += slot.path_size;
    if (kept != i) owners_[kept] = std::move(owners_[i]);
    slot_of_[owners_[kept].id] = kept;
    ++kept;
  }
  slots_.resize(kept);
  owners_.resize(kept);
  paths_.resize(path_end);
  tombstones_ = 0;
}

void FlowManager::check_invariants() const {
  net_.check_invariants();
  const std::vector<FlowId> order = net_.flow_ids();
  std::size_t live = 0;
  double horizon = kUnlimited;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    const FlowId id = owners_[i].id;
    horizon = std::min(horizon, slot.eta);
    const auto what = [id](const char* violation) {
      return "flow " + std::to_string(id) + ": " + violation;
    };
    if (id == kRetired) {
      BBSIM_ASSERT(bitwise_equal(slot.rate, 0.0) && bitwise_equal(slot.remaining, 0.0) &&
                       slot.eta == kUnlimited && slot.path_size == 0,
                   "flow record " + std::to_string(i) + ": tombstone is not inert");
      continue;
    }
    BBSIM_ASSERT(live < order.size() && order[live] == id,
                 what("record out of the network's creation order"));
    ++live;
    BBSIM_ASSERT(slot_of_[id] == i, what("id maps to another record"));
    const FlowState& st = net_.flow(id);
    BBSIM_ASSERT(std::equal(st.spec.path.begin(), st.spec.path.end(),
                            paths_.begin() + slot.path_begin,
                            paths_.begin() + slot.path_begin + slot.path_size),
                 what("cached path differs"));
    BBSIM_ASSERT(bitwise_equal(slot.tolerance, completion_tolerance(st.spec.volume)),
                 what("cached completion tolerance differs"));
    BBSIM_ASSERT(bitwise_equal(slot.rate, st.rate),
                 what("cached rate differs from the last solve"));
    BBSIM_ASSERT(
        bitwise_equal(slot.eta, time_to_completion(slot.remaining, st.rate, slot.tolerance)),
        what("cached time to completion is stale"));
  }
  BBSIM_ASSERT(live == order.size(), "the network has flows without a record");
  BBSIM_ASSERT(2 * tombstones_ <= slots_.size() && owners_.size() == slots_.size(),
               "tombstones outnumber live records");
  BBSIM_ASSERT(wake_scheduled_ == (horizon != kUnlimited),
               "a wake-up is pending with no finite completion time, or missing");
  BBSIM_ASSERT(!wake_scheduled_ || bitwise_equal(horizon_, horizon),
               "the pending wake-up is not at the earliest completion time");
}

void FlowManager::set_capacity(ResourceId id, double capacity) {
  settle();
  net_.set_capacity(id, capacity);
  reschedule();
}

void FlowManager::settle() {
  const sim::Time now = engine_.now();
  const double dt = now - last_settle_;
  last_settle_ = now;
  if (dt <= 0.0) return;
  if (observer_ != nullptr) observer_->on_settle_begin();

  // Per-resource accounting: accumulate bytes and busy time while flows ran.
  // The scratch vectors persist across settles (entries outside touched_
  // stay zero), so the hot path allocates nothing and writes only the
  // resources active flows actually cross.
  if (res_bytes_.size() < net_.resource_count()) {
    res_bytes_.resize(net_.resource_count(), 0.0);
    res_busy_.resize(net_.resource_count(), 0);
  }
  touched_.clear();

  for (Slot& slot : slots_) {
    const double rate = (slot.rate == kUnlimited) ? 0.0 : slot.rate;
    const double moved = std::min(slot.remaining, rate * dt);
    const std::span<const ResourceId> path(paths_.data() + slot.path_begin, slot.path_size);
    // res_busy_ doubles as the touched-marker: every branch that writes a
    // resource sets it, and settle() resets it with res_bytes_ below.
    if (moved > 0.0) {
      for (const ResourceId r : path) {
        if (res_busy_[r] == 0) touched_.push_back(r);
        res_bytes_[r] += moved;
        res_busy_[r] = 1;
      }
      slot.remaining = std::max(0.0, slot.remaining - moved);
      slot.eta = time_to_completion(slot.remaining, slot.rate, slot.tolerance);
    } else if (rate > 0.0 || slot.rate == kUnlimited) {
      for (const ResourceId r : path) {
        if (res_busy_[r] == 0) touched_.push_back(r);
        res_busy_[r] = 1;
      }
    }
  }
  for (const ResourceId r : touched_) {
    net_.resource(r).bytes_served += res_bytes_[r];
    if (res_busy_[r] != 0) net_.resource(r).busy_time += dt;
  }

  if (observer_ != nullptr) observer_->on_settled(net_, now, dt, res_bytes_);

  for (const ResourceId r : touched_) {
    res_bytes_[r] = 0.0;
    res_busy_[r] = 0;
  }
}

void FlowManager::reschedule() {
  if (wake_scheduled_) {
    engine_.cancel(wake_event_);
    wake_scheduled_ = false;
  }
  if (net_.flow_count() == 0) return;

  net_.solve();
  // Only the re-solved flows can have a new rate; every other record's
  // rate and eta are still exact.
  net_.for_each_resolved([this](FlowId id, const FlowState& st) {
    Slot& slot = slots_[slot_of_[id]];
    slot.rate = st.rate;
    slot.eta = time_to_completion(slot.remaining, st.rate, slot.tolerance);
  });

  // Earliest completion among active flows (starved flows and tombstones
  // have an infinite eta). min is exact and etas are never NaN or -0, so
  // four interleaved minima give the same value as one chain, without its
  // dependency on the previous comparison.
  double lane[4] = {kUnlimited, kUnlimited, kUnlimited, kUnlimited};
  std::size_t i = 0;
  for (; i + 4 <= slots_.size(); i += 4) {
    for (std::size_t k = 0; k < 4; ++k) lane[k] = std::min(lane[k], slots_[i + k].eta);
  }
  for (; i < slots_.size(); ++i) lane[0] = std::min(lane[0], slots_[i].eta);
  double horizon = std::min(std::min(lane[0], lane[1]), std::min(lane[2], lane[3]));
  if (horizon == kUnlimited) return;  // everything starved (all-zero capacity)
  horizon_ = horizon;
  // Clamp sub-resolution horizons: if now + horizon does not advance the
  // clock, fire now and let the completion tolerance finish those flows.
  // The exact == probes ulp behaviour on purpose; an epsilon would defeat it.
  if (engine_.now() + horizon == engine_.now()) horizon = 0.0;  // NOLINT(bbsim-float-equality)

  wake_event_ = engine_.schedule_in(horizon, [this] { on_wake(); });
  wake_scheduled_ = true;
}

void FlowManager::on_wake() {
  wake_scheduled_ = false;
  settle();

  // Collect finished flows first, then remove, then invoke callbacks: a
  // callback may start new flows or abort others, so the network must be in
  // a consistent state before user code runs. A flow is finished when its
  // residual cannot advance the clock: finished and unlimited flows have
  // eta 0, and a residual too small to move the clock is an ulp no-op
  // (exact == is the point); starved flows and tombstones never are.
  const sim::Time now = engine_.now();
  done_.clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (now + slots_[i].eta == now) done_.push_back(i);  // NOLINT(bbsim-float-equality)
  }

  std::vector<CompletionHandler> callbacks;
  callbacks.reserve(done_.size());
  for (const std::size_t i : done_) {
    Owner& owner = owners_[i];
    net_.remove_flow(owner.id);
    callbacks.push_back(std::move(owner.on_complete));
    if (observer_ != nullptr) {
      observer_->on_flow_end(owner.id, now, owner.started, true, net_.flow_count());
    }
    retire(i);
  }
  compact_if_sparse();

  reschedule();

  for (CompletionHandler& cb : callbacks) {
    if (cb) cb();
  }
}

}  // namespace bbsim::flow
