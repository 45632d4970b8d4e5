// bbsim -- max-min fair bandwidth sharing (the SimGrid-style flow model).
//
// Every data movement in the simulator is a *flow*: an amount of bytes
// traversing a set of capacity-constrained resources (disk channels, network
// links, metadata servers). Concurrent flows share resource capacity
// according to (weighted) max-min fairness with optional per-flow rate caps,
// computed by the classic progressive-filling ("water-filling") algorithm:
//
//   raise a common water level t for all unfrozen flows;
//   a resource saturates when  frozen_rates + t * unfrozen_count == capacity;
//   a flow freezes when t reaches its rate cap;
//   freeze at the earliest such event and repeat.
//
// This is the mechanism that makes burst-buffer contention *emerge* when
// many workflow pipelines do I/O at once (paper Figures 7 and 11), instead
// of being hard-coded into task runtimes.
//
// The solver is *incremental*: add_flow / remove_flow / set_capacity mark
// the touched resources dirty, and solve() re-runs progressive filling only
// over the bottleneck-connected components reachable from the dirty set
// (a resource's member flows, those flows' other resources, and so on).
// Flows in untouched components keep their previously converged rates --
// max-min decomposes exactly across components, so the result is identical
// to a full re-solve. All per-solve scratch is arena-allocated on the
// network (membership bitsets, reusable vectors), so steady-state solves
// allocate nothing. set_incremental(false) restores the historical
// solve-everything behaviour (the benchmark baseline and a debugging aid).
//
// Network is a pure solver over a static "current instant"; it knows nothing
// about time or progress. FlowManager (manager.hpp) binds it to the event
// engine and owns every flow's remaining volume.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace bbsim::flow {

using ResourceId = std::uint32_t;
using FlowId = std::uint64_t;

inline constexpr double kUnlimited = std::numeric_limits<double>::infinity();

/// A capacity-constrained resource (bytes/second shared by its flows).
struct Resource {
  std::string name;
  double capacity = kUnlimited;
  // --- accounting (maintained by FlowManager, see manager.hpp) ---
  double bytes_served = 0.0;  ///< total bytes pushed through this resource
  double busy_time = 0.0;     ///< total time with at least one active flow
};

/// Parameters for a new flow.
struct FlowSpec {
  double volume = 0.0;                  ///< bytes to transfer (>= 0)
  std::vector<ResourceId> path;         ///< resources traversed (may be empty)
  double rate_cap = kUnlimited;         ///< per-flow ceiling (e.g. one POSIX stream)
  double weight = 1.0;                  ///< max-min share weight (> 0)
  /// Human-readable description for the timeline ("read f.fits pfs->host0").
  /// Empty unless timeline recording is on -- label construction costs
  /// allocations, so producers only fill it when someone will look.
  std::string label{};
};

/// Allocation state of one active flow.
struct FlowState {
  FlowSpec spec;
  double rate = 0.0;       ///< current allocation (bytes/second)
  bool bottlenecked_by_cap = false;  ///< true if the cap froze it (diagnostics)
};

/// One violated solver invariant, found by solve_issues(). `kOverCapacity`
/// means a resource's summed flow rates exceed its capacity (feasibility);
/// `kNotMaxMin` means a flow below its rate cap crosses no saturated
/// resource -- the max-min/KKT certificate fails: that flow's rate could be
/// raised without lowering any smaller flow.
struct SolveIssue {
  enum class Kind { kOverCapacity, kNotMaxMin };
  Kind kind = Kind::kOverCapacity;
  std::string subject;  ///< resource name (over-capacity) or flow id string
  std::string what;
};

class Network;

/// The flow layer's one instrument hook (exec::Instruments fans it out).
/// FlowManager installs it and hands it to its Network: the network reports
/// solves, the manager flows and settle intervals. Callbacks fire inline
/// after the layer's state changed and must not mutate it. With none
/// installed each call site costs one null-pointer test.
class FlowObserver {
 public:
  virtual ~FlowObserver() = default;
  /// A flow entered the network at `now`; `active` flows are now in flight.
  virtual void on_flow_begin(FlowId id, double now, const FlowSpec& spec,
                             std::size_t active) = 0;
  /// A flow started at `started` left at `now`: completed or cancelled.
  virtual void on_flow_end(FlowId id, double now, double started, bool completed,
                           std::size_t active) = 0;
  /// Brackets applying one settle interval of `dt` > 0 seconds ending at
  /// `now`; `bytes[r]` is what resource r moved in it.
  virtual void on_settle_begin() = 0;
  virtual void on_settled(const Network& net, double now, double dt,
                          std::span<const double> bytes) = 0;
  /// Brackets one solve: `rounds` water-filling rounds over `resolved`
  /// flows; every rate in `net` is then the new allocation.
  virtual void on_solve_begin() = 0;
  virtual void on_solved(const Network& net, int rounds, std::size_t resolved) = 0;
};

/// The set of resources and active flows, with the max-min solver.
class Network {
 public:
  Network() = default;

  /// Create a resource; `capacity` in bytes/second (kUnlimited allowed).
  ResourceId add_resource(std::string name, double capacity);

  std::size_t resource_count() const { return resources_.size(); }
  const Resource& resource(ResourceId id) const;
  Resource& resource(ResourceId id);

  /// Change a resource's capacity (used by interference injection). The
  /// caller is responsible for re-solving. A no-op value change does not
  /// dirty the resource.
  void set_capacity(ResourceId id, double capacity);

  /// Register a new flow. Rates are stale until solve() is called.
  FlowId add_flow(FlowSpec spec);

  /// Remove a flow (completed or aborted).
  void remove_flow(FlowId id);

  bool has_flow(FlowId id) const { return index_of(id) != kNoFlow; }
  std::size_t flow_count() const { return flows_.size(); }
  const FlowState& flow(FlowId id) const;

  /// Recompute flow rates with progressive filling. In incremental mode
  /// (the default) only the bottleneck-connected components touched since
  /// the last solve are re-solved -- O(dirty component) -- and untouched
  /// flows keep their converged rates; with set_incremental(false) every
  /// flow is re-solved from scratch, O(F * R) per freezing round. Returns
  /// the number of water-filling rounds run.
  int solve();

  /// Visit every flow the last solve() re-solved -- the flows whose rate it
  /// may have changed; every other flow kept its rate -- in ascending index
  /// order. `fn(FlowId, const FlowState&)` must not add or remove flows,
  /// and the set is only meaningful until the next mutation.
  template <typename Fn>
  void for_each_resolved(Fn&& fn) const {
    for (const std::size_t f : closure_flows_) fn(ids_[f], flows_[f]);
  }

  /// Toggle incremental solving (default on). Turning it off makes every
  /// solve() a full re-solve -- the benchmark baseline.
  void set_incremental(bool on) { incremental_ = on; }
  bool incremental() const { return incremental_; }

  /// All flow ids currently active, in creation order (deterministic).
  /// Creation order is tracked explicitly (an intrusive list), so it
  /// survives id recycling: a recycled id keeps its *new* flow's position,
  /// not the retired flow's numeric rank.
  std::vector<FlowId> flow_ids() const;

  /// Visit every active flow in creation order without allocating.
  /// `fn(FlowId, const FlowState&)` must not add or remove flows.
  template <typename Fn>
  void for_each_flow(Fn&& fn) const {
    for (FlowId id = head_; id != kNoId;) {
      const std::size_t i = id_to_index_[id];
      const FlowId next = links_[i].next;
      fn(id, flows_[i]);
      id = next;
    }
  }

  /// Size of the id -> index table. Bounded by the high-water mark of
  /// concurrently active flows (ids are recycled through a free-list), not
  /// by the total number of flows ever created.
  std::size_t id_table_size() const { return id_to_index_.size(); }

  // ------------------------------------------------------- invariant checks
  /// Returns every violated solver invariant: resources over capacity
  /// (feasibility) and flows below their cap with no saturated bottleneck
  /// (the max-min optimality certificate: no flow's rate can increase
  /// without decreasing a smaller one). Empty = the allocation is a valid
  /// weighted max-min optimum within `tolerance`. Always checks the whole
  /// network, so in audited runs every incremental solve is certified
  /// against the global optimum, not just the re-solved component.
  std::vector<SolveIssue> solve_issues(double tolerance = 1e-6) const;

  /// Throwing form of solve_issues(): raises InvariantError on the first
  /// violation. Used by tests and debug builds.
  void check_invariants(double tolerance = 1e-6) const;

  /// Install the observer told about every solve() (nullptr disables; the
  /// default). FlowManager::set_observer() installs its own here.
  void set_observer(FlowObserver* observer) { observer_ = observer; }

 private:
  static constexpr std::size_t kNoFlow = static_cast<std::size_t>(-1);
  static constexpr FlowId kNoId = static_cast<FlowId>(-1);

  /// One occurrence of a flow on a resource (a flow crossing a resource
  /// twice has two entries -- it consumes a double share).
  struct MemberRef {
    std::size_t flow;    ///< index into flows_
    std::uint32_t slot;  ///< which path entry of that flow
  };

  /// Reusable membership set over dense indices that yields its members in
  /// ascending order: a bitset plus a summary bitset of its non-zero words.
  /// All-zero between uses; drain() visits only the non-zero words, so one
  /// use costs O(members + capacity / 4096) -- no sort, no clearing pass.
  class IndexSet {
   public:
    void grow(std::size_t n) {
      if (words_.size() * 64 >= n) return;
      words_.resize((n + 63) / 64, 0);
      summary_.resize((words_.size() + 63) / 64, 0);
    }
    /// Adds `i`; false when it was already a member.
    bool insert(std::size_t i) {
      std::uint64_t& word = words_[i / 64];
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      if ((word & bit) != 0) return false;
      word |= bit;
      summary_[i / 4096] |= std::uint64_t{1} << (i / 64 % 64);
      return true;
    }
    /// Appends the members to `out` in ascending order and empties the set.
    template <typename T>
    void drain(std::vector<T>& out) {
      for (std::size_t s = 0; s < summary_.size(); ++s) {
        for (std::uint64_t used = summary_[s]; used != 0; used &= used - 1) {
          const std::size_t k = s * 64 + static_cast<std::size_t>(std::countr_zero(used));
          for (std::uint64_t word = words_[k]; word != 0; word &= word - 1) {
            out.push_back(static_cast<T>(k * 64 + static_cast<std::size_t>(std::countr_zero(word))));
          }
          words_[k] = 0;
        }
        summary_[s] = 0;
      }
    }

   private:
    std::vector<std::uint64_t> words_;    ///< bit i: member i
    std::vector<std::uint64_t> summary_;  ///< bit k: words_[k] != 0
  };

  /// Per-flow bookkeeping parallel to flows_ (swap-removed together).
  struct FlowLinks {
    FlowId prev = kNoId;  ///< creation-order intrusive list
    FlowId next = kNoId;
    /// Position of (this flow, slot k) inside members_[spec.path[k]].
    std::vector<std::uint32_t> member_pos;
  };

  std::vector<Resource> resources_;
  std::vector<FlowId> ids_;          // parallel arrays for cache-friendly solve
  std::vector<FlowState> flows_;
  std::vector<FlowLinks> links_;     // parallel to flows_
  std::vector<std::vector<MemberRef>> members_;  // per resource: crossing flows
  std::vector<std::size_t> id_to_index_;  // FlowId -> index, kNoFlow when gone
  std::vector<FlowId> free_ids_;     // recycled ids (keeps id_to_index_ bounded)
  FlowId next_flow_id_ = 0;
  FlowId head_ = kNoId;  ///< oldest active flow (creation order)
  FlowId tail_ = kNoId;  ///< newest active flow

  // --- dirty tracking between solves -------------------------------------
  bool incremental_ = true;
  bool solved_once_ = false;
  std::vector<char> res_dirty_;          // per resource: already in dirty_res_
  std::vector<ResourceId> dirty_res_;    // resources whose members/capacity changed
  std::vector<FlowId> dirty_flow_ids_;   // directly-dirtied flows (pathless adds)

  // --- arena-allocated solve scratch (zero steady-state allocation) ------
  IndexSet flow_set_;                         // flows enclosed so far
  IndexSet res_set_;                          // resources enclosed so far
  std::vector<ResourceId> res_queue_;         // closure BFS, discovery order
  std::vector<char> frozen_;                  // per flow index, closure only
  std::vector<double> frozen_load_;           // per resource, closure only
  std::vector<double> unfrozen_weight_;       // per resource, closure only
  std::vector<std::size_t> closure_flows_;    // flow indices, ascending
  std::vector<ResourceId> closure_res_;       // resource ids, ascending
  std::vector<std::size_t> to_freeze_;

  FlowObserver* observer_ = nullptr;

  std::size_t index_of(FlowId id) const {
    return id < id_to_index_.size() ? id_to_index_[id] : kNoFlow;
  }
  std::size_t checked_index(FlowId id) const;

  void mark_resource_dirty(ResourceId r);
  /// Computes closure_flows_ / closure_res_ for this solve: everything in
  /// full mode, the dirty-component closure in incremental mode.
  void build_closure();
  /// Progressive filling restricted to the closure. Returns rounds.
  int solve_closure();
};

}  // namespace bbsim::flow
