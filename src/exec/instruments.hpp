// bbsim -- exec::Instruments: the one observer a simulation's layers report to.
//
// The engine, the flow layer and the storage services each have one nullable
// observer hook and know nothing of metrics or traces. Instruments implements
// all three hooks and fans each callback out to the instruments a run turned
// on -- metrics registry, timeline recorder, wall-clock profiler, auditor and
// probes -- so every metric, track and profile-section name those layers
// publish is chosen here. A run with none on installs no observer.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "audit/probes.hpp"
#include "flow/network.hpp"
#include "sim/engine.hpp"
#include "stats/metrics.hpp"
#include "storage/system.hpp"
#include "trace/profiler.hpp"
#include "trace/timeline.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::exec {

struct ExecutionConfig;

class Instruments final : public sim::EngineObserver,
                          public flow::FlowObserver,
                          public storage::StorageObserver {
 public:
  /// Builds the instruments `config` turns on (metrics, timeline, profiler,
  /// auditor) for one run on `storage`'s fabric; the auditor holds replicas
  /// to `workflow`'s file sizes. Install the result with one set_observer()
  /// call per layer. The fabric must outlive this object.
  Instruments(const ExecutionConfig& config, storage::StorageSystem& storage,
              const wf::Workflow& workflow);
  Instruments(const Instruments&) = delete;
  Instruments& operator=(const Instruments&) = delete;

  /// The live instruments; nullptr for those the config left off.
  stats::MetricsRegistry* metrics() { return metrics_.get(); }
  trace::TimelineRecorder* timeline() { return timeline_.get(); }
  trace::Profiler* profiler() { return profiler_.get(); }
  audit::Auditor* auditor() { return auditor_.get(); }

  /// End-of-run storage balance check; no-op without an auditor.
  void finalize_audit() {
    if (storage_probe_) storage_probe_->finalize();
  }

  void on_scheduled(sim::EventId id, sim::Time now, sim::Time when) override {
    if (engine_probe_) engine_probe_->on_scheduled(id, now, when);
    queue_changed(events_scheduled_);
  }
  void on_executed(sim::EventId id, sim::Time when) override {
    if (engine_probe_) engine_probe_->on_executed(id, when);
    queue_changed(events_executed_);
    if (dispatch_ != nullptr) dispatch_->begin();
  }
  void on_dispatched(sim::EventId /*id*/) override {
    if (dispatch_ != nullptr) dispatch_->end();
  }
  void on_cancelled(sim::EventId id) override {
    if (engine_probe_) engine_probe_->on_cancelled(id);
    queue_changed(events_cancelled_);
  }

  void on_flow_begin(flow::FlowId id, double now, const flow::FlowSpec& spec,
                     std::size_t active) override {
    if (metrics_) active_flows_->set(static_cast<double>(active));
    if (timeline_) timeline_->flow_begin(id, now, spec.label, spec.volume);
  }
  void on_flow_end(flow::FlowId id, double now, double started, bool completed,
                   std::size_t active) override {
    if (metrics_) {
      active_flows_->set(static_cast<double>(active));
      if (completed) transfer_hist_->record(now - started);
    }
    if (timeline_) timeline_->flow_end(id, now, completed);
  }
  void on_settle_begin() override {
    if (settle_ != nullptr) settle_->begin();
  }
  void on_settled(const flow::Network& net, double now, double dt,
                  std::span<const double> bytes) override;
  void on_solve_begin() override {
    if (solve_ != nullptr) solve_->begin();
  }
  void on_solved(const flow::Network& net, int rounds, std::size_t resolved) override;

  bool wants_flow_labels() const override { return timeline_ != nullptr; }
  void on_occupancy_change(const storage::StorageService& svc, const std::string& file,
                           double delta, double used_after) override {
    if (storage_probe_) storage_probe_->on_occupancy_change(svc, file, delta, used_after);
    sample_occupancy(svc.storage_index(), used_after);
  }
  void on_replica_created(const storage::StorageService& svc,
                          const storage::FileRef& file) override {
    if (storage_probe_) storage_probe_->on_replica_created(svc, file);
  }
  void on_replica_erased(const storage::StorageService& svc, const std::string& file,
                         double size) override {
    if (storage_probe_) storage_probe_->on_replica_erased(svc, file, size);
  }

 private:
  /// What one storage service publishes: its occupancy, and the achieved
  /// bandwidth of its disks (read + write channels) -- the time-resolved
  /// Figure 9 signal.
  struct StorageSinks {
    stats::Gauge* occupancy = nullptr;
    stats::TimeSeries* occupancy_series = nullptr;
    trace::TrackId occupancy_track = 0;
    std::vector<flow::ResourceId> disks;
    stats::TimeSeries* bandwidth = nullptr;
    trace::TrackId bandwidth_track = 0;
  };

  sim::Engine& engine_;
  std::unique_ptr<stats::MetricsRegistry> metrics_;
  std::unique_ptr<trace::TimelineRecorder> timeline_;
  std::unique_ptr<trace::Profiler> profiler_;
  std::unique_ptr<audit::Auditor> auditor_;
  std::unique_ptr<audit::EngineProbe> engine_probe_;
  std::unique_ptr<audit::StorageProbe> storage_probe_;

  // Cached sinks, set iff their instrument is on: no name lookup per event.
  stats::Counter* events_scheduled_ = nullptr;
  stats::Counter* events_executed_ = nullptr;
  stats::Counter* events_cancelled_ = nullptr;
  stats::Gauge* queue_depth_ = nullptr;
  trace::TrackId queue_track_ = 0;
  stats::Counter* solve_calls_ = nullptr;
  stats::Counter* solve_rounds_ = nullptr;
  stats::Counter* flows_resolved_ = nullptr;
  stats::Histogram* rounds_hist_ = nullptr;
  stats::Gauge* active_flows_ = nullptr;
  stats::Histogram* transfer_hist_ = nullptr;
  /// Per-resource utilization series, made at the first settle interval.
  std::vector<stats::TimeSeries*> util_series_;
  std::vector<StorageSinks> services_;  ///< by storage index
  trace::ProfileSection* dispatch_ = nullptr;
  trace::ProfileSection* settle_ = nullptr;
  trace::ProfileSection* solve_ = nullptr;

  /// Counts one queue event into `events` and samples the live depth.
  void queue_changed(stats::Counter* events) {
    const double depth = static_cast<double>(engine_.pending_count());
    if (metrics_) {
      events->add(1.0);
      queue_depth_->set(depth);
    }
    if (timeline_) timeline_->counter_sample(queue_track_, engine_.now(), depth);
  }
  /// Records service `s`'s occupancy `used` into the metrics and timeline.
  void sample_occupancy(std::size_t s, double used) {
    const StorageSinks& sinks = services_[s];
    if (metrics_) {
      sinks.occupancy->set(used);
      sinks.occupancy_series->sample(engine_.now(), used);
    }
    if (timeline_) timeline_->counter_sample(sinks.occupancy_track, engine_.now(), used);
  }
};

}  // namespace bbsim::exec
