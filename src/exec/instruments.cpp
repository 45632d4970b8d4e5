#include "exec/instruments.hpp"

#include "exec/engine.hpp"

namespace bbsim::exec {

Instruments::Instruments(const ExecutionConfig& config, storage::StorageSystem& storage,
                         const wf::Workflow& workflow)
    : engine_(storage.fabric().engine()), services_(storage.service_count()) {
  const platform::Fabric& fabric = storage.fabric();
  const auto storage_name = [&storage](std::size_t s, const char* signal) {
    return "storage." + storage.service(s).name() + "." + signal;
  };
  if (config.collect_metrics) {
    metrics_ = std::make_unique<stats::MetricsRegistry>();
    events_scheduled_ = &metrics_->counter("sim.events_scheduled");
    events_executed_ = &metrics_->counter("sim.events_executed");
    events_cancelled_ = &metrics_->counter("sim.events_cancelled");
    queue_depth_ = &metrics_->gauge("sim.queue_depth");
    solve_calls_ = &metrics_->counter("flow.solve_calls");
    solve_rounds_ = &metrics_->counter("flow.solve_rounds");
    flows_resolved_ = &metrics_->counter("flow.solve_flows_resolved");
    rounds_hist_ = &metrics_->histogram("flow.solve_rounds_per_call");
    active_flows_ = &metrics_->gauge("flow.active_flows");
    transfer_hist_ = &metrics_->histogram("flow.transfer_seconds");
  }
  if (config.collect_timeline) {
    timeline_ = std::make_unique<trace::TimelineRecorder>();
    std::vector<std::string> host_names;
    for (const auto& h : fabric.spec().hosts) host_names.push_back(h.name);
    timeline_->set_host_names(std::move(host_names));
    queue_track_ = timeline_->counter_track("sim.queue_depth", "events");
  }
  for (std::size_t s = 0; s < services_.size(); ++s) {
    StorageSinks& sinks = services_[s];
    const double used = storage.service(s).used_bytes();
    // Occupancy signals start at the install-time value. The metrics series
    // takes one starting sample per occupancy instrument on (metrics, then
    // timeline); its published sample count depends on that.
    if (metrics_) {
      sinks.occupancy = &metrics_->gauge(storage_name(s, "occupancy_bytes"));
      sinks.occupancy_series = &metrics_->series(storage_name(s, "occupancy_bytes"));
      sinks.occupancy->set(used);
      sinks.occupancy_series->sample(engine_.now(), used);
    }
    if (timeline_) {
      sinks.occupancy_track = timeline_->counter_track(storage_name(s, "occupancy_bytes"), "bytes");
      sample_occupancy(s, used);
    }
  }
  for (std::size_t s = 0; s < services_.size() && (metrics_ || timeline_); ++s) {
    const platform::StorageResources& res = fabric.storage_resources(s);
    StorageSinks& sinks = services_[s];
    sinks.disks = res.disk_read;
    sinks.disks.insert(sinks.disks.end(), res.disk_write.begin(), res.disk_write.end());
    const std::string name = storage_name(s, "achieved_bandwidth");
    if (metrics_) sinks.bandwidth = &metrics_->series(name);
    if (timeline_) sinks.bandwidth_track = timeline_->counter_track(name, "bytes/s");
  }
  if (config.profile) {
    profiler_ = std::make_unique<trace::Profiler>();
    dispatch_ = profiler_->section("sim.dispatch");
    solve_ = profiler_->section("flow.solve");
    settle_ = profiler_->section("flow.settle");
  }
  if (config.audit) {
    auditor_ = std::make_unique<audit::Auditor>();
    engine_probe_ = std::make_unique<audit::EngineProbe>(*auditor_);
    storage_probe_ = std::make_unique<audit::StorageProbe>(
        *auditor_, [this] { return engine_.now(); });
    for (const std::string& f : workflow.file_names()) {
      storage_probe_->set_expected_size(f, workflow.file(f).size);
    }
    if (metrics_) auditor_->set_metrics(metrics_.get());
  }
}

void Instruments::on_settled(const flow::Network& net, double now, double dt,
                             std::span<const double> bytes) {
  if (settle_ != nullptr) settle_->end();
  if (metrics_) {
    if (util_series_.size() != net.resource_count()) {
      util_series_.resize(net.resource_count());
      for (flow::ResourceId r = 0; r < net.resource_count(); ++r) {
        util_series_[r] = &metrics_->series("flow.util." + net.resource(r).name);
      }
    }
    // Every finite-capacity resource gets a sample each interval (including
    // zero-utilization ones) so the series' time-weighted mean stays exact.
    for (flow::ResourceId r = 0; r < net.resource_count(); ++r) {
      const double cap = net.resource(r).capacity;
      if (cap <= 0.0 || cap == flow::kUnlimited) continue;
      util_series_[r]->sample(now, bytes[r] / (cap * dt), dt);
    }
  }
  // Achieved bandwidth: bytes actually moved / dt, not the allocated rate.
  for (const StorageSinks& sinks : services_) {
    double moved = 0.0;
    for (const flow::ResourceId r : sinks.disks) moved += bytes[r];
    const double bandwidth = moved / dt;
    if (metrics_) sinks.bandwidth->sample(now, bandwidth, dt);
    if (timeline_) timeline_->counter_sample(sinks.bandwidth_track, now, bandwidth);
  }
}

void Instruments::on_solved(const flow::Network& net, int rounds, std::size_t resolved) {
  if (solve_ != nullptr) solve_->end();
  if (metrics_) {
    solve_calls_->add(1.0);
    solve_rounds_->add(static_cast<double>(rounds));
    flows_resolved_->add(static_cast<double>(resolved));
    rounds_hist_->record(static_cast<double>(rounds));
  }
  if (auditor_) audit::audit_flow_network(*auditor_, net, engine_.now());
  if (timeline_) {
    // Each flow's allocated rate is a change point of its span (flow_rate
    // drops unchanged rates, so a stable allocation costs one point).
    net.for_each_flow([this](flow::FlowId id, const flow::FlowState& st) {
      timeline_->flow_rate(id, engine_.now(), st.rate);
    });
  }
}

}  // namespace bbsim::exec
