/// \file
/// bbsim::trace -- the structured virtual-time timeline behind
/// `--timeline-out`: the time-resolved view of a run the paper's whole
/// Section III characterization is drawn from (per-phase task timings,
/// achieved storage bandwidth over time, burst-buffer occupancy).
///
/// One opt-in TimelineRecorder per run records (exec::Instruments feeds
/// it from the engine, flow and storage observer hooks):
///
///   task spans     one per executed task, split into read / compute /
///                  write phases (from TaskRecord, added by exec);
///   flow spans     one per flow (file transfer or metadata burst) with its
///                  label, byte volume and every change of its max-min
///                  allocated bandwidth;
///   counter tracks BB occupancy, per-storage achieved bandwidth (the
///                  time-resolved Figure 9), event-queue depth.
///
/// The finished Timeline exports Chrome/Perfetto trace-event JSON
/// (Timeline::to_perfetto) that loads directly in https://ui.perfetto.dev
/// or chrome://tracing. Export is deterministic: spans carry only virtual
/// time, lanes are assigned by a stable greedy first-fit, tracks are
/// name-sorted, so two identical runs serialise byte-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "json/json.hpp"

namespace bbsim::trace {

/// One executed task, with the paper's read/compute/write phase split.
struct TaskSpan {
  std::string name;
  std::string type;
  std::size_t host = 0;
  int cores = 1;
  double t_ready = 0.0;
  double t_start = 0.0;
  double t_reads_done = 0.0;
  double t_compute_done = 0.0;
  double t_end = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  std::size_t lane = 0;  ///< display lane on its host (assigned by finish())
};

/// One (time, allocated bandwidth) change point of a flow.
struct RatePoint {
  double time = 0.0;
  double rate = 0.0;  ///< bytes/second granted by the max-min solver
};

/// One flow through the platform (a file transfer or a metadata burst).
struct FlowSpan {
  std::string label;  ///< e.g. "read resample_0.fits pfs->host0"
  double t_begin = 0.0;
  double t_end = 0.0;
  double bytes = 0.0;
  bool completed = false;        ///< false: aborted or still open at finish()
  std::vector<RatePoint> rates;  ///< dedup'd allocated-bandwidth changes
  std::size_t lane = 0;          ///< display lane (assigned by finish())

  double duration() const { return t_end - t_begin; }
  double mean_rate() const {
    const double d = duration();
    return d > 0.0 ? bytes / d : 0.0;
  }
};

/// One sample of a counter track.
struct CounterSample {
  double time = 0.0;
  double value = 0.0;
};

/// A named counter track (BB occupancy, achieved bandwidth, queue depth).
struct CounterTrack {
  std::string name;
  std::string unit;  ///< "bytes", "bytes/s", "events" -- documentation only
  std::vector<CounterSample> samples;
};

/// One causal edge of the critical path, linking two task spans. Exported
/// as a Perfetto flow-event pair ("s" on the upstream span, "f" on the
/// downstream one) so the path is visible across timeline lanes.
struct CritLink {
  std::string from_task;
  std::string to_task;
  double time = 0.0;  ///< handoff time (upstream end / downstream pick-up)
};

/// Handle to a counter track, cached by publishers (no name lookup on the
/// sampling path).
using TrackId = std::size_t;

/// The finished, immutable timeline of one run.
struct Timeline {
  std::vector<std::string> host_names;  ///< index = host id
  std::vector<TaskSpan> tasks;          ///< sorted by (host, t_start, name)
  std::vector<FlowSpan> flows;          ///< in begin order
  std::vector<CounterTrack> counters;   ///< sorted by name
  std::vector<CritLink> critpath_links; ///< in path order (may be empty)
  /// When set (TimelineRecorder::set_wait_spans), each task whose t_ready
  /// precedes t_start additionally exports a "wait" span over
  /// [t_ready, t_start) on its lane, and lanes are packed over
  /// [t_ready, t_end] so the wait is visible. Off by default: the classic
  /// layout (and its golden exports) is unchanged. The batch layer turns
  /// this on so queue delay shows up per job.
  bool wait_spans = false;

  /// Chrome trace-event JSON ("traceEvents" array of "X"/"C"/"M" events,
  /// timestamps in microseconds). Deterministic for identical runs. Layout:
  /// one process per host (task lanes as threads), one "flows" process
  /// (transfer lanes as threads), one "counters" process.
  json::Value to_perfetto() const;
};

/// The collection side: layers publish spans and samples while the
/// simulation runs; finish() seals the data into a Timeline.
///
/// The recorder is single-run, single-threaded state (each Simulation owns
/// its own, like its MetricsRegistry), so sweep workers never share one.
class TimelineRecorder {
 public:
  TimelineRecorder() = default;
  TimelineRecorder(const TimelineRecorder&) = delete;
  TimelineRecorder& operator=(const TimelineRecorder&) = delete;

  // ------------------------------------------------------- counter tracks
  /// Create (or fetch) the track named `name`; `unit` is informational.
  TrackId counter_track(const std::string& name, const std::string& unit);
  /// Append one sample. Samples at the same timestamp coalesce (last value
  /// wins) so per-event publishers cannot bloat the track within one
  /// simulated instant.
  void counter_sample(TrackId track, double time, double value);

  // ---------------------------------------------------------------- flows
  /// A flow with engine id `flow_id` started. Ids may be recycled by the
  /// flow network; a begin for a closed id opens a fresh span.
  void flow_begin(std::uint64_t flow_id, double time, std::string label,
                  double bytes);
  /// The solver granted `rate` bytes/s at `time` (dedup'd: consecutive
  /// identical rates collapse; infinite rates are skipped).
  void flow_rate(std::uint64_t flow_id, double time, double rate);
  /// The flow finished (`completed`) or was aborted (`!completed`).
  void flow_end(std::uint64_t flow_id, double time, bool completed);

  // ---------------------------------------------------------------- tasks
  void add_task(TaskSpan span);
  void set_host_names(std::vector<std::string> names);
  /// Record one critical-path edge (exported as Perfetto "s"/"f" flow
  /// events). Call before finish(), in path order.
  void add_critpath_link(std::string from_task, std::string to_task,
                         double time);
  /// Export queue-wait spans and pack lanes from t_ready (see
  /// Timeline::wait_spans). Call before finish().
  void set_wait_spans(bool on);

  // ---------------------------------------------------------- inspection
  std::size_t task_count() const { return timeline_.tasks.size(); }
  std::size_t flow_count() const { return timeline_.flows.size(); }
  std::size_t open_flow_count() const { return open_flows_.size(); }
  std::size_t counter_track_count() const { return timeline_.counters.size(); }

  /// Seal the timeline: close any still-open flows at their last known
  /// time, sort tracks by name, assign display lanes. The recorder is
  /// empty afterwards.
  Timeline finish();

 private:
  Timeline timeline_;
  std::unordered_map<std::uint64_t, std::size_t> open_flows_;  ///< id -> index
};

}  // namespace bbsim::trace
