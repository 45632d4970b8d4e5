#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "alloc_count.hpp"
#include "batch/generator.hpp"
#include "batch/job.hpp"
#include "batch/payload.hpp"
#include "batch/report.hpp"
#include "batch/scheduler.hpp"
#include "exec/engine.hpp"
#include "exec/placement.hpp"
#include "oracle/diff.hpp"
#include "oracle/replay.hpp"
#include "platform/presets.hpp"
#include "sweep/runner.hpp"
#include "testbed/testbed.hpp"
#include "util/rng.hpp"
#include "workflow/genomes.hpp"
#include "workflow/random_dag.hpp"
#include "workflow/swarp.hpp"

namespace perfbench {

using namespace bbsim;
using Clock = std::chrono::steady_clock;

namespace {

/// Set-ups timed per run for setup_s where one set-up is cheap (the scale
/// workloads time theirs per iteration, at least three).
constexpr std::size_t kSetupSamples = 60;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Index of the median element (lower median) of a non-empty sample.
std::size_t median_index(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  return order[(order.size() - 1) / 2];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool bitwise_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string hex64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

// FNV-1a over every (job id, start bit pattern) pair: one policy's whole
// schedule, bit for bit (the same fingerprint BENCH_batch.json pins).
std::string schedule_hash(const batch::FleetResult& result) {
  std::uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  for (const batch::JobOutcome& job : result.jobs) {
    const std::uint64_t id = job.id;
    mix(&id, sizeof id);
    mix(&job.start, sizeof job.start);
  }
  return hex64(hash);
}

// ------------------------------------------------------------ layer data

/// Work and time one or more simulations spent inside the simulator's own
/// layers, read after run() from the profiler sections, the metrics
/// registry and Result::storage.
struct SimCounters {
  double placement_s = 0, dispatch_s = 0, solve_s = 0;
  double tasks_completed = 0, demoted_writes = 0;
  double events_executed = 0, events_scheduled = 0, events_cancelled = 0;
  double queue_depth_peak = 0;
  double solve_calls = 0, solve_rounds = 0, flows_resolved = 0, active_flows_peak = 0;
  double bb_bytes = 0, pfs_bytes = 0;

  void add(exec::Simulation& sim, const exec::Result& result) {
    if (const trace::Profiler* profiler = sim.profiler()) {
      for (const auto& section : profiler->sections()) {
        if (section->name == "exec.placement") placement_s += section->total_seconds;
        if (section->name == "sim.dispatch") dispatch_s += section->total_seconds;
        if (section->name == "flow.solve") solve_s += section->total_seconds;
      }
    }
    if (const stats::MetricsRegistry* registry = sim.metrics()) {
      auto counter = [registry](const char* name) {
        const stats::Counter* c = registry->find_counter(name);
        return c != nullptr ? c->value() : 0.0;
      };
      auto peak = [registry](const char* name) {
        const stats::Gauge* g = registry->find_gauge(name);
        return g != nullptr ? g->peak() : 0.0;
      };
      tasks_completed += counter("exec.tasks_completed");
      demoted_writes += counter("exec.demoted_writes");
      events_executed += counter("sim.events_executed");
      events_scheduled += counter("sim.events_scheduled");
      events_cancelled += counter("sim.events_cancelled");
      solve_calls += counter("flow.solve_calls");
      solve_rounds += counter("flow.solve_rounds");
      flows_resolved += counter("flow.solve_flows_resolved");
      queue_depth_peak = std::max(queue_depth_peak, peak("sim.queue_depth"));
      active_flows_peak = std::max(active_flows_peak, peak("flow.active_flows"));
    }
    for (const exec::StorageCounters& c : result.storage) {
      if (c.service.rfind("bb", 0) == 0) bb_bytes += c.bytes_served;
      if (c.service.rfind("pfs", 0) == 0) pfs_bytes += c.bytes_served;
    }
  }

  void merge(const SimCounters& o) {
    placement_s += o.placement_s;
    dispatch_s += o.dispatch_s;
    solve_s += o.solve_s;
    tasks_completed += o.tasks_completed;
    demoted_writes += o.demoted_writes;
    events_executed += o.events_executed;
    events_scheduled += o.events_scheduled;
    events_cancelled += o.events_cancelled;
    queue_depth_peak = std::max(queue_depth_peak, o.queue_depth_peak);
    solve_calls += o.solve_calls;
    solve_rounds += o.solve_rounds;
    flows_resolved += o.flows_resolved;
    active_flows_peak = std::max(active_flows_peak, o.active_flows_peak);
    bb_bytes += o.bb_bytes;
    pfs_bytes += o.pfs_bytes;
  }

  /// The deterministic part: everything but the profiler times.
  bool same_work(const SimCounters& o) const {
    return tasks_completed == o.tasks_completed && demoted_writes == o.demoted_writes &&
           events_executed == o.events_executed && events_scheduled == o.events_scheduled &&
           events_cancelled == o.events_cancelled && queue_depth_peak == o.queue_depth_peak &&
           solve_calls == o.solve_calls && solve_rounds == o.solve_rounds &&
           flows_resolved == o.flows_resolved && active_flows_peak == o.active_flows_peak &&
           bitwise_equal(bb_bytes, o.bb_bytes) && bitwise_equal(pfs_bytes, o.pfs_bytes);
  }
};

/// Every per-layer number of one traced iteration. Fields of layers a
/// workload never enters stay 0.
struct Layers {
  double generate_s = 0, tasks = 0;
  double construct_s = 0, run_s = 0;
  SimCounters sim;
  double untraced_run_s = 0;  ///< exec.run_s of the untraced iterations (median)
  double report_s = 0, report_bytes = 0;
  double sweep_busy_s = 0, sweep_wall_s = 0, sweep_workers = 0;
  double payload_s = 0, payloads_resolved = 0, jobs = 0;
  double schedule_s[std::size(batch::kAllPolicies)] = {};
  double untraced_s = 0, traced_s = 0;
  alloc::Totals allocs;
};

void emit_layers(Report& r, const Layers& l) {
  const SimCounters& s = l.sim;
  r.metric("workflow.generate_s", l.generate_s, "s");
  r.metric("workflow.tasks", l.tasks, "count");
  r.metric("exec.construct_s", l.construct_s, "s");
  r.metric("exec.run_s", l.run_s, "s");
  r.metric("exec.placement_s", s.placement_s, "s");
  r.metric("exec.tasks_completed", s.tasks_completed, "count");
  r.metric("exec.demoted_writes", s.demoted_writes, "count");
  r.metric("sim.dispatch_s", s.dispatch_s, "s");
  r.metric("sim.dispatch_self_s", s.dispatch_s - s.solve_s - s.placement_s, "s",
           "sim.dispatch_s - flow.solve_s - exec.placement_s");
  r.metric("sim.events_executed", s.events_executed, "count");
  r.metric("sim.events_scheduled", s.events_scheduled, "count");
  r.metric("sim.events_cancelled", s.events_cancelled, "count");
  r.metric("sim.cancel_ratio", ratio(s.events_cancelled, s.events_scheduled), "ratio",
           "sim.events_scheduled");
  r.metric("sim.queue_depth_peak", s.queue_depth_peak, "count");
  char base[160];
  std::snprintf(base, sizeof base, "untraced exec.run_s %.6g s / sim.events_executed",
                l.untraced_run_s);
  r.metric("sim.us_per_event", 1e6 * ratio(l.untraced_run_s, s.events_executed), "us", base);
  r.metric("flow.solve_s", s.solve_s, "s");
  r.metric("flow.solve_calls", s.solve_calls, "count");
  r.metric("flow.solve_rounds", s.solve_rounds, "count");
  r.metric("flow.flows_per_solve", ratio(s.flows_resolved, s.solve_calls), "ratio",
           "flow.solve_calls");
  r.metric("flow.active_flows_peak", s.active_flows_peak, "count");
  r.metric("storage.bb_bytes", s.bb_bytes, "B");
  r.metric("storage.pfs_bytes", s.pfs_bytes, "B");
  r.metric("json.report_s", l.report_s, "s");
  r.metric("json.report_bytes", l.report_bytes, "B");
  r.metric("sweep.busy_s", l.sweep_busy_s, "s");
  r.metric("sweep.idle_s", l.sweep_workers * l.sweep_wall_s - l.sweep_busy_s, "s",
           "sweep.workers x sweep.wall_s - sweep.busy_s");
  r.metric("sweep.wall_s", l.sweep_wall_s, "s");
  r.metric("sweep.workers", l.sweep_workers, "count");
  r.metric("sweep.parallel_eff", ratio(l.sweep_busy_s, l.sweep_workers * l.sweep_wall_s),
           "ratio", "sweep.workers x sweep.wall_s");
  r.metric("batch.payload_s", l.payload_s, "s");
  r.metric("batch.payloads_resolved", l.payloads_resolved, "count");
  r.metric("batch.jobs", l.jobs, "count");
  for (std::size_t p = 0; p < std::size(batch::kAllPolicies); ++p) {
    r.metric(std::string("batch.schedule_s.") + batch::to_string(batch::kAllPolicies[p]),
             l.schedule_s[p], "s");
  }
  r.metric("instruments.untraced_s", l.untraced_s, "s");
  r.metric("instruments.traced_s", l.traced_s, "s");
  r.metric("instruments.overhead_ratio", ratio(l.traced_s, l.untraced_s), "ratio",
           "instruments.untraced_s");
  r.metric("alloc.count", static_cast<double>(l.allocs.count), "count");
  r.metric("alloc.bytes", static_cast<double>(l.allocs.bytes), "B");
  r.metric("alloc.per_task", ratio(static_cast<double>(l.allocs.count), l.tasks), "count/task",
           "workflow.tasks");
  r.metric("alloc.peak_rss_mib", peak_rss_mib(), "MiB");
}

/// One end-to-end figure and the base it is printed with.
struct Figure {
  double value = 0;
  std::string base;
};

/// The end-to-end table; set-up time is the median of `setups`.
void emit_end_to_end(Report& r, const std::vector<double>& setups, const Figure& tasks_per_s,
                     const Figure& sim_p50_s, const Figure& sim_p90_s, const Figure& jobs_per_s) {
  r.metric("setup_s", median(setups), "s",
           "median of " + std::to_string(setups.size()) + " set-ups");
  r.metric("tasks_per_s", tasks_per_s.value, "1/s", tasks_per_s.base);
  r.metric("sim_p50_s", sim_p50_s.value, "s", sim_p50_s.base);
  r.metric("sim_p90_s", sim_p90_s.value, "s", sim_p90_s.base);
  r.metric("jobs_per_s", jobs_per_s.value, "1/s", jobs_per_s.base);
  r.metric("peak_rss_mib", peak_rss_mib(), "MiB", "ru_maxrss of this process");
}

/// The end-to-end table of the scale and campaign workloads, where a job is
/// one simulation. Each measured iteration (a whole campaign or scale
/// simulation) completes `tasks` tasks in `simulations` simulations and
/// took `seconds`; the rates are all iterations' work over all their time,
/// which the host's swings in speed move less than a median of a few
/// per-iteration rates. `latencies` are single-simulation host times.
void emit_simulation_end_to_end(Report& r, const std::vector<double>& setups, double tasks,
                                double simulations, const std::vector<double>& seconds,
                                const std::vector<double>& latencies) {
  double total_s = 0;
  for (const double s : seconds) total_s += s;
  const double n = static_cast<double>(seconds.size());
  const std::string iterations = "over " + std::to_string(seconds.size()) + " iterations";
  const std::string samples = "n=" + std::to_string(latencies.size()) + " simulations";
  emit_end_to_end(r, setups, {n * tasks / total_s, iterations},
                  {quantile(latencies, 0.5), samples}, {quantile(latencies, 0.9), samples},
                  {n * simulations / total_s, "simulations, " + iterations});
}

// ------------------------------------------------- scale_wide / scale_deep
//
// One make_scale_dag workflow on 128 Summit nodes, all_bb placement and the
// default ExecutionConfig. scale_wide keeps ~1k flows in flight, so the
// per-event walk over active flows dominates; scale_deep keeps at most ~60
// in flight, so exec scheduling, string-keyed task state and the event
// queue dominate, and its set-up is heavy.

struct ScaleShape {
  std::size_t tasks;
  std::size_t width;
};

ScaleShape scale_shape(const std::string& workload, Size size) {
  const bool wide = workload == "scale_wide";
  if (size == Size::Toy) return wide ? ScaleShape{1024, 64} : ScaleShape{2048, 8};
  return wide ? ScaleShape{16384, 1024} : ScaleShape{100000, 64};
}

platform::PlatformSpec scale_platform() {
  platform::PresetOptions options;
  options.compute_nodes = 128;
  return platform::summit_platform(options);
}

wf::Workflow make_scale_workflow(const ScaleShape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  wf::ScaleDagConfig config;
  config.task_count = shape.tasks;
  config.width = shape.width;
  return wf::make_scale_dag(config, rng);
}

struct ScaleIteration {
  double generate_s = 0, construct_s = 0, run_s = 0;
  double makespan = 0;
  bool complete = false;
  SimCounters counters;
  alloc::Totals allocs;
  double report_s = 0;
  std::size_t report_size = 0;
  std::string report;  ///< set only when serialized
};

ScaleIteration scale_once(const ScaleShape& shape, std::uint64_t seed, bool traced,
                          bool serialize) {
  ScaleIteration it;
  exec::Result result;
  {
    // Scoped so the workflow and the simulation are gone before the
    // report is serialized.
    if (traced) alloc::start();
    const Clock::time_point t0 = Clock::now();
    const wf::Workflow workflow = make_scale_workflow(shape, seed);
    const Clock::time_point t1 = Clock::now();
    exec::ExecutionConfig config;
    config.collect_metrics = traced;
    config.profile = traced;
    exec::Simulation sim(scale_platform(), workflow, config);
    const Clock::time_point t2 = Clock::now();
    result = sim.run();
    const Clock::time_point t3 = Clock::now();
    if (traced) it.allocs = alloc::stop();
    it.generate_s = std::chrono::duration<double>(t1 - t0).count();
    it.construct_s = std::chrono::duration<double>(t2 - t1).count();
    it.run_s = std::chrono::duration<double>(t3 - t2).count();
    if (traced) it.counters.add(sim, result);
  }
  it.makespan = result.makespan;
  it.complete = std::isfinite(result.makespan) && result.makespan > 0 &&
                result.tasks.size() == shape.tasks &&
                std::all_of(result.tasks.begin(), result.tasks.end(), [&](const auto& kv) {
                  return kv.second.t_end <= result.makespan;
                });
  if (serialize) {
    const Clock::time_point t4 = Clock::now();
    it.report = result.to_json().dump();
    it.report_s = since(t4);
    it.report_size = it.report.size();
  }
  return it;
}

double scale_setup_once(const ScaleShape& shape, std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  const wf::Workflow workflow = make_scale_workflow(shape, seed);
  const exec::Simulation sim(scale_platform(), workflow, exec::ExecutionConfig{});
  return since(t0);
}

void run_scale(const Options& o, Report& r) {
  const ScaleShape shape = scale_shape(o.workload, o.size);
  std::vector<ScaleIteration> untraced, traced;
  const Clock::time_point start = Clock::now();
  do {
    untraced.push_back(scale_once(shape, o.seed, false, o.trace));
    if (o.trace) {
      if (untraced.size() > 1) {
        r.check(untraced.back().report == untraced.front().report,
                "report bytes repeat across iterations");
        std::string().swap(untraced.back().report);
      }
      traced.push_back(scale_once(shape, o.seed, true, false));
    }
  } while (since(start) < o.seconds);

  const double reference = untraced.front().makespan;
  for (const ScaleIteration& it : untraced) {
    r.check(it.complete, "every task completed by the makespan");
    r.check(bitwise_equal(it.makespan, reference), "makespan repeats across iterations");
  }
  for (const ScaleIteration& it : traced) {
    r.check(bitwise_equal(it.makespan, reference), "instruments leave the makespan unchanged");
    r.check(it.counters.same_work(traced.front().counters),
            "layer work counts repeat across traced iterations");
  }

  if (!o.trace) {
    std::vector<double> setups, latencies;
    for (const ScaleIteration& it : untraced) {
      setups.push_back(it.generate_s + it.construct_s);
      latencies.push_back(it.construct_s + it.run_s);
    }
    while (setups.size() < 3) setups.push_back(scale_setup_once(shape, o.seed));
    emit_simulation_end_to_end(r, setups, static_cast<double>(shape.tasks), 1.0, latencies,
                               latencies);
    return;
  }

  // The instruments' overhead is taken over the simulation (construction
  // and run); generation does not see them.
  std::vector<double> untraced_s, untraced_run_s, traced_s;
  for (const ScaleIteration& it : untraced) {
    untraced_s.push_back(it.construct_s + it.run_s);
    untraced_run_s.push_back(it.run_s);
  }
  for (const ScaleIteration& it : traced) traced_s.push_back(it.construct_s + it.run_s);
  const ScaleIteration& mid = traced[median_index(traced_s)];
  const ScaleIteration& mid_untraced = untraced[median_index(untraced_s)];
  Layers l;
  l.generate_s = mid.generate_s;
  l.tasks = static_cast<double>(shape.tasks);
  l.construct_s = mid.construct_s;
  l.run_s = mid.run_s;
  l.sim = mid.counters;
  l.untraced_run_s = median(untraced_run_s);
  l.report_s = mid_untraced.report_s;
  l.report_bytes = static_cast<double>(mid_untraced.report_size);
  l.untraced_s = median(untraced_s);
  l.traced_s = median(traced_s);
  l.allocs = mid.allocs;
  emit_layers(r, l);
}

// ------------------------------------------------------------ paper_campaign
//
// The paper's own simulations through sweep::SweepRunner, each result
// serialized by Result::to_json: 1000Genomes (instant stage-in, 4 nodes) on
// the three systems x staged fraction 0..1 x the 4 scheduler policies, and
// SWarp with per-pipeline stage-in tasks at 1..32 pipelines on the three
// systems. Many short simulations, so construction, placement and
// reporting weigh more than on the scale DAGs. The seed scales every
// compute time and file size by its own factor in [0.9, 1.1].

constexpr testbed::System kSystems[] = {testbed::System::CoriPrivate,
                                        testbed::System::CoriStriped, testbed::System::Summit};
constexpr exec::SchedulerPolicy kExecPolicies[] = {
    exec::SchedulerPolicy::Fcfs, exec::SchedulerPolicy::CriticalPathFirst,
    exec::SchedulerPolicy::LargestFirst, exec::SchedulerPolicy::SmallestFirst};

struct CampaignRun {
  std::string name;
  std::size_t workflow = 0;
  std::size_t platform = 0;
  exec::ExecutionConfig config;
};

struct Campaign {
  std::vector<wf::Workflow> workflows;
  std::vector<platform::PlatformSpec> platforms;
  std::vector<CampaignRun> runs;
  double tasks = 0;  ///< summed over runs
};

Campaign make_campaign(std::uint64_t seed, Size size) {
  const bool toy = size == Size::Toy;
  util::Rng rng(seed);
  auto jitter = [&rng]() { return rng.uniform(0.9, 1.1); };
  Campaign c;

  wf::GenomesConfig g;
  if (toy) {
    g.chromosomes = 2;
    g.individuals_per_chromosome = 4;
  }
  for (double* v : {&g.chunk_size, &g.individuals_out_size, &g.merged_size,
                    &g.sifting_in_size, &g.sifted_size, &g.population_raw_size,
                    &g.population_size, &g.overlap_out_size, &g.individuals_seconds,
                    &g.merge_seconds, &g.sifting_seconds, &g.pair_seconds, &g.freq_seconds,
                    &g.populations_seconds}) {
    *v *= jitter();
  }
  c.workflows.push_back(wf::make_1000genomes(g));

  const double image_scale = jitter(), resample_scale = jitter(), combine_scale = jitter();
  const std::vector<int> pipelines = toy ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8, 16, 32};
  for (const int p : pipelines) {
    wf::SwarpConfig s;
    s.pipelines = p;
    s.cores_per_task = 1;
    s.stage_in_per_pipeline = true;
    s.image_size *= image_scale;
    s.weight_size *= image_scale;
    s.resample_seq_seconds *= resample_scale;
    s.combine_seq_seconds *= combine_scale;
    c.workflows.push_back(wf::make_swarp(s));
  }

  for (const testbed::System system : kSystems) {
    c.platforms.push_back(testbed::paper_platform(system, 4));  // 1000Genomes
    c.platforms.push_back(testbed::paper_platform(system, 1));  // SWarp
  }

  for (std::size_t si = 0; si < std::size(kSystems); ++si) {
    for (int tenth = 0; tenth <= 10; ++tenth) {
      for (const exec::SchedulerPolicy policy : kExecPolicies) {
        CampaignRun run;
        run.name = std::string("genomes/") + testbed::to_string(kSystems[si]) + "/" +
                   std::to_string(tenth * 10) + "%/" + exec::to_string(policy);
        run.workflow = 0;
        run.platform = 2 * si;
        run.config.placement =
            std::make_shared<exec::FractionPolicy>(tenth / 10.0, exec::Tier::BurstBuffer);
        run.config.stage_in_mode = exec::StageInMode::Instant;
        run.config.scheduler = policy;
        run.config.collect_trace = false;
        c.runs.push_back(std::move(run));
      }
    }
  }
  for (std::size_t si = 0; si < std::size(kSystems); ++si) {
    for (std::size_t pi = 0; pi < pipelines.size(); ++pi) {
      CampaignRun run;
      run.name = std::string("swarp/") + testbed::to_string(kSystems[si]) + "/" +
                 std::to_string(pipelines[pi]) + "p";
      run.workflow = 1 + pi;
      run.platform = 2 * si + 1;
      run.config.placement = exec::all_bb_policy();
      run.config.collect_trace = false;
      c.runs.push_back(std::move(run));
    }
  }
  for (const CampaignRun& run : c.runs) {
    c.tasks += static_cast<double>(c.workflows[run.workflow].task_count());
  }
  return c;
}

/// What one run body records besides its exec::Result.
struct Slot {
  double construct_s = 0, run_s = 0, report_s = 0;
  std::size_t report_size = 0;
  std::string report;
  SimCounters counters;
};

struct CampaignPass {
  double wall_s = 0;
  std::vector<sweep::RunOutcome> outcomes;
  std::vector<Slot> slots;

  void drop_reports() {
    for (Slot& slot : slots) std::string().swap(slot.report);
  }
};

/// Runs the campaign's runs `indices` on `jobs` workers; each body builds
/// its Simulation, runs it and serializes the result.
void run_campaign(const Campaign& c, const std::vector<std::size_t>& indices, int jobs,
                  bool traced, CampaignPass& pass) {
  pass.slots.assign(indices.size(), Slot{});
  std::vector<sweep::RunSpec> specs;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const CampaignRun& run = c.runs[indices[k]];
    Slot& slot = pass.slots[k];
    specs.push_back({run.name, [&c, &run, &slot, traced]() {
                       const Clock::time_point t0 = Clock::now();
                       exec::ExecutionConfig config = run.config;
                       config.collect_metrics = traced;
                       config.profile = traced;
                       exec::Simulation sim(c.platforms[run.platform], c.workflows[run.workflow],
                                            config);
                       const Clock::time_point t1 = Clock::now();
                       exec::Result result = sim.run();
                       const Clock::time_point t2 = Clock::now();
                       slot.report = result.to_json().dump();
                       slot.report_size = slot.report.size();
                       slot.construct_s = std::chrono::duration<double>(t1 - t0).count();
                       slot.run_s = std::chrono::duration<double>(t2 - t1).count();
                       slot.report_s = since(t2);
                       if (traced) slot.counters.add(sim, result);
                       return result;
                     }});
  }
  sweep::SweepOptions options;
  options.jobs = jobs;
  const Clock::time_point t0 = Clock::now();
  pass.outcomes = sweep::SweepRunner(options).run(specs);
  pass.wall_s = since(t0);
}

std::vector<std::size_t> all_runs(const Campaign& c) {
  std::vector<std::size_t> indices(c.runs.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  return indices;
}

/// Oracle replay of one campaign run against the engine's result.
bool oracle_agrees(const Campaign& c, std::size_t index, const exec::Result& engine) {
  const CampaignRun& run = c.runs[index];
  oracle::RefConfig ref;
  ref.placement = run.config.placement;
  ref.stage_in_mode = run.config.stage_in_mode;
  ref.scheduler = run.config.scheduler;
  const oracle::RefResult replay =
      oracle::reference_execute(c.platforms[run.platform], c.workflows[run.workflow], ref);
  return oracle::diff_results(engine, replay).empty();
}

void run_paper_campaign(const Options& o, Report& r) {
  struct Iteration {
    double generate_s = 0;
    double busy_s = 0;  ///< sum of RunOutcome::wall_seconds
    CampaignPass pass;
    alloc::Totals allocs;
  };
  std::vector<Iteration> untraced, traced;
  std::vector<double> setups;
  std::unique_ptr<Campaign> campaign;
  auto iterate = [&](bool trace) {
    Iteration it;
    if (trace) alloc::start();
    const Clock::time_point t0 = Clock::now();
    campaign = std::make_unique<Campaign>(make_campaign(o.seed, o.size));
    it.generate_s = since(t0);
    run_campaign(*campaign, all_runs(*campaign), o.workers, trace, it.pass);
    if (trace) it.allocs = alloc::stop();
    setups.push_back(it.generate_s);
    for (const sweep::RunOutcome& outcome : it.pass.outcomes) it.busy_s += outcome.wall_seconds;
    std::vector<Iteration>& done = trace ? traced : untraced;
    if (trace) it.pass.drop_reports();  // only untraced reports are compared
    if (!trace && !done.empty()) {
      bool same = true;
      for (std::size_t i = 0; i < it.pass.slots.size(); ++i) {
        same = same && it.pass.slots[i].report == done.front().pass.slots[i].report;
      }
      r.check(same, "campaign reports repeat across iterations");
    }
    // Only the first iteration keeps its reports (the repeat check) and
    // only the latest its results and reports (the 1-worker and oracle
    // samples), so memory does not grow with the iteration count.
    if (done.size() > 1) done.back().pass.drop_reports();
    if (!done.empty()) done.back().pass.outcomes.clear();
    done.push_back(std::move(it));
  };
  const Clock::time_point start = Clock::now();
  do {
    iterate(false);
    if (o.trace) iterate(true);
  } while (since(start) < o.seconds);
  while (setups.size() < kSetupSamples) {
    const Clock::time_point t0 = Clock::now();
    const Campaign c = make_campaign(o.seed, o.size);
    setups.push_back(since(t0));
  }

  // Checks: every run succeeds, reports repeat across iterations, a sample
  // is byte-identical on one worker and agrees with the oracle replay.
  const Campaign& c = *campaign;
  for (const Iteration& it : traced) {
    bool same = true;
    for (std::size_t i = 0; i < it.pass.slots.size(); ++i) {
      same = same && it.pass.slots[i].counters.same_work(traced.front().pass.slots[i].counters);
    }
    r.check(same, "layer work counts repeat across traced iterations");
  }
  const CampaignPass& last = untraced.back().pass;
  for (const sweep::RunOutcome& outcome : last.outcomes) {
    r.check(outcome.ok, "run " + outcome.name + " succeeded " + outcome.error);
  }
  if (o.trace) {
    const CampaignPass& last_traced = traced.back().pass;
    bool same = true;
    for (std::size_t i = 0; i < last.outcomes.size(); ++i) {
      same = same && bitwise_equal(last.outcomes[i].result.makespan,
                                   last_traced.outcomes[i].result.makespan);
    }
    r.check(same, "instruments leave the makespans unchanged");
  }
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < c.runs.size(); i += 10) sample.push_back(i);
  CampaignPass serial;
  run_campaign(c, sample, 1, false, serial);
  for (std::size_t k = 0; k < sample.size(); ++k) {
    r.check(serial.slots[k].report == last.slots[sample[k]].report,
            "report of " + c.runs[sample[k]].name + " is byte-identical on 1 worker");
  }
  // One SWarp run per system (the sequential stage-in path) and one
  // 1000Genomes run at a mixed fraction.
  const std::size_t swarp_base = c.runs.size() - 3 * (c.workflows.size() - 1);
  for (const std::size_t index :
       {swarp_base + 1, swarp_base + (c.workflows.size() - 1) + 2, c.runs.size() - 1,
        std::size_t{5 * std::size(kExecPolicies) + 1}}) {
    const sweep::RunOutcome& outcome = last.outcomes[index];
    r.check(outcome.ok && oracle_agrees(c, index, outcome.result),
            "oracle replay agrees with " + c.runs[index].name);
  }

  if (!o.trace) {
    std::vector<double> latencies, seconds;
    for (const Iteration& it : untraced) {
      seconds.push_back(it.pass.wall_s);
      for (const Slot& slot : it.pass.slots) {
        latencies.push_back(slot.construct_s + slot.run_s + slot.report_s);
      }
    }
    emit_simulation_end_to_end(r, setups, c.tasks, static_cast<double>(c.runs.size()), seconds,
                               latencies);
    return;
  }

  std::vector<double> untraced_s, untraced_run_s, traced_s;
  for (const Iteration& it : untraced) {
    untraced_s.push_back(it.generate_s + it.pass.wall_s);
    double run_s = 0;
    for (const Slot& slot : it.pass.slots) run_s += slot.run_s;
    untraced_run_s.push_back(run_s);
  }
  for (const Iteration& it : traced) traced_s.push_back(it.generate_s + it.pass.wall_s);
  const Iteration& mid = traced[median_index(traced_s)];
  const Iteration& mid_untraced = untraced[median_index(untraced_s)];
  Layers l;
  l.generate_s = mid.generate_s;
  l.tasks = c.tasks;
  for (const Slot& slot : mid.pass.slots) {
    l.construct_s += slot.construct_s;
    l.run_s += slot.run_s;
    l.sim.merge(slot.counters);
  }
  l.sweep_busy_s = mid.busy_s;
  for (const Slot& slot : mid_untraced.pass.slots) {
    l.report_s += slot.report_s;
    l.report_bytes += static_cast<double>(slot.report_size);
  }
  l.untraced_run_s = median(untraced_run_s);
  l.sweep_wall_s = mid.pass.wall_s;
  l.sweep_workers = o.workers;
  l.untraced_s = median(untraced_s);
  l.traced_s = median(traced_s);
  l.allocs = mid.allocs;
  emit_layers(r, l);
}

// ------------------------------------------------------------- fleet_payload
//
// A bbsim.jobs.v1 stream of ~5,000 jobs at load 1.15 on the default
// 32-node, 6.4 TB machine (the BENCH_batch.json regime). Every tenth job
// carries a 64-task scale payload that batch::resolve_payloads simulates;
// then every policy schedules the stream. The job count and load are part
// of the workload: conservative and plan-based cost grows faster than
// linearly with queue length.

constexpr std::size_t kPayloadEvery = 10;

batch::StreamConfig fleet_config(std::uint64_t seed, Size size) {
  batch::StreamConfig config;
  config.name = "perfbench-fleet";
  config.job_count = size == Size::Toy ? 200 : 5000;
  config.machine_nodes = 32;
  config.machine_bb_bytes = 6.4e12;
  config.load = 1.15;
  config.max_job_nodes = 16;
  config.estimate_factor = 3.0;
  config.bb_hog_fraction = 0.25;
  config.bb_hog_share = 0.6;
  config.seed = seed;
  return config;
}

batch::MachineSpec fleet_machine() {
  batch::MachineSpec machine;
  machine.nodes = 32;
  machine.bb_bytes = 6.4e12;
  return machine;
}

batch::JobStream make_fleet(std::uint64_t seed, Size size) {
  const batch::StreamConfig config = fleet_config(seed, size);
  batch::JobStream stream = batch::make_stream(config);
  for (batch::Job& job : stream.jobs) {
    if (job.id % kPayloadEvery != 0) continue;
    job.payload.kind = batch::PayloadKind::Scale;
    job.payload.tasks = size == Size::Toy ? 16 : 64;
    job.payload.width = size == Size::Toy ? 4 : 8;
    job.walltime_actual = 0.0;  // resolved by simulating the payload
  }
  batch::validate_stream(stream, config.machine_nodes, config.machine_bb_bytes);
  return stream;
}

struct FleetIteration {
  double generate_s = 0;
  double payload_s = 0;
  std::vector<double> payload_latency;
  double payloads_resolved = 0, payload_tasks = 0;
  double schedule_s[std::size(batch::kAllPolicies)] = {};
  std::vector<batch::FleetResult> results;
  std::vector<std::string> hashes;
  batch::JobStream stream;  ///< resolved
  alloc::Totals allocs;

  double measured_s() const {
    double total = payload_s;
    for (const double s : schedule_s) total += s;
    return total;
  }
};

/// Generates the stream, resolves each payload job on its own (a one-job
/// stream with the same seed resolves exactly as within the whole stream,
/// and timing each gives the per-simulation latency), then runs every
/// policy.
FleetIteration fleet_once(std::uint64_t seed, Size size, bool traced) {
  FleetIteration it;
  if (traced) alloc::start();
  const Clock::time_point t0 = Clock::now();
  it.stream = make_fleet(seed, size);
  it.generate_s = since(t0);
  const Clock::time_point t1 = Clock::now();
  for (batch::Job& job : it.stream.jobs) {
    if (job.payload.kind == batch::PayloadKind::None || job.walltime_actual > 0) continue;
    batch::JobStream one;
    one.name = it.stream.name;
    one.seed = it.stream.seed;
    one.jobs.push_back(job);
    const Clock::time_point t = Clock::now();
    it.payloads_resolved += static_cast<double>(batch::resolve_payloads(one));
    it.payload_latency.push_back(since(t));
    job.walltime_actual = one.jobs.front().walltime_actual;
    it.payload_tasks += static_cast<double>(job.payload.tasks);
  }
  it.payload_s = since(t1);
  const batch::MachineSpec machine = fleet_machine();
  for (std::size_t p = 0; p < std::size(batch::kAllPolicies); ++p) {
    batch::SchedulerConfig config;
    config.policy = batch::kAllPolicies[p];
    config.collect_metrics = traced;
    const Clock::time_point t = Clock::now();
    it.results.push_back(batch::run_scheduler(machine, it.stream, config));
    it.schedule_s[p] = since(t);
    it.hashes.push_back(schedule_hash(it.results.back()));
  }
  if (traced) it.allocs = alloc::stop();
  return it;
}

std::string fleet_report(const FleetIteration& it) {
  return batch::batch_report(it.stream, fleet_machine(), batch::SchedulerConfig{}.tau,
                             it.results, /*include_jobs=*/true)
      .dump();
}

/// Scheduling cost depends on how long the queue grows, which varies up to
/// threefold from one stream to the next at load 1.15. So every iteration
/// of the measured phase schedules a new stream drawn from the workload
/// seed, and the rates are all their work over all their measured time:
/// with few, unlike streams a median of per-stream rates would rest on one
/// stream and carry its timing noise whole. The payload simulations are
/// alike, so a quantile over all of them lands on whichever host speed
/// held most of the run; the latency quantiles are taken per stream and
/// averaged over the streams instead.
std::uint64_t fleet_stream_seed(std::uint64_t seed, std::size_t k) {
  return util::Rng(seed).fork(k).seed();
}

/// The traced run sums its layer numbers over this many first streams, so
/// they repeat exactly whatever the host's speed.
constexpr std::size_t kLayerStreams = 4;

void run_fleet(const Options& o, Report& r) {
  std::vector<double> setups, p50s, p90s;
  double jobs = 0, measured_s = 0, payload_tasks = 0, payload_s = 0;
  std::size_t payloads_per_stream = 0;
  std::vector<std::string> first_hashes;
  Layers l;
  auto check_complete = [&r](const FleetIteration& it) {
    bool complete = it.results.size() == std::size(batch::kAllPolicies);
    for (const batch::FleetResult& result : it.results) {
      complete = complete && result.jobs.size() == it.stream.jobs.size();
      for (const batch::JobOutcome& job : result.jobs) {
        complete = complete && job.start >= job.submit && job.end >= job.start;
      }
    }
    r.check(complete, "every job is scheduled once, after its submission");
  };
  const Clock::time_point start = Clock::now();
  std::size_t k = 0;
  do {
    const FleetIteration it = fleet_once(fleet_stream_seed(o.seed, k), o.size, false);
    check_complete(it);
    if (k == 0) {
      first_hashes = it.hashes;
      payloads_per_stream = it.payload_latency.size();
    }
    setups.push_back(it.generate_s);
    p50s.push_back(quantile(it.payload_latency, 0.5));
    p90s.push_back(quantile(it.payload_latency, 0.9));
    // Tasks are simulated only in the payload phase; the schedulers
    // simulate jobs.
    payload_tasks += it.payload_tasks;
    payload_s += it.payload_s;
    jobs += static_cast<double>(it.stream.jobs.size());
    measured_s += it.measured_s();
    if (o.trace) {
      const bool sum_layers = k < kLayerStreams;
      if (sum_layers) {
        const Clock::time_point t = Clock::now();
        const std::string report = fleet_report(it);
        l.report_s += since(t);
        l.report_bytes += static_cast<double>(report.size());
      }
      const FleetIteration tr = fleet_once(fleet_stream_seed(o.seed, k), o.size, true);
      check_complete(tr);
      r.check(tr.hashes == it.hashes, "instruments leave the schedules unchanged");
      if (sum_layers) {
        l.untraced_s += it.generate_s + it.measured_s();
        l.traced_s += tr.generate_s + tr.measured_s();
        l.generate_s += tr.generate_s;
        l.tasks += tr.payload_tasks;
        l.payload_s += tr.payload_s;
        l.payloads_resolved += tr.payloads_resolved;
        l.jobs += static_cast<double>(tr.stream.jobs.size());
        for (std::size_t p = 0; p < std::size(batch::kAllPolicies); ++p) {
          l.schedule_s[p] += tr.schedule_s[p];
        }
        l.allocs.count += tr.allocs.count;
        l.allocs.bytes += tr.allocs.bytes;
      }
    }
    ++k;
  } while (since(start) < o.seconds || (o.trace && k < kLayerStreams));

  // Every stream of the measured phase is new: repeat the first once,
  // outside the measured phase.
  {
    const FleetIteration again = fleet_once(fleet_stream_seed(o.seed, 0), o.size, false);
    r.check(again.hashes == first_hashes, "schedule hashes repeat across iterations");
  }
  // Per-job resolution matches resolving the whole stream at once.
  {
    batch::JobStream whole = make_fleet(o.seed, Size::Toy);
    const FleetIteration per_job = fleet_once(o.seed, Size::Toy, false);
    batch::resolve_payloads(whole);
    bool same = whole.jobs.size() == per_job.stream.jobs.size();
    for (std::size_t i = 0; same && i < whole.jobs.size(); ++i) {
      same = bitwise_equal(whole.jobs[i].walltime_actual, per_job.stream.jobs[i].walltime_actual);
    }
    r.check(same, "per-job payload resolution equals whole-stream resolution");
  }

  if (!o.trace) {
    while (setups.size() < kSetupSamples) {
      const Clock::time_point t0 = Clock::now();
      const batch::JobStream stream = make_fleet(fleet_stream_seed(o.seed, 0), o.size);
      setups.push_back(since(t0));
    }
    const std::string streams = std::to_string(k) + " streams";
    const std::string per_stream = "mean over " + streams + " of the quantile of n=" +
                                   std::to_string(payloads_per_stream) + " simulations";
    emit_end_to_end(r, setups, {payload_tasks / payload_s, "payload tasks of " + streams},
                    {mean(p50s), per_stream}, {mean(p90s), per_stream},
                    {jobs / measured_s, "fleet jobs of " + streams});
    return;
  }
  emit_layers(r, l);
}

}  // namespace

bool is_workload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const char* w) { return name == w; });
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    const std::string& base) {
  metrics.push_back({name, value, unit, base});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

Fingerprint toy_fingerprint(const std::string& workload, std::uint64_t seed, int workers) {
  Fingerprint f;
  if (workload == "scale_wide" || workload == "scale_deep") {
    ScaleIteration it = scale_once(scale_shape(workload, Size::Toy), seed, false, true);
    f.makespans.push_back(it.makespan);
    f.report_bytes = std::move(it.report);
  } else if (workload == "paper_campaign") {
    const Campaign c = make_campaign(seed, Size::Toy);
    CampaignPass pass;
    run_campaign(c, all_runs(c), workers, false, pass);
    for (std::size_t i = 0; i < pass.outcomes.size(); ++i) {
      f.makespans.push_back(pass.outcomes[i].ok ? pass.outcomes[i].result.makespan : -1.0);
      f.report_bytes += pass.slots[i].report;
    }
  } else {
    const FleetIteration it = fleet_once(seed, Size::Toy, false);
    for (const batch::FleetResult& result : it.results) f.makespans.push_back(result.makespan);
    f.hashes = it.hashes;
    f.report_bytes = fleet_report(it);
  }
  return f;
}

void run_workload(const Options& options, Report& report) {
  if (options.workload == "scale_wide" || options.workload == "scale_deep") {
    run_scale(options, report);
  } else if (options.workload == "paper_campaign") {
    run_paper_campaign(options, report);
  } else {
    run_fleet(options, report);
  }
}

}  // namespace perfbench
