// Golden regression tests: exact end-to-end makespans for fixed scenarios.
//
// These pin the simulator's observable behaviour. A change that moves any
// of these numbers is a *model change* and must be deliberate: re-derive
// the value, update the constant, and record the reason in the commit.
// (Values were captured from the deterministic engine; they are exact up to
// floating-point noise, hence the 1e-6 relative tolerance.)
//
// Each run is also pinned exactly (EXPECT_EQ), as is a toy scale DAG's
// makespan and report hash: a refactor that only reorders floating-point
// operations moves no golden beyond 1e-6 but flips these. A change that
// moves them on purpose is a model change like any other.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "cli/options.hpp"
#include "cli/runner.hpp"
#include "exec/engine.hpp"
#include "platform/presets.hpp"
#include "testbed/testbed.hpp"
#include "trace/profiler.hpp"
#include "trace/timeline.hpp"
#include "util/rng.hpp"
#include "workflow/genomes.hpp"
#include "workflow/random_dag.hpp"
#include "workflow/swarp.hpp"

namespace bbsim {
namespace {

double run_scenario(const cli::CliOptions& opt) {
  exec::ExecutionConfig cfg;
  cfg.placement = cli::make_policy(opt.policy);
  cfg.stage_in_mode = opt.stage_in;
  exec::Simulation sim(cli::resolve_platform(opt), cli::resolve_workflow(opt), cfg);
  return sim.run().makespan;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(Golden, SwarpTwoPipelinesCoriPrivateAllBB) {
  cli::CliOptions opt;
  opt.pipelines = 2;
  const double makespan = run_scenario(opt);
  EXPECT_NEAR(makespan / 96.187191, 1.0, 1e-6);
  EXPECT_EQ(makespan, 96.187191040000002);
}

TEST(Golden, SwarpStripedHalfStaged) {
  cli::CliOptions opt;
  opt.bb_mode = platform::BBMode::Striped;
  opt.policy = "fraction:0.5";
  const double makespan = run_scenario(opt);
  EXPECT_NEAR(makespan / 47.075213, 1.0, 1e-6);
  EXPECT_EQ(makespan, 47.075212559999997);
}

TEST(Golden, GenomesOneChromosomeSummitInstant) {
  cli::CliOptions opt;
  opt.platform = "summit";
  opt.workflow = "genomes";
  opt.chromosomes = 1;
  opt.nodes = 2;
  opt.stage_in = exec::StageInMode::Instant;
  const double makespan = run_scenario(opt);
  EXPECT_NEAR(makespan / 374.948991, 1.0, 1e-6);
  EXPECT_EQ(makespan, 374.94899095400223);
}

TEST(Golden, ToyScaleDagBitwise) {
  // make_scale_dag with 1,024 tasks at width 64 (seed 1) on 128 Summit
  // nodes under the default config: ~64 concurrent flows with recycled
  // ids, the flow layer's churn at a size tier-1 runs in a second.
  util::Rng rng(1);
  wf::ScaleDagConfig config;
  config.task_count = 1024;
  config.width = 64;
  platform::PresetOptions options;
  options.compute_nodes = 128;
  exec::Simulation sim(platform::summit_platform(options), wf::make_scale_dag(config, rng),
                       exec::ExecutionConfig{});
  const exec::Result result = sim.run();
  EXPECT_EQ(result.makespan, 410.60594246898694);
  EXPECT_EQ(fnv1a(result.to_json().dump()), 12899978666560292770ULL);
}

// Fault-injected 1000Genomes runs with checkpoints, the critical-path pass
// and the timeline on. 1000Genomes creates its tasks in an order that is
// not their name order, and node crashes kill running tasks in name order:
// a walk that slips into creation order (or any other) moves these report
// and Perfetto hashes even where the makespan stays put. make_scale_dag
// creates tasks in name order and cannot show such a slip. Values recorded
// before the workflow core moved to dense ids.
struct FaultCase {
  const char* platform;
  int nodes;
  int seed;
  double makespan;
  std::uint64_t report_fnv;
  std::uint64_t perfetto_fnv;
};

// Without a PrintTo, gtest prints a parameter as its raw bytes, and the
// platform pointer's bytes move with the load address: the ctest names that
// carry "# GetParam() = ..." would change from one build to the next.
void PrintTo(const FaultCase& c, std::ostream* os) {
  *os << c.platform << " nodes=" << c.nodes << " seed=" << c.seed;
}

class GoldenFaults : public ::testing::TestWithParam<FaultCase> {};

TEST_P(GoldenFaults, GenomesUnderNodeCrashesBitwise) {
  const FaultCase& c = GetParam();
  cli::CliOptions opt;
  opt.platform = c.platform;
  opt.workflow = "genomes";
  opt.chromosomes = 1;
  opt.nodes = c.nodes;
  opt.faults = "node_mtbf=150,node_repair=20,horizon=2000,seed=" + std::to_string(c.seed);
  opt.checkpoint = "interval=60,fraction=0.2";
  opt.critpath = true;
  exec::ExecutionConfig cfg = cli::execution_config(opt);
  cfg.collect_timeline = true;
  exec::Simulation sim(cli::resolve_platform(opt), cli::resolve_workflow(opt), cfg);
  const exec::Result result = sim.run();
  ASSERT_NE(result.resil_stats, nullptr);
  EXPECT_GT(result.resil_stats->tasks_killed, 0);
  EXPECT_EQ(result.makespan, c.makespan);
  EXPECT_EQ(fnv1a(result.to_json().dump()), c.report_fnv);
  ASSERT_NE(result.timeline, nullptr);
  EXPECT_EQ(fnv1a(result.timeline->to_perfetto().dump()), c.perfetto_fnv);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, GoldenFaults,
    ::testing::Values(
        FaultCase{"summit", 2, 1, 625.67845999193378, 977810841191214014ULL,
                  506050065806180640ULL},
        FaultCase{"summit", 2, 2, 631.70804891069201, 3697434683500722706ULL,
                  8781713520872672476ULL},
        FaultCase{"summit", 2, 3, 1647.3657540830093, 4576522925462665197ULL,
                  15335099744444378549ULL},
        FaultCase{"summit", 2, 4, 732.66687573611352, 17966400264413593943ULL,
                  15019042761508200009ULL},
        FaultCase{"cori", 4, 1, 1080.2000322953577, 16194062081292654616ULL,
                  11801189510345721167ULL},
        FaultCase{"cori", 4, 2, 738.14185720052114, 15860295096541371712ULL,
                  10518059436331606846ULL},
        FaultCase{"cori", 4, 3, 1020.7289719442011, 10548942006902345745ULL,
                  4321480145345943418ULL},
        FaultCase{"cori", 4, 4, 720.5249180300633, 13869975395675335796ULL,
                  16138848660157054492ULL}),
    [](const ::testing::TestParamInfo<FaultCase>& case_info) {
      return std::string(case_info.param.platform) + "_seed" +
             std::to_string(case_info.param.seed);
    });

// Instrument pins: metrics, timeline, audit and critical path all on (the
// profiler off: its times are wall-clock). The report hash covers the
// metrics, audit and critpath sections, the Perfetto hash every track and
// span, so a change to what any instrument records, or under which name,
// moves one of them. Three runs: SWarp on Cori's shared burst buffer, a
// fault-injected 1000Genomes run (hosts-down track, checkpoints) and a
// flow-heavy toy scale DAG.
exec::ExecutionConfig all_instruments(exec::ExecutionConfig cfg) {
  cfg.collect_metrics = true;
  cfg.collect_timeline = true;
  cfg.audit = true;
  cfg.critpath = true;
  return cfg;
}

struct InstrumentedRun {
  std::uint64_t report_fnv = 0;
  std::uint64_t perfetto_fnv = 0;
  double makespan = 0.0;
};

InstrumentedRun run_instrumented(const platform::PlatformSpec& platform,
                                 const wf::Workflow& workflow,
                                 const exec::ExecutionConfig& cfg) {
  exec::Simulation sim(platform, workflow, cfg);
  const exec::Result result = sim.run();
  EXPECT_EQ(result.audit_violations, 0u);
  EXPECT_NE(result.timeline, nullptr);
  if (result.timeline == nullptr) return {};
  return {fnv1a(result.to_json().dump()), fnv1a(result.timeline->to_perfetto().dump()),
          result.makespan};
}

cli::CliOptions genomes_fault_options() {
  cli::CliOptions opt;
  opt.platform = "summit";
  opt.workflow = "genomes";
  opt.chromosomes = 1;
  opt.nodes = 2;
  opt.faults = "node_mtbf=150,node_repair=20,horizon=2000,seed=1";
  opt.checkpoint = "interval=60,fraction=0.2";
  return opt;
}

TEST(GoldenInstruments, SwarpSharedBBBitwise) {
  cli::CliOptions opt;
  opt.pipelines = 2;
  exec::ExecutionConfig cfg;
  cfg.placement = cli::make_policy(opt.policy);
  const InstrumentedRun run =
      run_instrumented(cli::resolve_platform(opt), cli::resolve_workflow(opt),
                       all_instruments(cfg));
  EXPECT_EQ(run.makespan, 96.187191040000002);
  EXPECT_EQ(run.report_fnv, 14013100499038523767ULL);
  EXPECT_EQ(run.perfetto_fnv, 7613150453302677634ULL);
}

TEST(GoldenInstruments, MetricsAloneSwarpBitwise) {
  // Metrics without a timeline, the combination the benchmark's traced
  // pass uses, pinned on its own: the occupancy series' starting samples
  // depend on which instruments are on.
  cli::CliOptions opt;
  opt.pipelines = 2;
  exec::ExecutionConfig cfg;
  cfg.placement = cli::make_policy(opt.policy);
  cfg.collect_metrics = true;
  exec::Simulation sim(cli::resolve_platform(opt), cli::resolve_workflow(opt), cfg);
  EXPECT_EQ(fnv1a(sim.run().to_json().dump()), 14027823095188299618ULL);
}

TEST(GoldenInstruments, GenomesUnderNodeCrashesBitwise) {
  const cli::CliOptions opt = genomes_fault_options();
  const InstrumentedRun run =
      run_instrumented(cli::resolve_platform(opt), cli::resolve_workflow(opt),
                       all_instruments(cli::execution_config(opt)));
  EXPECT_EQ(run.makespan, 625.67845999193378);
  EXPECT_EQ(run.report_fnv, 3977639958918228649ULL);
  EXPECT_EQ(run.perfetto_fnv, 506050065806180640ULL);
}

TEST(GoldenInstruments, ToyScaleDagBitwise) {
  util::Rng rng(1);
  wf::ScaleDagConfig config;
  config.task_count = 1024;
  config.width = 64;
  platform::PresetOptions options;
  options.compute_nodes = 128;
  const InstrumentedRun run =
      run_instrumented(platform::summit_platform(options), wf::make_scale_dag(config, rng),
                       all_instruments({}));
  EXPECT_EQ(run.makespan, 410.60594246898694);
  EXPECT_EQ(run.report_fnv, 15992140275770216348ULL);
  EXPECT_EQ(run.perfetto_fnv, 16098214796416387095ULL);
}

TEST(GoldenInstruments, ProfileSectionNamesAndCallCounts) {
  // Wall-clock times differ run to run; which regions were timed, and how
  // often, does not.
  const cli::CliOptions opt = genomes_fault_options();
  exec::ExecutionConfig cfg = all_instruments(cli::execution_config(opt));
  cfg.profile = true;
  exec::Simulation sim(cli::resolve_platform(opt), cli::resolve_workflow(opt), cfg);
  (void)sim.run();
  ASSERT_NE(sim.profiler(), nullptr);
  std::string sections;
  for (const auto& section : sim.profiler()->sections()) {
    sections += section->name + "=" + std::to_string(section->calls) + " ";
  }
  EXPECT_EQ(sections,
            "sim.dispatch=872 flow.solve=941 flow.settle=291 exec.placement=73 critpath=1 ");
}

TEST(Golden, TestbedNoiselessSwarpIsStable) {
  // The noiseless emulator is deterministic end to end.
  testbed::TestbedOptions opt;
  opt.noise = false;
  opt.repetitions = 1;
  const testbed::Testbed tb(testbed::System::CoriPrivate, opt);
  exec::ExecutionConfig cfg;
  cfg.placement = exec::all_bb_policy();
  const auto results = tb.run_repetitions(wf::make_swarp({}), cfg, 1.0);
  // Pin only coarse structure (exact value is asserted by re-running).
  const double again =
      tb.run_repetitions(wf::make_swarp({}), cfg, 1.0).front().makespan;
  EXPECT_DOUBLE_EQ(results.front().makespan, again);
  EXPECT_GT(results.front().stage_in_duration, 0.0);
}

}  // namespace
}  // namespace bbsim
