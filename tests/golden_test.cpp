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
#include <string>

#include "cli/options.hpp"
#include "cli/runner.hpp"
#include "exec/engine.hpp"
#include "platform/presets.hpp"
#include "testbed/testbed.hpp"
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
