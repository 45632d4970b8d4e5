// The benchmark's workloads, their output checks and their metric tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Full is what BENCHMARK.json measures; Toy runs every code path of a
/// workload in well under a second (the smoke test and the fixed-seed
/// reference and determinism checks use it).
enum class Size { Full, Toy };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured phase; at least one iteration runs
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  Size size = Size::Full;
  int workers = 4;        ///< paper_campaign sweep workers
};

inline constexpr const char* kWorkloads[] = {"scale_wide", "scale_deep", "paper_campaign",
                                             "fleet_payload"};

bool is_workload(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  ///< what a ratio is taken against, printed beside it
};

/// Everything one invocation reports: metrics plus the output-check ledger.
/// A failed check is counted and described on stderr; it never aborts the
/// run.
struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& base = "");
  void check(bool ok, const std::string& what);
};

/// What the fixed-seed reference check compares and the determinism checks
/// repeat: every makespan in a fixed order, the batch schedule hashes, and
/// the serialized reports.
struct Fingerprint {
  std::vector<double> makespans;
  std::vector<std::string> hashes;
  std::string report_bytes;
};

/// The workload at toy size on `seed`, run once through the same code as
/// the measured phase.
Fingerprint toy_fingerprint(const std::string& workload, std::uint64_t seed, int workers);

/// Measured phase plus the checks on its own outputs. With options.trace it
/// alternates untraced and traced iterations and reports per-layer metrics;
/// otherwise it reports the end-to-end metrics.
void run_workload(const Options& options, Report& report);

}  // namespace perfbench
