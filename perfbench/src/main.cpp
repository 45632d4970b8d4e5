// bbsim_perfbench -- end-to-end and per-layer benchmark of the simulator.
//
//   bbsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --references FILE [--size full|toy] [--workers N]
//   bbsim_perfbench --write-references FILE
//
// Runs one workload for S seconds (closed loop: the next simulation starts
// when the previous one returns), checks the outputs, prints a readable
// metric table and, as the last line of stdout, one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
//
// Besides the checks each workload makes on its own outputs, every run
// replays the workload at toy size on the fixed reference seed against
// FILE (1e-6 relative, the repository's golden tolerance; schedule hashes
// exactly), and twice on a held-out seed derived from --seed, where the two
// runs must be byte-identical.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "json/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Fingerprint;
using perfbench::Report;

constexpr std::uint64_t kReferenceSeed = 1;

/// Never equal to the seed it is derived from.
std::uint64_t held_out_seed(std::uint64_t seed) { return seed ^ 0xa5a5a5a5a5a5a5a5ULL; }

bool agrees(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max(std::fabs(a), std::fabs(b));
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bbsim_perfbench: %s\n"
               "usage: bbsim_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                       --references FILE [--size full|toy] [--workers N]\n"
               "       bbsim_perfbench --write-references FILE\n",
               why);
  std::exit(2);
}

void write_references(const std::string& path) {
  bbsim::json::Object workloads;
  for (const char* workload : perfbench::kWorkloads) {
    const Fingerprint f = perfbench::toy_fingerprint(workload, kReferenceSeed, 4);
    bbsim::json::Array makespans, hashes;
    for (const double m : f.makespans) makespans.push_back(m);
    for (const std::string& h : f.hashes) hashes.push_back(h);
    bbsim::json::Object entry;
    entry.set("makespans", std::move(makespans));
    entry.set("hashes", std::move(hashes));
    workloads.set(workload, std::move(entry));
  }
  bbsim::json::Object doc;
  doc.set("seed", static_cast<double>(kReferenceSeed));
  doc.set("size", "toy");
  doc.set("workloads", std::move(workloads));
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) usage("cannot write the references file");
  const std::string text = bbsim::json::Value(std::move(doc)).dump(2) + "\n";
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
}

void check_references(const perfbench::Options& o, const std::string& path, Report& report) {
  const bbsim::json::Value doc = bbsim::json::parse_file(path);
  const bbsim::json::Value& expected = doc.at("workloads").at(o.workload);
  const Fingerprint f = perfbench::toy_fingerprint(o.workload, kReferenceSeed, o.workers);
  const bbsim::json::Array& makespans = expected.at("makespans").as_array();
  bool ok = makespans.size() == f.makespans.size();
  for (std::size_t i = 0; ok && i < makespans.size(); ++i) {
    ok = agrees(makespans[i].as_number(), f.makespans[i]);
  }
  report.check(ok, "makespans match the recorded references within 1e-6");
  const bbsim::json::Array& hashes = expected.at("hashes").as_array();
  ok = hashes.size() == f.hashes.size();
  for (std::size_t i = 0; ok && i < hashes.size(); ++i) {
    ok = hashes[i].as_string() == f.hashes[i];
  }
  report.check(ok, "schedule hashes match the recorded references");
}

void check_held_out(const perfbench::Options& o, Report& report) {
  const std::uint64_t seed = held_out_seed(o.seed);
  const Fingerprint a = perfbench::toy_fingerprint(o.workload, seed, o.workers);
  const Fingerprint b = perfbench::toy_fingerprint(o.workload, seed, o.workers);
  report.check(!a.report_bytes.empty() && a.report_bytes == b.report_bytes &&
                   a.hashes == b.hashes,
               "held-out seed: two runs are byte-identical");
}

void print(const perfbench::Options& o, const Report& report) {
  std::printf("bbsim perfbench: workload %s, seed %llu, %s run, %s size\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? "traced" : "untraced",
              o.size == perfbench::Size::Toy ? "toy" : "full");
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-28s %16.6g %-10s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.base.empty() ? "" : ("(base: " + m.base + ")").c_str());
  }
  std::printf("  %-28s %16.6g %-10s (base: %zu failed of %zu checks)\n", "error_rate",
              report.attempted > 0
                  ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
                  : 0.0,
              "ratio", report.failed, report.attempted);

  std::string line = "{\"correct\": ";
  line += report.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    // A non-finite value already failed its check; JSON has no NaN.
    const double v = std::isfinite(report.metrics[i].value) ? report.metrics[i].value : 0.0;
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", v);
    line += (i ? ", \"" : "\"") + report.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + report.metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string references, write_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (arg == "--size") {
      if (value != "full" && value != "toy") usage("--size takes full or toy");
      o.size = value == "toy" ? perfbench::Size::Toy : perfbench::Size::Full;
    } else if (arg == "--workers") {
      o.workers = std::atoi(value.c_str());
      if (o.workers < 1) usage("--workers must be >= 1");
    } else if (arg == "--references") {
      references = value;
    } else if (arg == "--write-references") {
      write_path = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  try {
    if (!write_path.empty()) {
      write_references(write_path);
      return 0;
    }
    if (!perfbench::is_workload(o.workload)) usage("unknown or missing --workload");
    if (!have_seed || !have_seconds || !have_trace || references.empty()) {
      usage("--seed, --seconds, --trace and --references are required");
    }
    if (!(o.seconds >= 0)) usage("--seconds must be >= 0");

    Report report;
    perfbench::run_workload(o, report);
    try {
      check_references(o, references, report);
    } catch (const std::exception& e) {
      report.check(false, std::string("reference check: ") + e.what());
    }
    try {
      check_held_out(o, report);
    } catch (const std::exception& e) {
      report.check(false, std::string("held-out check: ") + e.what());
    }
    for (const perfbench::Metric& m : report.metrics) {
      report.check(std::isfinite(m.value), "metric " + m.name + " is finite");
    }
    print(o, report);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbsim_perfbench: %s\n", e.what());
    return 1;
  }
}
