/// \file
/// Wall-clock self-profiler: scoped RAII timers aggregated per subsystem
/// (solver solve(), engine event dispatch, placement decisions, sweep
/// workers). Opt-in and null-pointer no-op like the timeline recorder.
///
/// Everything here measures *wall* time, so its output is inherently
/// non-deterministic; it is exported under a clearly marked
/// "nondeterministic" section of the run report and must stay excluded
/// from golden/determinism comparisons.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "json/json.hpp"

namespace bbsim::stats {
class MetricsRegistry;
}  // namespace bbsim::stats

namespace bbsim::trace {

/// Aggregated wall-clock cost of one instrumented code region.
struct ProfileSection {
  std::string name;
  std::uint64_t calls = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
  std::chrono::steady_clock::time_point started{};  ///< of the open call

  void record(double seconds) {
    ++calls;
    total_seconds += seconds;
    if (seconds > max_seconds) max_seconds = seconds;
  }
  /// Bracket one (non-nested) call of the region: begin() ... end().
  void begin() { started = std::chrono::steady_clock::now(); }
  void end() {
    record(std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count());
  }
};

/// Per-run profiler. Publishers cache the ProfileSection pointer returned
/// by section() so the hot path is one clock read + one add.
class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Create (or fetch) the section named `name`. Pointers stay valid for
  /// the profiler's lifetime.
  ProfileSection* section(const std::string& name);

  /// Fold another profiler's sections into this one (sweep workers merge
  /// into the sweep-level profiler under the progress lock).
  void merge(const Profiler& other);

  const std::vector<std::unique_ptr<ProfileSection>>& sections() const {
    return order_;
  }

  /// Name-sorted JSON report. Marked "nondeterministic": wall-clock values
  /// differ run to run and must never enter golden comparisons.
  json::Value to_json() const;

  /// Publish `profile.<section>.seconds` / `.calls` into a metrics
  /// registry (same nondeterminism caveat; metrics consumers that diff
  /// reports should strip the `profile.` prefix).
  void publish(stats::MetricsRegistry& registry) const;

 private:
  std::vector<std::unique_ptr<ProfileSection>> order_;  ///< creation order
};

/// RAII wall-clock timer; records into its section on destruction.
/// A null section makes the timer free apart from the null test, which is
/// how profiling stays zero-cost when disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(ProfileSection* section) : section_(section) {
    if (section_ != nullptr) section_->begin();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (section_ != nullptr) section_->end();
  }

 private:
  ProfileSection* section_;
};

}  // namespace bbsim::trace
