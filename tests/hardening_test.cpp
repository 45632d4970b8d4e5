// Parser-hardening and negative-path tests: truncated, duplicate-key and
// NaN/overflow-containing inputs to the JSON parser, the WfFormat workflow
// loader and the platform loader must surface typed util errors (never
// crash), and the CLI drivers must reject bad flag combinations with a
// non-zero exit naming the offending option.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/options.hpp"
#include "cli/runner.hpp"
#include "cli/sweep_cli.hpp"
#include "json/json.hpp"
#include "platform/platform_json.hpp"
#include "util/error.hpp"
#include "workflow/wfformat.hpp"

namespace bbsim {
namespace {

std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << body;
  return path;
}

// ----------------------------------------------------------- json parser

TEST(JsonHardening, TruncatedDocumentsThrowParseError) {
  for (const char* doc : {"", "{", "[1, 2", R"({"a": )", R"({"a": "unterminated)",
                          R"({"a": 1,})", "nul", "1e"}) {
    EXPECT_THROW(json::parse(doc), util::ParseError) << "input: " << doc;
  }
}

TEST(JsonHardening, DuplicateKeysThrowParseError) {
  try {
    json::parse(R"({"a": 1, "b": 2, "a": 3})");
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'a'"), std::string::npos);
  }
  // Nested objects are checked independently: this is legal.
  EXPECT_NO_THROW(json::parse(R"({"a": {"x": 1}, "b": {"x": 2}})"));
}

TEST(JsonHardening, NonFiniteNumbersThrowParseError) {
  // JSON has no NaN/Infinity literals, and overflowing doubles must not
  // smuggle an infinity into the simulator either.
  for (const char* doc : {"NaN", "Infinity", "-Infinity", "1e999", "[1, 1e999]"}) {
    EXPECT_THROW(json::parse(doc), util::ParseError) << "input: " << doc;
  }
}

TEST(JsonHardening, TrailingGarbageThrowsParseError) {
  EXPECT_THROW(json::parse("{} {}"), util::ParseError);
  EXPECT_THROW(json::parse("1 2"), util::ParseError);
}

// ------------------------------------------------------ workflow loader

TEST(WfFormatHardening, TruncatedFileThrowsTypedError) {
  const std::string path =
      write_temp("bbsim_trunc.json", R"({"name": "w", "workflow": {"specVersion")");
  EXPECT_THROW(wf::load_workflow(path), util::ParseError);
  std::remove(path.c_str());
}

TEST(WfFormatHardening, WrongShapeThrowsTypedError) {
  // Structurally valid JSON that is not a WfFormat document.
  for (const char* doc : {"[1, 2, 3]", R"({"tasks": "nope"})", R"({"workflow": 5})"}) {
    EXPECT_THROW(wf::from_wfformat(json::parse(doc)), util::Error) << doc;
  }
}

TEST(WfFormatHardening, CoresPastIntRangeNameTheTaskAndField) {
  // Both formats narrowed these to int with a cast.
  const char* legacy =
      R"({"workflow": {"jobs": [{"name": "big", "cores": 3000000000, "runtime": 1}]}})";
  const char* modern = R"({"workflow": {
      "specification": {"tasks": [{"id": "big"}]},
      "execution": {"tasks": [{"id": "big", "coreCount": 3e9, "runtimeInSeconds": 1}]}}})";
  for (const auto& [doc, field] : {std::pair{legacy, "cores"}, std::pair{modern, "coreCount"}}) {
    try {
      (void)wf::from_wfformat(json::parse(doc));
      ADD_FAILURE() << field << " 3e9 must not load";
    } catch (const util::ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("task 'big'"), std::string::npos) << what;
      EXPECT_NE(what.find(field), std::string::npos) << what;
    }
  }
}

TEST(WfFormatHardening, MissingFileThrowsTypedError) {
  EXPECT_THROW(wf::load_workflow("/nonexistent/bbsim_wf.json"), util::Error);
}

// ------------------------------------------------------ platform loader

TEST(PlatformHardening, TruncatedFileThrowsTypedError) {
  const std::string path =
      write_temp("bbsim_plat_trunc.json", R"({"hosts": [{"cores": )");
  EXPECT_THROW(platform::load_platform(path), util::ParseError);
  std::remove(path.c_str());
}

TEST(PlatformHardening, WrongShapeThrowsTypedError) {
  for (const char* doc : {"[]", R"({"hosts": 3})", R"({"hosts": [], "storage": []})"}) {
    EXPECT_THROW(platform::from_json(json::parse(doc)), util::Error) << doc;
  }
}

// ------------------------------------------------------------- run CLI

TEST(CliHardening, UnknownFlagNamesTheFlag) {
  try {
    cli::parse_cli({"--frobnicate"});
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--frobnicate"), std::string::npos);
  }
}

TEST(CliHardening, MissingValueNamesTheFlag) {
  try {
    cli::parse_cli({"--pipelines"});
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--pipelines"), std::string::npos);
  }
}

TEST(CliHardening, AuditOutWithoutAuditIsRejected) {
  try {
    cli::parse_cli({"--audit-out", "report.json"});
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--audit-out"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--audit"), std::string::npos);
  }
  // The pair together stays legal.
  EXPECT_NO_THROW(cli::parse_cli({"--audit", "--audit-out", "report.json"}));
}

TEST(CliHardening, TimelineOutMissingValueNamesTheFlag) {
  try {
    cli::parse_cli({"--timeline-out"});
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--timeline-out"), std::string::npos);
  }
}

TEST(CliHardening, TimelineOutUnwritablePathNamesTheFlag) {
  // The run itself succeeds; the export must fail loudly, naming the flag
  // that pointed at the unwritable destination.
  const cli::CliOptions opt = cli::parse_cli(
      {"--workflow", "swarp", "--pipelines", "1", "--quiet", "--timeline-out",
       "/nonexistent-bbsim-dir/timeline.json"});
  try {
    cli::run_cli(opt);
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--timeline-out"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("/nonexistent-bbsim-dir/timeline.json"),
              std::string::npos);
  }
}

TEST(CliHardening, OutOfRangeValuesAreRejected) {
  EXPECT_THROW(cli::parse_cli({"--jobs", "-1"}), util::ConfigError);
  EXPECT_THROW(cli::parse_cli({"--nodes", "0"}), util::ConfigError);
  EXPECT_THROW(cli::parse_cli({"--reps", "0"}), util::ConfigError);
  EXPECT_THROW(cli::parse_cli({"--stage-width", "0"}), util::ConfigError);
}

/// The message of the ConfigError `parse_cli(args)` throws ("" if none).
std::string cli_error(const std::vector<std::string>& args) {
  try {
    (void)cli::parse_cli(args);
  } catch (const util::ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(CliHardening, CoresBelowOneAreRejected) {
  // 0 and negative counts were ignored: the run used the workflow's cores.
  EXPECT_NE(cli_error({"--cores", "0"}).find("--cores"), std::string::npos);
  EXPECT_NE(cli_error({"--cores", "-3"}).find("--cores"), std::string::npos);
  EXPECT_EQ(cli::parse_cli({"--cores", "4"}).cores, 4);
}

TEST(CliHardening, NonIntegerValueNamesTheFlag) {
  EXPECT_NE(cli_error({"--nodes", "abc"}).find("--nodes"), std::string::npos);
  EXPECT_NE(cli_error({"--pipelines", "2x"}).find("--pipelines"), std::string::npos);
  EXPECT_NE(cli_error({"--reps", "99999999999"}).find("--reps"), std::string::npos);
  EXPECT_NE(cli_error({"--seed", "abc"}).find("--seed"), std::string::npos);
}

TEST(CliHardening, PolicyFractionNanIsRejected) {
  // NaN passed the [0, 1] range test and ran.
  EXPECT_NE(cli_error({"--policy", "fraction:nan"}).find("fraction:nan"), std::string::npos);
}

TEST(CliHardening, PolicyFractionNotANumberNamesThePolicy) {
  // Used to surface as a bare "stod".
  const std::string what = cli_error({"--policy", "fraction:abc"});
  EXPECT_NE(what.find("fraction:abc"), std::string::npos) << what;
  EXPECT_EQ(what.find("stod"), std::string::npos) << what;
}

TEST(CliHardening, MainImplExitsNonZeroOnBadFlags) {
  {
    const char* argv[] = {"bbsim_run", "--audit-out", "x.json"};
    EXPECT_NE(cli::main_impl(3, argv), 0);
  }
  {
    const char* argv[] = {"bbsim_run", "--jobs", "-2"};
    EXPECT_NE(cli::main_impl(3, argv), 0);
  }
}

// ------------------------------------------------------------ sweep CLI

TEST(SweepCliHardening, UnknownFlagNamesTheFlag) {
  try {
    cli::parse_sweep_cli({"spec.json", "--bogus"});
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos);
  }
}

TEST(SweepCliHardening, MalformedSpecFileExitsNonZero) {
  const std::string path =
      write_temp("bbsim_bad_spec.json", R"({"axes": {"a": []}})");
  const std::string truncated =
      write_temp("bbsim_trunc_spec.json", R"({"name": )");
  {
    const char* argv[] = {"bbsim_sweep", path.c_str(), "--quiet"};
    EXPECT_NE(cli::sweep_main_impl(3, argv), 0);
  }
  {
    const char* argv[] = {"bbsim_sweep", truncated.c_str(), "--quiet"};
    EXPECT_NE(cli::sweep_main_impl(3, argv), 0);
  }
  {
    const char* argv[] = {"bbsim_sweep", "/nonexistent/spec.json", "--quiet"};
    EXPECT_NE(cli::sweep_main_impl(3, argv), 0);
  }
  std::remove(path.c_str());
  std::remove(truncated.c_str());
}

TEST(SweepCliHardening, OutOfRangeJobsRejected) {
  EXPECT_THROW(cli::parse_sweep_cli({"spec.json", "--jobs", "-1"}),
               util::ConfigError);
}

TEST(SweepCliHardening, TimelineDirWithParallelJobsNamesTheOptions) {
  try {
    cli::parse_sweep_cli({"spec.json", "--timeline-dir", "d", "--jobs", "2"});
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--timeline-dir"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos);
  }
  // The serial combination stays legal.
  EXPECT_NO_THROW(
      cli::parse_sweep_cli({"spec.json", "--timeline-dir", "d", "--jobs", "1"}));
  // And the default --jobs is 1, so --timeline-dir alone is too.
  EXPECT_NO_THROW(cli::parse_sweep_cli({"spec.json", "--timeline-dir", "d"}));
}

}  // namespace
}  // namespace bbsim
