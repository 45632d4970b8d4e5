// Unit + property tests for the workflow DAG, parsers, and generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <span>

#include "json/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workflow/genomes.hpp"
#include "workflow/random_dag.hpp"
#include "workflow/swarp.hpp"
#include "workflow/wfformat.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::wf {
namespace {

Workflow diamond() {
  // a -> {b, c} -> d through files.
  Workflow w;
  w.add_file({"in", 10});
  w.add_file({"ab", 10});
  w.add_file({"ac", 10});
  w.add_file({"bd", 10});
  w.add_file({"cd", 10});
  w.add_file({"out", 10});
  w.add_task({"a", "t", 1e9, 0, 1, {"in"}, {"ab", "ac"}});
  w.add_task({"b", "t", 1e9, 0, 1, {"ab"}, {"bd"}});
  w.add_task({"c", "t", 1e9, 0, 1, {"ac"}, {"cd"}});
  w.add_task({"d", "t", 1e9, 0, 1, {"bd", "cd"}, {"out"}});
  return w;
}

TEST(Workflow, StructureQueriesOnDiamond) {
  const Workflow w = diamond();
  w.validate();
  EXPECT_EQ(w.task_count(), 4u);
  EXPECT_EQ(w.file_count(), 6u);
  EXPECT_EQ(w.entry_tasks(), (std::vector<std::string>{"a"}));
  EXPECT_EQ(w.exit_tasks(), (std::vector<std::string>{"d"}));
  EXPECT_EQ(w.input_files(), (std::vector<std::string>{"in"}));
  EXPECT_EQ(w.output_files(), (std::vector<std::string>{"out"}));
  EXPECT_EQ(w.intermediate_files().size(), 4u);
  EXPECT_EQ(*w.producer("ab"), "a");
  EXPECT_FALSE(w.producer("in").has_value());
  EXPECT_EQ(w.consumers("in"), (std::vector<std::string>{"a"}));
  const auto parents_d = w.parents("d");
  EXPECT_EQ(std::set<std::string>(parents_d.begin(), parents_d.end()),
            (std::set<std::string>{"b", "c"}));
  EXPECT_EQ(w.critical_path_length(), 3u);
}

TEST(Workflow, TopologicalOrderRespectsEdges) {
  const Workflow w = diamond();
  const auto order = w.topological_order();
  std::map<std::string, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos["a"], pos["b"]);
  EXPECT_LT(pos["a"], pos["c"]);
  EXPECT_LT(pos["b"], pos["d"]);
  EXPECT_LT(pos["c"], pos["d"]);
}

TEST(Workflow, CycleDetected) {
  Workflow w;
  w.add_file({"x", 1});
  w.add_file({"y", 1});
  w.add_task({"a", "t", 1, 0, 1, {"y"}, {"x"}});
  w.add_task({"b", "t", 1, 0, 1, {"x"}, {"y"}});
  EXPECT_THROW(w.topological_order(), util::InvariantError);
}

TEST(Workflow, ControlDepCycleDetected) {
  Workflow w;
  w.add_task({"a", "t", 1, 0, 1, {}, {}});
  w.add_task({"b", "t", 1, 0, 1, {}, {}});
  w.add_control_dep("a", "b");
  w.add_control_dep("b", "a");
  EXPECT_THROW(w.validate(), util::InvariantError);
}

TEST(Workflow, SingleWriterEnforced) {
  Workflow w;
  w.add_file({"f", 1});
  w.add_task({"a", "t", 1, 0, 1, {}, {"f"}});
  w.add_task({"b", "t", 1, 0, 1, {}, {"f"}});
  EXPECT_THROW(w.validate(), util::InvariantError);
}

TEST(Workflow, ValidationCatchesMistakes) {
  Workflow w;
  w.add_file({"f", 1});
  EXPECT_THROW(w.add_task({"", "t", 1, 0, 1, {}, {}}), util::ConfigError);
  EXPECT_THROW(w.add_task({"t", "t", -1, 0, 1, {}, {}}), util::ConfigError);
  EXPECT_THROW(w.add_task({"t", "t", 1, 1.5, 1, {}, {}}), util::ConfigError);
  EXPECT_THROW(w.add_task({"t", "t", 1, 0, 0, {}, {}}), util::ConfigError);
  EXPECT_THROW(w.add_file({"g", -1}), util::ConfigError);

  w.add_task({"t", "t", 1, 0, 1, {"missing"}, {}});
  EXPECT_THROW(w.validate(), util::ConfigError);

  Workflow w2;
  w2.add_file({"f", 1});
  w2.add_task({"t", "t", 1, 0, 1, {"f"}, {"f"}});  // reads and writes same file
  EXPECT_THROW(w2.validate(), util::ConfigError);

  Workflow w3;
  w3.add_task({"t", "t", 1, 0, 1, {}, {}});
  w3.add_control_dep("t", "ghost");
  EXPECT_THROW(w3.validate(), util::ConfigError);

  Workflow w4;
  w4.add_task({"t", "t", 1, 0, 1, {}, {}});
  EXPECT_THROW(w4.add_task({"t", "t", 1, 0, 1, {}, {}}), util::ConfigError);
}

TEST(Workflow, Aggregates) {
  const Workflow w = diamond();
  EXPECT_DOUBLE_EQ(w.total_data_bytes(), 60.0);
  EXPECT_DOUBLE_EQ(w.total_flops(), 4e9);
  EXPECT_DOUBLE_EQ(w.input_data_bytes(), 10.0);
}

// --------------------------------------------------------------- generators

TEST(Swarp, StructureMatchesPaperFigure2) {
  SwarpConfig cfg;
  cfg.pipelines = 3;
  const Workflow w = make_swarp(cfg);
  // 1 stage-in + 2 tasks per pipeline.
  EXPECT_EQ(w.task_count(), 1u + 2u * 3u);
  EXPECT_EQ(w.entry_tasks(), (std::vector<std::string>{"stage_in"}));
  // Each resample depends on stage_in only; each combine on its resample.
  EXPECT_EQ(w.parents("resample_001"), (std::vector<std::string>{"stage_in"}));
  EXPECT_EQ(w.parents("combine_001"), (std::vector<std::string>{"resample_001"}));
  EXPECT_EQ(w.critical_path_length(), 3u);
  // 16 images + 16 weights per pipeline as inputs.
  EXPECT_EQ(w.input_files().size(), 3u * 32u);
}

TEST(Swarp, FileSizesMatchPaper) {
  const Workflow w = make_swarp({});
  EXPECT_DOUBLE_EQ(w.file("p000_img_00.fits").size, 32.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(w.file("p000_wgt_00.fits").size, 16.0 * 1024 * 1024);
  // Input data: 16*32 + 16*16 MiB = 768 MiB per pipeline.
  EXPECT_DOUBLE_EQ(w.input_data_bytes(), 768.0 * 1024 * 1024);
}

TEST(Swarp, TaskProfiles) {
  const Workflow w = make_swarp({});
  const Task& r = w.task("resample_000");
  EXPECT_DOUBLE_EQ(r.flops, 48.0 * 36.80e9);
  EXPECT_EQ(r.requested_cores, 32);
  const Task& c = w.task("combine_000");
  EXPECT_GT(c.alpha, r.alpha);  // combine parallelises worse (paper Fig. 6)
  const Task& s = w.task("stage_in");
  EXPECT_DOUBLE_EQ(s.flops, 0.0);
  EXPECT_EQ(s.requested_cores, 1);
}

TEST(Swarp, NoStageInOption) {
  SwarpConfig cfg;
  cfg.with_stage_in = false;
  cfg.pipelines = 2;
  const Workflow w = make_swarp(cfg);
  EXPECT_EQ(w.task_count(), 4u);
  EXPECT_EQ(w.entry_tasks().size(), 2u);
}

TEST(Genomes, TaskCountMatchesPaper) {
  const Workflow w = make_1000genomes({});
  EXPECT_EQ(w.task_count(), 903u);  // paper Section IV-C
}

TEST(Genomes, DataFootprintMatchesPaper) {
  const Workflow w = make_1000genomes({});
  // ~67 GB total, ~52 GB input (paper: "total workflow data footprint of
  // ~67 GB", "total input data is about 52 GB, i.e. 77%").
  EXPECT_NEAR(w.total_data_bytes() / 1e9, 67.0, 2.0);
  EXPECT_NEAR(w.input_data_bytes() / 1e9, 52.0, 1.5);
  EXPECT_NEAR(w.input_data_bytes() / w.total_data_bytes(), 0.77, 0.03);
}

TEST(Genomes, StructureMatchesFigure12) {
  GenomesConfig cfg;
  cfg.chromosomes = 2;
  const Workflow w = make_1000genomes(cfg);
  // per chromosome: 25 ind + merge + sifting + 7 pair + 7 freq, plus one
  // global populations task.
  EXPECT_EQ(w.task_count(), 2u * 41u + 1u);
  // pair tasks depend on merge, sifting and populations.
  const auto parents = w.parents("pair_overlap_c00_p0");
  const std::set<std::string> pset(parents.begin(), parents.end());
  EXPECT_TRUE(pset.count("individuals_merge_c00"));
  EXPECT_TRUE(pset.count("sifting_c00"));
  EXPECT_TRUE(pset.count("populations"));
  EXPECT_EQ(w.critical_path_length(), 3u);  // ind -> merge -> pair
}

TEST(RandomDag, ValidatesAndIsDeterministic) {
  RandomDagConfig cfg;
  util::Rng rng1(7);
  util::Rng rng2(7);
  const Workflow a = make_random_layered(cfg, rng1);
  const Workflow b = make_random_layered(cfg, rng2);
  a.validate();
  EXPECT_EQ(a.task_count(), b.task_count());
  EXPECT_EQ(a.total_data_bytes(), b.total_data_bytes());
}

class RandomDagProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagProperty, AlwaysAcyclicSingleWriterConnected) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  RandomDagConfig cfg;
  cfg.levels = static_cast<int>(rng.uniform_int(1, 6));
  const Workflow w = make_random_layered(cfg, rng);
  w.validate();  // throws on violation
  // Every non-entry task has at least one parent (layer connectivity).
  for (const std::string& t : w.task_names()) {
    if (util::starts_with(t, "t_l00_")) continue;
    EXPECT_FALSE(w.parents(t).empty()) << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperty, ::testing::Range(0, 25));

// ------------------------------------------------------------------ formats

TEST(WfFormat, LegacyRoundTrip) {
  const Workflow original = make_swarp({});
  const json::Value doc = to_wfformat(original);
  const Workflow parsed = from_wfformat(doc);
  EXPECT_EQ(parsed.task_count(), original.task_count());
  EXPECT_EQ(parsed.file_count(), original.file_count());
  const Task& r1 = parsed.task("resample_000");
  const Task& r2 = original.task("resample_000");
  EXPECT_DOUBLE_EQ(r1.flops, r2.flops);
  EXPECT_DOUBLE_EQ(r1.alpha, r2.alpha);
  EXPECT_EQ(r1.inputs.size(), r2.inputs.size());
  EXPECT_EQ(parsed.parents("combine_000"), original.parents("combine_000"));
}

TEST(WfFormat, LegacyRuntimeToFlopsViaEq4) {
  const auto doc = json::parse(R"({
    "name": "t", "workflow": { "jobs": [
      {"name": "j", "runtime": 10.0, "cores": 4, "ioFraction": 0.25,
       "files": [{"name": "in", "size": 100, "link": "input"}]}
    ]}})");
  WfFormatOptions opt;
  opt.reference_core_speed = 1e9;
  const Workflow w = from_wfformat(doc, opt);
  // Eq (4): flops = p (1 - lambda) T(p) * speed = 4 * 0.75 * 10 * 1e9.
  EXPECT_DOUBLE_EQ(w.task("j").flops, 30e9);
}

TEST(WfFormat, ModernSpecificationLayout) {
  const auto doc = json::parse(R"({
    "name": "modern", "workflow": {
      "specification": {
        "tasks": [
          {"id": "t1", "inputFiles": ["f1"], "outputFiles": ["f2"]},
          {"id": "t2", "inputFiles": ["f2"], "outputFiles": [], "parents": ["t1"]}
        ],
        "files": [{"id": "f1", "sizeInBytes": 100}, {"id": "f2", "sizeInBytes": 200}]
      },
      "execution": {
        "tasks": [{"id": "t1", "runtimeInSeconds": 5, "coreCount": 2}]
      }
    }})");
  const Workflow w = from_wfformat(doc);
  EXPECT_EQ(w.task_count(), 2u);
  EXPECT_EQ(w.task("t1").requested_cores, 2);
  EXPECT_GT(w.task("t1").flops, 0.0);
  EXPECT_EQ(w.parents("t2"), (std::vector<std::string>{"t1"}));
  EXPECT_DOUBLE_EQ(w.file("f2").size, 200.0);
}

TEST(WfFormat, RejectsMalformedDocuments) {
  EXPECT_THROW(from_wfformat(json::parse(R"({"name": "x"})")), util::ParseError);
  EXPECT_THROW(from_wfformat(json::parse(R"({"workflow": {}})")), util::ParseError);
  EXPECT_THROW(from_wfformat(json::parse(
                   R"({"workflow": {"jobs": [{"runtime": 1}]}})")),
               util::ParseError);
}

TEST(WfFormat, FileRoundTripOnDisk) {
  const std::string path = ::testing::TempDir() + "/bbsim_wf_test.json";
  const Workflow original = make_1000genomes({.chromosomes = 1});
  save_workflow(path, original);
  const Workflow loaded = load_workflow(path);
  EXPECT_EQ(loaded.task_count(), original.task_count());
  EXPECT_DOUBLE_EQ(loaded.total_data_bytes(), original.total_data_bytes());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bbsim::wf

// ------------------------------------------- extra generators and describe

#include "exec/engine.hpp"
#include "platform/presets.hpp"
#include "workflow/describe.hpp"
#include "workflow/montage.hpp"

namespace bbsim::wf {
namespace {

TEST(Montage, StructureIsFanInFanOut) {
  MontageConfig cfg;
  cfg.tiles = 8;
  const Workflow w = make_montage(cfg);
  w.validate();
  // 8 project + 7 difffit + 1 concat + 8 background + 1 add.
  EXPECT_EQ(w.task_count(), 8u + 7u + 1u + 8u + 1u);
  // mConcatFit fans in from every diff; mAdd from every corrected tile.
  EXPECT_EQ(w.parents("mConcatFit").size(), 7u);
  EXPECT_EQ(w.parents("mAdd").size(), 8u);
  // fits.tbl is a broadcast file read by all background tasks.
  EXPECT_EQ(w.consumers("fits.tbl").size(), 8u);
  // Depth: project -> difffit -> concat -> background -> add.
  EXPECT_EQ(w.critical_path_length(), 5u);
  EXPECT_EQ(w.exit_tasks(), (std::vector<std::string>{"mAdd"}));
}

TEST(Montage, RejectsTooFewTiles) {
  MontageConfig cfg;
  cfg.tiles = 1;
  EXPECT_THROW(make_montage(cfg), util::ConfigError);
}

TEST(CyberShake, StructureMatches) {
  CyberShakeConfig cfg;
  cfg.variations = 2;
  cfg.ruptures = 5;
  const Workflow w = make_cybershake(cfg);
  w.validate();
  // 2 extract + 2*5 seismogram + 2*5 peak + 1 zip.
  EXPECT_EQ(w.task_count(), 2u + 10u + 10u + 1u);
  EXPECT_EQ(w.parents("ZipSeis").size(), 10u);
  // Each seismogram depends on its variation's extract only.
  EXPECT_EQ(w.parents("Seismogram_1_003"),
            (std::vector<std::string>{"ExtractSGT_1"}));
  EXPECT_EQ(w.critical_path_length(), 4u);
}

TEST(CyberShake, RunsOnEngine) {
  CyberShakeConfig cfg;
  cfg.variations = 2;
  cfg.ruptures = 3;
  const Workflow w = make_cybershake(cfg);
  exec::ExecutionConfig ecfg;
  ecfg.placement = exec::all_bb_policy();
  ecfg.stage_in_mode = exec::StageInMode::Instant;
  exec::Simulation sim(platform::cori_platform(), w, ecfg);
  const exec::Result r = sim.run();
  EXPECT_EQ(r.tasks.size(), w.task_count());
}

TEST(Describe, SummaryMatchesHandCounts) {
  const Workflow w = make_swarp({.pipelines = 2});
  const WorkflowSummary s = summarize(w);
  EXPECT_EQ(s.tasks, 5u);
  EXPECT_EQ(s.files, 2u * 66u);  // 64 in/out pairs + 2 coadds per pipeline
  EXPECT_EQ(s.levels, 3u);
  EXPECT_EQ(s.max_level_width, 2u);
  EXPECT_EQ(s.max_fan_in, 32u);
  EXPECT_EQ(s.max_fan_out, 1u);
  EXPECT_DOUBLE_EQ(s.total_bytes, w.total_data_bytes());
  EXPECT_DOUBLE_EQ(s.input_bytes + s.intermediate_bytes + s.output_bytes,
                   s.total_bytes);
  EXPECT_EQ(s.by_type.at("resample").count, 2u);
  EXPECT_EQ(s.by_type.at("resample").max_requested_cores, 32);
}

TEST(Describe, ReportMentionsKeyNumbers) {
  const std::string text = describe(make_swarp({}));
  EXPECT_NE(text.find("tasks 3"), std::string::npos);
  EXPECT_NE(text.find("resample"), std::string::npos);
  EXPECT_NE(text.find("max fan-in 32"), std::string::npos);
}

TEST(ScaleDag, GeneratesExactTaskCountWithBoundedFanIn) {
  util::Rng rng(7);
  ScaleDagConfig cfg;
  cfg.task_count = 2500;
  cfg.width = 64;
  cfg.max_extra_fan_in = 2;
  const Workflow w = make_scale_dag(cfg, rng);
  EXPECT_EQ(w.task_count(), 2500u);
  // Fan-in is constant-bounded -- the property that makes generation
  // O(task_count) and the 1M tier feasible.
  for (const std::string& name : w.task_names()) {
    const Task& t = w.task(name);
    EXPECT_GE(t.inputs.size(), 1u);
    EXPECT_LE(t.inputs.size(), 3u);
    EXPECT_EQ(t.outputs.size(), 1u);
  }
  EXPECT_NO_THROW(w.validate());
}

TEST(ScaleDag, IsDeterministicPerSeed) {
  ScaleDagConfig cfg;
  cfg.task_count = 300;
  cfg.width = 16;
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  const Workflow a = make_scale_dag(cfg, rng_a);
  const Workflow b = make_scale_dag(cfg, rng_b);
  ASSERT_EQ(a.task_count(), b.task_count());
  EXPECT_EQ(a.task_names(), b.task_names());
  for (const std::string& name : a.task_names()) {
    EXPECT_EQ(a.task(name).inputs, b.task(name).inputs);
    EXPECT_DOUBLE_EQ(a.task(name).flops, b.task(name).flops);
  }
}

TEST(ScaleDag, PartialLastLevelStillValidates) {
  ScaleDagConfig cfg;
  cfg.task_count = 70;  // not a multiple of width
  cfg.width = 32;
  util::Rng rng(3);
  const Workflow w = make_scale_dag(cfg, rng);
  EXPECT_EQ(w.task_count(), 70u);
  EXPECT_NO_THROW(w.validate());
}

// ------------------------------------------------------------ dense ids

/// The relation index as the string-keyed maps once built it: producers and
/// readers in task order (duplicate listings kept), edges de-duplicated in
/// discovery order (file edges in task and input order, then control
/// dependencies). The id rows must reproduce it element for element.
struct ReferenceIndex {
  std::map<std::string, std::string> producer_of;
  std::map<std::string, std::vector<std::string>> readers;
  std::map<std::string, std::vector<std::string>> parent_of;
  std::map<std::string, std::vector<std::string>> child_of;

  explicit ReferenceIndex(const Workflow& w) {
    for (const std::string& t : w.task_names()) {
      for (const std::string& f : w.task(t).outputs) producer_of.emplace(f, t);
      for (const std::string& f : w.task(t).inputs) readers[f].push_back(t);
    }
    for (const std::string& t : w.task_names()) {
      for (const std::string& f : w.task(t).inputs) {
        const auto p = producer_of.find(f);
        if (p != producer_of.end() && p->second != t) add_edge(p->second, t);
      }
    }
    for (const auto& [parent, child] : w.control_deps()) add_edge(parent, child);
  }
  void add_edge(const std::string& parent, const std::string& child) {
    auto& kids = child_of[parent];
    if (std::find(kids.begin(), kids.end(), child) != kids.end()) return;
    kids.push_back(child);
    parent_of[child].push_back(parent);
  }
  static std::vector<std::string> row(
      const std::map<std::string, std::vector<std::string>>& m, const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? std::vector<std::string>{} : it->second;
  }
};

std::vector<std::string> task_names_of(const Workflow& w, std::span<const TaskId> ids) {
  std::vector<std::string> out;
  for (const TaskId id : ids) out.push_back(w.task_at(id).name);
  return out;
}

std::vector<std::string> file_names_of(const Workflow& w, std::span<const FileId> ids) {
  std::vector<std::string> out;
  for (const FileId id : ids) out.push_back(w.file_at(id).name);
  return out;
}

void expect_id_index_matches(const Workflow& w) {
  w.validate();
  const ReferenceIndex ref(w);
  ASSERT_EQ(w.task_count(), w.task_names().size());
  for (TaskId t = 0; t < w.task_count(); ++t) {
    const std::string& name = w.task_names()[t];
    ASSERT_EQ(w.task_id(name), t);
    ASSERT_EQ(w.task_at(t).name, name);
    const auto parents = task_names_of(w, w.parent_ids(t));
    const auto children = task_names_of(w, w.child_ids(t));
    EXPECT_EQ(parents, ReferenceIndex::row(ref.parent_of, name)) << name;
    EXPECT_EQ(children, ReferenceIndex::row(ref.child_of, name)) << name;
    EXPECT_EQ(parents, w.parents(name)) << name;
    EXPECT_EQ(children, w.children(name)) << name;
    EXPECT_EQ(file_names_of(w, w.input_ids(t)), w.task(name).inputs) << name;
    EXPECT_EQ(file_names_of(w, w.output_ids(t)), w.task(name).outputs) << name;
  }
  ASSERT_EQ(w.file_count(), w.file_names().size());
  for (FileId f = 0; f < w.file_count(); ++f) {
    const std::string& name = w.file_names()[f];
    ASSERT_EQ(w.file_id(name), f);
    ASSERT_EQ(w.file_at(f).name, name);
    const auto consumers = task_names_of(w, w.consumer_ids(f));
    EXPECT_EQ(consumers, ReferenceIndex::row(ref.readers, name)) << name;
    EXPECT_EQ(consumers, w.consumers(name)) << name;
    const auto p = ref.producer_of.find(name);
    if (p == ref.producer_of.end()) {
      EXPECT_EQ(w.producer_id(f), kNoId) << name;
      EXPECT_FALSE(w.producer(name).has_value()) << name;
    } else {
      ASSERT_NE(w.producer_id(f), kNoId) << name;
      EXPECT_EQ(w.task_at(w.producer_id(f)).name, p->second) << name;
      EXPECT_EQ(w.producer(name), p->second) << name;
    }
  }
  EXPECT_EQ(task_names_of(w, w.topological_ids()), w.topological_order());
  std::vector<std::string> sorted = w.task_names();
  std::sort(sorted.begin(), sorted.end());
  const auto by_name = w.task_ids_by_name();
  EXPECT_EQ(task_names_of(w, by_name), sorted);
}

TEST(WorkflowIds, ShapedRandomDagsMatchTheNameIndex) {
  for (const DagShape shape : {DagShape::Layered, DagShape::Chain, DagShape::FanOut,
                               DagShape::FanIn, DagShape::ForkJoin}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      util::Rng rng(seed);
      RandomDagConfig cfg;
      cfg.levels = 5;
      cfg.fan_in_probability = 0.5;
      SCOPED_TRACE(util::format("shape %d seed %llu", static_cast<int>(shape),
                                static_cast<unsigned long long>(seed)));
      expect_id_index_matches(make_shaped_dag(shape, cfg, rng));
    }
  }
}

TEST(WorkflowIds, GeneratedWorkflowsMatchTheNameIndex) {
  GenomesConfig genomes;
  genomes.chromosomes = 2;
  expect_id_index_matches(make_1000genomes(genomes));
  SwarpConfig swarp;
  swarp.pipelines = 3;
  expect_id_index_matches(make_swarp(swarp));
  expect_id_index_matches(make_montage({}));
  util::Rng rng(5);
  ScaleDagConfig scale;
  scale.task_count = 300;
  scale.width = 16;
  expect_id_index_matches(make_scale_dag(scale, rng));
}

TEST(WorkflowIds, ControlDepsAndDuplicateListingsMatchTheNameIndex) {
  // Created out of name order; "mid" lists "shared" twice; one control
  // dependency repeats a file edge, one repeats another control dependency.
  Workflow w;
  for (const char* f : {"raw", "shared", "out_z", "out_mid", "final"}) w.add_file({f, 8});
  w.add_task({"z_src", "t", 1, 0, 1, {"raw"}, {"shared", "out_z"}});
  w.add_task({"mid", "t", 1, 0, 1, {"shared", "out_z", "shared"}, {"out_mid"}});
  w.add_task({"a_sink", "t", 1, 0, 1, {"out_mid", "shared"}, {"final"}});
  w.add_task({"b_side", "t", 1, 0, 1, {}, {}});
  w.add_control_dep("b_side", "mid");
  w.add_control_dep("z_src", "mid");
  w.add_control_dep("b_side", "a_sink");
  w.add_control_dep("b_side", "mid");
  expect_id_index_matches(w);
  const TaskId mid = w.task_id("mid");
  EXPECT_EQ(task_names_of(w, w.parent_ids(mid)),
            (std::vector<std::string>{"z_src", "b_side"}));
  EXPECT_EQ(task_names_of(w, w.consumer_ids(w.file_id("shared"))),
            (std::vector<std::string>{"mid", "mid", "a_sink"}));
  EXPECT_THROW((void)w.task_id("ghost"), util::NotFoundError);
  EXPECT_THROW((void)w.file_id("ghost"), util::NotFoundError);
}

// Pins recorded before the core moved to dense ids: the cycle error names
// the lexicographically first task left, the aggregates sum in name order,
// and the relation lists of a workflow created out of name order keep their
// order.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(WorkflowIds, CycleErrorNamesTheFirstTaskLeftByName) {
  Workflow w;
  w.name = "loop";
  w.add_file({"x", 1});
  w.add_file({"y", 1});
  w.add_file({"z", 1});
  w.add_task({"q_entry", "t", 1, 0, 1, {}, {"z"}});
  w.add_task({"p", "t", 1, 0, 1, {"z", "y"}, {"x"}});
  w.add_task({"k", "t", 1, 0, 1, {"x"}, {"y"}});
  try {
    (void)w.topological_order();
    FAIL() << "cycle not detected";
  } catch (const util::InvariantError& e) {
    EXPECT_EQ(std::string(e.what()), "invariant violated: workflow 'loop' has a cycle involving task 'k'");
  }
}

TEST(WorkflowIds, AggregatesSumInNameOrderBitwise) {
  const Workflow genomes = make_1000genomes({});
  EXPECT_EQ(genomes.total_data_bytes(), 67512000000.0);
  EXPECT_EQ(genomes.total_flops(), 7396358400000000.0);
  util::Rng rng(3);
  RandomDagConfig cfg;
  cfg.levels = 6;
  const Workflow layered = make_random_layered(cfg, rng);
  EXPECT_EQ(layered.total_data_bytes(), 1089425622.1501062);
  EXPECT_EQ(layered.total_flops(), 12260783113299.801);
}

TEST(WorkflowIds, RelationListsOfGenomesKeepTheirOrder) {
  GenomesConfig cfg;
  cfg.chromosomes = 2;
  const Workflow w = make_1000genomes(cfg);
  std::string text;
  for (const std::string& t : w.task_names()) {
    text += t + ":";
    for (const std::string& p : w.parents(t)) text += p + ",";
    text += "|";
    for (const std::string& c : w.children(t)) text += c + ",";
    text += "\n";
  }
  EXPECT_EQ(fnv1a(text), 213119735955767394ULL);
}

}  // namespace
}  // namespace bbsim::wf
