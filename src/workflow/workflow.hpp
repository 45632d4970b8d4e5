// bbsim -- the scientific workflow model.
//
// A workflow is a DAG in which vertices are tasks and edges are induced by
// the files tasks exchange (paper Section IV-A), plus optional explicit
// control dependencies. Each task carries its sequential compute work in
// flops and an Amdahl non-parallelisable fraction alpha; the calibration
// module (src/model) fills flops in from observed runtimes via the paper's
// Equations (1)-(4).
//
// Tasks and files get dense ids in creation order. The structure (producer,
// readers, parents, children, inputs, outputs) is compiled once into id rows
// in compressed sparse row form, so the execution engine walks integers;
// names are looked up only at the parse, trace and report boundaries.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace bbsim::wf {

/// Dense task index: the task's position in creation order.
using TaskId = std::uint32_t;
/// Dense file index: the file's position in creation order.
using FileId = std::uint32_t;
/// No task (a workflow input's producer) / no file.
inline constexpr std::uint32_t kNoId = std::numeric_limits<std::uint32_t>::max();

/// A data product exchanged between tasks.
struct File {
  std::string name;
  double size = 0.0;  ///< bytes
};

/// A workflow task (vertex).
struct Task {
  std::string name;
  std::string type;  ///< category, e.g. "resample", "combine", "individuals"
  /// Sequential compute work (flop), excluding all I/O -- the paper's
  /// T_c(1) times the reference core speed.
  double flops = 0.0;
  /// Amdahl non-parallelisable fraction (paper Eq. (2)); 0 = perfect speedup.
  double alpha = 0.0;
  /// Cores the task wants when scheduled (>= 1).
  int requested_cores = 1;
  std::vector<std::string> inputs;   ///< file names read
  std::vector<std::string> outputs;  ///< file names produced (single writer)
};

/// The task/file DAG with validation and structural queries.
class Workflow {
 public:
  std::string name = "workflow";

  // ------------------------------------------------------------- mutation
  /// Adds a file; re-adding the same name overwrites its size.
  void add_file(File file);
  /// Adds a task; duplicate names throw ConfigError. All referenced files
  /// must be added (before or after); validate() checks.
  void add_task(Task task);
  /// Explicit control dependency (edge without a file).
  void add_control_dep(const std::string& parent, const std::string& child);
  /// Control dependencies (parent, child) in the order they were added.
  const std::vector<std::pair<std::string, std::string>>& control_deps() const {
    return control_deps_;
  }

  // -------------------------------------------------------------- lookups
  bool has_file(const std::string& file_name) const;
  bool has_task(const std::string& task_name) const;
  const File& file(const std::string& file_name) const;
  const Task& task(const std::string& task_name) const;
  /// Mutable access to everything but the name (which keys the lookup).
  Task& task_mut(const std::string& task_name);

  /// Task names in creation order.
  const std::vector<std::string>& task_names() const { return task_order_; }
  /// File names in creation order.
  const std::vector<std::string>& file_names() const { return file_order_; }
  std::size_t task_count() const { return task_order_.size(); }
  std::size_t file_count() const { return file_order_.size(); }

  // ------------------------------------------------------------ dense ids
  /// Id of a task / file by name; NotFoundError when there is none.
  TaskId task_id(const std::string& task_name) const;
  FileId file_id(const std::string& file_name) const;
  const Task& task_at(TaskId id) const { return tasks_[id]; }
  const File& file_at(FileId id) const { return files_[id]; }

  /// Id rows of the relation index. Every row keeps the order of its
  /// by-name counterpart below; the spans stay valid until the next
  /// mutation.
  std::span<const TaskId> parent_ids(TaskId task) const;
  std::span<const TaskId> child_ids(TaskId task) const;
  /// Readers of a file in task order (a task listing it twice appears twice).
  std::span<const TaskId> consumer_ids(FileId file) const;
  /// Producer of a file, kNoId for workflow inputs.
  TaskId producer_id(FileId file) const;
  /// The task's Task::inputs / Task::outputs as file ids.
  std::span<const FileId> input_ids(TaskId task) const;
  std::span<const FileId> output_ids(TaskId task) const;
  /// topological_order() as ids.
  std::vector<TaskId> topological_ids() const;
  /// All task ids sorted by task name: the order of every name-ordered walk.
  std::vector<TaskId> task_ids_by_name() const;

  // ------------------------------------------------------------ structure
  /// Producer task of a file, or nullopt for workflow inputs.
  std::optional<std::string> producer(const std::string& file_name) const;
  /// Tasks that read the file.
  std::vector<std::string> consumers(const std::string& file_name) const;
  /// Direct predecessors (file producers + control parents), de-duplicated.
  std::vector<std::string> parents(const std::string& task_name) const;
  /// Direct successors.
  std::vector<std::string> children(const std::string& task_name) const;
  /// Tasks with no parents.
  std::vector<std::string> entry_tasks() const;
  /// Tasks with no children.
  std::vector<std::string> exit_tasks() const;
  /// Files no task produces (must be pre-staged).
  std::vector<std::string> input_files() const;
  /// Files no task consumes (final products).
  std::vector<std::string> output_files() const;
  /// Files both produced and consumed.
  std::vector<std::string> intermediate_files() const;

  /// Kahn topological order; throws InvariantError when the graph has a
  /// cycle (naming the lexicographically first task left on it).
  std::vector<std::string> topological_order() const;

  /// Full structural validation: referenced files exist, single writer per
  /// file, control deps reference real tasks, acyclicity, positive sizes.
  /// Throws ConfigError / InvariantError.
  void validate() const;

  // ------------------------------------------------------------ aggregates
  /// Summed in name order.
  double total_data_bytes() const;
  double total_flops() const;
  /// Sum of sizes of input_files().
  double input_data_bytes() const;

  /// Longest chain length in tasks (for scheduling lower bounds in tests).
  std::size_t critical_path_length() const;

 private:
  std::vector<std::string> task_order_;  ///< names by id
  std::vector<std::string> file_order_;
  std::vector<Task> tasks_;  ///< by id
  std::vector<File> files_;
  std::unordered_map<std::string, TaskId> task_index_;  ///< lookup only
  std::unordered_map<std::string, FileId> file_index_;  ///< lookup only
  std::vector<std::pair<std::string, std::string>> control_deps_;

  /// Compressed sparse rows: row r is items[offsets[r], offsets[r + 1]).
  struct Rows {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> items;
    std::span<const std::uint32_t> row(std::size_t r) const {
      return {items.data() + offsets[r], offsets[r + 1] - offsets[r]};
    }
  };
  /// The relation index, built on first use after a mutation. Tie-breaks
  /// downstream depend on its push order: readers in task order with
  /// duplicate listings kept; edges de-duplicated in discovery order, file
  /// edges (task order, then input order) before control dependencies.
  struct Index {
    std::vector<TaskId> producer;  ///< by file
    Rows readers;                  ///< file -> tasks
    Rows parents;                  ///< task -> tasks
    Rows children;                 ///< task -> tasks
    Rows inputs;                   ///< task -> files
    Rows outputs;                  ///< task -> files
  };
  mutable Index index_;
  mutable bool index_dirty_ = true;
  const Index& index() const;
  TaskId find_task(const std::string& task_name) const;  ///< kNoId if absent
  FileId find_file(const std::string& file_name) const;  ///< kNoId if absent
  std::vector<std::string> task_names_of(std::span<const TaskId> ids) const;
};

}  // namespace bbsim::wf
