#include "workflow/workflow.hpp"

#include <algorithm>
#include <unordered_set>

namespace bbsim::wf {

using util::ConfigError;
using util::InvariantError;
using util::NotFoundError;

namespace {

/// Rows of `row_count` rows holding values[i] in row keys[i], in pair order
/// within each row (a stable counting sort).
template <class Rows>
Rows group_rows(std::size_t row_count, const std::vector<std::uint32_t>& keys,
                const std::vector<std::uint32_t>& values) {
  Rows out;
  out.offsets.assign(row_count + 1, 0);
  for (const std::uint32_t k : keys) ++out.offsets[k + 1];
  for (std::size_t r = 0; r < row_count; ++r) out.offsets[r + 1] += out.offsets[r];
  out.items.resize(keys.size());
  std::vector<std::uint32_t> fill(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t i = 0; i < keys.size(); ++i) out.items[fill[keys[i]]++] = values[i];
  return out;
}

}  // namespace

void Workflow::add_file(File file) {
  if (file.name.empty()) throw ConfigError("file with empty name");
  if (file.size < 0) throw ConfigError("file '" + file.name + "': negative size");
  const auto it = file_index_.find(file.name);
  if (it == file_index_.end()) {
    if (files_.size() >= kNoId) throw ConfigError("too many files");
    file_index_.emplace(file.name, static_cast<FileId>(files_.size()));
    file_order_.push_back(file.name);
    files_.push_back(std::move(file));
  } else {
    files_[it->second].size = file.size;
  }
  index_dirty_ = true;
}

void Workflow::add_task(Task task) {
  if (task.name.empty()) throw ConfigError("task with empty name");
  if (task_index_.count(task.name) > 0) {
    throw ConfigError("duplicate task '" + task.name + "'");
  }
  if (task.requested_cores < 1) {
    throw ConfigError("task '" + task.name + "': requested_cores must be >= 1");
  }
  if (task.flops < 0) throw ConfigError("task '" + task.name + "': negative flops");
  if (task.alpha < 0 || task.alpha > 1) {
    throw ConfigError("task '" + task.name + "': alpha must be in [0, 1]");
  }
  if (tasks_.size() >= kNoId) throw ConfigError("too many tasks");
  task_index_.emplace(task.name, static_cast<TaskId>(tasks_.size()));
  task_order_.push_back(task.name);
  tasks_.push_back(std::move(task));
  index_dirty_ = true;
}

void Workflow::add_control_dep(const std::string& parent, const std::string& child) {
  control_deps_.emplace_back(parent, child);
  index_dirty_ = true;
}

TaskId Workflow::find_task(const std::string& task_name) const {
  const auto it = task_index_.find(task_name);
  return it == task_index_.end() ? kNoId : it->second;
}

FileId Workflow::find_file(const std::string& file_name) const {
  const auto it = file_index_.find(file_name);
  return it == file_index_.end() ? kNoId : it->second;
}

bool Workflow::has_file(const std::string& file_name) const {
  return find_file(file_name) != kNoId;
}

bool Workflow::has_task(const std::string& task_name) const {
  return find_task(task_name) != kNoId;
}

TaskId Workflow::task_id(const std::string& task_name) const {
  const TaskId id = find_task(task_name);
  if (id == kNoId) throw NotFoundError("task '" + task_name + "'");
  return id;
}

FileId Workflow::file_id(const std::string& file_name) const {
  const FileId id = find_file(file_name);
  if (id == kNoId) throw NotFoundError("file '" + file_name + "'");
  return id;
}

const File& Workflow::file(const std::string& file_name) const {
  return files_[file_id(file_name)];
}

const Task& Workflow::task(const std::string& task_name) const {
  return tasks_[task_id(task_name)];
}

Task& Workflow::task_mut(const std::string& task_name) {
  Task& t = tasks_[task_id(task_name)];
  index_dirty_ = true;  // caller may change inputs/outputs
  return t;
}

const Workflow::Index& Workflow::index() const {
  if (!index_dirty_) return index_;
  const std::size_t nt = tasks_.size();
  const std::size_t nf = files_.size();
  Index idx;

  // Task -> file rows, in each task's listing order.
  auto file_rows = [&](bool outputs) {
    Rows rows;
    rows.offsets.reserve(nt + 1);
    rows.offsets.push_back(0);
    for (const Task& t : tasks_) {
      for (const std::string& f : outputs ? t.outputs : t.inputs) {
        const FileId id = find_file(f);
        if (id == kNoId) {
          throw ConfigError("task '" + t.name + (outputs ? "' writes" : "' reads") +
                            " unknown file '" + f + "'");
        }
        rows.items.push_back(id);
      }
      if (rows.items.size() >= kNoId) throw ConfigError("too many file listings");
      rows.offsets.push_back(static_cast<std::uint32_t>(rows.items.size()));
    }
    return rows;
  };
  idx.inputs = file_rows(false);
  idx.outputs = file_rows(true);

  idx.producer.assign(nf, kNoId);
  for (TaskId t = 0; t < nt; ++t) {
    for (const FileId f : idx.outputs.row(t)) {
      if (idx.producer[f] == kNoId) {
        idx.producer[f] = t;
      } else if (idx.producer[f] != t) {
        throw InvariantError("file '" + files_[f].name + "' written by both '" +
                             tasks_[idx.producer[f]].name + "' and '" + tasks_[t].name +
                             "'");
      }
    }
  }

  std::vector<TaskId> reader_of(idx.inputs.items.size());
  for (TaskId t = 0; t < nt; ++t) {
    std::fill(reader_of.begin() + idx.inputs.offsets[t],
              reader_of.begin() + idx.inputs.offsets[t + 1], t);
  }
  idx.readers = group_rows<Rows>(nf, idx.inputs.items, reader_of);

  // Edges in discovery order. A file edge into task t is only found while
  // scanning t, so a "last child" stamp per parent de-duplicates them.
  std::vector<TaskId> edge_parent;
  std::vector<TaskId> edge_child;
  std::vector<TaskId> last_child(nt, kNoId);
  for (TaskId t = 0; t < nt; ++t) {
    for (const FileId f : idx.inputs.row(t)) {
      const TaskId p = idx.producer[f];
      if (p == kNoId || p == t || last_child[p] == t) continue;
      last_child[p] = t;
      edge_parent.push_back(p);
      edge_child.push_back(t);
    }
  }
  if (!control_deps_.empty()) {
    std::unordered_set<std::uint64_t> edges;
    auto key = [](TaskId p, TaskId c) { return (std::uint64_t{p} << 32) | c; };
    for (std::size_t e = 0; e < edge_parent.size(); ++e) {
      edges.insert(key(edge_parent[e], edge_child[e]));
    }
    for (const auto& [parent, child] : control_deps_) {
      const TaskId p = find_task(parent);
      const TaskId c = find_task(child);
      if (p == kNoId || c == kNoId) {
        throw ConfigError("control dependency references unknown task ('" + parent +
                          "' -> '" + child + "')");
      }
      if (!edges.insert(key(p, c)).second) continue;
      edge_parent.push_back(p);
      edge_child.push_back(c);
    }
  }
  idx.children = group_rows<Rows>(nt, edge_parent, edge_child);
  idx.parents = group_rows<Rows>(nt, edge_child, edge_parent);

  index_ = std::move(idx);
  index_dirty_ = false;
  return index_;
}

std::span<const TaskId> Workflow::parent_ids(TaskId task) const {
  return index().parents.row(task);
}

std::span<const TaskId> Workflow::child_ids(TaskId task) const {
  return index().children.row(task);
}

std::span<const TaskId> Workflow::consumer_ids(FileId file) const {
  return index().readers.row(file);
}

TaskId Workflow::producer_id(FileId file) const { return index().producer[file]; }

std::span<const FileId> Workflow::input_ids(TaskId task) const {
  return index().inputs.row(task);
}

std::span<const FileId> Workflow::output_ids(TaskId task) const {
  return index().outputs.row(task);
}

std::vector<std::string> Workflow::task_names_of(std::span<const TaskId> ids) const {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (const TaskId id : ids) out.push_back(tasks_[id].name);
  return out;
}

std::optional<std::string> Workflow::producer(const std::string& file_name) const {
  const Index& idx = index();
  const FileId f = find_file(file_name);
  if (f == kNoId || idx.producer[f] == kNoId) return std::nullopt;
  return tasks_[idx.producer[f]].name;
}

std::vector<std::string> Workflow::consumers(const std::string& file_name) const {
  const Index& idx = index();
  const FileId f = find_file(file_name);
  return f == kNoId ? std::vector<std::string>{} : task_names_of(idx.readers.row(f));
}

std::vector<std::string> Workflow::parents(const std::string& task_name) const {
  const Index& idx = index();
  const TaskId t = find_task(task_name);
  return t == kNoId ? std::vector<std::string>{} : task_names_of(idx.parents.row(t));
}

std::vector<std::string> Workflow::children(const std::string& task_name) const {
  const Index& idx = index();
  const TaskId t = find_task(task_name);
  return t == kNoId ? std::vector<std::string>{} : task_names_of(idx.children.row(t));
}

std::vector<std::string> Workflow::entry_tasks() const {
  const Index& idx = index();
  std::vector<std::string> out;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    if (idx.parents.row(t).empty()) out.push_back(tasks_[t].name);
  }
  return out;
}

std::vector<std::string> Workflow::exit_tasks() const {
  const Index& idx = index();
  std::vector<std::string> out;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    if (idx.children.row(t).empty()) out.push_back(tasks_[t].name);
  }
  return out;
}

std::vector<std::string> Workflow::input_files() const {
  const Index& idx = index();
  std::vector<std::string> out;
  for (FileId f = 0; f < files_.size(); ++f) {
    if (idx.producer[f] == kNoId && !idx.readers.row(f).empty()) {
      out.push_back(files_[f].name);
    }
  }
  return out;
}

std::vector<std::string> Workflow::output_files() const {
  const Index& idx = index();
  std::vector<std::string> out;
  for (FileId f = 0; f < files_.size(); ++f) {
    if (idx.producer[f] != kNoId && idx.readers.row(f).empty()) {
      out.push_back(files_[f].name);
    }
  }
  return out;
}

std::vector<std::string> Workflow::intermediate_files() const {
  const Index& idx = index();
  std::vector<std::string> out;
  for (FileId f = 0; f < files_.size(); ++f) {
    if (idx.producer[f] != kNoId && !idx.readers.row(f).empty()) {
      out.push_back(files_[f].name);
    }
  }
  return out;
}

std::vector<TaskId> Workflow::topological_ids() const {
  const Index& idx = index();
  const std::size_t n = tasks_.size();
  std::vector<std::uint32_t> in_degree(n);
  std::vector<TaskId> order;  // doubles as Kahn's FIFO queue
  order.reserve(n);
  for (TaskId t = 0; t < n; ++t) {
    in_degree[t] = static_cast<std::uint32_t>(idx.parents.row(t).size());
    if (in_degree[t] == 0) order.push_back(t);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const TaskId c : idx.children.row(order[head])) {
      if (--in_degree[c] == 0) order.push_back(c);
    }
  }
  if (order.size() != n) {
    const std::string* first = nullptr;
    for (TaskId t = 0; t < n; ++t) {
      if (in_degree[t] > 0 && (first == nullptr || tasks_[t].name < *first)) {
        first = &tasks_[t].name;
      }
    }
    throw InvariantError("workflow '" + name + "' has a cycle involving task '" +
                         *first + "'");
  }
  return order;
}

std::vector<std::string> Workflow::topological_order() const {
  return task_names_of(topological_ids());
}

std::vector<TaskId> Workflow::task_ids_by_name() const {
  std::vector<TaskId> ids(tasks_.size());
  for (TaskId t = 0; t < ids.size(); ++t) ids[t] = t;
  std::sort(ids.begin(), ids.end(),
            [this](TaskId a, TaskId b) { return tasks_[a].name < tasks_[b].name; });
  return ids;
}

void Workflow::validate() const {
  // Per task, in order: unknown reads, unknown writes, then a file both
  // read and written (stamped with the task's id + 1).
  std::vector<TaskId> written_by(files_.size(), 0);
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    const Task& task = tasks_[t];
    for (const std::string& f : task.inputs) {
      if (!has_file(f)) {
        throw ConfigError("task '" + task.name + "' reads unknown file '" + f + "'");
      }
    }
    for (const std::string& f : task.outputs) {
      const FileId id = find_file(f);
      if (id == kNoId) {
        throw ConfigError("task '" + task.name + "' writes unknown file '" + f + "'");
      }
      written_by[id] = t + 1;
    }
    for (const std::string& f : task.inputs) {
      if (written_by[find_file(f)] == t + 1) {
        throw ConfigError("task '" + task.name + "' both reads and writes file '" + f +
                          "'");
      }
    }
  }
  for (const auto& [parent, child] : control_deps_) {
    if (!has_task(parent) || !has_task(child)) {
      throw ConfigError("control dependency references unknown task ('" + parent +
                        "' -> '" + child + "')");
    }
  }
  (void)index();            // single-writer check
  (void)topological_ids();  // acyclicity check
}

double Workflow::total_data_bytes() const {
  std::vector<FileId> ids(files_.size());
  for (FileId f = 0; f < ids.size(); ++f) ids[f] = f;
  std::sort(ids.begin(), ids.end(),
            [this](FileId a, FileId b) { return files_[a].name < files_[b].name; });
  double total = 0;
  for (const FileId f : ids) total += files_[f].size;
  return total;
}

double Workflow::total_flops() const {
  double total = 0;
  for (const TaskId t : task_ids_by_name()) total += tasks_[t].flops;
  return total;
}

double Workflow::input_data_bytes() const {
  double total = 0;
  for (const std::string& f : input_files()) total += file(f).size;
  return total;
}

std::size_t Workflow::critical_path_length() const {
  const Index& idx = index();
  std::vector<std::size_t> depth(tasks_.size(), 0);
  std::size_t longest = 0;
  for (const TaskId t : topological_ids()) {
    std::size_t d = 1;
    for (const TaskId p : idx.parents.row(t)) d = std::max(d, depth[p] + 1);
    depth[t] = d;
    longest = std::max(longest, d);
  }
  return longest;
}

}  // namespace bbsim::wf
