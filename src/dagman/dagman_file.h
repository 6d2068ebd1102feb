// DAGMan input-file model (§3.2).
//
// A DAGMan input file declares jobs ("JOB <name> <submit-file> [DIR
// <dir>] [NOOP] [DONE]"), dependencies ("PARENT <p...> CHILD <c...>") and
// per-job macros ("VARS <job> key=\"value\""). The prio tool parses such
// a file, extracts the dag, runs the scheduling heuristic, and writes the
// file back with a `jobpriority` macro defined for every job (Fig. 3).
// Other JOB options are dropped; unrecognized directives (RETRY, SCRIPT,
// CONFIG, ...) are preserved verbatim.
//
// Parsing is one pass over the text (DESIGN.md §9, "Single-pass DAGMan
// scanner"): lines are split in place, each job name is interned once in
// a table local to the parse, and PARENT/CHILD arcs are kept as pairs of
// job indices. toDigraph() fills the adjacency arrays that
// Digraph::fromAdjacency() adopts, with no name lookups. render() writes
// the canonical form into one string: Job lines, then Vars lines, then
// one PARENT line per arc, then the preserved extras; comments are
// dropped and keywords normalised.
//
// Thread safety: const members are safe to call concurrently; mutation
// requires exclusive access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dag/digraph.h"

namespace prio::dagman {

/// One JOB declaration.
struct DagmanJob {
  std::string name;
  std::string submit_file;
  std::string dir;     ///< the DIR option's directory; empty when absent
  bool noop = false;   ///< the NOOP keyword
  bool done = false;   ///< the DONE keyword
  /// VARS macros in declaration order (later duplicates overwrite).
  std::vector<std::pair<std::string, std::string>> vars;

  /// Value of a macro, if defined.
  [[nodiscard]] std::optional<std::string> var(const std::string& key) const;
  /// Defines or overwrites a macro.
  void setVar(std::string_view key, std::string value);
};

/// One PARENT -> CHILD arc, as indices into DagmanFile::jobs().
struct Dependency {
  std::uint32_t parent = 0;
  std::uint32_t child = 0;
  friend bool operator==(const Dependency&, const Dependency&) = default;
};

/// A parsed DAGMan input file.
class DagmanFile {
 public:
  /// Parses DAGMan text. Throws util::Error, naming the line, in this
  /// precedence: a malformed line or a duplicate JOB (the first in the
  /// text); a PARENT/CHILD naming an unknown job (in dependency order);
  /// a VARS for an unknown job. Jobs may be named before their JOB line.
  static DagmanFile parse(std::string_view text);
  /// Reads the rest of `in` in bulk, then parses it as above.
  static DagmanFile parse(std::istream& in);
  /// Reads a regular file in one call and parses it.
  static DagmanFile parseFile(const std::string& path);

  [[nodiscard]] const std::vector<DagmanJob>& jobs() const { return jobs_; }
  [[nodiscard]] std::vector<DagmanJob>& jobs() { return jobs_; }
  /// Arcs in declaration order, expanded from PARENT ... CHILD ... lines
  /// (each parent times each child). Repeats are kept: render() writes
  /// them back and toDigraph() collapses them.
  [[nodiscard]] const std::vector<Dependency>& dependencies() const {
    return dependencies_;
  }
  /// Directives preserved verbatim (RETRY, SCRIPT, ...), each trimmed.
  [[nodiscard]] const std::vector<std::string>& extraLines() const {
    return extra_lines_;
  }

  /// Adds a job; throws on duplicate name.
  DagmanJob& addJob(std::string name, std::string submit_file);
  /// Adds a dependency; both jobs must already exist.
  void addDependency(const std::string& parent, const std::string& child);

  /// The job of that name, or null. The non-const overload indexes the
  /// names on first use after a parse; the const one stays read-only and
  /// scans the jobs while no index exists.
  [[nodiscard]] DagmanJob* findJob(const std::string& name);
  [[nodiscard]] const DagmanJob* findJob(const std::string& name) const;

  /// The job-dependency dag; node ids follow job declaration order and
  /// node names are job names. A repeated arc keeps its first position,
  /// so children(u) and parents(v) list arcs in declaration order.
  /// Throws util::Error on a self-loop or a directed cycle.
  [[nodiscard]] dag::Digraph toDigraph() const;

  /// The dag of jobs NOT marked DONE (rescue-dag re-prioritization):
  /// node ids follow declaration order over pending jobs only, and
  /// every dependency touching a DONE job is dropped — its constraint
  /// is already satisfied, so a DONE parent must not make a pending
  /// child look non-eligible to the heuristic. When `job_of_node` is
  /// non-null it receives, per node id, the index into jobs() of that
  /// pending job. With no DONE jobs this is exactly toDigraph().
  [[nodiscard]] dag::Digraph toPendingDigraph(
      std::vector<std::size_t>* job_of_node = nullptr) const;

  /// True when any job carries the DONE mark.
  [[nodiscard]] bool hasDoneJobs() const;

  /// Serializes back to DAGMan syntax in one pre-sized string: JOB
  /// lines (`Job <name> <submit> [DIR <dir>] [NOOP] [DONE]`), VARS lines,
  /// one PARENT/CHILD line per dependency, then the preserved extras.
  /// VARS values escape '"' and '\' with a backslash, so parse(render())
  /// reads back the same file.
  [[nodiscard]] std::string render() const;
  /// render(), written to a stream.
  void write(std::ostream& out) const;
  void writeFile(const std::string& path) const;
  /// As writeFile(), but crash-safe: content lands in a sibling temp
  /// file first and is rename()d into place, so an interrupted run
  /// never leaves a torn .dag (see util/atomic_file.h).
  void writeFileAtomic(const std::string& path) const;

 private:
  /// Brings index_ up to date with jobs_ (a no-op when it already is).
  void indexJobs();

  std::vector<DagmanJob> jobs_;
  std::vector<Dependency> dependencies_;
  std::vector<std::string> extra_lines_;
  /// Job name -> index into jobs_, for addJob, addDependency and
  /// findJob. parse() leaves it empty (the scan keeps its own table), so
  /// it is current exactly when it holds one entry per job.
  std::unordered_map<std::string, std::uint32_t> index_;
};

}  // namespace prio::dagman
