// A working DAGMan-style workflow executor.
//
// The paper integrates prio with Condor DAGMan; this module provides the
// executable counterpart in-process: a thread-pooled engine that runs a
// dag's jobs (arbitrary callbacks — shell commands, lambdas, ...) while
// honoring dependencies, per-job priorities (Condor's `priority`
// attribute semantics: among queued jobs, highest value first), DAGMan's
// RETRY directive, and the -maxjobs throttle. On partial failure it can
// emit a rescue DAG (the original file with DONE marks), exactly like
// condor_submit_dag.
//
// Determinism: with max_workers == 1 the dispatch order is fully
// deterministic (priority desc, then eligibility order); with more
// workers only the precedence and priority-at-dispatch properties are
// guaranteed.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "dag/digraph.h"
#include "dagman/dagman_file.h"

namespace prio::dagman {

/// Runs one job; returns true on success. Called concurrently from
/// worker threads (at most ExecutorOptions::max_workers at a time).
using JobAction = std::function<bool(const std::string& job_name)>;

struct ExecutorOptions {
  /// Worker slots (concurrently running jobs).
  std::size_t max_workers = 4;
  /// DAGMan -maxjobs: cap on jobs submitted (running) at once on top of
  /// max_workers. 0 = no extra throttle.
  std::size_t max_jobs = 0;
  /// Order eligible jobs by the priority attribute (highest first) as
  /// Condor does once prio instrumented the files; false = FIFO.
  bool use_priorities = true;
  /// Default retry budget per job (DAGMan RETRY; per-job overrides via
  /// Executor::setRetries).
  std::size_t default_retries = 0;
};

/// Outcome of one workflow execution.
struct ExecutionReport {
  bool success = false;
  std::size_t executed = 0;          ///< jobs that completed successfully
  std::size_t failed = 0;            ///< jobs that exhausted retries
  std::size_t retried_attempts = 0;  ///< failed attempts that were retried
  std::size_t skipped = 0;           ///< descendants of failed jobs
  std::vector<std::string> failed_jobs;
  /// Job names in dispatch order.
  std::vector<std::string> dispatch_order;
  /// Number of dispatchable (ready, unclaimed) jobs observed at each
  /// dispatch — the executor-level analogue of E_Σ(t).
  std::vector<std::size_t> ready_history;
  double wall_seconds = 0.0;
};

/// Executes the jobs of a dag.
class Executor {
 public:
  /// The dag must be acyclic; throws util::Error otherwise.
  explicit Executor(const dag::Digraph& g, ExecutorOptions options = {});

  /// Sets per-job priorities (e.g. PrioResult::priority). Must have one
  /// entry per node. Higher runs first among simultaneously-ready jobs.
  void setPriorities(std::span<const std::size_t> priorities);

  /// Per-job retry budget (overrides ExecutorOptions::default_retries).
  void setRetries(dag::NodeId job, std::size_t retries);

  /// Marks a job as already DONE (DAGMan's DONE keyword / rescue DAGs):
  /// it is not run and its dependents treat it as satisfied.
  void setDone(dag::NodeId job);

  /// Runs the workflow to completion (or until every still-runnable job
  /// finished, when some jobs fail). Thread-safe against itself only
  /// sequentially: run() must not be called concurrently.
  [[nodiscard]] ExecutionReport run(const JobAction& action);

 private:
  const dag::Digraph& graph_;
  ExecutorOptions options_;
  std::vector<std::size_t> priority_;
  std::vector<std::size_t> retries_;
  std::vector<char> pre_done_;
};

/// Convenience pipeline mirroring condor_submit_dag: takes a (possibly
/// prio-instrumented) DAGMan file, reads each job's `jobpriority` macro
/// (defaulting to 0), honors DONE flags and RETRY extra lines, and runs
/// the workflow. A NOOP job completes without `action` being called.
[[nodiscard]] ExecutionReport executeDagmanFile(const DagmanFile& file,
                                                const JobAction& action,
                                                ExecutorOptions options = {});

/// Writes a rescue DAG: the original file with DONE appended to every job
/// that succeeded in `report` (plus previously-done jobs), so a re-run
/// resumes where the failed run stopped.
[[nodiscard]] DagmanFile makeRescueDag(const DagmanFile& file,
                                       const ExecutionReport& report);

/// A JobAction that really runs each job's submit description: it reads
/// `<directory>/<dir>/<submit_file>` (`dir` being the job's DIR option,
/// empty when absent), extracts the `executable` (and optional
/// `arguments`) commands, and executes them with /bin/sh -c from
/// `<directory>/<dir>`. A job succeeds when the process exits 0. Missing
/// submit files or executables count as failures. NOOP jobs get no
/// command: executeDagmanFile() completes them without calling the
/// action.
[[nodiscard]] JobAction shellAction(const DagmanFile& file,
                                    const std::string& directory);

}  // namespace prio::dagman
