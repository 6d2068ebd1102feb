// The prio tool's instrumentation step (§3.2, Fig. 3): given a DAGMan
// file and a PRIO schedule, define the `jobpriority` macro for every job
// (value = the job's priority, numNodes() for the first scheduled job down
// to 1 for the last) and add `priority = $(jobpriority)` to each job's
// submit description file.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/prio.h"
#include "dagman/dagman_file.h"
#include "dagman/jsdf.h"

namespace prio::dagman {

/// Defines Vars jobpriority="<value>" for every job of the file.
/// `priorities` is indexed by the node ids of file.toDigraph() (i.e. job
/// declaration order) — exactly PrioResult::priority.
void instrumentDagmanFile(DagmanFile& file,
                          std::span<const std::size_t> priorities);

/// Rescue-dag variant: defines jobpriority only for the jobs listed in
/// `job_of_node` (the mapping produced by DagmanFile::toPendingDigraph);
/// `priorities` is indexed by pending-dag node id. Jobs marked DONE are
/// left untouched — their jobpriority (if any) survives verbatim, since
/// they will never be submitted again.
void instrumentPendingJobs(DagmanFile& file,
                           std::span<const std::size_t> priorities,
                           std::span<const std::size_t> job_of_node);

/// One-call pipeline: parse the dag out of `file`, run the prio heuristic,
/// and instrument the file. Returns the full PrioResult for inspection.
///
/// Rescue dags: jobs marked DONE are excluded from the scheduling dag
/// (DagmanFile::toPendingDigraph) and keep whatever jobpriority they
/// already carry — the heuristic sees exactly the remaining work, so a
/// resumed run gets priorities computed for the dag it will actually
/// execute. With no DONE jobs this is the original full-file pipeline;
/// the returned PrioResult is indexed by pending-dag node ids.
core::PrioResult prioritizeDagmanFile(DagmanFile& file,
                                      const core::PrioOptions& options = {});

/// Instruments every distinct submit file referenced by `file`, reading
/// and rewriting `<directory>/<dir>/<submit_file>` (`dir` being the
/// job's DIR option, empty when absent). A NOOP job's submit file is not
/// instrumented on its account; one a real job shares still is. Missing
/// JSDFs are skipped (the paper, likewise, instrumented only the DAGMan
/// inputs when JSDFs were unavailable); returns the files rewritten,
/// relative to `directory`.
std::vector<std::string> instrumentSubmitFiles(const DagmanFile& file,
                                               const std::string& directory);

}  // namespace prio::dagman
