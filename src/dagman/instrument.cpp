#include "dagman/instrument.h"

#include <filesystem>
#include <set>

#include "util/check.h"

namespace prio::dagman {

void instrumentDagmanFile(DagmanFile& file,
                          std::span<const std::size_t> priorities) {
  PRIO_CHECK_MSG(priorities.size() == file.jobs().size(),
                 "priority vector size must match job count");
  for (std::size_t i = 0; i < file.jobs().size(); ++i) {
    file.jobs()[i].setVar("jobpriority", std::to_string(priorities[i]));
  }
}

void instrumentPendingJobs(DagmanFile& file,
                           std::span<const std::size_t> priorities,
                           std::span<const std::size_t> job_of_node) {
  PRIO_CHECK_MSG(priorities.size() == job_of_node.size(),
                 "one priority per pending job required");
  for (std::size_t node = 0; node < job_of_node.size(); ++node) {
    const std::size_t j = job_of_node[node];
    PRIO_CHECK_MSG(j < file.jobs().size(), "pending-job index out of range");
    file.jobs()[j].setVar("jobpriority", std::to_string(priorities[node]));
  }
}

core::PrioResult prioritizeDagmanFile(DagmanFile& file,
                                      const core::PrioOptions& options) {
  std::vector<std::size_t> job_of_node;
  const dag::Digraph g = file.toPendingDigraph(&job_of_node);
  core::PrioResult result = core::prioritize(core::PrioRequest(g, options));
  instrumentPendingJobs(file, result.priority, job_of_node);
  return result;
}

std::vector<std::string> instrumentSubmitFiles(const DagmanFile& file,
                                               const std::string& directory) {
  namespace fs = std::filesystem;
  std::set<std::string> distinct;
  for (const DagmanJob& job : file.jobs()) {
    if (!job.noop) {
      distinct.insert((fs::path(job.dir) / job.submit_file).string());
    }
  }

  std::vector<std::string> rewritten;
  for (const std::string& name : distinct) {
    const fs::path path = fs::path(directory) / name;
    if (!fs::exists(path)) continue;
    Jsdf jsdf = Jsdf::parseFile(path.string());
    jsdf.instrumentPriorityMacro();
    jsdf.writeFile(path.string());
    rewritten.push_back(name);
  }
  return rewritten;
}

}  // namespace prio::dagman
