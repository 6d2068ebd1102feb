#include "dagman/executor.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "dag/algorithms.h"
#include "dagman/jsdf.h"
#include "util/check.h"
#include "util/timing.h"

namespace prio::dagman {

namespace {
using dag::NodeId;
}  // namespace

Executor::Executor(const dag::Digraph& g, ExecutorOptions options)
    : graph_(g),
      options_(options),
      priority_(g.numNodes(), 0),
      retries_(g.numNodes(), options.default_retries),
      pre_done_(g.numNodes(), 0) {
  PRIO_CHECK_MSG(options_.max_workers >= 1, "need at least one worker");
  PRIO_CHECK_MSG(dag::isAcyclic(g), "executor requires a dag");
}

void Executor::setPriorities(std::span<const std::size_t> priorities) {
  PRIO_CHECK_MSG(priorities.size() == graph_.numNodes(),
                 "one priority per job required");
  priority_.assign(priorities.begin(), priorities.end());
}

void Executor::setRetries(dag::NodeId job, std::size_t retries) {
  PRIO_CHECK(job < graph_.numNodes());
  retries_[job] = retries;
}

void Executor::setDone(dag::NodeId job) {
  PRIO_CHECK(job < graph_.numNodes());
  pre_done_[job] = 1;
}

ExecutionReport Executor::run(const JobAction& action) {
  const std::size_t n = graph_.numNodes();
  util::Stopwatch watch;
  ExecutionReport report;

  // Ready jobs ordered by (priority desc, arrival seq asc); FIFO mode
  // uses priority 0 for everyone, leaving pure arrival order.
  struct ReadyKey {
    std::size_t neg_priority;  // max priority -> smallest key
    std::size_t seq;
    NodeId job;
    bool operator<(const ReadyKey& o) const {
      if (neg_priority != o.neg_priority) {
        return neg_priority < o.neg_priority;
      }
      return seq < o.seq;
    }
  };

  std::mutex mu;
  std::condition_variable cv;
  std::set<ReadyKey> ready;
  std::vector<std::size_t> pending(n, 0);
  std::vector<char> terminal(n, 0);  // done, failed or skipped
  std::size_t seq_counter = 0;
  std::size_t running = 0;
  std::size_t active_total = 0;  // jobs that must reach a terminal state
  std::size_t terminal_count = 0;
  std::vector<std::size_t> attempts_left = retries_;

  const auto keyFor = [&](NodeId u) {
    const std::size_t p = options_.use_priorities ? priority_[u] : 0;
    return ReadyKey{~p, seq_counter++, u};
  };

  // Seed the ready set; pre-done jobs satisfy their children up front.
  {
    for (NodeId u = 0; u < n; ++u) {
      if (!pre_done_[u]) ++active_total;
    }
    for (NodeId u = 0; u < n; ++u) {
      std::size_t waiting = 0;
      for (NodeId p : graph_.parents(u)) {
        if (!pre_done_[p]) ++waiting;
      }
      pending[u] = waiting;
    }
    for (NodeId u = 0; u < n; ++u) {
      if (!pre_done_[u] && pending[u] == 0) ready.insert(keyFor(u));
    }
  }

  const std::size_t concurrency =
      options_.max_jobs == 0
          ? options_.max_workers
          : std::min(options_.max_workers, options_.max_jobs);

  // Marks every not-yet-terminal descendant of a failed job as skipped.
  const auto skipDescendants = [&](NodeId failed_job) {
    for (NodeId d : dag::descendants(graph_, failed_job)) {
      if (!terminal[d] && !pre_done_[d]) {
        terminal[d] = 1;
        ++terminal_count;
        ++report.skipped;
        // Remove from ready if it slipped in (cannot actually happen —
        // a descendant of a failed job always has an unfinished parent —
        // but stay defensive at O(ready) cost).
        for (auto it = ready.begin(); it != ready.end(); ++it) {
          if (it->job == d) {
            ready.erase(it);
            break;
          }
        }
      }
    }
  };

  const auto finished = [&] { return terminal_count == active_total; };

  const auto worker = [&] {
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      cv.wait(lock, [&] {
        return finished() || (!ready.empty() && running < concurrency);
      });
      if (finished()) {
        cv.notify_all();
        return;
      }
      const ReadyKey key = *ready.begin();
      ready.erase(ready.begin());
      report.ready_history.push_back(ready.size() + 1);
      report.dispatch_order.push_back(graph_.name(key.job));
      ++running;
      lock.unlock();

      bool ok = false;
      try {
        ok = action(graph_.name(key.job));
      } catch (...) {
        ok = false;
      }

      lock.lock();
      --running;
      const NodeId u = key.job;
      if (ok) {
        terminal[u] = 1;
        ++terminal_count;
        ++report.executed;
        for (NodeId v : graph_.children(u)) {
          if (--pending[v] == 0 && !terminal[v]) ready.insert(keyFor(v));
        }
      } else if (attempts_left[u] > 0) {
        --attempts_left[u];
        ++report.retried_attempts;
        ready.insert(keyFor(u));  // re-queued like a newly eligible job
      } else {
        terminal[u] = 1;
        ++terminal_count;
        ++report.failed;
        report.failed_jobs.push_back(graph_.name(u));
        skipDescendants(u);
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> pool;
  const std::size_t threads = std::min<std::size_t>(
      options_.max_workers, std::max<std::size_t>(active_total, 1));
  pool.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  report.success = report.failed == 0 && report.skipped == 0;
  report.wall_seconds = watch.elapsedSeconds();
  return report;
}

ExecutionReport executeDagmanFile(const DagmanFile& file,
                                  const JobAction& action,
                                  ExecutorOptions options) {
  const dag::Digraph g = file.toDigraph();
  Executor exec(g, options);

  std::unordered_map<std::string_view, NodeId> node_of;
  node_of.reserve(file.jobs().size());
  std::vector<std::size_t> priorities(g.numNodes(), 0);
  for (std::size_t i = 0; i < file.jobs().size(); ++i) {
    const DagmanJob& job = file.jobs()[i];
    node_of.emplace(job.name, static_cast<NodeId>(i));
    if (const auto p = job.var("jobpriority")) {
      priorities[i] = static_cast<std::size_t>(
          std::strtoull(p->c_str(), nullptr, 10));
    }
    if (job.done) exec.setDone(static_cast<NodeId>(i));
  }
  exec.setPriorities(priorities);

  // RETRY and PRIORITY directives live in the preserved extra lines
  // (PRIORITY is modern DAGMan's native keyword; the jobpriority macro
  // written by the prio tool takes precedence when both are present).
  bool priorities_changed = false;
  for (const std::string& line : file.extraLines()) {
    std::istringstream is(line);
    std::string keyword, job_name;
    std::size_t count = 0;
    if (!(is >> keyword)) continue;
    std::transform(keyword.begin(), keyword.end(), keyword.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    if (keyword != "RETRY" && keyword != "PRIORITY") continue;
    if (!(is >> job_name >> count)) continue;
    const auto it = node_of.find(job_name);
    if (it == node_of.end()) continue;
    if (keyword == "RETRY") {
      exec.setRetries(it->second, count);
    } else if (!file.jobs()[it->second].var("jobpriority").has_value()) {
      priorities[it->second] = count;
      priorities_changed = true;
    }
  }
  if (priorities_changed) exec.setPriorities(priorities);
  // A NOOP job completes without running anything.
  return exec.run([&](const std::string& job_name) {
    return file.jobs()[node_of.at(job_name)].noop || action(job_name);
  });
}

JobAction shellAction(const DagmanFile& file, const std::string& directory) {
  namespace fs = std::filesystem;
  // Resolve every job's shell line up front (parsing JSDFs once): the
  // submit file and the working directory both sit under DIR.
  auto commands = std::make_shared<std::map<std::string, std::string>>();
  for (const DagmanJob& job : file.jobs()) {
    if (job.noop) continue;
    const fs::path workdir = fs::path(directory) / job.dir;
    const fs::path path = workdir / job.submit_file;
    if (!fs::exists(path)) continue;  // missing JSDF -> job will fail
    const Jsdf jsdf = Jsdf::parseFile(path.string());
    const auto exe = jsdf.command("executable");
    if (!exe.has_value()) continue;
    std::string line = "cd '";
    line += workdir.string();
    line += "' && ";
    line += *exe;
    if (const auto args = jsdf.command("arguments")) {
      line += ' ';
      line += *args;
    }
    commands->emplace(job.name, std::move(line));
  }
  return [commands](const std::string& job_name) {
    const auto it = commands->find(job_name);
    if (it == commands->end()) return false;
    return std::system(it->second.c_str()) == 0;
  };
}

DagmanFile makeRescueDag(const DagmanFile& file,
                         const ExecutionReport& report) {
  std::unordered_set<std::string> dispatched(report.dispatch_order.begin(),
                                             report.dispatch_order.end());
  std::unordered_set<std::string> failed(report.failed_jobs.begin(),
                                         report.failed_jobs.end());
  DagmanFile rescue = file;
  for (DagmanJob& job : rescue.jobs()) {
    if (job.done) continue;  // already done before the run
    if (dispatched.count(job.name) != 0 && failed.count(job.name) == 0) {
      job.done = true;
    }
  }
  return rescue;
}

}  // namespace prio::dagman
