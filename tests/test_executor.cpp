// Tests for the DAGMan-style workflow executor: ordering, priorities,
// throttling, retries, failure/skip semantics, rescue DAGs, concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include "core/prio.h"
#include "dagman/executor.h"
#include "dagman/instrument.h"
#include "util/check.h"
#include "workloads/scientific.h"

namespace {

using namespace prio;
using namespace prio::dagman;

dag::Digraph fig3Dag() {
  dag::DigraphBuilder g;
  const auto a = g.addNode("a"), c = g.addNode("c");
  g.addEdge(a, g.addNode("b"));
  g.addEdge(c, g.addNode("d"));
  g.addEdge(c, g.addNode("e"));
  return g.build();
}

JobAction alwaysSucceed() {
  return [](const std::string&) { return true; };
}

TEST(Executor, RunsAllJobsRespectingDependencies) {
  const auto g = workloads::makeAirsn({8, 3});
  Executor exec(g, {.max_workers = 1});
  std::vector<std::string> order;
  const auto report = exec.run([&](const std::string& name) {
    order.push_back(name);
    return true;
  });
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.executed, g.numNodes());
  EXPECT_EQ(report.failed, 0u);
  ASSERT_EQ(order.size(), g.numNodes());
  // Verify precedence: every job appears after all of its parents.
  std::map<std::string, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (dag::NodeId u = 0; u < g.numNodes(); ++u) {
    for (dag::NodeId v : g.children(u)) {
      EXPECT_LT(pos.at(g.name(u)), pos.at(g.name(v)));
    }
  }
}

TEST(Executor, SingleWorkerFollowsPrioOrder) {
  const auto g = fig3Dag();
  const auto result = core::prioritize(core::PrioRequest(g));
  Executor exec(g, {.max_workers = 1});
  exec.setPriorities(result.priority);
  const auto report = exec.run(alwaysSucceed());
  ASSERT_TRUE(report.success);
  // With one worker and PRIO priorities, dispatch order equals the PRIO
  // schedule: c, a, b, d, e (b, d, e in priority order once eligible).
  EXPECT_EQ(report.dispatch_order,
            (std::vector<std::string>{"c", "a", "b", "d", "e"}));
}

TEST(Executor, FifoModeIgnoresPriorities) {
  const auto g = fig3Dag();
  const auto result = core::prioritize(core::PrioRequest(g));
  Executor exec(g, {.max_workers = 1, .use_priorities = false});
  exec.setPriorities(result.priority);
  const auto report = exec.run(alwaysSucceed());
  // FIFO: a then c (declaration order among initially-ready jobs).
  EXPECT_EQ(report.dispatch_order[0], "a");
  EXPECT_EQ(report.dispatch_order[1], "c");
}

TEST(Executor, PrioritiesRaiseReadyCounts) {
  // The point of the whole paper, at the executor level: with PRIO
  // priorities the ready-set stays at least as large on AIRSN.
  const auto g = workloads::makeAirsn({20, 4});
  const auto result = core::prioritize(core::PrioRequest(g));

  Executor prio_exec(g, {.max_workers = 1});
  prio_exec.setPriorities(result.priority);
  const auto prio_report = prio_exec.run(alwaysSucceed());

  Executor fifo_exec(g, {.max_workers = 1, .use_priorities = false});
  const auto fifo_report = fifo_exec.run(alwaysSucceed());

  ASSERT_EQ(prio_report.ready_history.size(),
            fifo_report.ready_history.size());
  long long area = 0;
  for (std::size_t i = 0; i < prio_report.ready_history.size(); ++i) {
    area += static_cast<long long>(prio_report.ready_history[i]) -
            static_cast<long long>(fifo_report.ready_history[i]);
  }
  EXPECT_GT(area, 0);
}

TEST(Executor, ParallelWorkersRunEverything) {
  const auto g = workloads::makeAirsn({16, 3});
  Executor exec(g, {.max_workers = 8});
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  const auto report = exec.run([&](const std::string&) {
    const int now = ++concurrent;
    int expected = max_concurrent.load();
    while (now > expected &&
           !max_concurrent.compare_exchange_weak(expected, now)) {
    }
    --concurrent;
    return true;
  });
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.executed, g.numNodes());
  EXPECT_LE(max_concurrent.load(), 8);
}

TEST(Executor, MaxJobsThrottlesConcurrency) {
  const auto g = workloads::makeAirsn({16, 3});
  Executor exec(g, {.max_workers = 8, .max_jobs = 2});
  std::atomic<int> concurrent{0};
  std::atomic<bool> violated{false};
  const auto report = exec.run([&](const std::string&) {
    if (++concurrent > 2) violated = true;
    --concurrent;
    return true;
  });
  EXPECT_TRUE(report.success);
  EXPECT_FALSE(violated.load());
}

TEST(Executor, FailureSkipsDescendantsOnly) {
  // a -> b -> c ; independent x -> y. Failing a must skip b, c but run
  // x, y.
  dag::DigraphBuilder gb;
  const auto a = gb.addNode("a");
  const auto b = gb.addNode("b");
  const auto c = gb.addNode("c");
  const auto x = gb.addNode("x");
  const auto y = gb.addNode("y");
  gb.addEdge(a, b);
  gb.addEdge(b, c);
  gb.addEdge(x, y);
  const dag::Digraph g = gb.build();
  Executor exec(g, {.max_workers = 1});
  const auto report = exec.run(
      [](const std::string& name) { return name != "a"; });
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.skipped, 2u);  // b and c
  EXPECT_EQ(report.executed, 2u);  // x and y
  EXPECT_EQ(report.failed_jobs, (std::vector<std::string>{"a"}));
}

TEST(Executor, RetriesUntilBudgetExhausted) {
  dag::DigraphBuilder gb;
  gb.addNode("flaky");
  const dag::Digraph g = gb.build();
  Executor exec(g, {.max_workers = 1});
  exec.setRetries(0, 3);
  int attempts = 0;
  const auto report = exec.run([&](const std::string&) {
    ++attempts;
    return attempts >= 3;  // succeeds on the third try
  });
  EXPECT_TRUE(report.success);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(report.retried_attempts, 2u);
  EXPECT_EQ(report.executed, 1u);
}

TEST(Executor, RetryBudgetExceededFails) {
  dag::DigraphBuilder gb;
  gb.addNode("doomed");
  const dag::Digraph g = gb.build();
  Executor exec(g, {.max_workers = 1, .default_retries = 2});
  int attempts = 0;
  const auto report = exec.run([&](const std::string&) {
    ++attempts;
    return false;
  });
  EXPECT_FALSE(report.success);
  EXPECT_EQ(attempts, 3);  // 1 initial + 2 retries
  EXPECT_EQ(report.failed, 1u);
}

TEST(Executor, ExceptionCountsAsFailure) {
  dag::DigraphBuilder gb;
  gb.addNode("thrower");
  const dag::Digraph g = gb.build();
  Executor exec(g, {.max_workers = 1});
  const auto report = exec.run(
      [](const std::string&) -> bool { throw std::runtime_error("boom"); });
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.failed, 1u);
}

TEST(Executor, PreDoneJobsAreNotRun) {
  dag::DigraphBuilder gb;
  const auto a = gb.addNode("a");
  const auto b = gb.addNode("b");
  gb.addEdge(a, b);
  const dag::Digraph g = gb.build();
  Executor exec(g, {.max_workers = 1});
  exec.setDone(a);
  std::vector<std::string> ran;
  const auto report = exec.run([&](const std::string& name) {
    ran.push_back(name);
    return true;
  });
  EXPECT_TRUE(report.success);
  EXPECT_EQ(ran, (std::vector<std::string>{"b"}));
  EXPECT_EQ(report.executed, 1u);
}

TEST(Executor, RejectsCyclesAndBadInputs) {
  dag::DigraphBuilder gb;
  const auto a = gb.addNode("a"), b = gb.addNode("b");
  gb.addEdge(a, b);
  gb.addEdge(b, a);
  const dag::Digraph g = gb.build();
  EXPECT_THROW(Executor(g, {}), util::Error);

  dag::DigraphBuilder okb;
  okb.addNode("x");
  const dag::Digraph ok = okb.build();
  Executor exec(ok, {});
  const std::vector<std::size_t> wrong{1, 2};
  EXPECT_THROW(exec.setPriorities(wrong), util::Error);
  EXPECT_THROW(exec.setRetries(5, 1), util::Error);
}

TEST(Executor, EmptyDagSucceedsImmediately) {
  dag::Digraph g;
  Executor exec(g, {});
  const auto report = exec.run(alwaysSucceed());
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.executed, 0u);
}

TEST(ExecuteDagmanFile, EndToEndWithInstrumentedPriorities) {
  std::istringstream in(
      "Job a a.submit\nJob b b.submit\nJob c c.submit\n"
      "Job d d.submit\nJob e e.submit\n"
      "PARENT a CHILD b\nPARENT c CHILD d e\n"
      "RETRY b 2\n");
  auto file = DagmanFile::parse(in);
  (void)prioritizeDagmanFile(file);  // adds jobpriority macros

  int b_attempts = 0;
  const auto report = executeDagmanFile(
      file,
      [&](const std::string& name) {
        if (name == "b") return ++b_attempts >= 2;  // flaky once
        return true;
      },
      {.max_workers = 1});
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.retried_attempts, 1u);
  // Priorities applied: c dispatched first.
  EXPECT_EQ(report.dispatch_order.front(), "c");
}

TEST(ExecuteDagmanFile, HonorsNativePriorityKeyword) {
  // Modern DAGMan's PRIORITY directive works without prio's macro.
  std::istringstream in(
      "Job a a.submit\nJob b b.submit\n"
      "PRIORITY b 9\nPRIORITY a 1\n");
  const auto file = DagmanFile::parse(in);
  const auto report = executeDagmanFile(
      file, [](const std::string&) { return true; }, {.max_workers = 1});
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.dispatch_order,
            (std::vector<std::string>{"b", "a"}));
}

TEST(ExecuteDagmanFile, JobpriorityMacroBeatsPriorityKeyword) {
  std::istringstream in(
      "Job a a.submit\nJob b b.submit\n"
      "Vars a jobpriority=\"9\"\n"
      "PRIORITY b 100\n");  // ignored for... b has no macro: b gets 100
  const auto file = DagmanFile::parse(in);
  const auto report = executeDagmanFile(
      file, [](const std::string&) { return true; }, {.max_workers = 1});
  // b (PRIORITY 100) outranks a (jobpriority 9).
  EXPECT_EQ(report.dispatch_order,
            (std::vector<std::string>{"b", "a"}));
}

TEST(ExecuteDagmanFile, HonorsDoneKeyword) {
  std::istringstream in(
      "Job a a.submit DONE\nJob b b.submit\nPARENT a CHILD b\n");
  const auto file = DagmanFile::parse(in);
  std::vector<std::string> ran;
  const auto report = executeDagmanFile(
      file,
      [&](const std::string& name) {
        ran.push_back(name);
        return true;
      },
      {.max_workers = 1});
  EXPECT_TRUE(report.success);
  EXPECT_EQ(ran, (std::vector<std::string>{"b"}));
}

TEST(MakeRescueDag, MarksSuccessesDone) {
  std::istringstream in(
      "Job a a.submit\nJob b b.submit\nJob c c.submit\n"
      "PARENT a CHILD b\nPARENT b CHILD c\n");
  const auto file = DagmanFile::parse(in);
  const auto report = executeDagmanFile(
      file, [](const std::string& name) { return name != "b"; },
      {.max_workers = 1});
  EXPECT_FALSE(report.success);

  const auto rescue = makeRescueDag(file, report);
  EXPECT_TRUE(rescue.findJob("a")->done);
  EXPECT_FALSE(rescue.findJob("b")->done);
  EXPECT_FALSE(rescue.findJob("c")->done);

  // Re-running the rescue DAG with a fixed action completes the rest.
  const auto second = executeDagmanFile(
      rescue, [](const std::string&) { return true; }, {.max_workers = 1});
  EXPECT_TRUE(second.success);
  EXPECT_EQ(second.executed, 2u);  // b and c only
}

TEST(MakeRescueDag, RescueRePrioritizationSchedulesOnlyPendingWork) {
  // The full robustness round trip: instrument, fail mid-run, write a
  // rescue dag, re-prioritize it, and resume. The re-prioritization must
  // see only the pending subdag — DONE jobs keep their original
  // jobpriority values verbatim and never get recomputed ones.
  std::istringstream in(
      "Job a a.submit\nJob b b.submit\nJob c c.submit\n"
      "Job x x.submit\nJob y y.submit\n"
      "PARENT a CHILD b\nPARENT b CHILD c\nPARENT x CHILD y\n");
  auto file = DagmanFile::parse(in);
  (void)prioritizeDagmanFile(file);  // full-dag priorities, values in 1..5

  const auto first = executeDagmanFile(
      file, [](const std::string& name) { return name != "b"; },
      {.max_workers = 1});
  EXPECT_FALSE(first.success);
  EXPECT_EQ(first.executed, 3u);  // a, x, y
  EXPECT_EQ(first.skipped, 1u);   // c

  auto rescue = makeRescueDag(file, first);
  ASSERT_TRUE(rescue.findJob("a")->done);
  ASSERT_TRUE(rescue.findJob("x")->done);
  ASSERT_TRUE(rescue.findJob("y")->done);
  ASSERT_FALSE(rescue.findJob("b")->done);
  ASSERT_FALSE(rescue.findJob("c")->done);
  const std::string a_before = *rescue.findJob("a")->var("jobpriority");

  const auto result = prioritizeDagmanFile(rescue);
  // The heuristic saw exactly the pending chain b -> c.
  EXPECT_EQ(result.priority.size(), 2u);
  EXPECT_EQ(*rescue.findJob("b")->var("jobpriority"), "2");
  EXPECT_EQ(*rescue.findJob("c")->var("jobpriority"), "1");
  // DONE jobs keep their full-run values untouched.
  EXPECT_EQ(*rescue.findJob("a")->var("jobpriority"), a_before);

  const auto second = executeDagmanFile(
      rescue, [](const std::string&) { return true; }, {.max_workers = 1});
  EXPECT_TRUE(second.success);
  EXPECT_EQ(second.executed, 2u);  // b then c
  EXPECT_EQ(second.dispatch_order, (std::vector<std::string>{"b", "c"}));
}

TEST(ShellAction, RunsRealCommands) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "prio_shell_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Jobs touch marker files; "bad" exits nonzero.
  {
    std::ofstream dag(dir / "t.dag");
    dag << "Job first first.sub\nJob second second.sub\nJob bad bad.sub\n"
        << "PARENT first CHILD second\n";
    std::ofstream a(dir / "first.sub");
    a << "executable = touch\narguments = first.marker\nqueue\n";
    std::ofstream b(dir / "second.sub");
    b << "executable = touch\narguments = second.marker\nqueue\n";
    std::ofstream c(dir / "bad.sub");
    c << "executable = false\nqueue\n";
  }
  auto file = DagmanFile::parseFile((dir / "t.dag").string());
  const auto action = dagman::shellAction(file, dir.string());
  const auto report =
      executeDagmanFile(file, action, {.max_workers = 2});
  EXPECT_FALSE(report.success);  // "bad" fails
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_TRUE(fs::exists(dir / "first.marker"));
  EXPECT_TRUE(fs::exists(dir / "second.marker"));
  fs::remove_all(dir);
}

TEST(ShellAction, HonoursDirAndNoop) {
  // a runs from its DIR, where its submit file is; n is NOOP, so its
  // executable never runs and its marker never appears.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "prio_shell_dir_noop";
  fs::remove_all(dir);
  fs::create_directories(dir / "sub");
  {
    std::ofstream dag(dir / "w.dag");
    dag << "JOB a a.sub DIR sub\nJOB n n.sub NOOP\nJOB z z.sub\n"
        << "PARENT a CHILD n\nPARENT n CHILD z\n";
    std::ofstream a(dir / "sub" / "a.sub");
    a << "executable = touch\narguments = a.marker\nqueue\n";
    std::ofstream n(dir / "n.sub");
    n << "executable = touch\narguments = n.marker\nqueue\n";
    std::ofstream z(dir / "z.sub");
    z << "executable = touch\narguments = z.marker\nqueue\n";
  }
  auto file = DagmanFile::parseFile((dir / "w.dag").string());
  EXPECT_EQ(dagman::instrumentSubmitFiles(file, dir.string()),
            (std::vector<std::string>{"sub/a.sub", "z.sub"}));
  std::vector<std::string> ran;
  const auto shell = dagman::shellAction(file, dir.string());
  const auto report = executeDagmanFile(
      file,
      [&](const std::string& job) {
        ran.push_back(job);
        return shell(job);
      },
      {.max_workers = 1});
  EXPECT_TRUE(report.success);
  EXPECT_EQ(ran, (std::vector<std::string>{"a", "z"}));
  EXPECT_TRUE(fs::exists(dir / "sub" / "a.marker"));
  EXPECT_TRUE(fs::exists(dir / "z.marker"));
  EXPECT_FALSE(fs::exists(dir / "n.marker"));
  EXPECT_FALSE(fs::exists(dir / "sub" / "n.marker"));
  fs::remove_all(dir);
}

TEST(ShellAction, MissingSubmitFileFailsTheJob) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "prio_shell_missing";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream dag(dir / "t.dag");
    dag << "Job ghost nowhere.sub\n";
  }
  auto file = DagmanFile::parseFile((dir / "t.dag").string());
  const auto action = dagman::shellAction(file, dir.string());
  const auto report =
      executeDagmanFile(file, action, {.max_workers = 1});
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.failed, 1u);
  fs::remove_all(dir);
}

TEST(Executor, StressManyWorkersOnLargeDag) {
  const auto g = workloads::makeInspiral({6, 4});
  const auto result = core::prioritize(core::PrioRequest(g));
  Executor exec(g, {.max_workers = 16});
  exec.setPriorities(result.priority);
  std::atomic<std::size_t> count{0};
  const auto report = exec.run([&](const std::string&) {
    ++count;
    return true;
  });
  EXPECT_TRUE(report.success);
  EXPECT_EQ(count.load(), g.numNodes());
  EXPECT_EQ(report.dispatch_order.size(), g.numNodes());
}

}  // namespace
