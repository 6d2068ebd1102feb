// Tests for the simulation trace layer and dag statistics.
#include <gtest/gtest.h>

#include <sstream>

#include "core/prio.h"
#include "dag/stats.h"
#include "sim/trace.h"
#include "stats/rng.h"
#include "workloads/scientific.h"

namespace {

using namespace prio;
using sim::TraceEvent;

TEST(Trace, MetricsMatchUntracedRun) {
  const auto g = workloads::makeAirsn({10, 3});
  sim::GridModel m;
  m.mean_batch_size = 8.0;
  stats::Rng a(3), b(3);
  const auto plain = sim::simulateFifo(g, m, a);
  const auto traced = sim::traceRun(g, sim::Regimen::kFifo, {}, m, b);
  EXPECT_DOUBLE_EQ(plain.makespan, traced.metrics.makespan);
  EXPECT_EQ(plain.requests_counted, traced.metrics.requests_counted);
  EXPECT_EQ(plain.batches_stalled, traced.metrics.batches_stalled);
}

TEST(Trace, EventStreamIsConsistent) {
  const auto g = workloads::makeAirsn({8, 3});
  const auto order = core::prioritize(core::PrioRequest(g)).schedule;
  sim::GridModel m;
  stats::Rng rng(7);
  const auto trace = sim::traceRun(g, sim::Regimen::kOblivious, order, m, rng);

  std::size_t dispatches = 0, completions = 0, batches = 0;
  double last_time = 0.0;
  std::vector<char> dispatched(g.numNodes(), 0), completed(g.numNodes(), 0);
  for (const TraceEvent& e : trace.events) {
    EXPECT_GE(e.time, 0.0);
    switch (e.kind) {
      case TraceEvent::Kind::kBatchArrival:
        ++batches;
        EXPECT_GE(e.payload, 1u);
        EXPECT_GE(e.time, last_time);  // batches arrive in time order
        last_time = e.time;
        break;
      case TraceEvent::Kind::kDispatch:
        ++dispatches;
        ASSERT_LT(e.job, g.numNodes());
        EXPECT_FALSE(dispatched[e.job]) << "double dispatch";
        dispatched[e.job] = 1;
        break;
      case TraceEvent::Kind::kCompletion:
        ++completions;
        ASSERT_LT(e.job, g.numNodes());
        EXPECT_TRUE(dispatched[e.job]) << "completion before dispatch";
        EXPECT_FALSE(completed[e.job]);
        completed[e.job] = 1;
        // All parents completed first (precedence at the event level).
        for (const auto p : g.parents(e.job)) EXPECT_TRUE(completed[p]);
        break;
    }
  }
  EXPECT_EQ(dispatches, g.numNodes());
  EXPECT_EQ(completions, g.numNodes());
  EXPECT_GE(batches, trace.metrics.batches_counted);
}

TEST(Trace, CsvHasOneLinePerEventPlusHeader) {
  const auto g = workloads::makeAirsn({5, 2});
  sim::GridModel m;
  stats::Rng rng(9);
  const auto trace = sim::traceRun(g, sim::Regimen::kFifo, {}, m, rng);
  std::ostringstream out;
  sim::writeTraceCsv(out, g, trace);
  std::size_t lines = 0;
  std::string line;
  std::istringstream in(out.str());
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, trace.events.size() + 1);
  EXPECT_NE(out.str().find("dispatch"), std::string::npos);
  EXPECT_NE(out.str().find("completion"), std::string::npos);
}

TEST(DagStats, ChainAndAirsn) {
  {
    dag::DigraphBuilder gb;
    auto prev = gb.addNode();
    for (int i = 1; i < 5; ++i) {
      const auto next = gb.addNode();
      gb.addEdge(prev, next);
      prev = next;
    }
    const dag::Digraph g = gb.build();
    const auto s = dag::computeStats(g);
    EXPECT_EQ(s.depth, 5u);
    EXPECT_EQ(s.max_width, 1u);
    EXPECT_EQ(s.level_widths, std::vector<std::size_t>(5, 1));
    EXPECT_DOUBLE_EQ(s.average_parallelism, 1.0);
    EXPECT_EQ(s.out_degree_histogram.at(1), 4u);
    EXPECT_EQ(s.out_degree_histogram.at(0), 1u);
  }
  {
    const auto g = workloads::makeAirsn({10, 4});
    const auto s = dag::computeStats(g);
    EXPECT_EQ(s.nodes, g.numNodes());
    EXPECT_EQ(s.sources, 11u);  // handle start + 10 fringes
    EXPECT_EQ(s.sinks, 1u);
    EXPECT_EQ(s.max_width, 11u);  // level 0: handle start + 10 fringes
    EXPECT_FALSE(s.summary().empty());
  }
}

TEST(DagStats, EmptyGraph) {
  const auto s = dag::computeStats(dag::Digraph{});
  EXPECT_EQ(s.nodes, 0u);
  EXPECT_EQ(s.depth, 0u);
}

TEST(DagStats, LevelWidthsSumToNodes) {
  const auto g = workloads::makeMontage({4, 6, 2});
  const auto s = dag::computeStats(g);
  std::size_t total = 0;
  for (const auto w : s.level_widths) total += w;
  EXPECT_EQ(total, s.nodes);
}

}  // namespace
