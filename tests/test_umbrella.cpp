// Compile-and-use check for the umbrella header: downstream consumers
// should get the whole public API from one include.
#include "prio.h"

#include <gtest/gtest.h>

namespace {

TEST(UmbrellaHeader, ExposesTheWholePipeline) {
  prio::dag::DigraphBuilder gb;
  const auto a = gb.addNode("a");
  gb.addEdge(a, gb.addNode("b"));

  const prio::dag::Digraph g = gb.build();
  const auto result = prio::core::prioritize(prio::core::PrioRequest(g));
  EXPECT_TRUE(prio::dag::isTopologicalOrder(g, result.schedule));
  EXPECT_TRUE(prio::theory::isICOptimal(g, result.schedule));

  prio::stats::Rng rng(1);
  prio::sim::GridModel model;
  const auto metrics = prio::sim::simulateOblivious(
      g, result.schedule, model, rng);
  EXPECT_GT(metrics.makespan, 0.0);

  prio::condor::CondorOptions copt;
  prio::stats::Rng rng2(2);
  const auto condor = prio::condor::runCondorSystem(
      g, result.priority, copt, rng2);
  EXPECT_GT(condor.makespan, 0.0);

  const auto stats = prio::dag::computeStats(g);
  EXPECT_EQ(stats.depth, 2u);
}

}  // namespace
