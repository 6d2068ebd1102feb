// Tests for the deterministic batched-execution analysis ([15]).
#include <gtest/gtest.h>

#include <numeric>

#include "core/prio.h"
#include "theory/batch.h"
#include "util/check.h"
#include "workloads/scientific.h"

namespace {

using namespace prio::dag;
using namespace prio::theory;

Digraph chainDag(std::size_t n) {
  DigraphBuilder g;
  NodeId prev = g.addNode();
  for (std::size_t i = 1; i < n; ++i) {
    const NodeId next = g.addNode();
    g.addEdge(prev, next);
    prev = next;
  }
  return g.build();
}

TEST(Batch, ChainTakesOneRoundPerJob) {
  const auto g = chainDag(7);
  const auto r = batchedExecuteFifo(g, 100);
  EXPECT_EQ(r.rounds, 7u);
  EXPECT_EQ(r.round_sizes, std::vector<std::size_t>(7, 1));
  // Every round before the last is underfull (only one job available).
  EXPECT_EQ(r.underfull_rounds, 6u);
  EXPECT_EQ(batchedRoundsLowerBound(g, 100), 7u);
}

TEST(Batch, AntichainPacksRounds) {
  DigraphBuilder gb;
  for (int i = 0; i < 10; ++i) gb.addNode();
  const Digraph g = gb.build();
  const auto r = batchedExecuteFifo(g, 4);
  EXPECT_EQ(r.rounds, 3u);  // 4 + 4 + 2
  EXPECT_EQ(r.round_sizes, (std::vector<std::size_t>{4, 4, 2}));
  EXPECT_EQ(r.underfull_rounds, 0u);  // final short round doesn't count
  EXPECT_EQ(batchedRoundsLowerBound(g, 4), 3u);
}

TEST(Batch, RoundSizesSumToJobCount) {
  const auto g = prio::workloads::makeAirsn({15, 4});
  const auto order = prio::core::prioritize(prio::core::PrioRequest(g)).schedule;
  for (const std::size_t b : {1u, 3u, 16u, 1000u}) {
    const auto r = batchedExecute(g, order, b);
    const std::size_t total = std::accumulate(
        r.round_sizes.begin(), r.round_sizes.end(), std::size_t{0});
    EXPECT_EQ(total, g.numNodes());
    EXPECT_GE(r.rounds, batchedRoundsLowerBound(g, b));
  }
}

TEST(Batch, BatchSizeOneIsSequential) {
  const auto g = prio::workloads::makeAirsn({10, 3});
  const auto order = prio::core::prioritize(prio::core::PrioRequest(g)).schedule;
  const auto r = batchedExecute(g, order, 1);
  EXPECT_EQ(r.rounds, g.numNodes());
}

TEST(Batch, HugeBatchGivesLevelOrderDepth) {
  // With batches larger than the dag, rounds = BFS depth (the paper's
  // "execution proceeds step-by-step like a BFS traversal").
  const auto g = prio::workloads::makeAirsn({10, 3});
  const auto order = prio::core::prioritize(prio::core::PrioRequest(g)).schedule;
  const auto r = batchedExecute(g, order, 1'000'000);
  EXPECT_EQ(r.rounds, longestPathNodes(g));
}

TEST(Batch, PrioNeverWorseThanFifoOnAirsnMidRange) {
  const auto g = prio::workloads::makeAirsn({});
  const auto order = prio::core::prioritize(prio::core::PrioRequest(g)).schedule;
  for (const std::size_t b : {4u, 8u, 16u, 32u, 64u}) {
    const auto prio_r = batchedExecute(g, order, b);
    const auto fifo_r = batchedExecuteFifo(g, b);
    EXPECT_LE(prio_r.rounds, fifo_r.rounds) << "batch size " << b;
  }
  // And strictly better somewhere in the mid-range.
  const auto prio16 = batchedExecute(g, order, 16);
  const auto fifo16 = batchedExecuteFifo(g, 16);
  EXPECT_LT(prio16.rounds, fifo16.rounds);
}

TEST(Batch, GreedyRoundsSumAndBound) {
  const auto g = prio::workloads::makeAirsn({15, 4});
  for (const std::size_t b : {1u, 4u, 16u, 1000u}) {
    const auto r = batchedExecuteGreedy(g, b);
    const std::size_t total = std::accumulate(
        r.round_sizes.begin(), r.round_sizes.end(), std::size_t{0});
    EXPECT_EQ(total, g.numNodes());
    EXPECT_GE(r.rounds, batchedRoundsLowerBound(g, b));
  }
}

TEST(Batch, GreedyNeverWorseThanFifoOnAirsn) {
  const auto g = prio::workloads::makeAirsn({30, 5});
  for (const std::size_t b : {4u, 8u, 16u, 32u}) {
    const auto rg = batchedExecuteGreedy(g, b);
    const auto rf = batchedExecuteFifo(g, b);
    EXPECT_LE(rg.rounds, rf.rounds) << "batch size " << b;
  }
}

TEST(Batch, GreedyMatchesSequentialAndLevelExtremes) {
  const auto g = prio::workloads::makeAirsn({10, 3});
  EXPECT_EQ(batchedExecuteGreedy(g, 1).rounds, g.numNodes());
  EXPECT_EQ(batchedExecuteGreedy(g, 1'000'000).rounds,
            longestPathNodes(g));
}

TEST(Batch, ValidatesInputs) {
  const auto g = chainDag(3);
  const std::vector<NodeId> bad{2, 1, 0};
  EXPECT_THROW((void)batchedExecute(g, bad, 2), prio::util::Error);
  const std::vector<NodeId> order{0, 1, 2};
  EXPECT_THROW((void)batchedExecute(g, order, 0), prio::util::Error);
}

TEST(Batch, EmptyDag) {
  Digraph g;
  const auto r = batchedExecuteFifo(g, 5);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(batchedRoundsLowerBound(g, 5), 0u);
}

}  // namespace
