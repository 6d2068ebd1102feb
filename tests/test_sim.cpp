// Tests for the event-driven grid simulator (§4.1 system model).
#include <gtest/gtest.h>

#include <vector>

#include "core/prio.h"
#include "sim/baselines.h"
#include "sim/engine.h"
#include "stats/rng.h"
#include "util/check.h"
#include "workloads/scientific.h"

namespace {

using namespace prio::dag;
using namespace prio::sim;
using prio::stats::Rng;

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

Digraph antichainDag(std::size_t n) {
  DigraphBuilder g;
  for (std::size_t i = 0; i < n; ++i) g.addNode();
  return g.build();
}

TEST(Simulator, SingleJob) {
  DigraphBuilder gb;
  gb.addNode("only");
  const Digraph g = gb.build();
  GridModel m;
  Rng rng(1);
  const auto r = simulateFifo(g, m, rng);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_NEAR(r.makespan, 1.0, 0.5);  // ~ normal(1, 0.1) sample
  EXPECT_EQ(r.batches_counted, 1u);   // assigned in the first batch
  EXPECT_EQ(r.batches_stalled, 0u);
  EXPECT_LE(r.utilization, 1.0);
}

TEST(Simulator, DeterministicForSameSeed) {
  const auto g = prio::workloads::makeAirsn({10, 4});
  GridModel m;
  m.mean_batch_size = 8.0;
  Rng a(7), b(7);
  const auto ra = simulateFifo(g, m, a);
  const auto rb = simulateFifo(g, m, b);
  EXPECT_DOUBLE_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.requests_counted, rb.requests_counted);
  EXPECT_EQ(ra.batches_stalled, rb.batches_stalled);
}

TEST(Simulator, MetricsAreWellFormed) {
  const auto g = prio::workloads::makeAirsn({10, 4});
  GridModel m;
  m.mean_batch_interarrival = 0.5;
  m.mean_batch_size = 4.0;
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const auto r = simulateFifo(g, m, rng);
    EXPECT_GT(r.makespan, 0.0);
    EXPECT_GE(r.stall_probability, 0.0);
    EXPECT_LE(r.stall_probability, 1.0);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);
    EXPECT_GE(r.requests_counted,
              static_cast<std::uint64_t>(g.numNodes()));
    EXPECT_GE(r.batches_counted, r.batches_stalled);
  }
}

TEST(Simulator, ChainIsScheduleInsensitive) {
  // On a chain there is never more than one eligible job, so FIFO and any
  // oblivious order consume identical random streams and coincide.
  const auto g = chainDag(20);
  GridModel m;
  m.mean_batch_interarrival = 0.3;
  m.mean_batch_size = 2.0;
  std::vector<NodeId> order;
  for (NodeId u = 0; u < g.numNodes(); ++u) order.push_back(u);
  Rng a(11), b(11);
  const auto fifo = simulateFifo(g, m, a);
  const auto obl = simulateOblivious(g, order, m, b);
  EXPECT_DOUBLE_EQ(fifo.makespan, obl.makespan);
  EXPECT_EQ(fifo.requests_counted, obl.requests_counted);
}

TEST(Simulator, ChainMakespanIsAboutSumOfRuntimes) {
  // With frequent large batches, a 20-chain takes ~20 time units: each
  // job waits for its parent, then is picked up almost immediately.
  const auto g = chainDag(20);
  GridModel m;
  m.mean_batch_interarrival = 0.01;
  m.mean_batch_size = 64.0;
  Rng rng(13);
  double total = 0.0;
  const int reps = 30;
  for (int i = 0; i < reps; ++i) total += simulateFifo(g, m, rng).makespan;
  EXPECT_NEAR(total / reps, 20.0, 1.5);
}

TEST(Simulator, AntichainWithHugeBatchFinishesInOneWave) {
  const auto g = antichainDag(50);
  GridModel m;
  m.mean_batch_interarrival = 10.0;
  m.mean_batch_size = 1e6;  // first batch swallows everything
  Rng rng(17);
  const auto r = simulateFifo(g, m, rng);
  EXPECT_EQ(r.batches_counted, 1u);
  EXPECT_LT(r.makespan, 2.0);  // max of 50 normal(1,0.1) samples
}

TEST(Simulator, RareBatchesSerializeExecution) {
  // With batch size ~1 and very rare arrivals, the makespan is dominated
  // by waiting: ~ n * mu_BIT.
  const auto g = antichainDag(10);
  GridModel m;
  m.mean_batch_interarrival = 100.0;
  m.mean_batch_size = 1.0;
  Rng rng(19);
  const auto r = simulateFifo(g, m, rng);
  EXPECT_GT(r.makespan, 100.0);
}

TEST(Simulator, StallObservedWhenNothingEligible) {
  // A long chain with frequent batches: most batches arrive while the
  // only job is already running -> stalls.
  const auto g = chainDag(5);
  GridModel m;
  m.mean_batch_interarrival = 0.05;
  m.mean_batch_size = 4.0;
  Rng rng(23);
  const auto r = simulateFifo(g, m, rng);
  EXPECT_GT(r.stall_probability, 0.5);
}

TEST(Simulator, NoStallWhenWorkAlwaysAvailable) {
  const auto g = antichainDag(100);
  GridModel m;
  m.mean_batch_interarrival = 1.0;
  m.mean_batch_size = 2.0;
  Rng rng(29);
  const auto r = simulateFifo(g, m, rng);
  EXPECT_EQ(r.batches_stalled, 0u);
  EXPECT_DOUBLE_EQ(r.stall_probability, 0.0);
}

TEST(Simulator, ObliviousValidatesOrder) {
  const auto g = chainDag(3);
  GridModel m;
  Rng rng(31);
  const std::vector<NodeId> short_order{0, 1};
  EXPECT_THROW((void)simulateOblivious(g, short_order, m, rng),
               prio::util::Error);
  const std::vector<NodeId> dup_order{0, 1, 1};
  EXPECT_THROW((void)simulateOblivious(g, dup_order, m, rng),
               prio::util::Error);
}

TEST(Simulator, RejectsBadModel) {
  const auto g = chainDag(2);
  Rng rng(37);
  GridModel m;
  m.mean_batch_interarrival = 0.0;
  EXPECT_THROW((void)simulateFifo(g, m, rng), prio::util::Error);
}

TEST(Simulator, RandomRegimenRunsToCompletion) {
  const auto g = prio::workloads::makeAirsn({8, 3});
  GridModel m;
  Rng rng(41);
  const auto r = simulateRun(g, Regimen::kRandom, {}, m, rng);
  EXPECT_GT(r.makespan, 0.0);
}

TEST(Baselines, CriticalPathScheduleIsTopological) {
  const auto g = prio::workloads::makeAirsn({10, 3});
  const auto order = criticalPathSchedule(g);
  EXPECT_TRUE(isTopologicalOrder(g, order));
  // The deepest job (first handle job) comes first.
  EXPECT_EQ(order.front(), *g.findNode("handle0"));
}

TEST(Baselines, RandomTopologicalOrderIsValidAndVaries) {
  const auto g = prio::workloads::makeAirsn({10, 3});
  Rng rng(43);
  const auto o1 = randomTopologicalOrder(g, rng);
  const auto o2 = randomTopologicalOrder(g, rng);
  EXPECT_TRUE(isTopologicalOrder(g, o1));
  EXPECT_TRUE(isTopologicalOrder(g, o2));
  EXPECT_NE(o1, o2);  // overwhelmingly likely with 250+ choices
}

TEST(Simulator, PrioBeatsFifoOnAirsnMidRange) {
  // The paper's headline scenario: mu_BIT = 1, mu_BS = 2^4 on AIRSN.
  const auto g = prio::workloads::makeAirsn({});
  const auto prio_order = prio::core::prioritize(prio::core::PrioRequest(g)).schedule;
  GridModel m;
  m.mean_batch_interarrival = 1.0;
  m.mean_batch_size = 16.0;
  Rng rng(47);
  double prio_total = 0.0, fifo_total = 0.0;
  const int reps = 40;
  for (int i = 0; i < reps; ++i) {
    Rng r1 = rng.fork();
    Rng r2 = rng.fork();
    prio_total += simulateOblivious(g, prio_order, m, r1).makespan;
    fifo_total += simulateFifo(g, m, r2).makespan;
  }
  EXPECT_LT(prio_total / fifo_total, 0.95);
}

}  // namespace
