// Tests for the fixed worker-pool (list scheduling) model.
#include <gtest/gtest.h>

#include "core/prio.h"
#include "sim/workers.h"
#include "stats/rng.h"
#include "util/check.h"
#include "workloads/scientific.h"

namespace {

using namespace prio;
using namespace prio::sim;

dag::Digraph chainDag(std::size_t n) {
  dag::DigraphBuilder g;
  auto prev = g.addNode();
  for (std::size_t i = 1; i < n; ++i) {
    const auto next = g.addNode();
    g.addEdge(prev, next);
    prev = next;
  }
  return g.build();
}

TEST(WorkerPool, SingleWorkerMakespanIsSumOfRuntimes) {
  dag::DigraphBuilder gb;
  for (int i = 0; i < 50; ++i) gb.addNode();
  const dag::Digraph g = gb.build();
  GridModel m;
  stats::Rng rng(1);
  const auto r = simulateWorkerPool(g, Regimen::kFifo, {}, 1, m, rng);
  EXPECT_NEAR(r.makespan, 50.0, 3.0);
  EXPECT_NEAR(r.pool_efficiency, 1.0, 1e-9);
  EXPECT_NEAR(r.total_idle_time, 0.0, 1e-9);
}

TEST(WorkerPool, ChainCannotBeParallelized) {
  const auto g = chainDag(20);
  GridModel m;
  stats::Rng a(2), b(2);
  const auto one = simulateWorkerPool(g, Regimen::kFifo, {}, 1, m, a);
  const auto many = simulateWorkerPool(g, Regimen::kFifo, {}, 8, m, b);
  // Same stream of runtimes, same forced order: identical makespan.
  EXPECT_DOUBLE_EQ(one.makespan, many.makespan);
  // The extra workers were pure idle time.
  EXPECT_NEAR(many.pool_efficiency, one.pool_efficiency / 8.0, 1e-9);
}

TEST(WorkerPool, MoreWorkersNeverMuchWorseOnWideDag) {
  const auto g = workloads::makeAirsn({30, 4});
  GridModel m;
  stats::Rng rng(3);
  double prev_makespan = 1e18;
  for (const std::size_t w : {1u, 4u, 16u}) {
    stats::Rng r = rng.fork();
    const auto metrics = simulateWorkerPool(g, Regimen::kFifo, {}, w, m, r);
    EXPECT_LT(metrics.makespan, prev_makespan * 1.05);
    prev_makespan = metrics.makespan;
  }
}

TEST(WorkerPool, EfficiencyBounds) {
  const auto g = workloads::makeAirsn({10, 3});
  GridModel m;
  stats::Rng rng(4);
  for (const std::size_t w : {1u, 3u, 9u}) {
    stats::Rng r = rng.fork();
    const auto metrics = simulateWorkerPool(g, Regimen::kFifo, {}, w, m, r);
    EXPECT_GT(metrics.pool_efficiency, 0.0);
    EXPECT_LE(metrics.pool_efficiency, 1.0 + 1e-9);
    EXPECT_GE(metrics.total_idle_time, -1e-9);
  }
}

TEST(WorkerPool, PrioCompetitiveWithFifoOnAirsn) {
  // With a fixed mid-size pool, keeping eligibility high keeps workers
  // fed; PRIO should not lose to FIFO on the bottleneck-shaped AIRSN.
  const auto g = workloads::makeAirsn({});
  const auto order = core::prioritize(core::PrioRequest(g)).schedule;
  GridModel m;
  stats::Rng rng(5);
  double prio_total = 0.0, fifo_total = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    stats::Rng r1 = rng.fork(), r2 = rng.fork();
    prio_total +=
        simulateWorkerPool(g, Regimen::kOblivious, order, 32, m, r1)
            .makespan;
    fifo_total +=
        simulateWorkerPool(g, Regimen::kFifo, {}, 32, m, r2).makespan;
  }
  EXPECT_LT(prio_total, fifo_total * 1.02);
}

TEST(WorkerPool, RandomRegimenCompletes) {
  const auto g = workloads::makeAirsn({8, 3});
  GridModel m;
  stats::Rng rng(6);
  const auto r = simulateWorkerPool(g, Regimen::kRandom, {}, 4, m, rng);
  EXPECT_GT(r.makespan, 0.0);
}

TEST(WorkerPool, ValidatesInputs) {
  const auto g = chainDag(3);
  GridModel m;
  stats::Rng rng(7);
  EXPECT_THROW((void)simulateWorkerPool(g, Regimen::kFifo, {}, 0, m, rng),
               util::Error);
  const std::vector<dag::NodeId> short_order{0};
  EXPECT_THROW((void)simulateWorkerPool(g, Regimen::kOblivious, short_order,
                                        2, m, rng),
               util::Error);
}

TEST(WorkerPool, EmptyDag) {
  dag::Digraph g;
  GridModel m;
  stats::Rng rng(8);
  const auto r = simulateWorkerPool(g, Regimen::kFifo, {}, 4, m, rng);
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

}  // namespace
