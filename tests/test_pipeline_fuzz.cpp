// Pipeline fuzzing: prioritize() must produce a valid, complete,
// deterministic schedule on every dag shape we can throw at it —
// disconnected graphs, forests of isolated nodes, deep chains, huge
// stars, dense layered dags, and random composable structures — under
// every option combination. Also exercises the curve-comparison helpers.
#include <gtest/gtest.h>

#include <vector>

#include "builder_from.h"
#include "core/prio.h"
#include "dag/algorithms.h"
#include "stats/rng.h"
#include "theory/curves.h"
#include "theory/eligibility.h"
#include "util/check.h"
#include "workloads/random.h"

namespace {

using namespace prio;
using core::PrioRequest;
using core::prioritize;
using dag::Digraph;
using dag::DigraphBuilder;
using dag::NodeId;
using stats::Rng;

void expectValid(const Digraph& g, const core::PrioOptions& opt = {}) {
  const auto r = prioritize(PrioRequest(g, opt));
  ASSERT_EQ(r.schedule.size(), g.numNodes());
  EXPECT_TRUE(dag::isTopologicalOrder(g, r.schedule));
  // Priorities are the inverse permutation of the schedule.
  std::vector<char> seen(g.numNodes() + 1, 0);
  for (const auto p : r.priority) {
    ASSERT_GE(p, 1u);
    ASSERT_LE(p, g.numNodes());
    EXPECT_FALSE(seen[p]);
    seen[p] = 1;
  }
}

TEST(PipelineFuzz, DegenerateShapes) {
  {
    // A forest of isolated nodes.
    DigraphBuilder gb;
    for (int i = 0; i < 40; ++i) gb.addNode("iso" + std::to_string(i));
    const Digraph g = gb.build();
    expectValid(g);
  }
  {
    // A very deep chain.
    DigraphBuilder gb;
    NodeId prev = gb.addNode();
    for (int i = 1; i < 500; ++i) {
      const NodeId next = gb.addNode();
      gb.addEdge(prev, next);
      prev = next;
    }
    const Digraph g = gb.build();
    expectValid(g);
  }
  {
    // A huge star (one source, many sinks) and its reverse.
    DigraphBuilder out_star, in_star;
    const NodeId hub = out_star.addNode("hub");
    const NodeId sink = in_star.addNode("sink");
    for (int i = 0; i < 300; ++i) {
      out_star.addEdge(hub, out_star.addNode());
      in_star.addEdge(in_star.addNode(), sink);
    }
    expectValid(out_star.build());
    expectValid(in_star.build());
  }
  {
    // Many disconnected small components of different shapes.
    DigraphBuilder gb;
    for (int k = 0; k < 20; ++k) {
      const NodeId a = gb.addNode();
      const NodeId b = gb.addNode();
      gb.addEdge(a, b);
      if (k % 2 == 0) gb.addEdge(a, gb.addNode());
    }
    const Digraph g = gb.build();
    expectValid(g);
  }
}

class PipelineFuzzRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzzRandom, RandomShapesAllOptionPaths) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    Digraph g;
    switch (rng.below(4)) {
      case 0:
        g = workloads::randomDag(20 + rng.below(60), 0.02 + 0.2 * rng.uniform01(), rng);
        break;
      case 1:
        g = workloads::layeredRandom(2 + rng.below(6), 2 + rng.below(10),
                                     0.3 * rng.uniform01(), rng);
        break;
      case 2:
        g = workloads::randomComposable(5 + rng.below(40), rng);
        break;
      default: {
        // Random dag plus isolated nodes (mixed connectivity).
        DigraphBuilder gb =
            prio::testing::builderFrom(workloads::randomDag(30, 0.1, rng));
        for (int i = 0; i < 5; ++i) gb.addNode();
        g = gb.build();
        break;
      }
    }
    core::PrioOptions opt;
    opt.bipartite_fast_path = rng.below(2) == 0;
    opt.combine_strategy = rng.below(2) == 0
                               ? core::CombineStrategy::kBTreeClasses
                               : core::CombineStrategy::kNaiveQuadratic;
    opt.greedy_bipartite_fallback = rng.below(2) == 0;
    expectValid(g, opt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzRandom,
                         ::testing::Range<std::uint64_t>(100, 112));

TEST(CurveComparison, BasicAccounting) {
  const std::vector<std::size_t> a{3, 5, 2, 2};
  const std::vector<std::size_t> b{3, 1, 4, 2};
  const auto c = theory::compareProfiles(a, b);
  EXPECT_EQ(c.max_diff, 4);
  EXPECT_EQ(c.argmax, 1u);
  EXPECT_EQ(c.min_diff, -2);
  EXPECT_EQ(c.argmin, 2u);
  EXPECT_EQ(c.area, 2);
  EXPECT_EQ(c.steps_above, 1u);
  EXPECT_EQ(c.steps_below, 1u);
  EXPECT_FALSE(c.dominates());
  EXPECT_DOUBLE_EQ(c.meanDiff(4), 0.5);
}

TEST(CurveComparison, DominanceFlags) {
  const std::vector<std::size_t> hi{2, 3, 2};
  const std::vector<std::size_t> lo{2, 2, 2};
  EXPECT_TRUE(theory::compareProfiles(hi, lo).strictlyDominates());
  EXPECT_TRUE(theory::compareProfiles(hi, hi).dominates());
  EXPECT_FALSE(theory::compareProfiles(hi, hi).strictlyDominates());
  EXPECT_FALSE(theory::compareProfiles(lo, hi).dominates());
}

TEST(CurveComparison, RejectsLengthMismatch) {
  const std::vector<std::size_t> a{1, 2};
  const std::vector<std::size_t> b{1};
  EXPECT_THROW((void)theory::compareProfiles(a, b), util::Error);
}

TEST(CurveComparison, MatchesFig4Workflow) {
  // The helper agrees with the hand-rolled diff logic used on AIRSN.
  Rng rng(55);
  const auto g = workloads::randomComposable(15, rng);
  const auto r = prioritize(PrioRequest(g));
  const auto ep = theory::eligibilityProfile(g, r.schedule);
  const auto ef = theory::eligibilityProfile(g, core::fifoSchedule(g));
  const auto cmp = theory::compareProfiles(ep, ef);
  long long area = 0;
  for (std::size_t t = 0; t < ep.size(); ++t) {
    area += static_cast<long long>(ep[t]) - static_cast<long long>(ef[t]);
  }
  EXPECT_EQ(cmp.area, area);
}

}  // namespace
