// Tests for the brute-force IC-optimality ground truth.
#include <gtest/gtest.h>

#include <vector>

#include "dag/digraph.h"
#include "theory/bruteforce.h"
#include "theory/eligibility.h"
#include "util/check.h"

namespace {

using namespace prio::dag;
using namespace prio::theory;

TEST(CountIdeals, ChainHasLinearlyManyIdeals) {
  DigraphBuilder gb;
  NodeId prev = gb.addNode();
  for (int i = 1; i < 6; ++i) {
    const NodeId next = gb.addNode();
    gb.addEdge(prev, next);
    prev = next;
  }
  const Digraph g = gb.build();
  // Ideals of a 6-chain: prefixes only -> 7.
  EXPECT_EQ(countIdeals(g), 7u);
}

TEST(CountIdeals, AntichainHasExponentiallyManyIdeals) {
  DigraphBuilder gb;
  for (int i = 0; i < 10; ++i) gb.addNode();
  const Digraph g = gb.build();
  EXPECT_EQ(countIdeals(g), 1024u);  // 2^10
}

TEST(CountIdeals, GuardThrowsOnBlowup) {
  DigraphBuilder gb;
  for (int i = 0; i < 30; ++i) gb.addNode();
  const Digraph g = gb.build();
  EXPECT_THROW((void)countIdeals(g, /*max_states=*/1000),
               prio::util::Error);
}

TEST(MaxEligibilityProfile, Antichain) {
  DigraphBuilder gb;
  for (int i = 0; i < 4; ++i) gb.addNode();
  const Digraph g = gb.build();
  const auto best = maxEligibilityProfile(g);
  EXPECT_EQ(best, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
}

TEST(MaxEligibilityProfile, ForkOut) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a");
  for (const char* t : {"t0", "t1", "t2"}) gb.addEdge(a, gb.addNode(t));
  const Digraph g = gb.build();
  const auto best = maxEligibilityProfile(g);
  EXPECT_EQ(best, (std::vector<std::size_t>{1, 3, 2, 1, 0}));
}

TEST(MaxEligibilityProfile, JoinIn) {
  DigraphBuilder gb;
  const NodeId t = gb.addNode("t");
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c");
  gb.addEdge(a, t);
  gb.addEdge(b, t);
  gb.addEdge(c, t);
  const Digraph g = gb.build();
  const auto best = maxEligibilityProfile(g);
  // 3 sources; executing them leaves 2, 1, then the sink becomes eligible.
  EXPECT_EQ(best, (std::vector<std::size_t>{3, 2, 1, 1, 0}));
}

TEST(MaxEligibilityProfile, Fig3Example) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d"), e = gb.addNode("e");
  gb.addEdge(a, b);
  gb.addEdge(c, d);
  gb.addEdge(c, e);
  const Digraph g = gb.build();
  const auto best = maxEligibilityProfile(g);
  EXPECT_EQ(best, (std::vector<std::size_t>{2, 3, 3, 2, 1, 0}));
}

TEST(IsICOptimal, AcceptsAndRejects) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d"), e = gb.addNode("e");
  gb.addEdge(a, b);
  gb.addEdge(c, d);
  gb.addEdge(c, e);
  const Digraph g = gb.build();
  EXPECT_TRUE(isICOptimal(g, std::vector<NodeId>{c, a, b, d, e}));
  EXPECT_TRUE(isICOptimal(g, std::vector<NodeId>{c, a, d, b, e}));
  // Executing a first loses one eligible job at step 1.
  EXPECT_FALSE(isICOptimal(g, std::vector<NodeId>{a, c, b, d, e}));
  // Incomplete orders are never IC-optimal schedules.
  EXPECT_FALSE(isICOptimal(g, std::vector<NodeId>{c, a}));
}

TEST(MaxEligibilityProfile, RequiresAtMost64Nodes) {
  DigraphBuilder gb;
  for (int i = 0; i < 65; ++i) gb.addNode();
  const Digraph g = gb.build();
  EXPECT_THROW((void)maxEligibilityProfile(g), prio::util::Error);
}

TEST(FindICOptimalSchedule, FindsSchedulesForOptimizableDags) {
  // Fig. 3's dag and a chain both admit IC-optimal schedules.
  {
    DigraphBuilder gb;
    const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
                 d = gb.addNode("d"), e = gb.addNode("e");
    gb.addEdge(a, b);
    gb.addEdge(c, d);
    gb.addEdge(c, e);
    const Digraph g = gb.build();
    const auto order = findICOptimalSchedule(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_TRUE(isICOptimal(g, *order));
    EXPECT_EQ(order->front(), c);  // only c-first attains E(1) = 3
  }
  {
    DigraphBuilder gb;
    NodeId prev = gb.addNode();
    for (int i = 1; i < 8; ++i) {
      const NodeId next = gb.addNode();
      gb.addEdge(prev, next);
      prev = next;
    }
    const Digraph g = gb.build();
    const auto order = findICOptimalSchedule(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_TRUE(isICOptimal(g, *order));
  }
}

TEST(FindICOptimalSchedule, DetectsDagsWithNoICOptimalSchedule) {
  // The paper (§2.1): "there do exist even some simple dags whose
  // structures preclude any IC-optimal schedule." A 6-job witness:
  // a 2-chain (a -> b) next to a complete bipartite coupling
  // {c, d} -> {e, f}. E_max(1) = 3 requires executing a first, but
  // E_max(2) = 3 requires the executed pair to be {c, d} — incompatible.
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a");
  gb.addEdge(a, gb.addNode("b"));
  const NodeId c = gb.addNode("c"), d = gb.addNode("d");
  const NodeId e = gb.addNode("e"), f = gb.addNode("f");
  gb.addEdge(c, e);
  gb.addEdge(c, f);
  gb.addEdge(d, e);
  gb.addEdge(d, f);
  const Digraph g = gb.build();
  EXPECT_EQ(findICOptimalSchedule(g), std::nullopt);
  // Sanity: the brute-force maxima really are individually achievable.
  const auto best = maxEligibilityProfile(g);
  EXPECT_EQ(best[1], 3u);
  EXPECT_EQ(best[2], 3u);
}

TEST(IcQuality, OneForOptimalLessForSuboptimal) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d"), e = gb.addNode("e");
  gb.addEdge(a, b);
  gb.addEdge(c, d);
  gb.addEdge(c, e);
  const Digraph g = gb.build();
  // Optimal order: quality exactly 1.
  EXPECT_DOUBLE_EQ(icQuality(g, std::vector<NodeId>{c, a, b, d, e}), 1.0);
  // Suboptimal order: at t=1 it has E=2 of a possible 3.
  EXPECT_DOUBLE_EQ(icQuality(g, std::vector<NodeId>{a, c, b, d, e}),
                   2.0 / 3.0);
}

TEST(IcQuality, ValidatesInputs) {
  DigraphBuilder gb;
  gb.addNode("a");
  gb.addNode("b");
  const Digraph g = gb.build();
  EXPECT_THROW((void)icQuality(g, std::vector<NodeId>{0}),
               prio::util::Error);
}

TEST(FindICOptimalSchedule, AgreesWithIsICOptimal) {
  // Whenever the finder returns a schedule, the checker accepts it; on
  // the Fig. 2 families this exercises both directions.
  for (int d = 2; d <= 5; ++d) {
    DigraphBuilder gb;
    const NodeId hub = gb.addNode("hub");
    for (int i = 0; i < d; ++i) {
      std::string name = "t";
      name += std::to_string(i);
      gb.addEdge(hub, gb.addNode(std::move(name)));
    }
    const Digraph g = gb.build();
    const auto order = findICOptimalSchedule(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_TRUE(isICOptimal(g, *order));
  }
}

TEST(MaxEligibilityProfile, DominatesEveryValidSchedule) {
  // Property: any topological order's profile is pointwise <= the maximum.
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d"), e = gb.addNode("e"), f = gb.addNode("f");
  gb.addEdge(a, c);
  gb.addEdge(b, c);
  gb.addEdge(c, d);
  gb.addEdge(c, e);
  gb.addEdge(d, f);
  gb.addEdge(e, f);
  const Digraph g = gb.build();
  const auto best = maxEligibilityProfile(g);
  const std::vector<std::vector<NodeId>> orders{
      {a, b, c, d, e, f}, {b, a, c, e, d, f}, {a, b, c, e, d, f}};
  for (const auto& order : orders) {
    const auto p = eligibilityProfile(g, order);
    ASSERT_EQ(p.size(), best.size());
    for (std::size_t t = 0; t < p.size(); ++t) EXPECT_LE(p[t], best[t]);
  }
}

}  // namespace
