// Tests for eligibility profiles E_Σ(t).
#include <gtest/gtest.h>

#include <vector>

#include "dag/digraph.h"
#include "theory/eligibility.h"
#include "util/check.h"

namespace {

using namespace prio::dag;
using prio::theory::eligibilityProfile;
using prio::theory::eligibleCount;

TEST(EligibilityProfile, EmptyGraphEmptyOrder) {
  Digraph g;
  const auto p = eligibilityProfile(g, std::vector<NodeId>{});
  EXPECT_EQ(p, (std::vector<std::size_t>{0}));
}

TEST(EligibilityProfile, Chain) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c");
  gb.addEdge(a, b);
  gb.addEdge(b, c);
  const Digraph g = gb.build();
  const auto p = eligibilityProfile(g, std::vector<NodeId>{a, b, c});
  // Exactly one job eligible at each step until the end.
  EXPECT_EQ(p, (std::vector<std::size_t>{1, 1, 1, 0}));
}

TEST(EligibilityProfile, ForkOut) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c");
  gb.addEdge(a, b);
  gb.addEdge(a, c);
  const Digraph g = gb.build();
  const auto p = eligibilityProfile(g, std::vector<NodeId>{a, b, c});
  EXPECT_EQ(p, (std::vector<std::size_t>{1, 2, 1, 0}));
}

TEST(EligibilityProfile, JoinOrderMatters) {
  // Independent pair {a, b} joined into c: executing both parents first
  // yields the same totals in this tiny case, but the intermediate counts
  // depend on order in Fig. 3's five-job dag.
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d"), e = gb.addNode("e");
  gb.addEdge(a, b);
  gb.addEdge(c, d);
  gb.addEdge(c, e);
  const Digraph g = gb.build();
  // PRIO order c,a,b,d,e vs FIFO-ish order a,c,b,d,e.
  const auto prio_p =
      eligibilityProfile(g, std::vector<NodeId>{c, a, b, d, e});
  const auto fifo_p =
      eligibilityProfile(g, std::vector<NodeId>{a, c, b, d, e});
  EXPECT_EQ(prio_p, (std::vector<std::size_t>{2, 3, 3, 2, 1, 0}));
  EXPECT_EQ(fifo_p, (std::vector<std::size_t>{2, 2, 3, 2, 1, 0}));
}

TEST(EligibilityProfile, PrefixOrderSupported) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b");
  gb.addEdge(a, b);
  const Digraph g = gb.build();
  const auto p = eligibilityProfile(g, std::vector<NodeId>{a});
  EXPECT_EQ(p, (std::vector<std::size_t>{1, 1}));
}

TEST(EligibilityProfile, RejectsPrecedenceViolation) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b");
  gb.addEdge(a, b);
  const Digraph g = gb.build();
  EXPECT_THROW((void)eligibilityProfile(g, std::vector<NodeId>{b, a}),
               prio::util::Error);
}

TEST(EligibilityProfile, RejectsRepeatsAndUnknownJobs) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a");
  gb.addNode("b");
  const Digraph g = gb.build();
  EXPECT_THROW((void)eligibilityProfile(g, std::vector<NodeId>{a, a}),
               prio::util::Error);
  EXPECT_THROW((void)eligibilityProfile(g, std::vector<NodeId>{7}),
               prio::util::Error);
  EXPECT_THROW(
      (void)eligibilityProfile(g, std::vector<NodeId>{0, 1, 0}),
      prio::util::Error);
}

TEST(EligibleCount, MatchesManualEnumeration) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d");
  gb.addEdge(a, c);
  gb.addEdge(b, c);
  gb.addEdge(c, d);
  const Digraph g = gb.build();
  EXPECT_EQ(eligibleCount(g, std::vector<NodeId>{}), 2u);        // a, b
  EXPECT_EQ(eligibleCount(g, std::vector<NodeId>{a}), 1u);       // b
  EXPECT_EQ(eligibleCount(g, std::vector<NodeId>{a, b}), 1u);    // c
  EXPECT_EQ(eligibleCount(g, std::vector<NodeId>{a, b, c}), 1u); // d
  EXPECT_EQ(eligibleCount(g, std::vector<NodeId>{a, b, c, d}), 0u);
}

TEST(EligibilityProfile, TelescopingIdentity) {
  // Executing a job removes it from the eligible set and adds exactly
  // the children whose last missing parent it was:
  //   E(t+1) = E(t) - 1 + (#children completed by step t's job).
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d"), e = gb.addNode("e"), f = gb.addNode("f");
  gb.addEdge(a, c);
  gb.addEdge(b, c);
  gb.addEdge(b, d);
  gb.addEdge(c, e);
  gb.addEdge(c, f);
  gb.addEdge(d, f);
  const Digraph g = gb.build();
  const std::vector<NodeId> order{b, a, d, c, e, f};
  const auto p = eligibilityProfile(g, order);

  std::vector<std::size_t> done_parents(g.numNodes(), 0);
  for (std::size_t t = 0; t < order.size(); ++t) {
    std::size_t unlocked = 0;
    for (const NodeId child : g.children(order[t])) {
      if (++done_parents[child] == g.inDegree(child)) ++unlocked;
    }
    EXPECT_EQ(p[t + 1], p[t] - 1 + unlocked) << "step " << t;
  }
}

TEST(EligibilityProfile, LastEntryZeroWhenComplete) {
  DigraphBuilder gb;
  for (int i = 0; i < 4; ++i) gb.addNode();
  const Digraph g = gb.build();
  const std::vector<NodeId> order{0, 1, 2, 3};
  const auto p = eligibilityProfile(g, order);
  EXPECT_EQ(p.front(), 4u);  // all sources
  EXPECT_EQ(p.back(), 0u);
}

}  // namespace
