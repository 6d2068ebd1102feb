// Tests for the Divide phase: C(s) closures, the bipartite fast path, the
// detach rules and the superdag.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "core/decompose.h"
#include "dag/algorithms.h"
#include "stats/rng.h"
#include "theory/blocks.h"
#include "util/check.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using namespace prio::core;
using namespace prio::dag;
using prio::stats::Rng;

TEST(Decompose, SingleNode) {
  DigraphBuilder gb;
  gb.addNode("solo");
  const Digraph g = gb.build();
  const auto d = decompose(g);
  ASSERT_EQ(d.components.size(), 1u);
  EXPECT_EQ(d.components[0].num_nonsinks, 0u);
  EXPECT_EQ(d.owner[0], kGlobalSinkOwner);
  EXPECT_EQ(d.global_sinks, (std::vector<NodeId>{0}));
}

TEST(Decompose, PureBipartiteIsOneComponent) {
  const Digraph g = prio::theory::makeW(3, 2);
  const auto d = decompose(g);
  ASSERT_EQ(d.components.size(), 1u);
  EXPECT_EQ(d.components[0].nodes.size(), g.numNodes());
  EXPECT_EQ(d.components[0].num_nonsinks, 3u);
  EXPECT_TRUE(d.components[0].bipartite);
  EXPECT_EQ(d.bipartite_components, 1u);
  EXPECT_EQ(d.general_searches, 0u);
}

TEST(Decompose, ChainPeelsPairwise) {
  DigraphBuilder gb;
  NodeId prev = gb.addNode();
  for (int i = 1; i < 5; ++i) {
    const NodeId next = gb.addNode();
    gb.addEdge(prev, next);
    prev = next;
  }
  const Digraph g = gb.build();
  const auto d = decompose(g);
  // Chain of 5: components {n0,n1}, {n1,n2}, {n2,n3}, {n3,n4}.
  ASSERT_EQ(d.components.size(), 4u);
  for (const auto& c : d.components) {
    EXPECT_EQ(c.nodes.size(), 2u);
    EXPECT_EQ(c.num_nonsinks, 1u);
  }
  // Superdag must be the corresponding chain.
  EXPECT_EQ(d.superdag.numNodes(), 4u);
  EXPECT_EQ(d.superdag.numEdges(), 3u);
  EXPECT_TRUE(isAcyclic(d.superdag));
}

TEST(Decompose, Fig3Example) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a");
  gb.addNode("b");
  const NodeId c = gb.addNode("c");
  gb.addNode("d");
  gb.addNode("e");
  gb.addEdge(a, 1);
  gb.addEdge(c, 3);
  gb.addEdge(c, 4);
  const Digraph g = gb.build();
  const auto d = decompose(g);
  // Two components: {a,b} (W(1,1)) and {c,d,e} (W(1,2)); b, d, e are
  // global sinks.
  ASSERT_EQ(d.components.size(), 2u);
  EXPECT_EQ(d.global_sinks, (std::vector<NodeId>{1, 3, 4}));
  EXPECT_EQ(d.superdag.numEdges(), 0u);
}

TEST(Decompose, OwnersPartitionNonSinks) {
  Rng rng(9);
  const auto g = prio::workloads::randomComposable(30, rng);
  const auto d = decompose(g);
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    if (g.isSink(u)) {
      EXPECT_EQ(d.owner[u], kGlobalSinkOwner) << g.name(u);
    } else {
      ASSERT_LT(d.owner[u], d.components.size()) << g.name(u);
      // u must be a non-sink member of its owning component.
      const Component& c = d.components[d.owner[u]];
      const auto it = std::find(c.nodes.begin(), c.nodes.end(), u);
      ASSERT_NE(it, c.nodes.end());
      const auto local = static_cast<NodeId>(it - c.nodes.begin());
      EXPECT_GT(c.graph.outDegree(local), 0u);
    }
  }
}

TEST(Decompose, EveryNodeCoveredAndNonsinksCountConsistent) {
  Rng rng(10);
  const auto g = prio::workloads::layeredRandom(4, 6, 0.3, rng);
  const auto d = decompose(g);
  std::size_t scheduled = 0;
  for (const auto& c : d.components) scheduled += c.num_nonsinks;
  EXPECT_EQ(scheduled + d.global_sinks.size(), g.numNodes());
}

TEST(Decompose, SuperdagCapturesCrossComponentArcs) {
  Rng rng(11);
  const auto g = prio::workloads::randomComposable(40, rng);
  const auto d = decompose(g);
  EXPECT_TRUE(isAcyclic(d.superdag));
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) {
      if (d.owner[u] == kGlobalSinkOwner ||
          d.owner[v] == kGlobalSinkOwner || d.owner[u] == d.owner[v]) {
        continue;
      }
      EXPECT_TRUE(d.superdag.hasEdge(d.owner[u], d.owner[v]))
          << g.name(u) << " -> " << g.name(v);
    }
  }
}

TEST(Decompose, FastPathOnOffProduceValidDecompositions) {
  Rng rng(12);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = prio::workloads::randomComposable(25, rng);
    DecomposeOptions with, without;
    with.bipartite_fast_path = true;
    without.bipartite_fast_path = false;
    const auto d1 = decompose(g, with);
    const auto d2 = decompose(g, without);
    // Both cover all non-sinks exactly once; component sets may differ in
    // order but scheduled-job counts must agree.
    std::size_t s1 = 0, s2 = 0;
    for (const auto& c : d1.components) s1 += c.num_nonsinks;
    for (const auto& c : d2.components) s2 += c.num_nonsinks;
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(d2.general_searches, d2.components.size());
  }
}

TEST(Decompose, GeneralSearchHandlesCrossedCouple) {
  // The minimal dag with no bipartite component rooted at sources:
  //   s -> c, m -> c, s' -> m, s' -> c2, m2 -> c2, s -> m2.
  DigraphBuilder gb;
  const NodeId s = gb.addNode("s"), sp = gb.addNode("sp");
  const NodeId m = gb.addNode("m"), m2 = gb.addNode("m2");
  const NodeId c = gb.addNode("c"), c2 = gb.addNode("c2");
  gb.addEdge(s, c);
  gb.addEdge(m, c);
  gb.addEdge(sp, m);
  gb.addEdge(sp, c2);
  gb.addEdge(m2, c2);
  gb.addEdge(s, m2);
  const Digraph g = gb.build();
  const auto d = decompose(g);
  EXPECT_GE(d.general_searches, 1u);
  ASSERT_EQ(d.components.size(), 1u);
  EXPECT_EQ(d.components[0].nodes.size(), 6u);
  EXPECT_FALSE(d.components[0].bipartite);
}

TEST(Decompose, AirsnShape) {
  const auto g = prio::workloads::makeAirsn({10, 4});  // small AIRSN
  const auto d = decompose(g);
  EXPECT_EQ(d.general_searches, 0u);  // AIRSN is fully bipartite-composed
  // Handle chain peels as 3 pairs (the 4th handle job joins the umbrella
  // block), then the umbrella, the joins and the second fork.
  std::set<std::size_t> sizes;
  for (const auto& c : d.components) sizes.insert(c.nodes.size());
  // The big block: handle_end + 10 fringes + 10 forks = 21 nodes.
  EXPECT_TRUE(sizes.count(21)) << "umbrella block missing";
}

TEST(Decompose, InspiralHasLargeNonBipartiteComponent) {
  const auto g = prio::workloads::makeInspiral({8, 4});
  const auto reduced = transitiveReduction(g);
  const auto d = decompose(reduced);
  std::size_t biggest_nonbip = 0;
  for (const auto& c : d.components) {
    if (!c.bipartite) biggest_nonbip = std::max(biggest_nonbip, c.nodes.size());
  }
  // inspiral (8*4) + veto (8) + thinca (8) = 48 jobs welded together.
  EXPECT_EQ(biggest_nonbip, 48u);
  EXPECT_GE(d.general_searches, 1u);
}

TEST(Decompose, RejectsCyclicInput) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b");
  gb.addEdge(a, b);
  gb.addEdge(b, a);
  const Digraph g = gb.build();
  EXPECT_THROW((void)decompose(g), prio::util::Error);
}

TEST(Decompose, IsolatedNodesBecomeGlobalSinkSingletons) {
  DigraphBuilder gb;
  gb.addNode("iso1");
  gb.addNode("iso2");
  const NodeId a = gb.addNode("a"), b = gb.addNode("b");
  gb.addEdge(a, b);
  const Digraph g = gb.build();
  const auto d = decompose(g);
  EXPECT_EQ(d.global_sinks.size(), 3u);  // iso1, iso2, b
  std::size_t scheduled = 0;
  for (const auto& c : d.components) scheduled += c.num_nonsinks;
  EXPECT_EQ(scheduled, 1u);  // only a
}

}  // namespace
