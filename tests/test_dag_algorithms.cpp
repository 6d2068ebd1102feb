// Tests for topological sorting, reachability, components, ranks.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dag/algorithms.h"
#include "dag/digraph.h"
#include "stats/rng.h"
#include "workloads/random.h"

namespace {

using namespace prio::dag;
using prio::stats::Rng;

Digraph diamond() {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c"),
               d = g.addNode("d");
  g.addEdge(a, b);
  g.addEdge(a, c);
  g.addEdge(b, d);
  g.addEdge(c, d);
  return g;
}

TEST(TopologicalOrder, DiamondDeterministic) {
  const Digraph g = diamond();
  const auto order = topologicalOrder(g);
  ASSERT_TRUE(order.has_value());
  // Kahn with min-id ties: a, b, c, d.
  EXPECT_EQ(*order, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_TRUE(isTopologicalOrder(g, *order));
}

TEST(TopologicalOrder, DetectsCycle) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c");
  g.addEdge(a, b);
  g.addEdge(b, c);
  g.addEdge(c, a);
  EXPECT_FALSE(topologicalOrder(g).has_value());
  EXPECT_FALSE(isAcyclic(g));
}

TEST(TopologicalOrder, EmptyGraph) {
  Digraph g;
  const auto order = topologicalOrder(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(order->empty());
}

TEST(IsTopologicalOrder, RejectsBadOrders) {
  const Digraph g = diamond();
  EXPECT_FALSE(isTopologicalOrder(g, std::vector<NodeId>{0, 1, 2}));     // short
  EXPECT_FALSE(isTopologicalOrder(g, std::vector<NodeId>{0, 0, 1, 2}));  // dup
  EXPECT_FALSE(isTopologicalOrder(g, std::vector<NodeId>{1, 0, 2, 3}));  // b<a
  EXPECT_FALSE(isTopologicalOrder(g, std::vector<NodeId>{0, 1, 2, 9}));  // oob
  EXPECT_TRUE(isTopologicalOrder(g, std::vector<NodeId>{0, 2, 1, 3}));
}

TEST(DescendantsAndAncestors, Diamond) {
  const Digraph g = diamond();
  auto d = descendants(g, 0);
  std::sort(d.begin(), d.end());
  EXPECT_EQ(d, (std::vector<NodeId>{1, 2, 3}));
  auto a = ancestors(g, 3);
  std::sort(a.begin(), a.end());
  EXPECT_EQ(a, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_TRUE(descendants(g, 3).empty());
  EXPECT_TRUE(ancestors(g, 0).empty());
}

TEST(WeaklyConnectedComponents, CountsAndLabels) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b");
  const NodeId c = g.addNode("c"), d = g.addNode("d");
  g.addNode("iso");
  g.addEdge(a, b);
  g.addEdge(d, c);  // direction must not matter
  const auto comps = weaklyConnectedComponents(g);
  EXPECT_EQ(comps.count, 3u);
  EXPECT_EQ(comps.label[a], comps.label[b]);
  EXPECT_EQ(comps.label[c], comps.label[d]);
  EXPECT_NE(comps.label[a], comps.label[c]);
  EXPECT_NE(comps.label[4], comps.label[a]);
}

TEST(IsConnected, Basics) {
  EXPECT_FALSE(isConnected(Digraph{}));
  Digraph g;
  g.addNode("a");
  EXPECT_TRUE(isConnected(g));
  g.addNode("b");
  EXPECT_FALSE(isConnected(g));
}

TEST(LongestPathNodes, ChainAndDiamond) {
  EXPECT_EQ(longestPathNodes(Digraph{}), 0u);
  EXPECT_EQ(longestPathNodes(diamond()), 3u);  // a-b-d
  Digraph chain;
  NodeId prev = chain.addNode("n0");
  for (int i = 1; i < 5; ++i) {
    const NodeId next = chain.addNode("n" + std::to_string(i));
    chain.addEdge(prev, next);
    prev = next;
  }
  EXPECT_EQ(longestPathNodes(chain), 5u);
}

TEST(UpwardRank, DiamondRanks) {
  const auto rank = upwardRank(diamond());
  EXPECT_EQ(rank[3], 1u);
  EXPECT_EQ(rank[1], 2u);
  EXPECT_EQ(rank[2], 2u);
  EXPECT_EQ(rank[0], 3u);
}

TEST(UpwardRank, ParentAlwaysExceedsChild) {
  Rng rng(17);
  const auto g = prio::workloads::randomDag(40, 0.15, rng);
  const auto rank = upwardRank(g);
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) EXPECT_GT(rank[u], rank[v]);
  }
}

TEST(IsBipartiteDag, Classification) {
  Digraph bip;
  const NodeId s1 = bip.addNode("s1"), s2 = bip.addNode("s2");
  const NodeId t1 = bip.addNode("t1");
  bip.addEdge(s1, t1);
  bip.addEdge(s2, t1);
  EXPECT_TRUE(isBipartiteDag(bip));
  EXPECT_FALSE(isBipartiteDag(diamond()));  // b has parent and child
  Digraph empty;
  EXPECT_TRUE(isBipartiteDag(empty));
}

// Property sweep: random dags always admit valid topological orders, and
// the reachability dag::descendants reports is consistent with the order
// and with the arcs.
class RandomDagAlgorithms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagAlgorithms, TopoAndReachConsistent) {
  Rng rng(GetParam());
  const auto g = prio::workloads::randomDag(30, 0.12, rng);
  const auto order = topologicalOrder(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(isTopologicalOrder(g, *order));
  std::vector<std::size_t> position(g.numNodes());
  for (std::size_t i = 0; i < order->size(); ++i) position[(*order)[i]] = i;
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    auto reach = descendants(g, u);
    std::sort(reach.begin(), reach.end());
    EXPECT_EQ(std::adjacent_find(reach.begin(), reach.end()), reach.end());
    // Exactly u's children and everything below them, all later in the
    // order.
    std::vector<NodeId> below;
    for (NodeId c : g.children(u)) {
      below.push_back(c);
      const auto deeper = descendants(g, c);
      below.insert(below.end(), deeper.begin(), deeper.end());
    }
    std::sort(below.begin(), below.end());
    below.erase(std::unique(below.begin(), below.end()), below.end());
    EXPECT_EQ(reach, below);
    for (NodeId v : reach) EXPECT_LT(position[u], position[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagAlgorithms,
                         ::testing::Range<std::uint64_t>(1, 11));

// Reference Kahn with an explicit min-scan, the determinism contract
// topologicalOrder() must honor for any id layout: at every step the
// smallest-id ready node runs next (the lexicographically smallest
// topological order).
std::optional<std::vector<NodeId>> lexMinTopoReference(const Digraph& g) {
  const std::size_t n = g.numNodes();
  std::vector<std::size_t> pending(n);
  std::vector<char> done(n, 0);
  for (NodeId u = 0; u < n; ++u) pending[u] = g.inDegree(u);
  std::vector<NodeId> order;
  for (std::size_t step = 0; step < n; ++step) {
    NodeId pick = static_cast<NodeId>(n);
    for (NodeId u = 0; u < n; ++u) {
      if (!done[u] && pending[u] == 0) {
        pick = u;
        break;
      }
    }
    if (pick == n) return std::nullopt;
    done[pick] = 1;
    order.push_back(pick);
    for (NodeId v : g.children(pick)) --pending[v];
  }
  return order;
}

// Relabels g's nodes by a random permutation, producing descending arcs
// that force topologicalOrder() off its identity fast path and onto the
// ready-bitmap scan.
Digraph shuffledIds(const Digraph& g, Rng& rng) {
  std::vector<NodeId> new_id(g.numNodes());
  for (NodeId u = 0; u < g.numNodes(); ++u) new_id[u] = u;
  for (std::size_t i = new_id.size(); i > 1; --i) {
    std::swap(new_id[i - 1], new_id[rng.below(i)]);
  }
  Digraph out;
  out.reserveNodes(g.numNodes());
  std::vector<NodeId> old_of_new(g.numNodes());
  for (NodeId u = 0; u < g.numNodes(); ++u) old_of_new[new_id[u]] = u;
  for (NodeId nu = 0; nu < g.numNodes(); ++nu) {
    out.addNode(g.name(old_of_new[nu]));
  }
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) out.addEdge(new_id[u], new_id[v]);
  }
  return out;
}

TEST(TopologicalOrder, LexMinOnShuffledIds) {
  Rng rng(424242);
  for (int i = 0; i < 40; ++i) {
    const auto base = prio::workloads::randomDag(40, 0.1, rng);
    const Digraph g = shuffledIds(base, rng);
    const auto order = topologicalOrder(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_EQ(*order, *lexMinTopoReference(g));
  }
}

TEST(TopologicalOrder, LexMinOnDescendingChain) {
  // 4 -> 3 -> 2 -> 1 -> 0: every arc descends, so the only topological
  // order is the exact reverse of the id order (worst case for the
  // bitmap cursor, which gets pulled back on every extraction).
  Digraph g;
  for (int i = 0; i < 5; ++i) g.addNode("n" + std::to_string(i));
  for (NodeId u = 4; u > 0; --u) g.addEdge(u, u - 1);
  const auto order = topologicalOrder(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<NodeId>{4, 3, 2, 1, 0}));
}

TEST(TopologicalOrder, DetectsCycleWithDescendingArcs) {
  Digraph g;
  for (int i = 0; i < 70; ++i) g.addNode("n" + std::to_string(i));
  g.addEdge(1, 0);  // descending: disables the identity fast path
  g.addEdge(68, 69);
  g.addEdge(69, 68);  // cycle far from node 0, beyond the first bitmap word
  EXPECT_FALSE(topologicalOrder(g).has_value());
  EXPECT_FALSE(isAcyclic(g));
}

TEST(TransitiveReduction, PrecomputedOrderMatches) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    const auto g = prio::workloads::randomDag(40, 0.15, rng);
    const auto order = topologicalOrder(g);
    ASSERT_TRUE(order.has_value());
    const auto a = transitiveReduction(g);
    const auto b = transitiveReduction(g, *order);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (NodeId u = 0; u < g.numNodes(); ++u) {
      const auto ca = a.children(u);
      const auto cb = b.children(u);
      EXPECT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()));
    }
  }
}

}  // namespace
