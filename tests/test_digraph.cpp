// Tests for the Digraph substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "builder_from.h"
#include "core/decompose.h"
#include "dag/algorithms.h"
#include "dag/csr.h"
#include "dag/digraph.h"
#include "stats/rng.h"
#include "util/check.h"
#include "workloads/pegasus.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using prio::dag::Arc;
using prio::dag::Digraph;
using prio::dag::DigraphBuilder;
using prio::dag::NodeId;

TEST(Digraph, StartsEmpty) {
  Digraph g;
  EXPECT_EQ(g.numNodes(), 0u);
  EXPECT_EQ(g.numEdges(), 0u);
  EXPECT_TRUE(g.sources().empty());
  EXPECT_TRUE(g.sinks().empty());
}

TEST(Digraph, AddNodeAssignsDenseIds) {
  DigraphBuilder gb;
  EXPECT_EQ(gb.addNode("a"), 0u);
  EXPECT_EQ(gb.addNode("b"), 1u);
  EXPECT_EQ(gb.addNode(), 2u);  // autogenerated name
  EXPECT_EQ(gb.numNodes(), 3u);
  const Digraph g = gb.build();
  EXPECT_EQ(g.numNodes(), 3u);
  EXPECT_EQ(g.name(0), "a");
  EXPECT_EQ(g.name(2), "n2");
}

TEST(Digraph, RejectsDuplicateAndEmptyNames) {
  DigraphBuilder gb;
  gb.addNode("a");
  EXPECT_THROW(gb.addNode("a"), prio::util::Error);
  EXPECT_THROW(gb.addNode(""), prio::util::Error);
  EXPECT_EQ(gb.numNodes(), 1u);
}

TEST(Digraph, FindNode) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("alpha");
  EXPECT_EQ(gb.findNode("alpha"), std::optional<NodeId>(a));
  EXPECT_EQ(gb.findNode("beta"), std::nullopt);
  const Digraph g = gb.build();
  EXPECT_EQ(g.findNode("alpha"), std::optional<NodeId>(a));
  EXPECT_EQ(g.findNode("beta"), std::nullopt);
}

TEST(Digraph, AddEdgeMaintainsAdjacency) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c");
  EXPECT_TRUE(gb.addEdge(a, b));
  EXPECT_TRUE(gb.addEdge(a, c));
  const Digraph g = gb.build();
  EXPECT_EQ(g.numEdges(), 2u);
  EXPECT_EQ(g.outDegree(a), 2u);
  EXPECT_EQ(g.inDegree(b), 1u);
  EXPECT_TRUE(g.hasEdge(a, b));
  EXPECT_FALSE(g.hasEdge(b, a));
  ASSERT_EQ(g.children(a).size(), 2u);
  EXPECT_EQ(g.parents(b)[0], a);
}

TEST(Digraph, DuplicateEdgeIgnored) {
  // The builder refuses a repeated arc; the constructor keeps it once,
  // at its first position.
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c");
  EXPECT_TRUE(gb.addEdge(a, b));
  EXPECT_TRUE(gb.addEdge(a, c));
  EXPECT_FALSE(gb.addEdge(a, b));
  const Digraph g = gb.build();
  EXPECT_EQ(g.numEdges(), 2u);
  EXPECT_EQ(g.outDegree(a), 2u);
  EXPECT_EQ(g.children(a)[0], b);

  const std::vector<Arc> arcs{{a, b}, {c, b}, {a, c}, {a, b}, {c, b}};
  const Digraph h({"a", "b", "c"}, arcs);
  EXPECT_EQ(h.numEdges(), 3u);
  EXPECT_TRUE(std::ranges::equal(h.children(a), std::vector<NodeId>{b, c}));
  EXPECT_TRUE(std::ranges::equal(h.parents(b), std::vector<NodeId>{a, c}));
  EXPECT_TRUE(std::ranges::equal(h.children(c), std::vector<NodeId>{b}));
}

TEST(Digraph, RejectsSelfLoopsAndBadIds) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a");
  EXPECT_THROW(gb.addEdge(a, a), prio::util::Error);
  EXPECT_THROW(gb.addEdge(a, 99), prio::util::Error);
  const Digraph g = gb.build();
  EXPECT_EQ(g.numEdges(), 0u);
  EXPECT_THROW((void)g.children(5), prio::util::Error);

  const std::vector<Arc> loop{{0, 1}, {1, 1}, {2, 2}};
  try {
    (void)Digraph({"a", "b", "c"}, loop);
    ADD_FAILURE() << "self-loop accepted";
  } catch (const prio::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("self-loop on node b"),
              std::string::npos)
        << e.what();
  }
  const std::vector<Arc> bad{{0, 3}};
  EXPECT_THROW((void)Digraph({"a", "b", "c"}, bad), prio::util::Error);
  EXPECT_THROW((void)Digraph({}, bad), prio::util::Error);
}

TEST(Digraph, SourcesAndSinks) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c");
  const NodeId iso = gb.addNode("isolated");
  gb.addEdge(a, b);
  gb.addEdge(b, c);
  const Digraph g = gb.build();
  EXPECT_EQ(g.sources(), (std::vector<NodeId>{a, iso}));
  EXPECT_EQ(g.sinks(), (std::vector<NodeId>{c, iso}));
  EXPECT_TRUE(g.isSource(iso));
  EXPECT_TRUE(g.isSink(iso));
}

TEST(Digraph, ReversedSwapsArcs) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c");
  gb.addEdge(a, b);
  gb.addEdge(a, c);
  const Digraph g = gb.build();
  const Digraph r = g.reversed();
  EXPECT_EQ(r.numNodes(), 3u);
  EXPECT_EQ(r.numEdges(), 2u);
  EXPECT_TRUE(r.hasEdge(b, a));
  EXPECT_TRUE(r.hasEdge(c, a));
  EXPECT_FALSE(r.hasEdge(a, b));
  EXPECT_EQ(r.name(a), "a");  // names preserved on the same ids
}

TEST(Digraph, InducedSubgraphKeepsInternalArcs) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d");
  gb.addEdge(a, b);
  gb.addEdge(b, c);
  gb.addEdge(c, d);
  const Digraph g = gb.build();
  const std::vector<NodeId> keep{b, c};
  const Digraph sub = g.inducedSubgraph(keep);
  EXPECT_EQ(sub.numNodes(), 2u);
  EXPECT_EQ(sub.numEdges(), 1u);
  EXPECT_EQ(sub.name(0), "b");
  EXPECT_EQ(sub.name(1), "c");
  EXPECT_TRUE(sub.hasEdge(0, 1));
}

TEST(Digraph, InducedSubgraphRejectsDuplicates) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a");
  gb.addNode("b");
  const Digraph g = gb.build();
  const std::vector<NodeId> twice{a, a};
  EXPECT_THROW((void)g.inducedSubgraph(twice), prio::util::Error);
}

TEST(Digraph, InducedSubgraphRenumbersInGivenOrder) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b");
  gb.addEdge(a, b);
  const Digraph g = gb.build();
  const std::vector<NodeId> keep{b, a};  // reversed order
  const Digraph sub = g.inducedSubgraph(keep);
  EXPECT_EQ(sub.name(0), "b");
  EXPECT_EQ(sub.name(1), "a");
  EXPECT_TRUE(sub.hasEdge(1, 0));
}

// Every graph comes out of one constructor, which lays arcs out in the
// order it is handed them. These are the addNode/addEdge loops the bulk
// producers replaced; their children and parents order is what every
// later phase reads.
Digraph reversedByAddEdge(const Digraph& g) {
  DigraphBuilder r;
  for (NodeId u = 0; u < g.numNodes(); ++u) r.addNode(g.name(u));
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) r.addEdge(v, u);
  }
  return r.build();
}

Digraph inducedByAddEdge(const Digraph& g, const std::vector<NodeId>& keep) {
  DigraphBuilder sub;
  std::unordered_map<NodeId, NodeId> remap;
  for (NodeId u : keep) remap.emplace(u, sub.addNode(g.name(u)));
  for (NodeId u : keep) {
    for (NodeId v : g.children(u)) {
      const auto it = remap.find(v);
      if (it != remap.end()) sub.addEdge(remap.at(u), it->second);
    }
  }
  return sub.build();
}

Digraph superdagByAddEdge(const Digraph& reduced,
                          const prio::core::Decomposition& d) {
  using prio::core::kGlobalSinkOwner;
  DigraphBuilder s;
  for (std::size_t i = 0; i < d.components.size(); ++i) {
    std::string name = "C";
    name += std::to_string(i);
    s.addNode(std::move(name));
  }
  for (NodeId u = 0; u < reduced.numNodes(); ++u) {
    if (d.owner[u] == kGlobalSinkOwner) continue;
    for (NodeId v : reduced.children(u)) {
      if (d.owner[v] == kGlobalSinkOwner) continue;
      if (d.owner[u] != d.owner[v]) s.addEdge(d.owner[u], d.owner[v]);
    }
  }
  return s.build();
}

void expectSameGraph(const Digraph& want, const Digraph& got) {
  ASSERT_EQ(got.numNodes(), want.numNodes());
  ASSERT_EQ(got.numEdges(), want.numEdges());
  for (NodeId u = 0; u < want.numNodes(); ++u) {
    ASSERT_EQ(got.name(u), want.name(u));
    ASSERT_TRUE(std::ranges::equal(got.children(u), want.children(u)));
    ASSERT_TRUE(std::ranges::equal(got.parents(u), want.parents(u)));
  }
}

/// Seeded random, layered and composable dags (and their reversals,
/// whose arcs descend), Pegasus workflows and the paper-scale dags.
std::vector<Digraph> dagFamilies() {
  namespace wl = prio::workloads;
  prio::stats::Rng rng(27);
  std::vector<Digraph> dags;
  for (int i = 0; i < 6; ++i) {
    dags.push_back(
        wl::randomDag(10 + rng.below(80), 0.02 + 0.3 * rng.uniform01(), rng));
    dags.push_back(wl::layeredRandom(2 + rng.below(6), 2 + rng.below(12),
                                     0.4 * rng.uniform01(), rng));
    dags.push_back(wl::randomComposable(5 + rng.below(40), rng));
  }
  for (std::size_t i = 0, n = dags.size(); i < n; ++i) {
    dags.push_back(dags[i].reversed());
  }
  dags.push_back(wl::makeCybershake());
  dags.push_back(wl::makeEpigenomics());
  dags.push_back(wl::makeAirsn());
  dags.push_back(wl::makeInspiral());
  dags.push_back(wl::makeMontage());
  dags.push_back(wl::makeSdss());
  return dags;
}

TEST(Digraph, BulkBuildsMatchAddEdgeOrder) {
  prio::stats::Rng rng(26);
  for (int round = 0; round < 30; ++round) {
    // Arcs between random ids in random order, so no list is sorted,
    // with repeats that the constructor keeps once, at the first.
    const std::size_t n = 2 + rng.below(120);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < n; ++i) {
      std::string name(1, 'v');
      name += std::to_string(i);
      names.push_back(std::move(name));
    }
    std::vector<Arc> arcs;
    const std::size_t num_arcs = rng.below(4 * n);
    for (std::size_t k = 0; k < num_arcs; ++k) {
      const auto u = static_cast<NodeId>(rng.below(n));
      const auto v = static_cast<NodeId>(rng.below(n));
      if (u == v) continue;
      arcs.push_back({u, v});
      if (rng.below(4) == 0) arcs.push_back(arcs[rng.below(arcs.size())]);
    }
    DigraphBuilder gb;
    for (const std::string& name : names) gb.addNode(name);
    for (const Arc& a : arcs) gb.addEdge(a.parent, a.child);
    const Digraph g(names, arcs);
    SCOPED_TRACE(round);
    expectSameGraph(gb.build(), g);
    expectSameGraph(reversedByAddEdge(g), g.reversed());

    std::vector<NodeId> keep;
    for (NodeId u = 0; u < n; ++u) {
      if (rng.below(3) != 0) keep.push_back(u);
    }
    for (std::size_t i = keep.size(); i > 1; --i) {
      std::swap(keep[i - 1], keep[rng.below(i)]);
    }
    expectSameGraph(inducedByAddEdge(g, keep), g.inducedSubgraph(keep));
  }

  for (const Digraph& g : dagFamilies()) {
    SCOPED_TRACE(g.numNodes());
    // BDAG carries each node's children in id order of the parent, so
    // the decoded parents ascend.
    const Digraph decoded =
        prio::dag::decodeBinaryDag(prio::dag::encodeBinaryDag(g));
    expectSameGraph(prio::testing::builderFrom(g).build(), decoded);
    for (NodeId v = 0; v < decoded.numNodes(); ++v) {
      ASSERT_TRUE(std::ranges::is_sorted(decoded.parents(v)));
    }
    expectSameGraph(reversedByAddEdge(g), g.reversed());
    std::vector<NodeId> keep;
    for (NodeId u = 0; u < g.numNodes(); u += 2) keep.push_back(u);
    std::reverse(keep.begin(), keep.end());
    expectSameGraph(inducedByAddEdge(g, keep), g.inducedSubgraph(keep));

    const Digraph reduced = prio::dag::transitiveReduction(g);
    const auto d = prio::core::decompose(reduced);
    expectSameGraph(superdagByAddEdge(reduced, d), d.superdag);
  }
}

TEST(Digraph, MirrorsAdjacencyInInsertionOrder) {
  // a->c before a->b, and d's parents b, c, a: each row keeps the order
  // the arcs were handed over in.
  const std::vector<Arc> arcs{{0, 2}, {0, 1}, {1, 3}, {2, 3}, {0, 3}};
  const Digraph g({"a", "b", "c", "d"}, arcs);
  EXPECT_EQ(g.numNodes(), 4u);
  EXPECT_EQ(g.numEdges(), 5u);
  EXPECT_TRUE(g.edgesAscend());
  EXPECT_TRUE(std::ranges::equal(g.children(0), std::vector<NodeId>{2, 1, 3}));
  EXPECT_TRUE(std::ranges::equal(g.parents(3), std::vector<NodeId>{1, 2, 0}));
  EXPECT_TRUE(std::ranges::equal(g.parents(1), std::vector<NodeId>{0}));
  EXPECT_TRUE(g.children(3).empty());
  EXPECT_EQ(g.outDegree(0), 3u);
  EXPECT_EQ(g.inDegree(3), 3u);
  const Digraph copy = g;  // a plain member-wise copy
  expectSameGraph(g, copy);
}

TEST(Digraph, DetectsDescendingArcs) {
  EXPECT_TRUE(Digraph().edgesAscend());
  const std::vector<Arc> arcs{{0, 1}, {2, 1}};
  EXPECT_FALSE(Digraph({"a", "b", "c"}, arcs).edgesAscend());
  DigraphBuilder gb;
  gb.addNode("a");
  gb.addNode("b");
  gb.addEdge(1, 0);
  EXPECT_FALSE(gb.build().edgesAscend());
}

}  // namespace
