// Tests for shortcut-arc removal (§3.1 step 1).
//
// The slabbed pass in dag/algorithms.cpp is checked against two
// reference reductions kept here: the full descendant-matrix reduction it
// replaced (O(V^2/8) memory) and the per-arc DFS (O(V) memory). The
// differential cases require the same graph, not just the same arc set:
// names, the order of children(u) and parents(u), and numEdges(), since
// every later phase reads the reduced graph's arc order.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "builder_from.h"
#include "dag/algorithms.h"
#include "dag/digraph.h"
#include "stats/rng.h"
#include "theory/blocks.h"
#include "util/check.h"
#include "workloads/pegasus.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using namespace prio::dag;
using prio::stats::Rng;

// ---------------------------------------------------------------------------
// Reference reductions: the library's two backends before the slab pass.

namespace reference {

/// A rows x cols bit matrix packed into 64-bit words, row-major.
class BitMatrix {
 public:
  BitMatrix(std::size_t rows, std::size_t cols)
      : words_per_row_((cols + 63) / 64), bits_(rows * words_per_row_, 0) {}

  void set(std::size_t r, std::size_t c) {
    bits_[r * words_per_row_ + c / 64] |= (std::uint64_t{1} << (c % 64));
  }
  [[nodiscard]] bool test(std::size_t r, std::size_t c) const {
    return (bits_[r * words_per_row_ + c / 64] >> (c % 64)) &
           std::uint64_t{1};
  }
  void orRowRangeInto(std::size_t dst, std::size_t src,
                      std::size_t word_begin, std::size_t word_end) {
    std::uint64_t* d = &bits_[dst * words_per_row_];
    const std::uint64_t* s = &bits_[src * words_per_row_];
    for (std::size_t w = word_begin; w < word_end; ++w) d[w] |= s[w];
  }
  [[nodiscard]] std::size_t wordsPerRow() const noexcept {
    return words_per_row_;
  }
  [[nodiscard]] std::size_t rowPopcount(std::size_t r) const {
    std::size_t total = 0;
    const std::uint64_t* row = &bits_[r * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      total += static_cast<std::size_t>(__builtin_popcountll(row[w]));
    }
    return total;
  }

 private:
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// Row u has bit v set iff v is reachable from u by a path of length >= 1.
/// Any valid topological order gives the same matrix.
BitMatrix descendantMatrix(const Digraph& g,
                           std::span<const NodeId> topo_order) {
  const std::size_t n = g.numNodes();
  PRIO_CHECK_MSG(topo_order.size() == n,
                 "descendantMatrix: topo_order must cover every node");
  BitMatrix reach(n, n);
  if (n == 0) return reach;

  // Process in reverse topological order so children's rows are complete.
  // Rows longer than one tile are filled one column tile at a time: the
  // OR of a child row segment into a parent row segment then works on
  // 4 KiB pieces that stay cache-resident between the child's completion
  // and the parents' visits, instead of streaming multi-KB rows through
  // the cache once per edge. Every bit is owned by exactly one tile, so
  // the result is identical to the untiled pass.
  constexpr std::size_t kTileWords = 512;  // 4 KiB row segments
  const std::size_t words = reach.wordsPerRow();
  for (std::size_t tile_begin = 0; tile_begin < words;
       tile_begin += kTileWords) {
    const std::size_t tile_end = std::min(words, tile_begin + kTileWords);
    const std::size_t col_begin = tile_begin * 64;
    const std::size_t col_end = tile_end * 64;
    for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
      const NodeId u = *it;
      for (NodeId v : g.children(u)) {
        if (v >= col_begin && v < col_end) reach.set(u, v);
        reach.orRowRangeInto(u, v, tile_begin, tile_end);
      }
    }
  }
  return reach;
}

BitMatrix descendantMatrix(const Digraph& g) {
  auto order = topologicalOrder(g);
  PRIO_CHECK_MSG(order.has_value(), "descendantMatrix requires a dag");
  return descendantMatrix(g, *order);
}

Digraph reduceWithBitset(const Digraph& g,
                         std::span<const NodeId> topo_order) {
  const BitMatrix reach = descendantMatrix(g, topo_order);
  DigraphBuilder out;
  out.reserveNodes(g.numNodes());
  for (NodeId u = 0; u < g.numNodes(); ++u) out.addNode(g.name(u));
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    const auto children = g.children(u);
    for (NodeId v : children) {
      bool shortcut = false;
      for (NodeId w : children) {
        if (w != v && reach.test(w, v)) {
          shortcut = true;
          break;
        }
      }
      if (!shortcut) out.addEdge(u, v);
    }
  }
  return out.build();
}

Digraph reduceWithBitset(const Digraph& g) {
  auto order = topologicalOrder(g);
  PRIO_CHECK_MSG(order.has_value(), "transitiveReduction requires a dag");
  return reduceWithBitset(g, *order);
}

// True iff v is reachable from any node of `starts` (paths of length >= 0).
bool reachableFromAny(const Digraph& g, std::span<const NodeId> starts,
                      NodeId target, std::vector<char>& visited,
                      std::vector<NodeId>& stack) {
  stack.assign(starts.begin(), starts.end());
  std::fill(visited.begin(), visited.end(), 0);
  for (NodeId s : starts) visited[s] = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (u == target) return true;
    for (NodeId w : g.children(u)) {
      if (!visited[w]) {
        visited[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return false;
}

Digraph reduceWithDfs(const Digraph& g) {
  DigraphBuilder out;
  out.reserveNodes(g.numNodes());
  for (NodeId u = 0; u < g.numNodes(); ++u) out.addNode(g.name(u));
  std::vector<char> visited(g.numNodes(), 0);
  std::vector<NodeId> stack;
  std::vector<NodeId> other_children;
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) {
      other_children.clear();
      for (NodeId w : g.children(u)) {
        if (w != v) other_children.push_back(w);
      }
      if (!reachableFromAny(g, other_children, v, visited, stack)) {
        out.addEdge(u, v);
      }
    }
  }
  return out.build();
}

}  // namespace reference

/// Names, numEdges and the order of every children and parents list.
void expectSameGraph(const Digraph& want, const Digraph& got,
                     const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.numNodes(), want.numNodes());
  ASSERT_EQ(got.numEdges(), want.numEdges());
  for (NodeId u = 0; u < want.numNodes(); ++u) {
    ASSERT_EQ(got.name(u), want.name(u));
    ASSERT_TRUE(std::ranges::equal(got.children(u), want.children(u)))
        << "children of " << want.name(u);
    ASSERT_TRUE(std::ranges::equal(got.parents(u), want.parents(u)))
        << "parents of " << want.name(u);
  }
}

/// The reduction of `g` must be the full-matrix reduction's graph.
void expectMatchesReference(const Digraph& g, const std::string& what) {
  expectSameGraph(reference::reduceWithBitset(g), transitiveReduction(g),
                  what);
}

/// `g` with its ids permuted and its arcs inserted in shuffled order, so
/// arcs neither ascend nor appear in id order in any adjacency list.
Digraph permutedShuffled(const Digraph& g, Rng& rng) {
  const std::size_t n = g.numNodes();
  std::vector<NodeId> new_id(n);
  for (NodeId u = 0; u < n; ++u) new_id[u] = u;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(new_id[i - 1], new_id[rng.below(i)]);
  }
  std::vector<NodeId> old_of_new(n);
  for (NodeId u = 0; u < n; ++u) old_of_new[new_id[u]] = u;
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.children(u)) arcs.emplace_back(new_id[u], new_id[v]);
  }
  for (std::size_t i = arcs.size(); i > 1; --i) {
    std::swap(arcs[i - 1], arcs[rng.below(i)]);
  }
  DigraphBuilder out;
  out.reserveNodes(n);
  for (NodeId u = 0; u < n; ++u) out.addNode(g.name(old_of_new[u]));
  for (const auto& [u, v] : arcs) out.addEdge(u, v);
  return out.build();
}

/// Heads of arcs out of nodes with two or more children, in the
/// lexicographically smallest topological order: the reduction's
/// reachability columns.
std::vector<NodeId> columnNodes(const Digraph& g) {
  std::vector<char> head(g.numNodes(), 0);
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    if (g.outDegree(u) < 2) continue;
    for (NodeId v : g.children(u)) head[v] = 1;
  }
  const auto order = topologicalOrder(g);
  std::vector<NodeId> out;
  for (NodeId v : *order) {
    if (head[v]) out.push_back(v);
  }
  return out;
}

/// `prefix` followed by `i` in decimal.
std::string label(char prefix, std::size_t i) {
  std::string out(1, prefix);
  out += std::to_string(i);
  return out;
}

/// A topological order of `g` drawn at random: Kahn's algorithm taking
/// a random ready node each step.
std::vector<NodeId> randomTopologicalOrder(const Digraph& g, Rng& rng) {
  std::vector<std::size_t> waiting(g.numNodes());
  std::vector<NodeId> ready;
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    waiting[u] = g.inDegree(u);
    if (waiting[u] == 0) ready.push_back(u);
  }
  std::vector<NodeId> order;
  while (!ready.empty()) {
    std::swap(ready[rng.below(ready.size())], ready.back());
    const NodeId u = ready.back();
    ready.pop_back();
    order.push_back(u);
    for (NodeId v : g.children(u)) {
      if (--waiting[v] == 0) ready.push_back(v);
    }
  }
  PRIO_CHECK(order.size() == g.numNodes());
  return order;
}

std::size_t maxRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// ---------------------------------------------------------------------------
// Small cases.

TEST(TransitiveReduction, RemovesTriangleShortcut) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c");
  gb.addEdge(a, b);
  gb.addEdge(b, c);
  gb.addEdge(a, c);  // shortcut
  const Digraph g = gb.build();
  const Digraph r = transitiveReduction(g);
  EXPECT_EQ(r.numEdges(), 2u);
  EXPECT_TRUE(r.hasEdge(a, b));
  EXPECT_TRUE(r.hasEdge(b, c));
  EXPECT_FALSE(r.hasEdge(a, c));
}

TEST(TransitiveReduction, KeepsDiamond) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d");
  gb.addEdge(a, b);
  gb.addEdge(a, c);
  gb.addEdge(b, d);
  gb.addEdge(c, d);
  const Digraph g = gb.build();
  const Digraph r = transitiveReduction(g);
  EXPECT_EQ(r.numEdges(), 4u);  // no shortcuts in a diamond
}

TEST(TransitiveReduction, DiamondWithChord) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d");
  gb.addEdge(a, b);
  gb.addEdge(a, c);
  gb.addEdge(b, d);
  gb.addEdge(c, d);
  gb.addEdge(a, d);  // shortcut across the diamond
  const Digraph g = gb.build();
  const Digraph r = transitiveReduction(g);
  EXPECT_EQ(r.numEdges(), 4u);
  EXPECT_FALSE(r.hasEdge(a, d));
}

TEST(TransitiveReduction, LongChainShortcuts) {
  // Chain 0->1->...->5 plus every skip arc: all skips must vanish.
  DigraphBuilder gb;
  for (int i = 0; i < 6; ++i) gb.addNode();
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = i + 1; j < 6; ++j) gb.addEdge(i, j);
  }
  const Digraph g = gb.build();
  const Digraph r = transitiveReduction(g);
  EXPECT_EQ(r.numEdges(), 5u);
  for (NodeId i = 0; i + 1 < 6; ++i) EXPECT_TRUE(r.hasEdge(i, i + 1));
}

TEST(TransitiveReduction, RejectsCycles) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b");
  gb.addEdge(a, b);
  gb.addEdge(b, a);
  const Digraph g = gb.build();
  EXPECT_THROW((void)transitiveReduction(g), prio::util::Error);
}

TEST(TransitiveReduction, PreservesSourcesAndSinks) {
  Rng rng(5);
  const auto g = prio::workloads::randomDag(40, 0.25, rng);
  const Digraph r = transitiveReduction(g);
  EXPECT_EQ(r.sources(), g.sources());
  EXPECT_EQ(r.sinks(), g.sinks());
}

TEST(TransitiveReduction, Idempotent) {
  Rng rng(6);
  const auto g = prio::workloads::randomDag(30, 0.3, rng);
  const Digraph once = transitiveReduction(g);
  const Digraph twice = transitiveReduction(once);
  EXPECT_EQ(once.numEdges(), twice.numEdges());
}

// Property sweep: the reduction agrees with the per-arc DFS reference,
// reachability is preserved, and no remaining arc is a shortcut.
class ReductionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReductionProperty, MethodsAgreeAndReachabilityPreserved) {
  Rng rng(GetParam());
  const auto g = prio::workloads::randomDag(25, 0.25, rng);
  const Digraph reduced = transitiveReduction(g);
  const Digraph dfs = reference::reduceWithDfs(g);

  // Same edge set (the transitive reduction of a dag is unique).
  ASSERT_EQ(reduced.numEdges(), dfs.numEdges());
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : reduced.children(u)) EXPECT_TRUE(dfs.hasEdge(u, v));
  }

  // Reachability unchanged.
  const auto before = reference::descendantMatrix(g);
  const auto after = reference::descendantMatrix(reduced);
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    EXPECT_EQ(before.rowPopcount(u), after.rowPopcount(u));
  }

  // No surviving arc is a shortcut: removing it must break reachability.
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : reduced.children(u)) {
      bool via_other_child = false;
      for (NodeId w : reduced.children(u)) {
        if (w != v && after.test(w, v)) via_other_child = true;
      }
      EXPECT_FALSE(via_other_child)
          << "arc " << g.name(u) << "->" << g.name(v) << " is a shortcut";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// The reference matrix's own checks: the property sweep above trusts it.

TEST(DescendantMatrix, DiamondReachability) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d");
  gb.addEdge(a, b);
  gb.addEdge(a, c);
  gb.addEdge(b, d);
  gb.addEdge(c, d);
  const Digraph g = gb.build();
  const auto reach = reference::descendantMatrix(g);
  EXPECT_TRUE(reach.test(0, 1));
  EXPECT_TRUE(reach.test(0, 2));
  EXPECT_TRUE(reach.test(0, 3));
  EXPECT_TRUE(reach.test(1, 3));
  EXPECT_FALSE(reach.test(1, 2));
  EXPECT_FALSE(reach.test(3, 0));
  EXPECT_FALSE(reach.test(0, 0));  // proper descendants only
}

TEST(DescendantMatrix, PrecomputedOrderMatches) {
  Rng rng(7);
  const auto g = prio::workloads::randomDag(50, 0.1, rng);
  const auto a = reference::descendantMatrix(g);
  const auto b =
      reference::descendantMatrix(g, randomTopologicalOrder(g, rng));
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    EXPECT_EQ(a.rowPopcount(u), b.rowPopcount(u));
    EXPECT_EQ(a.rowPopcount(u), descendants(g, u).size());
    for (NodeId v = 0; v < g.numNodes(); ++v) {
      EXPECT_EQ(a.test(u, v), b.test(u, v));
    }
  }
}

// ---------------------------------------------------------------------------
// Differential cases: the same graph as the full-matrix reduction.

TEST(ReductionDifferential, ErdosRenyiPermutedAndShuffled) {
  Rng rng(250001);
  const double densities[] = {0.002, 0.01, 0.05, 0.15, 0.3, 0.6};
  std::size_t shortcuts = 0;
  for (int round = 0; round < 25; ++round) {
    for (double p : densities) {
      const std::size_t n = 20 + rng.below(280);
      const Digraph g =
          permutedShuffled(prio::workloads::randomDag(n, p, rng), rng);
      const Digraph want = reference::reduceWithBitset(g);
      expectSameGraph(want, transitiveReduction(g),
                      "n=" + std::to_string(n) + " p=" + std::to_string(p));
      shortcuts += g.numEdges() - want.numEdges();
    }
  }
  EXPECT_GT(shortcuts, 0u);
}

TEST(ReductionDifferential, LayeredAndComposable) {
  Rng rng(250002);
  for (int round = 0; round < 20; ++round) {
    const auto layered = prio::workloads::layeredRandom(
        2 + rng.below(8), 2 + rng.below(30), 0.5 * rng.uniform01(), rng);
    expectMatchesReference(layered, "layered");
    expectMatchesReference(permutedShuffled(layered, rng),
                           "layered, permuted");
    const auto composable =
        prio::workloads::randomComposable(5 + rng.below(60), rng);
    expectMatchesReference(composable, "composable");
    expectMatchesReference(permutedShuffled(composable, rng),
                           "composable, permuted");
  }
}

TEST(ReductionDifferential, PegasusAndBuildingBlocks) {
  namespace theory = prio::theory;
  namespace workloads = prio::workloads;
  expectMatchesReference(workloads::makeCybershake(), "cybershake");
  expectMatchesReference(workloads::makeCybershake({2, 5}), "cybershake 2x5");
  expectMatchesReference(workloads::makeEpigenomics(), "epigenomics");
  expectMatchesReference(workloads::makeEpigenomics({2, 3}),
                         "epigenomics 2x3");
  for (std::size_t k = 1; k <= 6; ++k) {
    expectMatchesReference(theory::makeW(k, k + 1), "W");
    expectMatchesReference(theory::makeM(k, k + 1), "M");
    expectMatchesReference(theory::makeN(k + 1), "N");
    expectMatchesReference(theory::makeCycleDag(k + 1), "cycle");
    expectMatchesReference(theory::makeCliqueDag(k + 1), "clique");
    expectMatchesReference(theory::makeCompleteBipartite(k, k + 2),
                           "complete bipartite");
  }
}

TEST(ReductionDifferential, PaperScaleWorkloads) {
  namespace workloads = prio::workloads;
  expectMatchesReference(workloads::makeAirsn(), "airsn");
  expectMatchesReference(workloads::makeInspiral(), "inspiral");
  expectMatchesReference(workloads::makeMontage(), "montage");
  expectMatchesReference(workloads::makeSdss(), "sdss");
}

TEST(ReductionDifferential, AnyTopologicalOrder) {
  // Columns are numbered and cut into slabs in the order given, so
  // every valid order must still give the same graph.
  Rng rng(250004);
  for (int round = 0; round < 40; ++round) {
    const double p = round % 2 == 0 ? 0.05 : 0.3;
    const Digraph g = permutedShuffled(
        prio::workloads::randomDag(30 + rng.below(200), p, rng), rng);
    expectSameGraph(reference::reduceWithBitset(g),
                    transitiveReduction(g, randomTopologicalOrder(g, rng)),
                    "round " + std::to_string(round));
  }
  const Digraph montage = prio::workloads::makeMontage();
  expectSameGraph(
      reference::reduceWithBitset(montage),
      transitiveReduction(montage, randomTopologicalOrder(montage, rng)),
      "montage");
}

TEST(ReductionDifferential, GraphsWithoutColumns) {
  // No node has two children, so no arc can be a shortcut.
  expectMatchesReference(Digraph{}, "empty");
  DigraphBuilder single_b;
  single_b.addNode("only");
  const Digraph single = single_b.build();
  expectMatchesReference(single, "single node");

  DigraphBuilder chain_b;
  for (std::size_t i = 0; i < 300; ++i) chain_b.addNode(label('c', i));
  for (NodeId u = 299; u > 0; --u) chain_b.addEdge(u, u - 1);  // descending
  const Digraph chain = chain_b.build();
  expectMatchesReference(chain, "descending chain");

  // In-tree: every node points at its parent in a heap layout.
  DigraphBuilder in_tree_b;
  for (std::size_t i = 0; i < 500; ++i) in_tree_b.addNode(label('t', i));
  for (NodeId u = 1; u < 500; ++u) in_tree_b.addEdge(u, (u - 1) / 2);
  const Digraph in_tree = in_tree_b.build();
  expectMatchesReference(in_tree, "in-tree");
  EXPECT_TRUE(columnNodes(in_tree).empty());
  EXPECT_EQ(transitiveReduction(in_tree).numEdges(), in_tree.numEdges());
}

TEST(ReductionDifferential, ShortcutInEverySlab) {
  // A root over a fan of 10,000 children (three 4,096-column slabs, the
  // last one narrow), some linked in short runs, so the root's arc to
  // every linked child is a shortcut; ids are permuted and arcs shuffled.
  constexpr std::size_t kFan = 10000;
  DigraphBuilder base_b;
  const NodeId root = base_b.addNode("root");
  std::vector<NodeId> fan;
  for (std::size_t i = 0; i < kFan; ++i) {
    fan.push_back(base_b.addNode(label('f', i)));
    base_b.addEdge(root, fan.back());
  }
  for (std::size_t i = 0; i + 1 < kFan; i += 61) {
    base_b.addEdge(fan[i], fan[i + 1]);
  }
  const NodeId sink = base_b.addNode("sink");
  for (std::size_t i = 0; i < kFan; i += 7) base_b.addEdge(fan[i], sink);
  base_b.addEdge(root, sink);  // a shortcut to the last column

  const Digraph base = base_b.build();
  Rng rng(250003);
  const Digraph g = permutedShuffled(base, rng);
  const Digraph want = reference::reduceWithBitset(g);
  expectSameGraph(want, transitiveReduction(g), "fan");

  // Which slab holds each removed arc's head.
  const std::vector<NodeId> columns = columnNodes(g);
  ASSERT_GT(columns.size(), 2 * std::size_t{4096});
  std::vector<std::size_t> column_of(g.numNodes(), columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) column_of[columns[c]] = c;
  std::vector<std::size_t> per_slab((columns.size() + 4095) / 4096, 0);
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) {
      if (!want.hasEdge(u, v)) ++per_slab[column_of[v] / 4096];
    }
  }
  for (std::size_t s = 0; s < per_slab.size(); ++s) {
    EXPECT_GT(per_slab[s], 0u) << "no shortcut in slab " << s;
  }
}

TEST(ReductionBoundedMemory, ScaledSdssWithInjectedShortcuts) {
  // ~94k jobs: the full descendant matrix would take 1.03 GiB here.
  prio::workloads::SdssParams params;
  params.fields = 3400;
  const Digraph sdss = prio::workloads::makeSdss(params);
  ASSERT_GT(sdss.numNodes(), 90000u);

  // Every arc added below skips over a path that is already there.
  const auto coadd = sdss.findNode("coadd");
  ASSERT_TRUE(coadd.has_value());
  DigraphBuilder gb = prio::testing::builderFrom(sdss);
  std::size_t injected = 0;
  for (NodeId u = 0; u < sdss.numNodes(); u += 97) {
    if (u == *coadd || sdss.outDegree(u) == 0) continue;
    // Down a path of two or more arcs: the first child's first child.
    const NodeId child = sdss.children(u).front();
    if (sdss.outDegree(child) > 0) {
      injected += gb.addEdge(u, sdss.children(child).front()) ? 1 : 0;
    }
    if (u < *coadd && sdss.children(u).front() != *coadd) {
      injected += gb.addEdge(u, *coadd) ? 1 : 0;
    }
  }
  ASSERT_GT(injected, 1000u);
  const Digraph g = gb.build();

  const std::size_t before_kb = maxRssKb();
  const Digraph reduced = transitiveReduction(g);
  const std::size_t grown_mb = (maxRssKb() - before_kb) / 1024;

  // SDSS has no shortcut of its own, so its reduction is itself.
  EXPECT_EQ(reduced.numEdges(), sdss.numEdges());
  EXPECT_EQ(g.numEdges() - reduced.numEdges(), injected);
  const Digraph want = transitiveReduction(sdss);
  expectSameGraph(want, reduced, "scaled sdss");
  for (NodeId u = 0; u < sdss.numNodes(); ++u) {
    ASSERT_TRUE(std::ranges::equal(reduced.children(u), sdss.children(u)));
  }
  if (!kSanitized) {
    EXPECT_LT(grown_mb, 256u) << "max RSS grew by " << grown_mb << " MB";
  }
}

}  // namespace
