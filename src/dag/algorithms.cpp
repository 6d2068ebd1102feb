#include "dag/algorithms.h"

#include <algorithm>
#include <cstdint>
#include <string>

namespace prio::dag {

std::optional<std::vector<NodeId>> topologicalOrder(const Digraph& g) {
  const std::size_t n = g.numNodes();

  // Fast path: when every arc ascends (u < v), the identity permutation
  // IS the lexicographically smallest topological order. Proof sketch: by
  // induction, when it is node k's turn every node < k has executed, so
  // all of k's parents (ids < k) are done and k is ready, and every other
  // ready node has a larger id. One O(V) sweep, no bookkeeping.
  if (g.edgesAscend()) {
    std::vector<NodeId> order(n);
    for (NodeId u = 0; u < n; ++u) order[u] = u;
    return order;
  }

  // General path: Kahn over a ready-id bitmap. Extract-min scans the
  // bitmap from a cursor, 64 ids per word; a newly ready node below the
  // cursor pulls the cursor back. Each extraction yields the smallest
  // ready id — the same order the min-heap produced — without the heap's
  // O(log V) per operation or its allocation churn.
  std::vector<std::uint32_t> pending(n);
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> ready(words, 0);
  std::size_t cursor = n;
  for (NodeId u = 0; u < n; ++u) {
    pending[u] = static_cast<std::uint32_t>(g.inDegree(u));
    if (pending[u] == 0) {
      ready[u / 64] |= std::uint64_t{1} << (u % 64);
      if (u < cursor) cursor = u;
    }
  }
  std::vector<NodeId> order;
  order.reserve(n);
  for (std::size_t step = 0; step < n; ++step) {
    // Find the first set bit at or above `cursor`.
    std::size_t w = cursor / 64;
    std::uint64_t word =
        w < words ? ready[w] & (~std::uint64_t{0} << (cursor % 64)) : 0;
    while (word == 0) {
      if (++w >= words) break;
      word = ready[w];
    }
    if (w >= words) return std::nullopt;  // live nodes but none ready: cycle
    const NodeId u = static_cast<NodeId>(
        w * 64 + static_cast<std::size_t>(__builtin_ctzll(word)));
    ready[w] &= ~(std::uint64_t{1} << (u % 64));
    order.push_back(u);
    cursor = u + 1;
    for (NodeId v : g.children(u)) {
      if (--pending[v] == 0) {
        ready[v / 64] |= std::uint64_t{1} << (v % 64);
        if (v < cursor) cursor = v;
      }
    }
  }
  return order;
}

bool isAcyclic(const Digraph& g) { return topologicalOrder(g).has_value(); }

bool isTopologicalOrder(const Digraph& g, std::span<const NodeId> order) {
  const std::size_t n = g.numNodes();
  if (order.size() != n) return false;
  std::vector<std::size_t> position(n, n);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] >= n || position[order[i]] != n) return false;
    position[order[i]] = i;
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.children(u)) {
      if (position[u] >= position[v]) return false;
    }
  }
  return true;
}

namespace {

/// Reachability columns per slab: a slab row is at most 64 words, so a
/// slab over SDSS's ~48k jobs takes ~24 MB.
constexpr std::size_t kSlabColumns = 4096;
constexpr std::uint32_t kNoColumn = 0xffffffffu;

/// Marks every shortcut arc of `g`, indexed by arc number: u's k-th
/// child arc is number k plus the out-degrees of the nodes below u.
/// Only the head of an arc out of a node with two or more children can
/// be a shortcut's head, so only those heads get a reachability column,
/// numbered in topological order. Each slab of up to kSlabColumns
/// columns is one backward walk: u's row becomes the OR of its
/// children's rows (the slab's columns reachable from u by a path of two
/// or more arcs), an arc u -> v is a shortcut exactly when v's bit is
/// then already set, and u's own child bits are set last.
std::vector<char> markShortcuts(const Digraph& g,
                                std::span<const NodeId> topo_order) {
  const std::size_t n = g.numNodes();
  std::vector<char> shortcut(g.numEdges(), 0);
  std::vector<std::size_t> first_arc(n, 0);
  std::vector<char> needs_column(n, 0);
  for (std::size_t u = 0, arcs = 0; u < n; ++u) {
    first_arc[u] = arcs;
    const auto kids = g.children(static_cast<NodeId>(u));
    arcs += kids.size();
    if (kids.size() < 2) continue;
    for (NodeId v : kids) needs_column[v] = 1;
  }
  std::vector<std::uint32_t> column(n, kNoColumn);
  std::vector<std::size_t> position_of_column;  // topological position
  for (std::size_t pos = 0; pos < n; ++pos) {
    const NodeId v = topo_order[pos];
    if (!needs_column[v]) continue;
    column[v] = static_cast<std::uint32_t>(position_of_column.size());
    position_of_column.push_back(pos);
  }
  const std::size_t columns = position_of_column.size();
  if (columns == 0) return shortcut;

  // One buffer for every slab, rows `stride` words apart. A node placed
  // after a slab's last column reaches none of its columns, so the walk
  // starts at that column, and the rows it skips are still zero: the
  // slabs go in topological order, so no earlier walk reached them.
  const std::size_t stride = (std::min(columns, kSlabColumns) + 63) / 64;
  std::vector<std::uint64_t> rows(n * stride, 0);
  for (std::size_t first = 0; first < columns; first += kSlabColumns) {
    const std::size_t width = std::min(columns - first, kSlabColumns);
    const std::size_t words = (width + 63) / 64;
    const std::size_t last_position = position_of_column[first + width - 1];
    for (std::size_t pos = last_position + 1; pos-- > 0;) {
      const NodeId u = topo_order[pos];
      const auto kids = g.children(u);
      std::uint64_t* const row = rows.data() + std::size_t{u} * stride;
      std::fill_n(row, words, 0);
      for (const NodeId v : kids) {
        const std::uint64_t* const child =
            rows.data() + std::size_t{v} * stride;
        for (std::size_t w = 0; w < words; ++w) row[w] |= child[w];
      }
      for (std::size_t k = 0; k < kids.size(); ++k) {
        // Wraps to a huge value for a head without a column or with one
        // before this slab.
        const std::size_t c = std::size_t{column[kids[k]]} - first;
        if (c >= width) continue;
        const std::uint64_t bit = std::uint64_t{1} << (c % 64);
        if ((row[c / 64] & bit) != 0) shortcut[first_arc[u] + k] = 1;
        row[c / 64] |= bit;
      }
    }
  }
  return shortcut;
}

}  // namespace

Digraph transitiveReduction(const Digraph& g) {
  auto order = topologicalOrder(g);
  PRIO_CHECK_MSG(order.has_value(), "transitiveReduction requires a dag");
  return transitiveReduction(g, *order);
}

Digraph transitiveReduction(const Digraph& g,
                            const obs::TraceContext& trace) {
  std::optional<std::vector<NodeId>> order;
  {
    obs::Span span(trace, "reduce.topo_order");
    order = topologicalOrder(g);
  }
  PRIO_CHECK_MSG(order.has_value(), "transitiveReduction requires a dag");
  obs::Span span(trace, "reduce.filter");
  return transitiveReduction(g, *order);
}

Digraph transitiveReduction(const Digraph& g,
                            std::span<const NodeId> topo_order) {
  const std::size_t n = g.numNodes();
  PRIO_CHECK_MSG(topo_order.size() == n,
                 "transitiveReduction: topo_order must cover every node");
  const std::vector<char> shortcut = markShortcuts(g, topo_order);

  // The kept arcs in ascending u, so each node's parents ascend.
  std::vector<std::string> names;
  names.reserve(n);
  std::vector<Arc> kept;
  kept.reserve(static_cast<std::size_t>(
      std::count(shortcut.begin(), shortcut.end(), 0)));
  std::size_t e = 0;
  for (NodeId u = 0; u < n; ++u) {
    names.push_back(g.name(u));
    for (const NodeId v : g.children(u)) {
      if (!shortcut[e++]) kept.push_back({u, v});
    }
  }
  return Digraph(std::move(names), kept);
}

ComponentLabels weaklyConnectedComponents(const Digraph& g) {
  const std::size_t n = g.numNodes();
  ComponentLabels out;
  out.label.assign(n, static_cast<std::size_t>(-1));
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < n; ++start) {
    if (out.label[start] != static_cast<std::size_t>(-1)) continue;
    const std::size_t comp = out.count++;
    stack.assign(1, start);
    out.label[start] = comp;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      auto visit = [&](NodeId w) {
        if (out.label[w] == static_cast<std::size_t>(-1)) {
          out.label[w] = comp;
          stack.push_back(w);
        }
      };
      for (NodeId w : g.children(u)) visit(w);
      for (NodeId w : g.parents(u)) visit(w);
    }
  }
  return out;
}

namespace {
std::vector<NodeId> bfsFrontier(const Digraph& g, NodeId u, bool forward) {
  std::vector<char> visited(g.numNodes(), 0);
  std::vector<NodeId> out;
  std::vector<NodeId> stack{u};
  visited[u] = 1;
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    const auto next = forward ? g.children(x) : g.parents(x);
    for (NodeId w : next) {
      if (!visited[w]) {
        visited[w] = 1;
        out.push_back(w);
        stack.push_back(w);
      }
    }
  }
  return out;
}
}  // namespace

std::vector<NodeId> descendants(const Digraph& g, NodeId u) {
  return bfsFrontier(g, u, /*forward=*/true);
}

std::vector<NodeId> ancestors(const Digraph& g, NodeId u) {
  return bfsFrontier(g, u, /*forward=*/false);
}

std::size_t longestPathNodes(const Digraph& g) {
  if (g.numNodes() == 0) return 0;
  const auto ranks = upwardRank(g);
  return *std::max_element(ranks.begin(), ranks.end());
}

std::vector<std::size_t> upwardRank(const Digraph& g) {
  auto order = topologicalOrder(g);
  PRIO_CHECK_MSG(order.has_value(), "upwardRank requires a dag");
  std::vector<std::size_t> rank(g.numNodes(), 1);
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const NodeId u = *it;
    std::size_t best = 0;
    for (NodeId v : g.children(u)) best = std::max(best, rank[v]);
    rank[u] = best + 1;
  }
  return rank;
}

bool isBipartiteDag(const Digraph& g) {
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    if (g.inDegree(u) > 0 && g.outDegree(u) > 0) return false;
  }
  return true;
}

bool isConnected(const Digraph& g) {
  if (g.numNodes() == 0) return false;
  return weaklyConnectedComponents(g).count == 1;
}

}  // namespace prio::dag
