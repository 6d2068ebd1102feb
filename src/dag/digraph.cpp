#include "dag/digraph.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace prio::dag {

namespace {

/// Keeps the first copy of each id in every row of a CSR layout with
/// `num_ids` distinct ids. A repeated arc sits twice in its parent's
/// child row and twice in its child's parent row. seen[x] holds one more
/// than the last row that kept x.
void dropRepeatedArcs(std::vector<std::uint32_t>& offsets,
                      std::vector<NodeId>& arcs, std::size_t num_ids) {
  const std::size_t rows = offsets.size() - 1;
  std::vector<std::uint32_t> seen(num_ids, 0);
  std::uint32_t kept = 0;
  std::uint32_t begin = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint32_t end = offsets[r + 1];
    const auto stamp = static_cast<std::uint32_t>(r + 1);
    offsets[r] = kept;
    for (std::uint32_t e = begin; e != end; ++e) {
      const NodeId x = arcs[e];
      if (seen[x] == stamp) continue;
      seen[x] = stamp;
      arcs[kept++] = x;
    }
    begin = end;
  }
  offsets[rows] = kept;
  arcs.resize(kept);
}

}  // namespace

Digraph::Digraph(std::vector<std::string> names, std::span<const Arc> arcs)
    : names_(std::move(names)) {
  const std::size_t n = names_.size();
  PRIO_CHECK_MSG(n < 0x80000000u && arcs.size() < 0x80000000u,
                 "graph too large: " << n << " nodes, " << arcs.size()
                                     << " arcs");
  if (n == 0) {
    PRIO_CHECK(arcs.empty());
    return;
  }
  // Count each row's arcs; a repeat needs a node with two children.
  offsets_.assign(2 * n + 1, 0);
  bool may_repeat = false;
  for (const Arc& a : arcs) {
    PRIO_CHECK(a.parent < n && a.child < n);
    PRIO_CHECK_MSG(a.parent != a.child,
                   "self-loop on node " << names_[a.parent]);
    if (++offsets_[a.parent] == 2) may_repeat = true;
    ++offsets_[n + a.child];
  }
  // offsets_[r] becomes the end of row r. Walking the arcs backwards and
  // decrementing it leaves it at the row's start, with every row listing
  // its arcs in insertion order.
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  arcs_.resize(2 * arcs.size());
  for (auto it = arcs.rbegin(); it != arcs.rend(); ++it) {
    arcs_[--offsets_[it->parent]] = it->child;
    arcs_[--offsets_[n + it->child]] = it->parent;
  }
  if (may_repeat) dropRepeatedArcs(offsets_, arcs_, n);
  for (NodeId u = 0; u < n && edges_ascend_; ++u) {
    for (const NodeId v : row(u)) {
      if (v < u) {
        edges_ascend_ = false;
        break;
      }
    }
  }
}

std::vector<NodeId> Digraph::sources() const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < numNodes(); ++u) {
    if (isSource(u)) out.push_back(u);
  }
  return out;
}

std::vector<NodeId> Digraph::sinks() const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < numNodes(); ++u) {
    if (isSink(u)) out.push_back(u);
  }
  return out;
}

bool Digraph::hasEdge(NodeId u, NodeId v) const {
  PRIO_CHECK(u < numNodes() && v < numNodes());
  const auto kids = children(u);
  return std::find(kids.begin(), kids.end(), v) != kids.end();
}

std::optional<NodeId> Digraph::findNode(std::string_view name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return std::nullopt;
  return static_cast<NodeId>(it - names_.begin());
}

Digraph Digraph::reversed() const {
  // Arc v -> u for every arc u -> v, in id order of u.
  std::vector<Arc> arcs;
  arcs.reserve(numEdges());
  for (NodeId u = 0; u < numNodes(); ++u) {
    for (const NodeId v : row(u)) arcs.push_back({v, u});
  }
  return Digraph(names_, arcs);
}

Digraph Digraph::inducedSubgraph(std::span<const NodeId> keep) const {
  // (old id, new id) sorted by old id: one binary search per arc and an
  // adjacent-pair scan for repeated ids.
  std::vector<std::pair<NodeId, NodeId>> local;
  local.reserve(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    PRIO_CHECK(keep[i] < numNodes());
    local.emplace_back(keep[i], static_cast<NodeId>(i));
  }
  std::sort(local.begin(), local.end());
  const auto repeat = std::adjacent_find(
      local.begin(), local.end(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  PRIO_CHECK_MSG(repeat == local.end(), "duplicate node in inducedSubgraph: "
                                            << names_[repeat->first]);

  // The arcs between kept nodes, in `keep` order of their parent.
  std::vector<std::string> names;
  names.reserve(keep.size());
  std::vector<Arc> arcs;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    names.push_back(names_[keep[i]]);
    for (const NodeId v : row(keep[i])) {
      const auto it = std::lower_bound(
          local.begin(), local.end(), v,
          [](const auto& entry, NodeId id) { return entry.first < id; });
      if (it != local.end() && it->first == v) {
        arcs.push_back({static_cast<NodeId>(i), it->second});
      }
    }
  }
  return Digraph(std::move(names), arcs);
}

NodeId DigraphBuilder::addNode() {
  std::string name = "n";
  name += std::to_string(numNodes());
  return addNode(std::move(name));
}

NodeId DigraphBuilder::addNode(std::string name) {
  PRIO_CHECK_MSG(!name.empty(), "node name must be non-empty");
  const auto id = static_cast<NodeId>(numNodes());
  PRIO_CHECK_MSG(index_.try_emplace(name, id).second,
                 "duplicate node name: " << name);
  names_.push_back(std::move(name));
  return id;
}

bool DigraphBuilder::addEdge(NodeId u, NodeId v) {
  PRIO_CHECK(u < numNodes() && v < numNodes());
  PRIO_CHECK_MSG(u != v, "self-loop on node " << names_[u]);
  const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
  if (!arc_set_.insert(key).second) return false;
  arcs_.push_back({u, v});
  return true;
}

std::optional<NodeId> DigraphBuilder::findNode(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void DigraphBuilder::reserveNodes(std::size_t n) {
  names_.reserve(n);
  index_.reserve(n);
}

Digraph DigraphBuilder::build() const { return Digraph(names_, arcs_); }

}  // namespace prio::dag
