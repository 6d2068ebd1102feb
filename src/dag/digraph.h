// The directed-graph substrate every layer of the library builds on.
//
// A Digraph is an immutable value: jobs (nodes) with dense integer ids
// and string names (DAGMan job names), plus parent/child adjacency in
// both directions, laid out once as flat compressed-sparse-row arrays
// (DESIGN.md §9, "Flat CSR graph core"). Acyclicity is not enforced at
// construction — DAGMan input is validated once after parsing — but all
// scheduling entry points require a dag and check this precondition.
// Graphs built a node and an arc at a time go through DigraphBuilder.
//
// Thread safety: a Digraph has no mutable or lazily built state, so its
// const methods are safe from any number of threads without a lock, and
// copies are plain member-wise copies. The priod service relies on this
// to share one Digraph between its workers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/check.h"

namespace prio::dag {

using NodeId = std::uint32_t;

/// One arc parent -> child.
struct Arc {
  NodeId parent = 0;
  NodeId child = 0;
  friend bool operator==(const Arc&, const Arc&) = default;
};

/// A directed graph over named nodes with dense ids [0, numNodes()).
class Digraph {
 public:
  /// The empty graph; allocates nothing.
  Digraph() = default;

  /// The graph whose node i is named names[i], with `arcs` added in
  /// order: children(u) and parents(v) list arcs in that order, and a
  /// repeated arc is kept once, at its first position. Throws
  /// util::Error on an out-of-range id or a self-loop (the first in
  /// `arcs`). Names must be unique and non-empty; that is the caller's
  /// contract and is not re-checked here. O(V + E).
  Digraph(std::vector<std::string> names, std::span<const Arc> arcs);

  [[nodiscard]] std::size_t numNodes() const noexcept { return names_.size(); }
  [[nodiscard]] std::size_t numEdges() const noexcept {
    return arcs_.size() / 2;
  }

  [[nodiscard]] std::span<const NodeId> children(NodeId u) const {
    PRIO_CHECK(u < numNodes());
    return row(u);
  }
  [[nodiscard]] std::span<const NodeId> parents(NodeId u) const {
    PRIO_CHECK(u < numNodes());
    return row(numNodes() + u);
  }

  [[nodiscard]] std::size_t outDegree(NodeId u) const {
    return children(u).size();
  }
  [[nodiscard]] std::size_t inDegree(NodeId u) const {
    return parents(u).size();
  }

  [[nodiscard]] bool isSource(NodeId u) const { return inDegree(u) == 0; }
  [[nodiscard]] bool isSink(NodeId u) const { return outDegree(u) == 0; }

  /// All nodes with in-degree 0, in id order.
  [[nodiscard]] std::vector<NodeId> sources() const;
  /// All nodes with out-degree 0, in id order.
  [[nodiscard]] std::vector<NodeId> sinks() const;

  /// True when every arc u -> v has u < v. All the repo's generators and
  /// well-formed DAGMan files produce such graphs; topologicalOrder()
  /// uses it for its O(V) identity fast path.
  [[nodiscard]] bool edgesAscend() const noexcept { return edges_ascend_; }

  /// Whether the arc u -> v exists: a scan of u's children.
  [[nodiscard]] bool hasEdge(NodeId u, NodeId v) const;

  [[nodiscard]] const std::string& name(NodeId u) const {
    PRIO_CHECK(u < numNodes());
    return names_[u];
  }

  /// Id of the node with the given name, if any: a scan of the names.
  [[nodiscard]] std::optional<NodeId> findNode(std::string_view name) const;

  /// The graph with every arc reversed (names preserved): u's parents
  /// are its children in their order, and its children are its parents
  /// in ascending id.
  [[nodiscard]] Digraph reversed() const;

  /// Subgraph induced on `keep` (ids are renumbered densely in the order
  /// given; names preserved). `keep` must not contain duplicates.
  /// Children keep their order; parents ascend in new id.
  [[nodiscard]] Digraph inducedSubgraph(std::span<const NodeId> keep) const;

 private:
  /// Row r of the adjacency: rows [0, n) hold each node's children,
  /// rows [n, 2n) each node's parents.
  [[nodiscard]] std::span<const NodeId> row(std::size_t r) const noexcept {
    return {arcs_.data() + offsets_[r], arcs_.data() + offsets_[r + 1]};
  }

  std::vector<std::string> names_;
  /// Row r is arcs_[offsets_[r], offsets_[r + 1]); 2n + 1 entries, or
  /// none while the graph has no nodes.
  std::vector<std::uint32_t> offsets_;
  /// Every arc twice: once in its parent's child row, once in its
  /// child's parent row.
  std::vector<NodeId> arcs_;
  bool edges_ascend_ = true;
};

/// Builds a Digraph a node and an arc at a time (generators, tests,
/// theory constructions). Keeps a name index and an arc set so that
/// duplicate names and repeated arcs are caught as they are added.
class DigraphBuilder {
 public:
  /// Adds a node named "n<id>". Returns its id.
  NodeId addNode();

  /// Adds a node with the given name. Names must be unique and
  /// non-empty; throws util::Error otherwise. Returns the new node's id.
  NodeId addNode(std::string name);

  /// Adds the arc u -> v. Throws util::Error on a bad id or a self-loop.
  /// Returns false (and changes nothing) when the arc already exists.
  bool addEdge(NodeId u, NodeId v);

  /// Id of the node with the given name, if any.
  [[nodiscard]] std::optional<NodeId> findNode(std::string_view name) const;

  [[nodiscard]] std::size_t numNodes() const noexcept { return names_.size(); }

  /// Reserves storage for the expected number of nodes.
  void reserveNodes(std::size_t n);

  /// The graph built so far, arcs in the order they were added.
  [[nodiscard]] Digraph build() const;

 private:
  std::vector<std::string> names_;
  std::vector<Arc> arcs_;
  std::unordered_map<std::string, NodeId> index_;
  std::unordered_set<std::uint64_t> arc_set_;
};

}  // namespace prio::dag
