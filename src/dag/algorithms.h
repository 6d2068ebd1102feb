// Graph algorithms used across the scheduling pipeline: topological
// sorting, reachability, weakly connected components, longest paths, and
// the shortcut-arc removal of §3.1 step 1 (transitive reduction, after
// Aho–Garey–Ullman and Hsu).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "dag/digraph.h"
#include "obs/trace.h"

namespace prio::dag {

/// Kahn topological order, or nullopt when the graph has a cycle.
///
/// Determinism contract: the result is the lexicographically smallest
/// topological order — at every step the smallest-id ready node runs next
/// (the order the original min-heap Kahn produced; tests and fingerprints
/// rely on it being stable). The implementation is an index-ordered
/// pending scan over the flat CSR view instead of an O(E log V) heap:
/// when every arc ascends in id (true for all generators here and for
/// well-formed DAGMan files, detected in O(1) from the CSR), the order is
/// the identity and costs O(V + E); otherwise a word-scanned ready bitmap
/// extracts minima at 64 ids per probe word — O(V + E) in practice, with
/// an O(V^2/64) adversarial worst case far below the old heap's constant.
[[nodiscard]] std::optional<std::vector<NodeId>> topologicalOrder(
    const Digraph& g);

/// True iff the graph has no directed cycle.
[[nodiscard]] bool isAcyclic(const Digraph& g);

/// True iff `order` is a permutation of all nodes consistent with every arc.
[[nodiscard]] bool isTopologicalOrder(const Digraph& g,
                                      std::span<const NodeId> order);

/// Removes every shortcut arc (u -> v) such that v is reachable from u
/// without that arc (§3.1 step 1). Nodes and names are preserved; each
/// node keeps its surviving children in their original order and lists
/// its parents in ascending id. Memory is O(V + E) plus one reachability
/// slab of at most V x 4,096 bits (DESIGN.md §9, "Slabbed shortcut
/// removal"). Precondition: g is acyclic (a dag's transitive reduction
/// is unique); throws util::Error otherwise.
[[nodiscard]] Digraph transitiveReduction(const Digraph& g);

/// As above with a precomputed topological order of `g`, so the order is
/// not recomputed per call (the acyclicity precondition is implied by the
/// order's existence). Precondition: isTopologicalOrder(g, topo_order).
[[nodiscard]] Digraph transitiveReduction(const Digraph& g,
                                          std::span<const NodeId> topo_order);

/// As transitiveReduction(g), recording "reduce.topo_order" and
/// "reduce.filter" sub-spans under `trace` (a disabled context costs one
/// branch per span site; the result is identical either way).
[[nodiscard]] Digraph transitiveReduction(const Digraph& g,
                                          const obs::TraceContext& trace);

/// Weakly connected components (arc orientation ignored). Returns the
/// component index of each node; indices are dense starting at 0.
struct ComponentLabels {
  std::vector<std::size_t> label;  ///< per node
  std::size_t count = 0;
};
[[nodiscard]] ComponentLabels weaklyConnectedComponents(const Digraph& g);

/// All proper descendants of u (BFS order).
[[nodiscard]] std::vector<NodeId> descendants(const Digraph& g, NodeId u);
/// All proper ancestors of u (BFS order).
[[nodiscard]] std::vector<NodeId> ancestors(const Digraph& g, NodeId u);

/// Number of nodes on a longest directed path (the critical path when all
/// jobs take unit time). Precondition: g is acyclic. 0 for an empty graph.
[[nodiscard]] std::size_t longestPathNodes(const Digraph& g);

/// Upward rank with unit job costs: rank(u) = 1 + max over children of
/// rank(child), rank(sink) = 1. Drives the critical-path baseline
/// scheduler (a static HEFT-style priority). Precondition: g is acyclic.
[[nodiscard]] std::vector<std::size_t> upwardRank(const Digraph& g);

/// True iff the graph is a bipartite dag in the paper's sense: every node
/// is a source or a sink (all arcs lead from the source side to the sink
/// side).
[[nodiscard]] bool isBipartiteDag(const Digraph& g);

/// True iff the graph is weakly connected (and non-empty).
[[nodiscard]] bool isConnected(const Digraph& g);

}  // namespace prio::dag
