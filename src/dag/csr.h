// Flat compressed-sparse-row (CSR) view of a Digraph.
//
// The Digraph stores one std::vector per node for each adjacency
// direction, which is convenient while a graph is being built but costs a
// pointer indirection (and a likely cache miss) per visited node in the
// traversal-heavy pipeline phases. The Csr packs both directions into one
// contiguous edge array plus an offsets array each, so sweeping all
// adjacencies of all nodes is a single linear scan.
//
// Edge order inside a node's slice is exactly the Digraph's insertion
// order — every algorithm that iterates children(u)/parents(u) therefore
// sees the same sequence through either view, which is what keeps the
// CSR-based pipeline bit-identical to the vector-of-vectors one.
//
// A Csr is an immutable snapshot: it is built once per Digraph (lazily,
// via Digraph::csr()) and shared by reference; mutating the Digraph
// invalidates the cached snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace prio::dag {

using NodeId = std::uint32_t;

class Digraph;

struct Csr {
  /// child_offsets[u] .. child_offsets[u+1] index child_edges; same for
  /// parents. Offsets have numNodes()+1 entries (empty graph: one zero).
  std::vector<std::uint32_t> child_offsets;
  std::vector<NodeId> child_edges;
  std::vector<std::uint32_t> parent_offsets;
  std::vector<NodeId> parent_edges;
  /// True when every arc u -> v has u < v (node ids ascend along every
  /// arc). All the repo's generators and well-formed DAGMan files produce
  /// such graphs; topologicalOrder() uses this for its O(V+E) fast path.
  bool edges_ascend = true;

  [[nodiscard]] std::size_t numNodes() const noexcept {
    return child_offsets.empty() ? 0 : child_offsets.size() - 1;
  }
  [[nodiscard]] std::size_t numEdges() const noexcept {
    return child_edges.size();
  }

  [[nodiscard]] std::span<const NodeId> children(NodeId u) const noexcept {
    return {child_edges.data() + child_offsets[u],
            child_edges.data() + child_offsets[u + 1]};
  }
  [[nodiscard]] std::span<const NodeId> parents(NodeId u) const noexcept {
    return {parent_edges.data() + parent_offsets[u],
            parent_edges.data() + parent_offsets[u + 1]};
  }
  [[nodiscard]] std::size_t outDegree(NodeId u) const noexcept {
    return child_offsets[u + 1] - child_offsets[u];
  }
  [[nodiscard]] std::size_t inDegree(NodeId u) const noexcept {
    return parent_offsets[u + 1] - parent_offsets[u];
  }

  /// Builds the flat view of `g` in O(V + E).
  [[nodiscard]] static Csr build(const Digraph& g);
};

// ---------------------------------------------------------------------
// Binary dag wire payload ("BDAG") — the CSR arrays as a versioned,
// little-endian, architecture-independent byte string. This is the
// PayloadKind::kBinaryCsr request body of wire protocol v3
// (net/protocol.h; layout table in DESIGN.md §15):
//
//   offset  size      field
//        0     4      magic          0x47414442 ("BDAG")
//        4     2      version        1 (kBinaryDagVersion)
//        6     2      flags          reserved, must be 0
//        8     4      num_nodes (n)
//       12     4      num_edges (m)
//       16  4*(n+1)   child_offsets  CSR offsets (last entry == m)
//        …  4*m       child_edges    child node ids, insertion order
//        …  4*(n+1)   name_offsets   byte offsets into the name blob
//                                    (strictly increasing: names are
//                                    nonempty; last entry == blob size)
//        …  blob      name_blob      job names, concatenated
//
// Parent adjacency is not shipped — it is derivable, and Digraph
// rebuilds it while inserting edges. decodeBinaryDag() validates every
// structural property (exact total size, monotone offsets, in-range
// edge targets, no self-loops or duplicate edges, unique nonempty
// names, acyclicity) before returning, so a hostile payload costs at
// most one util::Error — never a crash or an out-of-bounds read.
// ---------------------------------------------------------------------

inline constexpr std::uint32_t kBinaryDagMagic = 0x47414442u;   // "BDAG"
inline constexpr std::uint16_t kBinaryDagVersion = 1;
/// Binary priority-table payload ("BPRI"): the kBinaryCsr RESPONSE body
/// — magic, u16 version, u16 reserved-zero, u32 n, then n little-endian
/// u32 priorities indexed by node id (PrioResult::priority order).
inline constexpr std::uint32_t kBinaryPrioMagic = 0x49525042u;  // "BPRI"
inline constexpr std::uint16_t kBinaryPrioVersion = 1;

/// Serializes `g` (node names + child adjacency, insertion order
/// preserved) into the BDAG byte layout above. decodeBinaryDag() of the
/// result reconstructs a Digraph with identical node ids, names, and
/// adjacency order.
[[nodiscard]] std::string encodeBinaryDag(const Digraph& g);

/// Parses and fully validates a BDAG payload. Throws util::Error on any
/// structural violation (truncation, trailing bytes, bad magic/version,
/// non-monotone offsets, out-of-range or duplicate edges, self-loops,
/// duplicate or empty names, cycles).
[[nodiscard]] Digraph decodeBinaryDag(std::string_view bytes);

/// Kahn's algorithm on adjacency in the form Digraph::fromAdjacency()
/// adopts (`parents` the exact transpose of `children`): true when the
/// arcs form no directed cycle. Bulk loaders use it to reject a cycle
/// before a Digraph exists; O(V + E).
[[nodiscard]] bool isAcyclicAdjacency(
    std::span<const std::vector<NodeId>> children,
    std::span<const std::vector<NodeId>> parents);

/// Serializes a priority table (numNodes() entries, values fit u32)
/// into the BPRI layout.
[[nodiscard]] std::string encodeBinaryPriorities(
    std::span<const std::size_t> priorities);

/// Parses and validates a BPRI payload. Throws util::Error on
/// truncation, trailing bytes, or bad magic/version.
[[nodiscard]] std::vector<std::size_t> decodeBinaryPriorities(
    std::string_view bytes);

}  // namespace prio::dag
