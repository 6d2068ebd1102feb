// The Digraph's CSR arrays on the wire: the BDAG binary dag payload and
// the BPRI binary priority table it is answered with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dag/digraph.h"

namespace prio::dag {

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
// Parent adjacency is not shipped: the Digraph constructor derives it
// from the child arcs. decodeBinaryDag() validates every
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
/// children order; each node's parents come back in ascending id.
[[nodiscard]] std::string encodeBinaryDag(const Digraph& g);

/// Parses and fully validates a BDAG payload. Throws util::Error on any
/// structural violation (truncation, trailing bytes, bad magic/version,
/// non-monotone offsets, out-of-range or duplicate edges, self-loops,
/// duplicate or empty names, cycles).
[[nodiscard]] Digraph decodeBinaryDag(std::string_view bytes);

/// Serializes a priority table (numNodes() entries, values fit u32)
/// into the BPRI layout.
[[nodiscard]] std::string encodeBinaryPriorities(
    std::span<const std::size_t> priorities);

/// Parses and validates a BPRI payload. Throws util::Error on
/// truncation, trailing bytes, or bad magic/version.
[[nodiscard]] std::vector<std::size_t> decodeBinaryPriorities(
    std::string_view bytes);

}  // namespace prio::dag
