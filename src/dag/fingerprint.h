// Canonical structural fingerprints for dags — the cache keys of the
// prioritization service (src/service/).
//
// Two complementary 64-bit hashes:
//
//   structuralFingerprint(g) — isomorphism-stable: invariant under any
//     renaming of jobs AND any permutation of node ids, and computed over
//     the transitive reduction of g (a dag's reduction is unique), so
//     adding shortcut arcs does not change it either. Two submissions of
//     the same workflow shape — e.g. the same Montage instance re-planned
//     with fresh job names — therefore map to the same cache shard and
//     key. Computed by a bidirectional refinement in the spirit of
//     Weisfeiler–Leman: every node's hash digests the multiset of its
//     descendants' hashes (one reverse-topological pass) and of its
//     ancestors' hashes (one forward pass); the fingerprint digests the
//     sorted multiset of node hashes plus the node and reduced-arc counts.
//     Like WL itself this is a sound but incomplete invariant: isomorphic
//     dags ALWAYS agree; non-isomorphic dags collide only when they are
//     refinement-indistinguishable (none of our workloads are — see
//     test_service.cpp).
//
//   layoutHash(g) — id-sensitive but name-blind: digests the exact
//     adjacency structure over node ids of g as given (shortcuts
//     included). Every algorithm in this library consumes ids, never
//     names, so two dags with equal layoutHash() produce byte-identical
//     PrioResults. The service cache keys on the structural fingerprint
//     and validates candidate entries with the layout hash, which makes
//     result reuse sound even across fingerprint collisions.
#pragma once

#include <cstdint>

#include "dag/algorithms.h"
#include "dag/digraph.h"

namespace prio::dag {

/// Isomorphism-stable fingerprint of g's transitive reduction.
/// Precondition: g is acyclic (throws util::Error otherwise).
[[nodiscard]] std::uint64_t structuralFingerprint(const Digraph& g);

/// As structuralFingerprint, but `reduced` must already be shortcut-free;
/// skips the reduction. (prioritize() computes the reduction anyway — the
/// service reuses it via this entry point when available.)
[[nodiscard]] std::uint64_t structuralFingerprintOfReduced(
    const Digraph& reduced);

/// Name-blind, id-order-sensitive hash of g's exact adjacency.
[[nodiscard]] std::uint64_t layoutHash(const Digraph& g);

}  // namespace prio::dag
