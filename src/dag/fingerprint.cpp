#include "dag/fingerprint.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace prio::dag {

namespace {

// splitmix64 finalizer: the bijective avalanche mixer all hashes here are
// built from.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Order-dependent combine (used only on sorted sequences, which makes the
// digest order-independent over the underlying multiset).
std::uint64_t combine(std::uint64_t seed, std::uint64_t value) noexcept {
  return mix(seed ^ mix(value));
}

// Digest of a multiset of hashes: sort, then fold. `scratch` is sorted in
// place.
std::uint64_t digestMultiset(std::vector<std::uint64_t>& scratch,
                             std::uint64_t seed) {
  std::sort(scratch.begin(), scratch.end());
  std::uint64_t h = seed;
  for (std::uint64_t v : scratch) h = combine(h, v);
  return combine(h, scratch.size());
}

constexpr std::uint64_t kDownSeed = 0x8badf00d5eed0001ULL;
constexpr std::uint64_t kUpSeed = 0x8badf00d5eed0002ULL;
constexpr std::uint64_t kNodeSeed = 0x8badf00d5eed0003ULL;
constexpr std::uint64_t kGraphSeed = 0x8badf00d5eed0004ULL;
constexpr std::uint64_t kLayoutSeed = 0x8badf00d5eed0005ULL;

}  // namespace

std::uint64_t structuralFingerprintOfReduced(const Digraph& reduced) {
  const std::size_t n = reduced.numNodes();
  const auto topo = topologicalOrder(reduced);
  PRIO_CHECK_MSG(topo.has_value(),
                 "structuralFingerprint requires an acyclic graph");

  // Downward pass (reverse topological): each node digests the multiset
  // of its children's downward hashes — a shared-subdag hash of
  // everything reachable below.
  std::vector<std::uint64_t> down(n, 0);
  std::vector<std::uint64_t> scratch;
  for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
    const NodeId v = *it;
    scratch.clear();
    for (NodeId c : reduced.children(v)) scratch.push_back(down[c]);
    down[v] = digestMultiset(scratch, kDownSeed);
  }

  // Upward pass (topological): the dual over parents.
  std::vector<std::uint64_t> up(n, 0);
  for (const NodeId v : *topo) {
    scratch.clear();
    for (NodeId p : reduced.parents(v)) scratch.push_back(up[p]);
    up[v] = digestMultiset(scratch, kUpSeed);
  }

  // Per-node hash couples both directions; the graph hash digests the
  // multiset of node hashes — invariant under any id permutation.
  std::vector<std::uint64_t> node_hashes(n);
  for (std::size_t v = 0; v < n; ++v) {
    node_hashes[v] = combine(combine(kNodeSeed, down[v]), up[v]);
  }
  std::uint64_t h = digestMultiset(node_hashes, kGraphSeed);
  h = combine(h, n);
  h = combine(h, reduced.numEdges());
  return h;
}

std::uint64_t structuralFingerprint(const Digraph& g) {
  return structuralFingerprintOfReduced(transitiveReduction(g));
}

std::uint64_t layoutHash(const Digraph& g) {
  // Sequential digest over ids: node count, then every node's sorted
  // child list. Parent lists are redundant (they mirror child lists) and
  // names are deliberately excluded.
  std::uint64_t h = combine(kLayoutSeed, g.numNodes());
  std::vector<std::uint64_t> kids;
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    kids.assign(g.children(u).begin(), g.children(u).end());
    std::sort(kids.begin(), kids.end());
    h = combine(h, u);
    for (std::uint64_t c : kids) h = combine(h, c);
    h = combine(h, kids.size());
  }
  return h;
}

}  // namespace prio::dag
