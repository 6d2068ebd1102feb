#include "dag/csr.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "dag/digraph.h"
#include "util/check.h"

namespace prio::dag {

Csr Csr::build(const Digraph& g) {
  const std::size_t n = g.numNodes();
  Csr out;
  out.child_offsets.resize(n + 1);
  out.parent_offsets.resize(n + 1);
  out.child_edges.reserve(g.numEdges());
  out.parent_edges.reserve(g.numEdges());
  out.child_offsets[0] = 0;
  out.parent_offsets[0] = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.children(u)) {
      out.child_edges.push_back(v);
      if (v <= u) out.edges_ascend = false;
    }
    for (NodeId p : g.parents(u)) out.parent_edges.push_back(p);
    out.child_offsets[u + 1] = static_cast<std::uint32_t>(
        out.child_edges.size());
    out.parent_offsets[u + 1] = static_cast<std::uint32_t>(
        out.parent_edges.size());
  }
  return out;
}

namespace {

void putU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void putU32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint16_t getU16(const unsigned char* p) {
  return static_cast<std::uint16_t>(
      p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
}

std::uint32_t getU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

[[noreturn]] void bad(const char* what, const std::string& detail = {}) {
  throw util::Error(std::string("binary dag payload: ") + what +
                    (detail.empty() ? "" : " (" + detail + ")"));
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::string encodeBinaryDag(const Digraph& g) {
  const std::size_t n = g.numNodes();
  const std::size_t m = g.numEdges();
  PRIO_CHECK_MSG(n <= 0xffffffffu && m <= 0xffffffffu,
                 "dag too large for the binary wire format");
  std::size_t blob = 0;
  for (NodeId u = 0; u < n; ++u) blob += g.name(u).size();
  std::string out;
  out.reserve(16 + 8 * (n + 1) + 4 * m + blob);
  putU32(out, kBinaryDagMagic);
  putU16(out, kBinaryDagVersion);
  putU16(out, 0);  // flags: reserved
  putU32(out, static_cast<std::uint32_t>(n));
  putU32(out, static_cast<std::uint32_t>(m));
  std::uint32_t edge_cursor = 0;
  putU32(out, 0);
  for (NodeId u = 0; u < n; ++u) {
    edge_cursor += static_cast<std::uint32_t>(g.outDegree(u));
    putU32(out, edge_cursor);
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.children(u)) putU32(out, v);
  }
  std::uint32_t name_cursor = 0;
  putU32(out, 0);
  for (NodeId u = 0; u < n; ++u) {
    name_cursor += static_cast<std::uint32_t>(g.name(u).size());
    putU32(out, name_cursor);
  }
  for (NodeId u = 0; u < n; ++u) out.append(g.name(u));
  return out;
}

Digraph decodeBinaryDag(std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (bytes.size() < 16) bad("truncated header");
  if (getU32(p) != kBinaryDagMagic) bad("bad magic");
  if (getU16(p + 4) != kBinaryDagVersion) {
    bad("unsupported version", std::to_string(getU16(p + 4)));
  }
  if (getU16(p + 6) != 0) bad("nonzero reserved flags");
  const std::uint64_t n = getU32(p + 8);
  const std::uint64_t m = getU32(p + 12);
  // All arithmetic in u64: n and m come off the wire, so the size
  // equation must be overflow-proof before any array is touched.
  const std::uint64_t fixed = 16 + 8 * (n + 1) + 4 * m;
  if (fixed > bytes.size()) bad("truncated arrays");
  const std::uint64_t blob = bytes.size() - fixed;
  const unsigned char* child_offsets = p + 16;
  const unsigned char* child_edges = child_offsets + 4 * (n + 1);
  const unsigned char* name_offsets = child_edges + 4 * m;
  const unsigned char* name_blob = name_offsets + 4 * (n + 1);
  if (getU32(child_offsets) != 0) bad("child_offsets[0] != 0");
  if (getU32(child_offsets + 4 * n) != m) bad("child_offsets end != m");
  if (getU32(name_offsets) != 0) bad("name_offsets[0] != 0");
  if (getU32(name_offsets + 4 * n) != blob) {
    bad("name blob size mismatch");
  }

  // Decode is the serving hot path (it is what phase_parse measures for
  // binary payloads), so it deliberately avoids the incremental
  // addNode/addEdge API: every structural check runs on the raw wire
  // arrays and the Digraph is bulk-loaded with fromAdjacency(), which
  // skips hash-container construction entirely.

  // Names: offsets strictly increasing (empty names are invalid) and
  // unique. Uniqueness is checked by sorting 64-bit name hashes and
  // string-comparing only equal-hash neighbours — far cheaper than
  // inserting every name into a hash set.
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(n));
  std::vector<std::pair<std::uint64_t, NodeId>> name_hashes(
      static_cast<std::size_t>(n));
  for (std::uint64_t u = 0; u < n; ++u) {
    const std::uint32_t lo = getU32(name_offsets + 4 * u);
    const std::uint32_t hi = getU32(name_offsets + 4 * (u + 1));
    if (lo >= hi || hi > blob) bad("bad name offsets", "node " +
                                   std::to_string(u));
    const std::string_view sv(reinterpret_cast<const char*>(name_blob + lo),
                              hi - lo);
    name_hashes[u] = {fnv1a(sv), static_cast<NodeId>(u)};
    names.emplace_back(sv);
  }
  std::sort(name_hashes.begin(), name_hashes.end());
  for (std::uint64_t i = 1; i < n; ++i) {
    if (name_hashes[i].first == name_hashes[i - 1].first &&
        names[name_hashes[i].second] == names[name_hashes[i - 1].second]) {
      bad("duplicate node name", names[name_hashes[i].second]);
    }
  }

  // Edges: per-node slices must stay in [0, m), targets in range, no
  // self-loops, no duplicates. Duplicates are caught with an epoch
  // stamp per target (epoch = source id + 1), O(V + E) total.
  std::vector<std::vector<NodeId>> children(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> indeg(static_cast<std::size_t>(n), 0);
  std::vector<std::uint32_t> mark(static_cast<std::size_t>(n), 0);
  for (std::uint64_t u = 0; u < n; ++u) {
    const std::uint32_t lo = getU32(child_offsets + 4 * u);
    const std::uint32_t hi = getU32(child_offsets + 4 * (u + 1));
    if (lo > hi || hi > m) bad("non-monotone child_offsets",
                               "node " + std::to_string(u));
    const std::uint32_t epoch = static_cast<std::uint32_t>(u) + 1;
    auto& kids = children[u];
    kids.reserve(hi - lo);
    for (std::uint32_t i = lo; i < hi; ++i) {
      const std::uint32_t v = getU32(child_edges + 4 * i);
      if (v >= n) bad("edge target out of range", std::to_string(v));
      if (v == u) bad("self-loop", "node " + std::to_string(u));
      if (mark[v] == epoch) {
        bad("duplicate edge",
            std::to_string(u) + " -> " + std::to_string(v));
      }
      mark[v] = epoch;
      ++indeg[v];
      kids.push_back(static_cast<NodeId>(v));
    }
  }

  // Transpose with exact per-node capacity (indeg was counted above).
  std::vector<std::vector<NodeId>> parents(static_cast<std::size_t>(n));
  for (std::uint64_t v = 0; v < n; ++v) parents[v].reserve(indeg[v]);
  for (std::uint64_t u = 0; u < n; ++u) {
    for (const NodeId v : children[u]) {
      parents[v].push_back(static_cast<NodeId>(u));
    }
  }
  if (!isAcyclicAdjacency(children, parents)) bad("graph has a cycle");

  return Digraph::fromAdjacency(std::move(names), std::move(children),
                                std::move(parents),
                                static_cast<std::size_t>(m));
}

bool isAcyclicAdjacency(std::span<const std::vector<NodeId>> children,
                        std::span<const std::vector<NodeId>> parents) {
  const std::size_t n = children.size();
  std::vector<std::uint32_t> deg(n);
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    deg[v] = static_cast<std::uint32_t>(parents[v].size());
    if (deg[v] == 0) frontier.push_back(static_cast<NodeId>(v));
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    for (const NodeId v : children[frontier[head]]) {
      if (--deg[v] == 0) frontier.push_back(v);
    }
  }
  return frontier.size() == n;
}

std::string encodeBinaryPriorities(std::span<const std::size_t> priorities) {
  PRIO_CHECK_MSG(priorities.size() <= 0xffffffffu,
                 "priority table too large for the binary wire format");
  std::string out;
  out.reserve(12 + 4 * priorities.size());
  putU32(out, kBinaryPrioMagic);
  putU16(out, kBinaryPrioVersion);
  putU16(out, 0);  // reserved
  putU32(out, static_cast<std::uint32_t>(priorities.size()));
  for (const std::size_t prio : priorities) {
    PRIO_CHECK_MSG(prio <= 0xffffffffu, "priority value overflows u32");
    putU32(out, static_cast<std::uint32_t>(prio));
  }
  return out;
}

std::vector<std::size_t> decodeBinaryPriorities(std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (bytes.size() < 12) {
    throw util::Error("binary priority payload: truncated header");
  }
  if (getU32(p) != kBinaryPrioMagic) {
    throw util::Error("binary priority payload: bad magic");
  }
  if (getU16(p + 4) != kBinaryPrioVersion) {
    throw util::Error("binary priority payload: unsupported version " +
                      std::to_string(getU16(p + 4)));
  }
  if (getU16(p + 6) != 0) {
    throw util::Error("binary priority payload: nonzero reserved flags");
  }
  const std::uint64_t n = getU32(p + 8);
  if (bytes.size() != 12 + 4 * n) {
    throw util::Error("binary priority payload: size mismatch");
  }
  std::vector<std::size_t> priorities;
  priorities.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    priorities.push_back(getU32(p + 12 + 4 * i));
  }
  return priorities;
}

}  // namespace prio::dag
