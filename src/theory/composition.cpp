#include "theory/composition.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"

namespace prio::theory {

using dag::Digraph;
using dag::NodeId;

dag::Digraph composeDags(const dag::Digraph& a,
                         std::span<const dag::NodeId> a_sinks,
                         const dag::Digraph& b,
                         std::span<const dag::NodeId> b_sources) {
  PRIO_CHECK_MSG(a_sinks.size() == b_sources.size(),
                 "identified sink/source lists must have equal length");
  std::unordered_set<NodeId> seen_a, seen_b;
  for (std::size_t i = 0; i < a_sinks.size(); ++i) {
    PRIO_CHECK_MSG(a_sinks[i] < a.numNodes() && a.isSink(a_sinks[i]),
                   "identified node must be a sink of the first dag");
    PRIO_CHECK_MSG(
        b_sources[i] < b.numNodes() && b.isSource(b_sources[i]),
        "identified node must be a source of the second dag");
    PRIO_CHECK_MSG(seen_a.insert(a_sinks[i]).second,
                   "duplicate sink in identification");
    PRIO_CHECK_MSG(seen_b.insert(b_sources[i]).second,
                   "duplicate source in identification");
  }

  dag::DigraphBuilder out;
  out.reserveNodes(a.numNodes() + b.numNodes() - a_sinks.size());
  // All of a, names preserved (ids coincide).
  for (NodeId u = 0; u < a.numNodes(); ++u) out.addNode(a.name(u));
  for (NodeId u = 0; u < a.numNodes(); ++u) {
    for (NodeId v : a.children(u)) out.addEdge(u, v);
  }
  // b's nodes: identified sources map onto a's sinks; the rest are fresh
  // (renamed on clash).
  std::unordered_map<NodeId, NodeId> b_map;
  for (std::size_t i = 0; i < b_sources.size(); ++i) {
    b_map.emplace(b_sources[i], a_sinks[i]);
  }
  for (NodeId u = 0; u < b.numNodes(); ++u) {
    if (b_map.count(u) != 0) continue;
    std::string name = b.name(u);
    while (out.findNode(name).has_value()) name += "'";
    b_map.emplace(u, out.addNode(std::move(name)));
  }
  for (NodeId u = 0; u < b.numNodes(); ++u) {
    for (NodeId v : b.children(u)) {
      out.addEdge(b_map.at(u), b_map.at(v));
    }
  }
  return out.build();
}

dag::Digraph chainCompose(const std::vector<dag::Digraph>& blocks) {
  PRIO_CHECK_MSG(!blocks.empty(), "chainCompose needs at least one block");
  Digraph acc = blocks.front();
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    const auto sinks = acc.sinks();
    const auto sources = blocks[i].sources();
    const std::size_t k = std::min(sinks.size(), sources.size());
    PRIO_CHECK_MSG(k > 0, "cannot chain-compose with an empty interface");
    acc = composeDags(
        acc, std::span<const NodeId>(sinks).first(k), blocks[i],
        std::span<const NodeId>(sources).first(k));
  }
  return acc;
}

}  // namespace prio::theory
