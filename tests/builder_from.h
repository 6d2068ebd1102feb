// Test helper: a DigraphBuilder seeded with a built graph, so a test can
// add nodes or arcs to a graph it already holds.
#pragma once

#include "dag/digraph.h"

namespace prio::testing {

/// A builder holding g's nodes (same ids and names) and arcs, in id
/// order of the parent and, within a parent, in children() order.
inline dag::DigraphBuilder builderFrom(const dag::Digraph& g) {
  dag::DigraphBuilder b;
  b.reserveNodes(g.numNodes());
  for (dag::NodeId u = 0; u < g.numNodes(); ++u) b.addNode(g.name(u));
  for (dag::NodeId u = 0; u < g.numNodes(); ++u) {
    for (const dag::NodeId v : g.children(u)) b.addEdge(u, v);
  }
  return b;
}

}  // namespace prio::testing
