#include "workloads/random.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace prio::workloads {

using dag::DigraphBuilder;
using dag::NodeId;

dag::Digraph randomDag(std::size_t n, double edge_prob, stats::Rng& rng) {
  PRIO_CHECK(edge_prob >= 0.0 && edge_prob <= 1.0);
  DigraphBuilder g;
  g.reserveNodes(n);
  for (std::size_t i = 0; i < n; ++i) g.addNode();
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.uniform01() < edge_prob) g.addEdge(i, j);
    }
  }
  return g.build();
}

dag::Digraph layeredRandom(std::size_t layers, std::size_t width,
                           double edge_prob, stats::Rng& rng) {
  PRIO_CHECK(layers >= 1 && width >= 1);
  DigraphBuilder g;
  g.reserveNodes(layers * width);
  std::vector<std::vector<NodeId>> layer(layers);
  for (std::size_t k = 0; k < layers; ++k) {
    for (std::size_t i = 0; i < width; ++i) {
      layer[k].push_back(g.addNode());
    }
  }
  for (std::size_t k = 1; k < layers; ++k) {
    for (NodeId v : layer[k]) {
      const NodeId forced =
          layer[k - 1][rng.below(static_cast<std::uint64_t>(width))];
      g.addEdge(forced, v);
      for (NodeId u : layer[k - 1]) {
        if (u != forced && rng.uniform01() < edge_prob) g.addEdge(u, v);
      }
    }
  }
  return g.build();
}

dag::Digraph randomComposable(std::size_t steps, stats::Rng& rng) {
  DigraphBuilder g;
  // Seed: a W(a,b) fan structure.
  const std::size_t a = 1 + rng.below(3);
  const std::size_t b = 2 + rng.below(3);
  std::vector<NodeId> frontier;  // current sinks
  {
    std::vector<NodeId> sources;
    for (std::size_t i = 0; i < a; ++i) sources.push_back(g.addNode());
    NodeId last = 0;
    for (std::size_t i = 0; i < a; ++i) {
      if (i > 0) g.addEdge(sources[i], last);
      const std::size_t fresh = (i == 0) ? b : b - 1;
      for (std::size_t j = 0; j < fresh; ++j) {
        last = g.addNode();
        g.addEdge(sources[i], last);
        frontier.push_back(last);
      }
    }
  }
  for (std::size_t s = 0; s < steps && !frontier.empty(); ++s) {
    const std::uint64_t op = rng.below(3);
    if (op == 0) {
      // Fan-out W(1,c) from one frontier node.
      const std::size_t at = rng.below(frontier.size());
      const NodeId src = frontier[at];
      frontier.erase(frontier.begin() + static_cast<long>(at));
      const std::size_t c = 2 + rng.below(4);
      for (std::size_t j = 0; j < c; ++j) {
        const NodeId v = g.addNode();
        g.addEdge(src, v);
        frontier.push_back(v);
      }
    } else if (op == 1 && frontier.size() >= 2) {
      // Fan-in M(1,c): join c frontier nodes into one.
      const std::size_t c =
          2 + rng.below(std::min<std::uint64_t>(frontier.size() - 1, 4));
      const NodeId join = g.addNode();
      for (std::size_t j = 0; j < c; ++j) {
        const std::size_t at = rng.below(frontier.size());
        g.addEdge(frontier[at], join);
        frontier.erase(frontier.begin() + static_cast<long>(at));
      }
      frontier.push_back(join);
    } else {
      // Chain link from one frontier node.
      const std::size_t at = rng.below(frontier.size());
      const NodeId v = g.addNode();
      g.addEdge(frontier[at], v);
      frontier[at] = v;
    }
  }
  return g.build();
}

}  // namespace prio::workloads
