#include "workloads/pegasus.h"

#include <string>
#include <vector>

#include "util/check.h"

namespace prio::workloads {

namespace {
using dag::DigraphBuilder;
using dag::NodeId;

std::string idx2(const std::string& stem, std::size_t i, std::size_t j) {
  return stem + std::to_string(i) + "_" + std::to_string(j);
}
}  // namespace

std::size_t cybershakeJobCount(const CybershakeParams& p) {
  return p.sites * (2 + 2 * p.synthesis_per_site + 1) + 1;
}

dag::Digraph makeCybershake(const CybershakeParams& p) {
  PRIO_CHECK_MSG(p.sites >= 1 && p.synthesis_per_site >= 1,
                 "CyberShake needs >= 1 site and >= 1 synthesis job");
  DigraphBuilder g;
  g.reserveNodes(cybershakeJobCount(p));
  const NodeId merge = g.addNode("global_merge");
  for (std::size_t s = 0; s < p.sites; ++s) {
    // Two strain-Green-tensor extractions per site; every synthesis job
    // depends on BOTH (the shared-parent pattern).
    const NodeId sgt_x = g.addNode(idx2("extract_sgt_x", s, 0));
    const NodeId sgt_y = g.addNode(idx2("extract_sgt_y", s, 0));
    const NodeId zip = g.addNode("zip_seis" + std::to_string(s));
    for (std::size_t j = 0; j < p.synthesis_per_site; ++j) {
      const NodeId synth = g.addNode(idx2("synthesis", s, j));
      g.addEdge(sgt_x, synth);
      g.addEdge(sgt_y, synth);
      const NodeId peak = g.addNode(idx2("peak_val", s, j));
      g.addEdge(synth, peak);
      g.addEdge(peak, zip);
    }
    g.addEdge(zip, merge);
  }
  PRIO_CHECK(g.numNodes() == cybershakeJobCount(p));
  return g.build();
}

std::size_t epigenomicsJobCount(const EpigenomicsParams& p) {
  return p.lanes * (1 + 4 * p.splits_per_lane) + 3;
}

dag::Digraph makeEpigenomics(const EpigenomicsParams& p) {
  PRIO_CHECK_MSG(p.lanes >= 1 && p.splits_per_lane >= 1,
                 "Epigenomics needs >= 1 lane and >= 1 split");
  DigraphBuilder g;
  g.reserveNodes(epigenomicsJobCount(p));
  const NodeId map_merge = g.addNode("map_merge");
  for (std::size_t lane = 0; lane < p.lanes; ++lane) {
    const NodeId split = g.addNode("fastq_split" + std::to_string(lane));
    for (std::size_t j = 0; j < p.splits_per_lane; ++j) {
      // Four-stage chain per split.
      const NodeId filter = g.addNode(idx2("filter_contams", lane, j));
      const NodeId sanger = g.addNode(idx2("sol2sanger", lane, j));
      const NodeId bfq = g.addNode(idx2("fastq2bfq", lane, j));
      const NodeId map = g.addNode(idx2("map", lane, j));
      g.addEdge(split, filter);
      g.addEdge(filter, sanger);
      g.addEdge(sanger, bfq);
      g.addEdge(bfq, map);
      g.addEdge(map, map_merge);
    }
  }
  const NodeId index = g.addNode("maq_index");
  const NodeId pileup = g.addNode("pileup");
  g.addEdge(map_merge, index);
  g.addEdge(index, pileup);
  PRIO_CHECK(g.numNodes() == epigenomicsJobCount(p));
  return g.build();
}

}  // namespace prio::workloads
