#include "workloads/scientific.h"

#include <string>
#include <vector>

#include "util/check.h"

namespace prio::workloads {

namespace {
using dag::DigraphBuilder;
using dag::NodeId;

std::string idx(const std::string& stem, std::size_t i) {
  return stem + std::to_string(i);
}

std::string idx2(const std::string& stem, std::size_t i, std::size_t j) {
  return stem + std::to_string(i) + "_" + std::to_string(j);
}
}  // namespace

std::size_t airsnJobCount(const AirsnParams& p) {
  return p.handle_length + 3 * p.width + 2;
}

dag::Digraph makeAirsn(const AirsnParams& p) {
  PRIO_CHECK_MSG(p.width >= 1 && p.handle_length >= 1,
                 "AIRSN needs width >= 1 and handle_length >= 1");
  DigraphBuilder g;
  g.reserveNodes(airsnJobCount(p));

  // The handle: a chain of preprocessing jobs.
  std::vector<NodeId> handle;
  for (std::size_t i = 0; i < p.handle_length; ++i) {
    handle.push_back(g.addNode(idx("handle", i)));
    if (i > 0) g.addEdge(handle[i - 1], handle[i]);
  }
  const NodeId handle_end = handle.back();

  // First umbrella cover: each parallel job depends on the handle end and
  // on a dedicated fringe job.
  std::vector<NodeId> fringe, fork1;
  for (std::size_t i = 0; i < p.width; ++i) {
    fringe.push_back(g.addNode(idx("fringe", i)));
  }
  for (std::size_t i = 0; i < p.width; ++i) {
    fork1.push_back(g.addNode(idx("align", i)));
    g.addEdge(handle_end, fork1[i]);
    g.addEdge(fringe[i], fork1[i]);
  }
  const NodeId join1 = g.addNode("reslice_join");
  for (NodeId u : fork1) g.addEdge(u, join1);

  // Second umbrella cover and the final join.
  std::vector<NodeId> fork2;
  for (std::size_t i = 0; i < p.width; ++i) {
    fork2.push_back(g.addNode(idx("smooth", i)));
    g.addEdge(join1, fork2[i]);
  }
  const NodeId join2 = g.addNode("final_join");
  for (NodeId u : fork2) g.addEdge(u, join2);

  PRIO_CHECK(g.numNodes() == airsnJobCount(p));
  return g.build();
}

std::size_t inspiralJobCount(const InspiralParams& p) {
  return p.segments * (2 * p.templates + 6);
}

dag::Digraph makeInspiral(const InspiralParams& p) {
  PRIO_CHECK_MSG(p.segments >= 2 && p.templates >= 1,
                 "Inspiral needs >= 2 segments and >= 1 template");
  DigraphBuilder g;
  g.reserveNodes(inspiralJobCount(p));

  const std::size_t S = p.segments;
  const std::size_t T = p.templates;
  std::vector<NodeId> df(S), cal(S);
  std::vector<std::vector<NodeId>> tb(S), insp(S);
  std::vector<NodeId> veto(S), thinca(S);

  for (std::size_t i = 0; i < S; ++i) {
    df[i] = g.addNode(idx("datafind", i));
    // Per-segment calibration data: a shallow second parent for every
    // inspiral job (the AIRSN "fringe" pattern). FIFO spends its earliest
    // steps on these immediately-eligible jobs without unlocking
    // anything, which is where PRIO's eligibility advantage comes from.
    cal[i] = g.addNode(idx("calibration", i));
    for (std::size_t j = 0; j < T; ++j) {
      tb[i].push_back(g.addNode(idx2("tmpltbank", i, j)));
      g.addEdge(df[i], tb[i][j]);
    }
    for (std::size_t j = 0; j < T; ++j) {
      insp[i].push_back(g.addNode(idx2("inspiral", i, j)));
      g.addEdge(tb[i][j], insp[i][j]);
      g.addEdge(cal[i], insp[i][j]);
    }
    veto[i] = g.addNode(idx("veto", i));
    thinca[i] = g.addNode(idx("thinca", i));
    const NodeId trig = g.addNode(idx("trigbank", i));
    const NodeId sire = g.addNode(idx("sire", i));
    g.addEdge(thinca[i], trig);
    g.addEdge(trig, sire);
  }
  // Coincidence couples segments at mixed depths: thinca_i needs its own
  // inspirals (depth 3) and veto_i, which digests the *next* segment's
  // inspirals (depth 4, wrapping around). None of these arcs is a
  // shortcut, and once every segment sits at the inspiral level no source
  // roots a bipartite subdag, so the general decomposition search welds
  // all inspiral/veto/thinca jobs into one non-bipartite component.
  for (std::size_t i = 0; i < S; ++i) {
    const std::size_t next = (i + 1) % S;
    for (std::size_t j = 0; j < T; ++j) {
      g.addEdge(insp[i][j], thinca[i]);
      g.addEdge(insp[next][j], veto[i]);
    }
    g.addEdge(veto[i], thinca[i]);
  }

  PRIO_CHECK(g.numNodes() == inspiralJobCount(p));
  return g.build();
}

std::size_t montageJobCount(const MontageParams& p) {
  const std::size_t grid = p.rows * p.cols;
  const std::size_t overlaps = p.rows * (p.cols - 1) + (p.rows - 1) * p.cols +
                               p.extra_diagonal_overlaps;
  return 2 * grid + overlaps + 6;
}

dag::Digraph makeMontage(const MontageParams& p) {
  PRIO_CHECK_MSG(p.rows >= 2 && p.cols >= 2,
                 "Montage needs at least a 2x2 grid");
  PRIO_CHECK_MSG(p.extra_diagonal_overlaps <= (p.rows - 1) * (p.cols - 1),
                 "more diagonal overlaps than diagonal neighbor pairs");
  DigraphBuilder g;
  g.reserveNodes(montageJobCount(p));

  const std::size_t R = p.rows, C = p.cols;
  auto cell = [&](std::size_t r, std::size_t c) { return r * C + c; };
  std::vector<NodeId> project(R * C);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      project[cell(r, c)] = g.addNode(idx2("mProject", r, c));
    }
  }

  // One mDiffFit per overlapping image pair; projects are the (shared)
  // parents. 4-neighbor overlaps plus the first `extra` diagonal pairs in
  // row-major order.
  std::vector<std::pair<NodeId, NodeId>> overlaps;
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c + 1 < C; ++c) {
      overlaps.emplace_back(project[cell(r, c)], project[cell(r, c + 1)]);
    }
  }
  for (std::size_t r = 0; r + 1 < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      overlaps.emplace_back(project[cell(r, c)], project[cell(r + 1, c)]);
    }
  }
  std::size_t extra = 0;
  for (std::size_t r = 0; r + 1 < R && extra < p.extra_diagonal_overlaps;
       ++r) {
    for (std::size_t c = 0;
         c + 1 < C && extra < p.extra_diagonal_overlaps; ++c) {
      overlaps.emplace_back(project[cell(r, c)],
                            project[cell(r + 1, c + 1)]);
      ++extra;
    }
  }
  const NodeId concat = g.addNode("mConcatFit");
  for (std::size_t i = 0; i < overlaps.size(); ++i) {
    const NodeId diff = g.addNode(idx("mDiffFit", i));
    g.addEdge(overlaps[i].first, diff);
    g.addEdge(overlaps[i].second, diff);
    g.addEdge(diff, concat);
  }

  const NodeId bgmodel = g.addNode("mBgModel");
  g.addEdge(concat, bgmodel);
  const NodeId imgtbl = g.addNode("mImgtbl");
  for (std::size_t i = 0; i < R * C; ++i) {
    const NodeId background = g.addNode(idx("mBackground", i));
    g.addEdge(bgmodel, background);
    g.addEdge(background, imgtbl);
  }
  const NodeId add = g.addNode("mAdd");
  g.addEdge(imgtbl, add);
  const NodeId shrink = g.addNode("mShrink");
  g.addEdge(add, shrink);
  const NodeId jpeg = g.addNode("mJPEG");
  g.addEdge(shrink, jpeg);

  PRIO_CHECK(g.numNodes() == montageJobCount(p));
  return g.build();
}

std::size_t sdssJobCount(const SdssParams& p) {
  const std::size_t targets = 2 * p.fields + 1;
  const std::size_t long_chains = (targets + 1) / 2;
  const std::size_t short_chains = targets / 2;
  return p.fields + targets + long_chains * p.long_chain +
         short_chains * p.short_chain + 1 + p.output_files;
}

dag::Digraph makeSdss(const SdssParams& p) {
  PRIO_CHECK_MSG(p.fields >= 2 && p.short_chain >= 1 &&
                     p.long_chain >= p.short_chain,
                 "SDSS needs >= 2 fields and long_chain >= short_chain >= 1");
  DigraphBuilder g;
  g.reserveNodes(sdssJobCount(p));

  // W(fields, 3) core: each field-extraction source has 3 target
  // children, consecutive fields sharing one.
  std::vector<NodeId> fields(p.fields);
  for (std::size_t i = 0; i < p.fields; ++i) {
    fields[i] = g.addNode(idx("field", i));
  }
  std::vector<NodeId> targets;
  NodeId last_target = 0;
  std::size_t target_counter = 0;
  for (std::size_t i = 0; i < p.fields; ++i) {
    if (i > 0) g.addEdge(fields[i], last_target);
    const std::size_t fresh = (i == 0) ? 3 : 2;
    for (std::size_t j = 0; j < fresh; ++j) {
      last_target = g.addNode(idx("target", target_counter++));
      g.addEdge(fields[i], last_target);
      targets.push_back(last_target);
    }
  }
  PRIO_CHECK(targets.size() == 2 * p.fields + 1);

  // Per-target processing chains joining into one coadd. Chain depths
  // alternate long/short: the depth heterogeneity is what separates PRIO
  // from FIFO here — FIFO drains the short chains early and then starves,
  // while PRIO drives the long (bottleneck) chains first and keeps the
  // short chains in reserve as eligible work.
  std::vector<NodeId> chain_ends;
  chain_ends.reserve(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::size_t len = (t % 2 == 0) ? p.long_chain : p.short_chain;
    NodeId prev = targets[t];
    for (std::size_t k = 0; k < len; ++k) {
      const NodeId step = g.addNode(idx2("proc", t, k));
      g.addEdge(prev, step);
      prev = step;
    }
    chain_ends.push_back(prev);
  }
  const NodeId coadd = g.addNode("coadd");
  for (NodeId e : chain_ends) g.addEdge(e, coadd);
  for (std::size_t k = 0; k < p.output_files; ++k) {
    g.addEdge(coadd, g.addNode(idx("catalog", k)));
  }

  PRIO_CHECK(g.numNodes() == sdssJobCount(p));
  return g.build();
}

InspiralParams inspiralBenchScale() { return InspiralParams{83, 15}; }

MontageParams montageBenchScale() { return MontageParams{20, 90, 785}; }

SdssParams sdssBenchScale() { return SdssParams{200, 16, 8, 300}; }

}  // namespace prio::workloads
