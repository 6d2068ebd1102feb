#include "inputs.h"

#include <algorithm>
#include <sstream>

#include "core/prio.h"
#include "dag/algorithms.h"
#include "dag/csr.h"
#include "dag/fingerprint.h"
#include "dagman/dagman_file.h"
#include "dagman/instrument.h"
#include "workloads/pegasus.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace perfbench {

namespace wl = prio::workloads;
using prio::dag::Digraph;
using prio::dag::NodeId;
using prio::stats::Rng;

namespace {

enum Family : std::uint32_t {
  kLayered,
  kComposable,
  kErdosRenyi,
  kCybershake,
  kEpigenomics,
  kAirsn,
  kInspiral,
  kMontage,
  kPaperInspiral,
  kPaperMontage,
  kPaperSdss,
};

/// Uniform integer in [lo, hi].
std::size_t between(Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
}

/// max(v, floor) as a count; v may be negative.
std::size_t atLeast(double v, std::size_t floor) {
  return v < static_cast<double>(floor) ? floor : static_cast<std::size_t>(v);
}

}  // namespace

const std::vector<std::string>& familyNames() {
  static const std::vector<std::string> names = {
      "random.layered",     "random.composable",   "random.erdos_renyi",
      "pegasus.cybershake", "pegasus.epigenomics", "scaled.airsn",
      "scaled.inspiral",    "scaled.montage",      "paper.inspiral",
      "paper.montage",      "paper.sdss"};
  return names;
}

std::vector<std::uint32_t> mixFamilies() {
  return {kLayered,     kComposable, kErdosRenyi, kCybershake,
          kEpigenomics, kAirsn,      kInspiral,   kMontage};
}

NamedDag generateDag(std::uint32_t family, std::size_t target_jobs,
                     Rng& rng) {
  const double j = static_cast<double>(std::max<std::size_t>(target_jobs, 20));
  NamedDag out;
  out.family = family;
  switch (family) {
    case kLayered: {
      const std::size_t width = between(rng, 4, 40);
      const double p = 0.02 + 0.1 * rng.uniform01();
      out.graph = wl::layeredRandom(atLeast(j / static_cast<double>(width), 2),
                                    width, p, rng);
      break;
    }
    case kComposable:
      // Each step adds about 2.5 jobs on average.
      out.graph = wl::randomComposable(atLeast(j * 0.4, 1), rng);
      break;
    case kErdosRenyi: {
      // Mean out-degree 1..3; at this density many arcs are shortcuts.
      // Half the target size, but never below the mix's 100 jobs: a job
      // here costs the service about four times what it costs in the
      // other families.
      const double degree = 1.0 + 2.0 * rng.uniform01();
      const std::size_t n = atLeast(j / 2, 100);
      out.graph = wl::randomDag(n, 2.0 * degree / static_cast<double>(n), rng);
      break;
    }
    case kCybershake: {
      wl::CybershakeParams p;
      p.sites = between(rng, 1, 12);
      p.synthesis_per_site =
          atLeast(((j - 1) / static_cast<double>(p.sites) - 3) / 2, 1);
      out.graph = wl::makeCybershake(p);
      break;
    }
    case kEpigenomics: {
      wl::EpigenomicsParams p;
      p.lanes = between(rng, 1, 16);
      p.splits_per_lane =
          atLeast(((j - 3) / static_cast<double>(p.lanes) - 1) / 4, 1);
      out.graph = wl::makeEpigenomics(p);
      break;
    }
    case kAirsn: {
      wl::AirsnParams p;
      p.handle_length = between(rng, 1, 40);
      p.width =
          atLeast((j - static_cast<double>(p.handle_length) - 2) / 3, 1);
      out.graph = wl::makeAirsn(p);
      break;
    }
    case kInspiral: {
      wl::InspiralParams p;
      p.templates = between(rng, 2, 20);
      p.segments = atLeast(j / static_cast<double>(2 * p.templates + 6), 2);
      out.graph = wl::makeInspiral(p);
      break;
    }
    case kMontage: {
      wl::MontageParams p;
      p.rows = between(rng, 2, 12);
      // About four jobs per grid cell once overlaps are counted.
      p.cols = atLeast(j / static_cast<double>(4 * p.rows), 2);
      p.extra_diagonal_overlaps =
          rng.below((p.rows - 1) * (p.cols - 1) + 1);
      out.graph = wl::makeMontage(p);
      break;
    }
    default:
      out.graph = generateLargeDag(
                      static_cast<LargeFamily>(family - kPaperInspiral), rng)
                      .graph;
      break;
  }
  return out;
}

NamedDag generateLargeDag(LargeFamily which, Rng& rng) {
  NamedDag out;
  switch (which) {
    case kLargeInspiral: {
      out.family = kPaperInspiral;
      wl::InspiralParams p;  // paper: 83 segments x 15 templates
      p.segments = between(rng, 70, 96);
      p.templates = between(rng, 12, 18);
      out.graph = wl::makeInspiral(p);
      break;
    }
    case kLargeMontage: {
      out.family = kPaperMontage;
      wl::MontageParams p;  // paper: 20 x 90 grid, 785 diagonals
      p.rows = between(rng, 18, 22);
      p.cols = between(rng, 80, 100);
      p.extra_diagonal_overlaps = between(rng, 700, 870);
      out.graph = wl::makeMontage(p);
      break;
    }
    case kLargeSdss: {
      out.family = kPaperSdss;
      // Paper: 1700 fields, chains 16/8, 2095 outputs. Varied narrowly:
      // the n^2/8 descendant matrix sets the server's peak memory.
      wl::SdssParams p;
      p.fields = between(rng, 1680, 1720);
      p.output_files = between(rng, 2050, 2150);
      out.graph = wl::makeSdss(p);
      break;
    }
  }
  return out;
}

Rendered render(const Digraph& g, const std::string& prefix, bool want_text,
                bool want_binary, const std::vector<std::size_t>* priorities) {
  prio::dagman::DagmanFile file;
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    file.addJob(prefix + std::to_string(u), "job.sub");
  }
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) {
      file.addDependency(file.jobs()[u].name, file.jobs()[v].name);
    }
  }
  // The dag exactly as the server decodes either payload kind: ids in
  // declaration order, arcs in dependency order.
  const Digraph canonical = file.toDigraph();

  Rendered out;
  if (priorities != nullptr) {
    out.priorities = *priorities;
  } else {
    const Digraph reduced = prio::dag::transitiveReduction(canonical);
    out.fingerprint = prio::dag::structuralFingerprintOfReduced(reduced);
    prio::core::PrioRequest request(canonical);
    request.reduced = &reduced;
    out.priorities = prio::core::prioritize(request).priority;
  }

  if (want_text) {
    std::ostringstream payload;
    file.write(payload);
    out.text = std::make_shared<const std::string>(std::move(payload).str());
    prio::dagman::instrumentDagmanFile(file, out.priorities);
    std::ostringstream expected;
    file.write(expected);
    out.text_expected =
        std::make_shared<const std::string>(std::move(expected).str());
  }
  if (want_binary) {
    out.binary = std::make_shared<const std::string>(
        prio::dag::encodeBinaryDag(canonical));
    out.binary_expected = std::make_shared<const std::string>(
        prio::dag::encodeBinaryPriorities(out.priorities));
  }
  return out;
}

bool validPriorities(const Digraph& g,
                     const std::vector<std::size_t>& priorities) {
  const std::size_t n = g.numNodes();
  if (priorities.size() != n) return false;
  std::vector<bool> seen(n + 1, false);
  for (std::size_t p : priorities) {
    if (p < 1 || p > n || seen[p]) return false;
    seen[p] = true;
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.children(u)) {
      if (priorities[u] <= priorities[v]) return false;
    }
  }
  return true;
}

std::uint64_t digest(const std::vector<Request>& requests) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const Request& r : requests) {
    mix(r.batch ? 1 : 0);
    for (const Item& item : r.items) {
      mix(static_cast<unsigned char>(item.kind));
      for (char c : *item.payload) mix(static_cast<unsigned char>(c));
    }
  }
  return h;
}

}  // namespace perfbench
