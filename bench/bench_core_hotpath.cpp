// Gated hot-path benchmark for the core pipeline (decompose + schedule +
// combine) across schedule-phase thread counts, on layered random dags
// and the four paper workloads. Emits BENCH_core.json with a flat
// "metrics" dict that scripts/bench_check.py gates against the committed
// baseline in bench/baselines/BENCH_core_baseline.json.
//
// The transitive reduction is computed once per workload and NOT timed —
// the timed region is prioritize() on a PrioRequest with a precomputed
// reduction (PrioRequest::reduced), i.e. exactly the phases
// this PR parallelizes (the service's hot path after its fingerprint
// reduction). Layered random dags are their own transitive reduction
// (every arc spans exactly one layer, so no arc is a shortcut) and skip
// the reduction outright.
//
// Every run at every thread count is checked bit-identical to the serial
// reference; any mismatch counts into the `parity_failures` metric,
// which the baseline pins at 0.
//
// Environment knobs:
//   PRIO_BENCH_HOTPATH_SMOKE  "1" = CI smoke scale: drop the 100k-node
//                             dag, shrink SDSS, 2 reps (default 0)
//   PRIO_BENCH_HOTPATH_REPS   repetitions per (workload, threads) cell
//                             (default 5; smoke default 2)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/prio.h"
#include "dag/algorithms.h"
#include "obs/trace.h"
#include "stats/rng.h"
#include "util/timing.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using prio::core::PrioOptions;
using prio::core::PrioRequest;
using prio::core::PrioResult;
using prio::dag::Digraph;

bool envFlag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && std::string(v) == "1";
}

std::size_t envSize(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[idx];
}

struct Workload {
  std::string name;
  Digraph graph;
  Digraph reduced_storage;  ///< empty when graph is its own reduction
  const Digraph& reduced() const {
    return reduced_storage.numNodes() == 0 ? graph : reduced_storage;
  }
};

std::vector<Workload> buildWorkloads(bool smoke) {
  std::vector<Workload> out;
  prio::stats::Rng rng(20060627);
  auto layered = [&](const char* name, std::size_t layers, std::size_t width,
                     double edge_prob) {
    Workload w;
    w.name = name;
    w.graph = prio::workloads::layeredRandom(layers, width, edge_prob, rng);
    out.push_back(std::move(w));  // its own transitive reduction
  };
  layered("layered_1k", 10, 100, 0.05);
  layered("layered_10k", 40, 250, 0.02);
  if (!smoke) layered("layered_100k", 200, 500, 0.008);

  auto paper = [&](const char* name, Digraph g) {
    Workload w;
    w.name = name;
    w.graph = std::move(g);
    w.reduced_storage = prio::dag::transitiveReduction(w.graph);
    out.push_back(std::move(w));
  };
  paper("airsn", prio::workloads::makeAirsn({}));
  paper("inspiral", prio::workloads::makeInspiral({}));
  paper("montage", prio::workloads::makeMontage({}));
  paper("sdss", smoke ? prio::workloads::makeSdss({400, 16, 8, 500})
                      : prio::workloads::makeSdss({}));
  return out;
}

}  // namespace

int main() {
  const bool smoke = envFlag("PRIO_BENCH_HOTPATH_SMOKE");
  const std::size_t reps =
      envSize("PRIO_BENCH_HOTPATH_REPS", smoke ? 2 : 5);
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};

  std::size_t parity_failures = 0;
  std::string metrics_json;
  auto metric = [&](const std::string& key, double value) {
    if (!metrics_json.empty()) metrics_json += ",";
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"%s\":%.6g", key.c_str(), value);
    metrics_json += buf;
  };

  std::printf("bench_core_hotpath: %zu reps, hardware concurrency %u%s\n",
              reps, hw, smoke ? " (smoke scale)" : "");

  for (auto& w : buildWorkloads(smoke)) {
    const Digraph& reduced = w.reduced();
    std::printf("%s: %zu nodes, %zu arcs (%zu after reduction)\n",
                w.name.c_str(), w.graph.numNodes(), w.graph.numEdges(),
                reduced.numEdges());

    // Warmup: touches every page the timed runs will, so t=1 (measured
    // first) is not penalized with the one-time costs.
    {
      PrioRequest warm(w.graph);
      warm.reduced = &reduced;
      (void)prio::core::prioritize(warm);
    }

    PrioResult reference;
    double serial_total_p50 = 0.0;
    for (const std::size_t threads : thread_counts) {
      PrioRequest request(w.graph);
      request.reduced = &reduced;
      request.options.schedule_threads = threads;
      std::vector<double> total_s, decompose_s, recurse_s, combine_s;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        prio::util::Stopwatch watch;
        PrioResult r = prio::core::prioritize(request);
        total_s.push_back(watch.elapsedSeconds());
        decompose_s.push_back(r.timings.decompose_s);
        recurse_s.push_back(r.timings.recurse_s);
        combine_s.push_back(r.timings.combine_s);
        if (threads == 1 && rep == 0) {
          reference = std::move(r);
        } else if (r.schedule != reference.schedule ||
                   r.priority != reference.priority) {
          ++parity_failures;
        }
      }
      const double p50 = percentile(total_s, 0.5);
      const double p95 = percentile(total_s, 0.95);
      const double edges_per_s =
          p50 > 0.0 ? static_cast<double>(reduced.numEdges()) / p50 : 0.0;
      std::printf(
          "  t=%zu: total p50 %.4fs p95 %.4fs (decompose %.4fs, "
          "schedule %.4fs, combine %.4fs) — %.0f arcs/s%s\n",
          threads, p50, p95, percentile(decompose_s, 0.5),
          percentile(recurse_s, 0.5), percentile(combine_s, 0.5),
          edges_per_s,
          threads == 1 ? ""
                       : (", speedup " +
                          std::to_string(serial_total_p50 / p50) + "x")
                             .c_str());
      const std::string tag = "@t" + std::to_string(threads);
      if (threads == 1) {
        serial_total_p50 = p50;
        metric(w.name + ".total_p50_s" + tag, p50);
        metric(w.name + ".total_p95_s" + tag, p95);
        metric(w.name + ".decompose_p50_s" + tag,
               percentile(decompose_s, 0.5));
        metric(w.name + ".recurse_p50_s" + tag, percentile(recurse_s, 0.5));
        metric(w.name + ".combine_p50_s" + tag, percentile(combine_s, 0.5));
        metric(w.name + ".edges_per_s" + tag, edges_per_s);
      } else if (hw >= threads) {
        // Speedups are only meaningful (and only gated) when the machine
        // actually has that many hardware threads; bench_check.py skips
        // baseline metrics absent from a run.
        metric(w.name + ".speedup" + tag,
               p50 > 0.0 ? serial_total_p50 / p50 : 0.0);
      }
    }

    // Tracing overhead on the smallest paper workload: the traced run
    // records the full span tree (pipeline + phases + schedule items)
    // into a Tracer ring, the untraced run takes the disabled-context
    // branch. The gated metric is the p50 ratio; the baseline pins it
    // near 1 with a wide tolerance, which is exactly the "near-zero
    // overhead when disabled" claim — an accidental always-on span or a
    // lock on the disabled path would blow well past it.
    if (w.name == "airsn") {
      auto timed = [&](const prio::obs::TraceContext& trace) {
        PrioRequest request(w.graph);
        request.reduced = &reduced;
        request.options.trace = trace;
        std::vector<double> runs;
        const std::size_t overhead_reps = std::max<std::size_t>(reps, 5);
        for (std::size_t rep = 0; rep < overhead_reps; ++rep) {
          prio::util::Stopwatch watch;
          (void)prio::core::prioritize(request);
          runs.push_back(watch.elapsedSeconds());
        }
        return percentile(runs, 0.5);
      };
      const double untraced_p50 = timed(prio::obs::TraceContext{});
      prio::obs::Tracer tracer;
      const double traced_p50 = timed(tracer.beginTrace());
      const double ratio =
          untraced_p50 > 0.0 ? traced_p50 / untraced_p50 : 0.0;
      std::printf("  trace overhead: untraced p50 %.4fs traced p50 %.4fs "
                  "(ratio %.3f)\n",
                  untraced_p50, traced_p50, ratio);
      metric("airsn.trace_overhead_ratio", ratio);
    }
  }
  metric("parity_failures", static_cast<double>(parity_failures));

  {
    std::ofstream out("BENCH_core.json");
    out << "{\"bench\":\"core_hotpath\",\"smoke\":" << (smoke ? "true" : "false")
        << ",\"reps\":" << reps << ",\"hardware_concurrency\":" << hw
        << ",\"metrics\":{" << metrics_json << "}}\n";
  }
  std::printf("bench_core_hotpath: parity %s — wrote BENCH_core.json\n",
              parity_failures == 0 ? "OK" : "FAILED");
  return parity_failures == 0 ? 0 : 1;
}
