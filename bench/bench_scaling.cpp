// Scaling of the full prioritize() pipeline with dag size, on SDSS-shaped
// dags from ~1.5k to the paper's full 48k jobs. §3.6 reports per-dag
// totals; this bench shows how each phase grows — transitive reduction
// does O(slabs * (V + E*w)) word operations over at most 4,096 columns a
// slab (DESIGN.md §9), and decomposition stays near-linear thanks to the
// parked-seed engineering (DESIGN.md).
#include <cstdio>

#include "core/prio.h"
#include "util/timing.h"
#include "workloads/scientific.h"

int main() {
  using namespace prio;
  std::printf("=== prioritize() scaling on SDSS-shaped dags ===\n");
  std::printf("%8s %9s | %9s %9s %9s %9s | %9s %10s\n", "fields", "jobs",
              "reduce", "decomp", "recurse", "combine", "total",
              "us per job");
  for (const std::size_t fields : {50u, 150u, 400u, 850u, 1700u}) {
    workloads::SdssParams p;
    p.fields = fields;
    p.output_files = 50;
    const auto g = workloads::makeSdss(p);
    const auto r = core::prioritize(core::PrioRequest(g));
    std::printf("%8zu %9zu | %8.3fs %8.3fs %8.3fs %8.3fs | %8.3fs %10.2f\n",
                fields, g.numNodes(), r.timings.reduce_s,
                r.timings.decompose_s, r.timings.recurse_s,
                r.timings.combine_s, r.timings.total_s,
                1e6 * r.timings.total_s /
                    static_cast<double>(g.numNodes()));
  }
  std::printf("\npeak RSS %zu MB\n", util::peakRssKb() / 1024);
  return 0;
}
