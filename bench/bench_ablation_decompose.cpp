// Ablation for the §3.5 engineering claim: "having [the decomposition]
// first try to identify a bipartite subgraph ... reduced the time to
// decompose the SDSS dag with 48,013 jobs from over 2 days to a few
// minutes."
//
// We compare decompose() with and without the bipartite fast path on
// scaled SDSS- and Montage-shaped dags (the slow path is exercised at
// sizes where it still terminates quickly enough to benchmark), plus the
// transitive reduction that precedes it.
#include <benchmark/benchmark.h>

#include "core/decompose.h"
#include "dag/algorithms.h"
#include "workloads/scientific.h"

namespace {

using prio::core::decompose;
using prio::core::DecomposeOptions;

prio::dag::Digraph sdssScaled(std::size_t fields) {
  return prio::workloads::makeSdss({fields, 6, 3, 20});
}

void BM_DecomposeSdss_FastPath(benchmark::State& state) {
  const auto g = sdssScaled(static_cast<std::size_t>(state.range(0)));
  DecomposeOptions opt;
  opt.bipartite_fast_path = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose(g, opt));
  }
  state.SetLabel(std::to_string(g.numNodes()) + " jobs");
}
BENCHMARK(BM_DecomposeSdss_FastPath)->Arg(25)->Arg(50)->Arg(100);

void BM_DecomposeSdss_GeneralOnly(benchmark::State& state) {
  const auto g = sdssScaled(static_cast<std::size_t>(state.range(0)));
  DecomposeOptions opt;
  opt.bipartite_fast_path = false;  // every component via general search
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose(g, opt));
  }
  state.SetLabel(std::to_string(g.numNodes()) + " jobs");
}
BENCHMARK(BM_DecomposeSdss_GeneralOnly)->Arg(25)->Arg(50)->Arg(100);

void BM_DecomposeMontage_FastPath(benchmark::State& state) {
  const auto g = prio::workloads::makeMontage(
      {static_cast<std::size_t>(state.range(0)), 10, 5});
  DecomposeOptions opt;
  opt.bipartite_fast_path = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose(g, opt));
  }
  state.SetLabel(std::to_string(g.numNodes()) + " jobs");
}
BENCHMARK(BM_DecomposeMontage_FastPath)->Arg(4)->Arg(8);

void BM_DecomposeMontage_GeneralOnly(benchmark::State& state) {
  const auto g = prio::workloads::makeMontage(
      {static_cast<std::size_t>(state.range(0)), 10, 5});
  DecomposeOptions opt;
  opt.bipartite_fast_path = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose(g, opt));
  }
  state.SetLabel(std::to_string(g.numNodes()) + " jobs");
}
BENCHMARK(BM_DecomposeMontage_GeneralOnly)->Arg(4)->Arg(8);

// Shortcut removal (step 1's cost).
void BM_Reduce(benchmark::State& state) {
  const auto g = sdssScaled(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(transitiveReduction(g));
  }
  state.SetLabel(std::to_string(g.numNodes()) + " jobs");
}
BENCHMARK(BM_Reduce)->Arg(50)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
