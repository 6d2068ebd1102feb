// Quickstart: build a small dag, run the prio heuristic, inspect the
// schedule, priorities and eligibility profile.
//
// This reproduces the paper's Fig. 3 example (IV.dag): five jobs a..e
// with dependencies a->b, c->d, c->e. The PRIO schedule is c,a,b,d,e and
// job c receives the highest priority (5).
#include <cstdio>

#include "core/prio.h"
#include "dag/digraph.h"
#include "theory/bruteforce.h"
#include "theory/eligibility.h"

int main() {
  using namespace prio;

  // 1. Describe the computation as a dag: add jobs and dependencies to
  // a builder, then build the immutable graph.
  dag::DigraphBuilder builder;
  const auto a = builder.addNode("a");
  const auto b = builder.addNode("b");
  const auto c = builder.addNode("c");
  const auto d = builder.addNode("d");
  const auto e = builder.addNode("e");
  builder.addEdge(a, b);
  builder.addEdge(c, d);
  builder.addEdge(c, e);
  const dag::Digraph g = builder.build();

  // 2. Run the scheduling heuristic.
  const core::PrioResult result = core::prioritize(core::PrioRequest(g));

  std::printf("PRIO schedule :");
  for (const auto u : result.schedule) std::printf(" %s", g.name(u).c_str());
  std::printf("\npriorities    :");
  for (dag::NodeId u = 0; u < g.numNodes(); ++u) {
    std::printf(" %s=%zu", g.name(u).c_str(), result.priority[u]);
  }
  std::printf("\ncomponents    : %zu (shortcuts removed: %zu)\n",
              result.decomposition.components.size(),
              result.shortcuts_removed);
  for (std::size_t i = 0; i < result.component_schedules.size(); ++i) {
    std::printf("  component %zu: %s, %zu jobs\n", i,
                result.component_schedules[i].recognition.describe().c_str(),
                result.decomposition.components[i].nodes.size());
  }

  // 3. Inspect the eligibility profile E(t) — the quantity PRIO maximizes.
  const auto prio_profile = theory::eligibilityProfile(g, result.schedule);
  const auto fifo_profile =
      theory::eligibilityProfile(g, core::fifoSchedule(g));
  std::printf("step :  E_PRIO  E_FIFO\n");
  for (std::size_t t = 0; t < prio_profile.size(); ++t) {
    std::printf("%4zu :  %6zu  %6zu\n", t, prio_profile[t], fifo_profile[t]);
  }

  // 4. The certificate: this dag is small and composable, so the
  // heuristic provably produced an IC-optimal schedule.
  std::printf("certified IC-optimal: %s\n",
              result.certified_ic_optimal ? "yes" : "no");
  std::printf("brute-force check   : %s\n",
              theory::isICOptimal(g, result.schedule) ? "IC-optimal"
                                                      : "NOT optimal");
  return 0;
}
