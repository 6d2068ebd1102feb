// theory_tour — a guided, runnable walk through the IC-scheduling theory
// the prio tool is built on (§2 of the paper), using the library's exact
// machinery: eligibility profiles, the Fig. 2 families, the ⊵ relation,
// the brute-force ground truth, and the famous negative result.
#include <cstdio>

#include "core/prio.h"
#include "theory/blocks.h"
#include "theory/bruteforce.h"
#include "theory/eligibility.h"
#include "theory/priority.h"

namespace {

using namespace prio;

void printProfile(const char* label, const std::vector<std::size_t>& p) {
  std::printf("%-24s E(t) =", label);
  for (const auto e : p) std::printf(" %zu", e);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== 1. Eligibility is the objective ==\n");
  {
    dag::DigraphBuilder gb;
    const auto a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c"),
               d = gb.addNode("d"), e = gb.addNode("e");
    gb.addEdge(a, b);
    gb.addEdge(c, d);
    gb.addEdge(c, e);
    const dag::Digraph g = gb.build();
    printProfile("schedule c,a,b,d,e:",
                 theory::eligibilityProfile(
                     g, std::vector<dag::NodeId>{c, a, b, d, e}));
    printProfile("schedule a,c,b,d,e:",
                 theory::eligibilityProfile(
                     g, std::vector<dag::NodeId>{a, c, b, d, e}));
    printProfile("the achievable maximum:", theory::maxEligibilityProfile(g));
    std::printf("executing c first dominates at every step: that schedule "
                "is IC-optimal.\n\n");
  }

  std::printf("== 2. The Fig. 2 building blocks ==\n");
  for (const auto& [label, g] :
       std::vector<std::pair<const char*, dag::Digraph>>{
           {"W(2,2)", theory::makeW(2, 2)},
           {"M(2,5)", theory::makeM(2, 5)},
           {"N(2)", theory::makeN(2)},
           {"Clique(3)", theory::makeCliqueDag(3)}}) {
    const auto rec = theory::recognizeBlock(g);
    std::printf("%-10s recognized as %-10s IC-optimal: %s\n", label,
                rec.describe().c_str(),
                theory::isICOptimal(g, rec.schedule) ? "yes" : "NO");
  }

  std::printf("\n== 3. The priority relation orders blocks ==\n");
  {
    const auto w = theory::makeW(1, 3);
    const auto m = theory::makeM(1, 3);
    const auto wp = theory::eligibilityProfile(
        w, std::vector<dag::NodeId>{0});  // its one source
    const auto mr = theory::recognizeBlock(m);
    const auto mp = theory::eligibilityProfile(
        m, std::span<const dag::NodeId>(mr.schedule).first(3));
    std::printf("priority(W(1,3) over M(1,3)) = %.3f  (expand before you "
                "contract)\n",
                theory::pairPriority(wp, mp));
    std::printf("priority(M(1,3) over W(1,3)) = %.3f\n",
                theory::pairPriority(mp, wp));
  }

  std::printf("\n== 4. Some dags admit NO IC-optimal schedule ==\n");
  {
    dag::DigraphBuilder gb;
    const auto a = gb.addNode("a");
    gb.addEdge(a, gb.addNode("b"));
    const auto c = gb.addNode("c"), d = gb.addNode("d");
    const auto e = gb.addNode("e"), f = gb.addNode("f");
    gb.addEdge(c, e);
    gb.addEdge(c, f);
    gb.addEdge(d, e);
    gb.addEdge(d, f);
    const dag::Digraph g = gb.build();
    std::printf("a 2-chain beside K(2,2): exact DP says IC-optimal "
                "schedule exists? %s\n",
                theory::findICOptimalSchedule(g) ? "yes" : "no");
    const auto r = core::prioritize(core::PrioRequest(g));
    std::printf("the heuristic still schedules it (IC quality %.3f, "
                "certified: %s) — that graceful degradation is the "
                "paper's whole point.\n",
                theory::icQuality(g, r.schedule),
                r.certified_ic_optimal ? "yes" : "no");
  }
  return 0;
}
