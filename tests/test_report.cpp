// Tests for the reporting module.
#include <gtest/gtest.h>

#include "core/prio.h"
#include "core/report.h"
#include "workloads/scientific.h"

namespace {

using namespace prio;

TEST(Report, ComponentCensusCountsFamilies) {
  const auto g = workloads::makeAirsn({10, 4});
  const auto r = core::prioritize(core::PrioRequest(g));
  const auto census = core::componentCensus(r);
  // The handle chain peels as W(1,1) pairs.
  ASSERT_TRUE(census.count("W(1,1)"));
  EXPECT_GE(census.at("W(1,1)"), 2u);
  std::size_t total = 0;
  for (const auto& [kind, count] : census) total += count;
  EXPECT_EQ(total, r.decomposition.components.size());
}

TEST(Report, DescribeMentionsKeyFacts) {
  dag::DigraphBuilder gb;
  const auto a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c");
  gb.addEdge(a, b);
  gb.addEdge(b, c);
  gb.addEdge(a, c);  // shortcut
  const dag::Digraph g = gb.build();
  const auto r = core::prioritize(core::PrioRequest(g));
  const std::string text = core::describeResult(g, r);
  EXPECT_NE(text.find("3 jobs"), std::string::npos);
  EXPECT_NE(text.find("shortcut arcs removed : 1"), std::string::npos);
  EXPECT_NE(text.find("certified IC-optimal  : yes"), std::string::npos);
}

TEST(Report, SuperdagDotHasOneNodePerComponent) {
  const auto g = workloads::makeAirsn({8, 3});
  const auto r = core::prioritize(core::PrioRequest(g));
  const std::string dot = core::superdagDot(r);
  std::size_t labels = 0;
  for (std::size_t at = dot.find("pop #"); at != std::string::npos;
       at = dot.find("pop #", at + 1)) {
    ++labels;
  }
  EXPECT_EQ(labels, r.decomposition.components.size());
  EXPECT_NE(dot.find("digraph superdag"), std::string::npos);
}

TEST(Report, PrioritizedDotContainsPriorities) {
  dag::DigraphBuilder gb;
  const auto a = gb.addNode("x");
  gb.addEdge(a, gb.addNode("y"));
  const dag::Digraph g = gb.build();
  const auto r = core::prioritize(core::PrioRequest(g));
  const std::string dot = core::prioritizedDot(g, r);
  EXPECT_NE(dot.find("p=2"), std::string::npos);
  EXPECT_NE(dot.find("p=1"), std::string::npos);
}

}  // namespace
