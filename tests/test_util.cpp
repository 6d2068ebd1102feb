// Tests for the small utility substrates: check macros, timing/memory
// probes, DOT export.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "dag/dot.h"
#include "util/check.h"
#include "util/timing.h"

namespace {

TEST(Check, ThrowsWithLocationAndMessage) {
  try {
    PRIO_CHECK_MSG(1 == 2, "custom context " << 42);
    FAIL() << "should have thrown";
  } catch (const prio::util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context 42"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(PRIO_CHECK(2 + 2 == 4));
}

TEST(Stopwatch, MeasuresElapsedTime) {
  prio::util::Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double t = w.elapsedSeconds();
  EXPECT_GE(t, 0.015);
  EXPECT_LT(t, 5.0);
  w.reset();
  EXPECT_LT(w.elapsedSeconds(), 0.015);
}

TEST(MemoryProbe, ReportsPlausibleValues) {
  const std::size_t peak = prio::util::peakRssKb();
  const std::size_t current = prio::util::currentRssKb();
  EXPECT_GT(peak, 0u);
  EXPECT_GT(current, 0u);
  EXPECT_GE(peak, current / 2);  // peak should not be wildly below current
}

TEST(Dot, BasicStructure) {
  prio::dag::DigraphBuilder gb;
  const auto a = gb.addNode("alpha");
  const auto b = gb.addNode("beta");
  gb.addEdge(a, b);
  const prio::dag::Digraph g = gb.build();
  const std::string dot = prio::dag::toDot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("rankdir=BT"), std::string::npos);
  EXPECT_NE(dot.find("alpha"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(Dot, EscapesQuotesInNames) {
  prio::dag::DigraphBuilder gb;
  gb.addNode("has\"quote");
  const prio::dag::Digraph g = gb.build();
  const std::string dot = prio::dag::toDot(g);
  EXPECT_NE(dot.find("has\\\"quote"), std::string::npos);
}

TEST(Dot, PrioritiesAndColorsValidated) {
  prio::dag::DigraphBuilder gb;
  gb.addNode("a");
  gb.addNode("b");
  const prio::dag::Digraph g = gb.build();
  const std::vector<std::size_t> priorities{2, 1};
  prio::dag::DotOptions opts;
  opts.priorities = priorities;
  const std::string dot = prio::dag::toDot(g, opts);
  EXPECT_NE(dot.find("p=2"), std::string::npos);

  const std::vector<std::size_t> wrong{1};
  prio::dag::DotOptions bad;
  bad.priorities = wrong;
  EXPECT_THROW((void)prio::dag::toDot(g, bad), prio::util::Error);
}

TEST(Dot, FillColors) {
  prio::dag::DigraphBuilder gb;
  gb.addNode("a");
  gb.addNode("b");
  const prio::dag::Digraph g = gb.build();
  const std::vector<std::string> colors{"gray", ""};
  prio::dag::DotOptions opts;
  opts.fill_colors = colors;
  const std::string dot = prio::dag::toDot(g, opts);
  EXPECT_NE(dot.find("fillcolor=\"gray\""), std::string::npos);
  // Node b has no color: exactly one fillcolor directive.
  EXPECT_EQ(dot.find("fillcolor"), dot.rfind("fillcolor"));
}

}  // namespace
