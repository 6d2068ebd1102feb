// Tests for the Fig. 2 building-block families: constructors, recognizers
// and — crucially — brute-force certification that every explicit family
// schedule is IC-optimal.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "builder_from.h"
#include "dag/algorithms.h"
#include "theory/blocks.h"
#include "theory/bruteforce.h"
#include "theory/eligibility.h"
#include "util/check.h"

namespace {

using namespace prio::dag;
using namespace prio::theory;

// ---- Constructors ----

TEST(MakeW, NodeAndEdgeCounts) {
  for (std::size_t a : {1u, 2u, 3u, 5u}) {
    for (std::size_t b : {2u, 3u, 4u}) {
      const Digraph g = makeW(a, b);
      EXPECT_EQ(g.numNodes(), a + (a * b - (a - 1)));
      EXPECT_EQ(g.numEdges(), a * b);
      EXPECT_TRUE(isBipartiteDag(g));
      EXPECT_TRUE(isConnected(g));
      EXPECT_EQ(g.sources().size(), a);
    }
  }
}

TEST(MakeW, RejectsBadParameters) {
  EXPECT_THROW((void)makeW(0, 2), prio::util::Error);
  EXPECT_THROW((void)makeW(2, 1), prio::util::Error);
}

TEST(MakeM, IsReversedW) {
  const Digraph w = makeW(3, 2);
  const Digraph m = makeM(3, 2);
  EXPECT_EQ(m.numNodes(), w.numNodes());
  EXPECT_EQ(m.numEdges(), w.numEdges());
  EXPECT_EQ(m.sources().size(), w.sinks().size());
  EXPECT_EQ(m.sinks().size(), w.sources().size());
}

TEST(MakeN, Structure) {
  for (std::size_t d : {2u, 3u, 5u}) {
    const Digraph g = makeN(d);
    EXPECT_EQ(g.numNodes(), 2 * d);
    EXPECT_EQ(g.numEdges(), 2 * d - 1);
    EXPECT_TRUE(isBipartiteDag(g));
    EXPECT_TRUE(isConnected(g));
  }
  EXPECT_THROW((void)makeN(1), prio::util::Error);
}

TEST(MakeCycleDag, Structure) {
  for (std::size_t d : {2u, 3u, 4u, 6u}) {
    const Digraph g = makeCycleDag(d);
    EXPECT_EQ(g.numNodes(), 2 * d);
    EXPECT_EQ(g.numEdges(), 2 * d);
    EXPECT_TRUE(isBipartiteDag(g));
    EXPECT_TRUE(isConnected(g));
    for (NodeId u = 0; u < g.numNodes(); ++u) {
      EXPECT_EQ(g.isSink(u) ? g.inDegree(u) : g.outDegree(u), 2u);
    }
  }
  EXPECT_THROW((void)makeCycleDag(1), prio::util::Error);
}

TEST(MakeCliqueDag, Structure) {
  for (std::size_t q : {2u, 3u, 4u, 5u}) {
    const Digraph g = makeCliqueDag(q);
    EXPECT_EQ(g.numNodes(), q + q * (q - 1) / 2);
    EXPECT_EQ(g.numEdges(), q * (q - 1));
    EXPECT_TRUE(isBipartiteDag(g));
  }
}

// ---- Recognition ----

TEST(RecognizeBlock, Singleton) {
  DigraphBuilder gb;
  gb.addNode("solo");
  const Digraph g = gb.build();
  const auto r = recognizeBlock(g);
  EXPECT_EQ(r.kind, BlockKind::kSingleton);
  EXPECT_TRUE(r.ic_optimal);
  EXPECT_EQ(r.schedule, (std::vector<NodeId>{0}));
}

TEST(RecognizeBlock, Fig2Samples) {
  // The seven dags drawn in Fig. 2.
  EXPECT_EQ(recognizeBlock(makeW(1, 2)).describe(), "W(1,2)");
  EXPECT_EQ(recognizeBlock(makeW(2, 2)).describe(), "W(2,2)");
  EXPECT_EQ(recognizeBlock(makeM(1, 5)).describe(), "M(1,5)");
  EXPECT_EQ(recognizeBlock(makeM(2, 5)).describe(), "M(2,5)");
  EXPECT_EQ(recognizeBlock(makeCliqueDag(3)).describe(), "Clique(3)");
  EXPECT_EQ(recognizeBlock(makeCycleDag(2)).describe(), "Cycle(2)");
  EXPECT_EQ(recognizeBlock(makeN(2)).describe(), "N(2)");
}

TEST(RecognizeBlock, NonBipartiteIsGeneric) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c");
  gb.addEdge(a, b);
  gb.addEdge(b, c);
  const Digraph g = gb.build();
  const auto r = recognizeBlock(g);
  EXPECT_EQ(r.kind, BlockKind::kGeneric);
  EXPECT_FALSE(r.ic_optimal);
  EXPECT_TRUE(isTopologicalOrder(g, r.schedule));
}

TEST(RecognizeBlock, DisconnectedIsGeneric) {
  DigraphBuilder gb;
  gb.addNode("a");
  gb.addNode("b");
  const Digraph g = gb.build();
  const auto r = recognizeBlock(g);
  EXPECT_EQ(r.kind, BlockKind::kGeneric);
}

TEST(RecognizeBlock, PerturbedWFallsBack) {
  // W(3,2) plus one extra arc making a sink have 3 parents: no family.
  const Digraph w = makeW(3, 2);
  DigraphBuilder gb = prio::testing::builderFrom(w);
  gb.addEdge(0, w.sinks().back());
  const Digraph g = gb.build();
  const auto r = recognizeBlock(g);
  EXPECT_EQ(r.kind, BlockKind::kBipartiteGeneric);
  EXPECT_FALSE(r.ic_optimal);
  EXPECT_TRUE(isTopologicalOrder(g, r.schedule));
}

TEST(RecognizeBlock, UnevenFanoutIsBipartiteGeneric) {
  DigraphBuilder gb;
  const NodeId s1 = gb.addNode("s1"), s2 = gb.addNode("s2");
  const NodeId t1 = gb.addNode("t1"), t2 = gb.addNode("t2"),
               t3 = gb.addNode("t3");
  gb.addEdge(s1, t1);
  gb.addEdge(s1, t2);
  gb.addEdge(s1, t3);
  gb.addEdge(s2, t3);
  const Digraph g = gb.build();
  const auto r = recognizeBlock(g);  // outdegrees 3 and 1: no family
  EXPECT_EQ(r.kind, BlockKind::kBipartiteGeneric);
}

TEST(RecognizeBlock, ScheduleIsAlwaysCompleteAndValid) {
  for (const Digraph& g :
       {makeW(4, 3), makeM(4, 3), makeN(5), makeCycleDag(5),
        makeCliqueDag(4)}) {
    const auto r = recognizeBlock(g);
    EXPECT_EQ(r.schedule.size(), g.numNodes());
    EXPECT_TRUE(isTopologicalOrder(g, r.schedule));
    // Non-sinks strictly before sinks.
    bool seen_sink = false;
    for (NodeId u : r.schedule) {
      if (g.isSink(u)) {
        seen_sink = true;
      } else {
        EXPECT_FALSE(seen_sink);
      }
    }
  }
}

// ---- IC-optimality of the explicit schedules (brute force) ----

class WFamily
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(WFamily, ExplicitScheduleIsICOptimal) {
  const auto [a, b] = GetParam();
  const Digraph g = makeW(a, b);
  const auto r = recognizeBlock(g);
  ASSERT_EQ(r.kind, BlockKind::kW);
  EXPECT_EQ(r.a, a);
  EXPECT_EQ(r.b, b);
  ASSERT_TRUE(r.ic_optimal);
  EXPECT_TRUE(isICOptimal(g, r.schedule));
}

INSTANTIATE_TEST_SUITE_P(
    Params, WFamily,
    ::testing::Values(std::tuple{1u, 2u}, std::tuple{1u, 5u},
                      std::tuple{2u, 2u}, std::tuple{2u, 3u},
                      std::tuple{3u, 2u}, std::tuple{3u, 3u},
                      std::tuple{4u, 2u}, std::tuple{5u, 3u}));

class MFamily
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(MFamily, ExplicitScheduleIsICOptimal) {
  const auto [a, b] = GetParam();
  const Digraph g = makeM(a, b);
  const auto r = recognizeBlock(g);
  ASSERT_EQ(r.kind, BlockKind::kM);
  EXPECT_EQ(r.a, a);
  EXPECT_EQ(r.b, b);
  ASSERT_TRUE(r.ic_optimal);
  EXPECT_TRUE(isICOptimal(g, r.schedule));
}

INSTANTIATE_TEST_SUITE_P(
    Params, MFamily,
    ::testing::Values(std::tuple{1u, 2u}, std::tuple{1u, 5u},
                      std::tuple{2u, 2u}, std::tuple{2u, 3u},
                      std::tuple{2u, 5u}, std::tuple{3u, 2u},
                      std::tuple{3u, 3u}, std::tuple{4u, 2u}));

class NFamily : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NFamily, ExplicitScheduleIsICOptimal) {
  const std::size_t d = GetParam();
  const Digraph g = makeN(d);
  const auto r = recognizeBlock(g);
  ASSERT_EQ(r.kind, BlockKind::kN);
  EXPECT_EQ(r.a, d);
  ASSERT_TRUE(r.ic_optimal);
  EXPECT_TRUE(isICOptimal(g, r.schedule));
}

INSTANTIATE_TEST_SUITE_P(Params, NFamily,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 8u));

class CycleFamily : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CycleFamily, ExplicitScheduleIsICOptimal) {
  const std::size_t d = GetParam();
  const Digraph g = makeCycleDag(d);
  const auto r = recognizeBlock(g);
  if (d == 3) {
    // Cycle(3) == Clique(3); the recognizer reports the clique label.
    EXPECT_EQ(r.kind, BlockKind::kClique);
  } else {
    EXPECT_EQ(r.kind, BlockKind::kCycle);
    EXPECT_EQ(r.a, d);
  }
  ASSERT_TRUE(r.ic_optimal);
  EXPECT_TRUE(isICOptimal(g, r.schedule));
}

INSTANTIATE_TEST_SUITE_P(Params, CycleFamily,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 8u));

class CliqueFamily : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CliqueFamily, ExplicitScheduleIsICOptimal) {
  const std::size_t q = GetParam();
  const Digraph g = makeCliqueDag(q);
  const auto r = recognizeBlock(g);
  if (q == 2) {
    EXPECT_EQ(r.kind, BlockKind::kM);  // Clique(2) == M(1,2)
  } else {
    EXPECT_EQ(r.kind, BlockKind::kClique);
    EXPECT_EQ(r.a, q);
  }
  ASSERT_TRUE(r.ic_optimal);
  EXPECT_TRUE(isICOptimal(g, r.schedule));
}

INSTANTIATE_TEST_SUITE_P(Params, CliqueFamily,
                         ::testing::Values(2u, 3u, 4u, 5u));

// ---- Complete bipartite K(a,b) (extension family) ----

class KFamily
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(KFamily, RecognizedAndICOptimal) {
  const auto [a, b] = GetParam();
  const Digraph g = makeCompleteBipartite(a, b);
  const auto r = recognizeBlock(g);
  if (a == 2 && b == 2) {
    EXPECT_EQ(r.kind, BlockKind::kCycle);  // K(2,2) == the 4-cycle
  } else if (a == 1 || b == 1) {
    EXPECT_TRUE(r.kind == BlockKind::kW || r.kind == BlockKind::kM);
  } else {
    EXPECT_EQ(r.kind, BlockKind::kCompleteBipartite);
    EXPECT_EQ(r.a, a);
    EXPECT_EQ(r.b, b);
  }
  ASSERT_TRUE(r.ic_optimal);
  EXPECT_TRUE(isICOptimal(g, r.schedule));
}

INSTANTIATE_TEST_SUITE_P(
    Params, KFamily,
    ::testing::Values(std::tuple{1u, 4u}, std::tuple{4u, 1u},
                      std::tuple{2u, 2u}, std::tuple{2u, 3u},
                      std::tuple{3u, 2u}, std::tuple{3u, 4u},
                      std::tuple{4u, 4u}));

TEST(MakeCompleteBipartite, CountsAndValidation) {
  const Digraph g = makeCompleteBipartite(3, 5);
  EXPECT_EQ(g.numNodes(), 8u);
  EXPECT_EQ(g.numEdges(), 15u);
  EXPECT_TRUE(isBipartiteDag(g));
  EXPECT_THROW((void)makeCompleteBipartite(0, 3), prio::util::Error);
}

// ---- Fallback schedules ----

TEST(OutdegreeSchedule, PrefersHighOutdegreeButRespectsPrecedence) {
  DigraphBuilder gb;
  const NodeId big = gb.addNode("big");     // outdegree 3
  const NodeId small = gb.addNode("small"); // outdegree 1
  const NodeId gate = gb.addNode("gate");   // child of small, outdegree 2
  for (const char* name : {"b0", "b1", "b2"}) gb.addEdge(big, gb.addNode(name));
  gb.addEdge(small, gate);
  gb.addEdge(gate, gb.addNode("g0"));
  gb.addEdge(gate, gb.addNode("g1"));
  const Digraph g = gb.build();
  const auto order = outdegreeSchedule(g);
  EXPECT_TRUE(isTopologicalOrder(g, order));
  // big (outdeg 3) first; gate (outdeg 2) must wait for small.
  EXPECT_EQ(order[0], big);
  EXPECT_EQ(order[1], small);
  EXPECT_EQ(order[2], gate);
}

TEST(OutdegreeSchedule, ChainStaysInOrder) {
  DigraphBuilder gb;
  NodeId prev = gb.addNode();
  for (int i = 1; i < 6; ++i) {
    const NodeId next = gb.addNode();
    gb.addEdge(prev, next);
    prev = next;
  }
  const Digraph g = gb.build();
  const auto order = outdegreeSchedule(g);
  EXPECT_TRUE(isTopologicalOrder(g, order));
}

TEST(GreedyBipartiteSchedule, ValidAndSinksLast) {
  const Digraph g = makeW(4, 3);
  const auto order = greedyBipartiteSchedule(g);
  EXPECT_TRUE(isTopologicalOrder(g, order));
  bool seen_sink = false;
  for (NodeId u : order) {
    if (g.isSink(u)) {
      seen_sink = true;
    } else {
      EXPECT_FALSE(seen_sink);
    }
  }
}

TEST(GreedyBipartiteSchedule, FallsBackOnNonBipartite) {
  DigraphBuilder gb;
  const NodeId a = gb.addNode("a"), b = gb.addNode("b"), c = gb.addNode("c");
  gb.addEdge(a, b);
  gb.addEdge(b, c);
  const Digraph g = gb.build();
  EXPECT_TRUE(isTopologicalOrder(g, greedyBipartiteSchedule(g)));
}

}  // namespace
