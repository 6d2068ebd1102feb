// Property tests: block recognition is invariant under node relabeling
// (recognizers must depend only on structure, not on id order), and
// perturbed family instances are never accepted as IC-optimal families.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "builder_from.h"
#include "dag/algorithms.h"
#include "stats/rng.h"
#include "theory/blocks.h"
#include "theory/bruteforce.h"
#include "util/check.h"

namespace {

using namespace prio::dag;
using namespace prio::theory;
using prio::stats::Rng;

// Relabels g's nodes by a random permutation (names preserved per node).
Digraph shuffled(const Digraph& g, Rng& rng) {
  std::vector<NodeId> perm(g.numNodes());
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  // perm[old] = new id; build in new-id order.
  std::vector<NodeId> inverse(perm.size());
  for (NodeId old = 0; old < perm.size(); ++old) inverse[perm[old]] = old;
  DigraphBuilder out;
  out.reserveNodes(g.numNodes());
  for (NodeId fresh = 0; fresh < g.numNodes(); ++fresh) {
    out.addNode(g.name(inverse[fresh]));
  }
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) out.addEdge(perm[u], perm[v]);
  }
  return out.build();
}

class RecognizerInvariance : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RecognizerInvariance, RelabelingPreservesFamilyAndOptimality) {
  Rng rng(GetParam());
  const std::vector<Digraph> family{
      makeW(3, 3),         makeM(3, 3),   makeN(4),
      makeCycleDag(4),     makeCliqueDag(4), makeCompleteBipartite(3, 3),
      makeW(1, 5),         makeM(2, 4)};
  for (const Digraph& g : family) {
    const auto base = recognizeBlock(g);
    for (int trial = 0; trial < 3; ++trial) {
      const Digraph h = shuffled(g, rng);
      const auto rec = recognizeBlock(h);
      EXPECT_EQ(rec.kind, base.kind)
          << base.describe() << " misrecognized as " << rec.describe();
      EXPECT_EQ(rec.a, base.a);
      EXPECT_EQ(rec.b, base.b);
      ASSERT_TRUE(rec.ic_optimal);
      EXPECT_TRUE(isICOptimal(h, rec.schedule))
          << "relabeled " << base.describe() << " got a non-optimal order";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecognizerInvariance,
                         ::testing::Values(1u, 2u, 3u, 4u));

class PerturbationRejection : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PerturbationRejection, EdgeAdditionsNeverYieldFalseCertificates) {
  // Adding a random extra source->sink arc to a family instance either
  // moves it to another recognized family (whose schedule must still be
  // IC-optimal) or drops it to a non-certified kind — never a certified
  // schedule that brute force rejects.
  Rng rng(GetParam());
  const std::vector<Digraph> family{makeW(3, 2), makeM(3, 2), makeN(4),
                                    makeCycleDag(4), makeCliqueDag(4)};
  for (const Digraph& base : family) {
    for (int trial = 0; trial < 4; ++trial) {
      DigraphBuilder gb = prio::testing::builderFrom(base);
      const auto sources = base.sources();
      const auto sinks = base.sinks();
      const NodeId s = sources[rng.below(sources.size())];
      const NodeId t = sinks[rng.below(sinks.size())];
      if (!gb.addEdge(s, t)) continue;  // duplicate arc: unchanged dag
      const Digraph g = gb.build();
      const auto rec = recognizeBlock(g);
      EXPECT_TRUE(isTopologicalOrder(g, rec.schedule));
      if (rec.ic_optimal) {
        EXPECT_TRUE(isICOptimal(g, rec.schedule))
            << "false certificate after perturbing " << rec.describe();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerturbationRejection,
                         ::testing::Values(11u, 12u, 13u, 14u));

TEST(PerturbationRejection, EdgeRemovalDisconnectsOrReclassifies) {
  // Removing the only arc of a 2-chain leaves two singletons: no longer
  // connected, so recognition must fall back to generic.
  DigraphBuilder gb;
  gb.addNode("a");
  gb.addNode("b");
  const Digraph g = gb.build();
  const auto rec = recognizeBlock(g);
  EXPECT_EQ(rec.kind, BlockKind::kGeneric);
  EXPECT_EQ(rec.schedule.size(), 2u);
}

}  // namespace
