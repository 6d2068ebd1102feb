// Seeded inputs of the priod_server benchmark and their reference replies.
//
// Every dag a workload sends is generated here from the run's seed, by one
// of the repo's generator families, and rendered into the bytes a client
// would send: DAGMan text or a BDAG binary payload (dag/csr.h). Next to
// each payload sits the reply a direct core::prioritize() call renders for
// it, computed before any timing starts, so every server reply is checked
// byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dag/digraph.h"
#include "stats/rng.h"

namespace perfbench {

enum class Kind : std::uint8_t { kText, kBinary };

/// One dag as the benchmark sends it: payload bytes plus expected reply.
/// Byte strings are shared, so repeated pool entries cost no copies.
struct Item {
  Kind kind = Kind::kText;
  std::shared_ptr<const std::string> payload;
  std::shared_ptr<const std::string> expected;
  std::size_t jobs = 0;
  std::uint32_t family = 0;  ///< index into familyNames()
};

/// One wire request: a single payload, or a batch frame of several.
struct Request {
  bool batch = false;
  std::vector<Item> items;
  /// Batch requests: the encoded kBatchRequest envelope of `items`.
  std::shared_ptr<const std::string> envelope;
};

[[nodiscard]] const std::vector<std::string>& familyNames();

/// A generated dag with job names; node ids follow declaration order.
struct NamedDag {
  prio::dag::Digraph graph;
  std::uint32_t family = 0;
};

/// Draws one dag of roughly `target_jobs` jobs from the family.
[[nodiscard]] NamedDag generateDag(std::uint32_t family,
                                   std::size_t target_jobs, prio::stats::Rng& rng);

/// The miss-mix families: random layered/composable/Erdős–Rényi,
/// Pegasus CyberShake/Epigenomics, scaled AIRSN/Inspiral/Montage.
[[nodiscard]] std::vector<std::uint32_t> mixFamilies();

/// Paper-scale variations for large-dag: Inspiral, Montage, SDSS.
enum LargeFamily : std::uint32_t { kLargeInspiral, kLargeMontage, kLargeSdss };
[[nodiscard]] NamedDag generateLargeDag(LargeFamily which, prio::stats::Rng& rng);

/// Renders `g` with job names `<prefix><id>`: the DAGMan text or BDAG
/// payload, and the reply prioritize() gives for it in the same kind.
/// `priorities` (indexed by node id) may be passed in when already known;
/// otherwise they are computed, along with the dag's structural
/// fingerprint (dag/fingerprint.h).
struct Rendered {
  std::shared_ptr<const std::string> text, text_expected;
  std::shared_ptr<const std::string> binary, binary_expected;
  std::vector<std::size_t> priorities;
  std::uint64_t fingerprint = 0;
};
[[nodiscard]] Rendered render(const prio::dag::Digraph& g, const std::string& prefix,
                              bool want_text, bool want_binary,
                              const std::vector<std::size_t>* priorities =
                                  nullptr);

/// True when `priorities` is a permutation of 1..n with prio[u] > prio[v]
/// for every arc u -> v of g.
[[nodiscard]] bool validPriorities(const prio::dag::Digraph& g,
                                   const std::vector<std::size_t>& priorities);

/// FNV-1a over every payload of the set, in order: the input-set digest
/// printed by each run (same seed, same digest).
[[nodiscard]] std::uint64_t digest(const std::vector<Request>& requests);

}  // namespace perfbench
