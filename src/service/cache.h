// The service's two caches, each holding only what a reply renders.
//
// PayloadCache: exact (kind, bytes) of a payload → the reply rendered
// for it. One LRU bounded by the bytes its entries hold, in front of
// everything else: a hit skips decode, fingerprint and render.
//
// ResultCache: sharded LRU of compact PrioResults keyed by structural
// DAG fingerprint — what a dag whose bytes differ (renamed jobs, other
// payload kind) still shares with one seen before. Shard selection
// hashes the fingerprint, so concurrent lookups of different dags almost
// never contend on the same mutex; within a shard a classic
// unordered_map + intrusive LRU list gives O(1) find/insert/evict.
//
// Soundness across fingerprint collisions: the structural fingerprint is
// isomorphism-stable, but a stored result encodes node *ids* — reusing it
// requires the request's id-layout to match the layout the result was
// computed from, not mere isomorphism. Every entry therefore carries the
// layoutHash() of its source dag, and find() only returns entries whose
// layout matches. A fingerprint match with a layout mismatch (an "alias":
// id-permuted isomorphic dag, or an astronomically unlikely hash
// collision) is reported so the service can count it and recompute; both
// layouts then coexist under the same fingerprint key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/prio.h"

namespace prio::service {

/// How a Payload's bytes encode a dag. Mirrors net::PayloadKind (the v3
/// wire payload_kind byte) without depending on the net layer.
enum class PayloadKind : std::uint8_t {
  kDagmanText = 0,  ///< DAGMan input-file text
  kBinaryCsr = 1,   ///< BDAG binary layout (dag/csr.h)
};

/// One dag, as bytes plus the tag saying how to decode them: the service
/// decodes by tag (text parser or binary-CSR decoder) and renders the
/// reply in the same kind (instrumented text / BPRI priority table).
struct Payload {
  PayloadKind kind = PayloadKind::kDagmanText;
  std::string bytes;

  [[nodiscard]] static Payload text(std::string dag_text) {
    return {PayloadKind::kDagmanText, std::move(dag_text)};
  }
  [[nodiscard]] static Payload binary(std::string bdag_bytes) {
    return {PayloadKind::kBinaryCsr, std::move(bdag_bytes)};
  }
};

/// Shared-ownership handle to a memoized result. Replies keep results
/// alive after eviction, so eviction never invalidates an outstanding
/// reply. The service stores compact results: schedule, priority,
/// certified_ic_optimal, shortcuts_removed and timings only.
using CachedResult = std::shared_ptr<const core::PrioResult>;

class PayloadCache {
 public:
  /// What a hit restores into the reply.
  struct Rendered {
    std::string output;  ///< rendered in the payload's own kind
    CachedResult result;
    std::uint64_t fingerprint = 0;
    std::uint64_t layout = 0;
  };

  /// `budget_bytes` bounds the payload plus output bytes held.
  explicit PayloadCache(std::size_t budget_bytes);

  PayloadCache(const PayloadCache&) = delete;
  PayloadCache& operator=(const PayloadCache&) = delete;

  /// Routes a payload to its entry: std::hash of the bytes folded with
  /// the kind. Only routes — the stored payload decides a hit, so a
  /// collision is a miss, never a wrong answer.
  [[nodiscard]] static std::uint64_t keyOf(const Payload& payload) noexcept;

  /// Copies the entry stored under `key` for exactly `payload` into
  /// `out`; a hit refreshes LRU recency.
  [[nodiscard]] bool find(std::uint64_t key, const Payload& payload,
                          Rendered& out);

  /// Stores (or replaces) the entry under `key`, evicting least recently
  /// used entries until it fits. An entry larger than the whole budget is
  /// not stored and evicts nothing.
  void insert(std::uint64_t key, Payload payload, Rendered rendered);

  [[nodiscard]] std::size_t size() const;
  /// Payload plus output bytes currently held.
  [[nodiscard]] std::size_t bytes() const;

 private:
  struct Entry {
    std::uint64_t key = 0;
    Payload payload;
    Rendered rendered;
  };

  const std::size_t budget_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
};

class ResultCache {
 public:
  struct FindOutcome {
    CachedResult result;  ///< non-null on a (layout-verified) hit
    bool alias = false;   ///< fingerprint present but only with other layouts
  };

  /// `capacity` is the total number of retained results across all
  /// shards (split evenly, min 1 each); `num_shards` >= 1.
  ResultCache(std::size_t capacity, std::size_t num_shards);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;
  ~ResultCache();

  /// Looks up (fingerprint, layout); a hit refreshes LRU recency.
  [[nodiscard]] FindOutcome find(std::uint64_t fingerprint,
                                 std::uint64_t layout);

  /// Inserts (or refreshes) the result for (fingerprint, layout),
  /// evicting the shard's least-recently-used entry when full.
  void insert(std::uint64_t fingerprint, std::uint64_t layout,
              CachedResult result);

  /// Current number of retained results (sums shard sizes; approximate
  /// under concurrent mutation).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept;
  [[nodiscard]] std::size_t numShards() const noexcept;
  /// Total LRU evictions so far.
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  struct Shard;
  Shard& shardFor(std::uint64_t fingerprint) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_ = 0;
};

}  // namespace prio::service
