#include "service/cache.h"

#include <functional>
#include <iterator>
#include <mutex>
#include <string_view>
#include <utility>

#include "util/check.h"

namespace prio::service {

namespace {

// Key = (fingerprint, layout). The fingerprint picks the shard; the full
// pair is the map key, so aliased layouts are independent entries.
struct Key {
  std::uint64_t fingerprint;
  std::uint64_t layout;
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    // fingerprint and layout are already avalanche-mixed; fold them.
    return static_cast<std::size_t>(k.fingerprint ^ (k.layout * 0x9e3779b97f4a7c15ULL));
  }
};

}  // namespace

PayloadCache::PayloadCache(std::size_t budget_bytes) : budget_(budget_bytes) {}

std::uint64_t PayloadCache::keyOf(const Payload& payload) noexcept {
  const std::uint64_t h = std::hash<std::string_view>{}(payload.bytes);
  return h ^ (static_cast<std::uint64_t>(payload.kind) * 0x9e3779b97f4a7c15ULL);
}

bool PayloadCache::find(std::uint64_t key, const Payload& payload,
                        Rendered& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end() || it->second->payload.kind != payload.kind ||
      it->second->payload.bytes != payload.bytes) {
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  out = it->second->rendered;
  return true;
}

void PayloadCache::insert(std::uint64_t key, Payload payload,
                          Rendered rendered) {
  const std::size_t cost = payload.bytes.size() + rendered.output.size();
  if (cost > budget_) return;
  // Build the node before taking the lock, and free whatever it displaces
  // after releasing it: the lock covers list and index updates only.
  std::list<Entry> node;
  node.push_back(Entry{key, std::move(payload), std::move(rendered)});
  std::list<Entry> displaced;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto drop = [&](std::list<Entry>::iterator victim) {
    bytes_ -= victim->payload.bytes.size() + victim->rendered.output.size();
    index_.erase(victim->key);
    displaced.splice(displaced.end(), lru_, victim);
  };
  if (const auto it = index_.find(key); it != index_.end()) drop(it->second);
  while (bytes_ + cost > budget_) drop(std::prev(lru_.end()));
  lru_.splice(lru_.begin(), node);
  index_.emplace(key, lru_.begin());
  bytes_ += cost;
}

std::size_t PayloadCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::size_t PayloadCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

struct ResultCache::Shard {
  struct Entry {
    Key key;
    CachedResult result;
  };

  mutable std::mutex mutex;
  // Front = most recently used.
  std::list<Entry> lru;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
  // Layout-count per fingerprint, for alias detection in O(1).
  std::unordered_map<std::uint64_t, std::size_t> fingerprint_count;
  std::uint64_t evictions = 0;
};

ResultCache::ResultCache(std::size_t capacity, std::size_t num_shards) {
  PRIO_CHECK_MSG(num_shards >= 1, "ResultCache needs at least one shard");
  per_shard_capacity_ = capacity / num_shards;
  if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::~ResultCache() = default;

ResultCache::Shard& ResultCache::shardFor(std::uint64_t fingerprint) const {
  // The fingerprint's low bits are already well mixed (splitmix64
  // finalizer); modulo spreads them over the shards.
  return *shards_[static_cast<std::size_t>(fingerprint % shards_.size())];
}

ResultCache::FindOutcome ResultCache::find(std::uint64_t fingerprint,
                                           std::uint64_t layout) {
  Shard& s = shardFor(fingerprint);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(Key{fingerprint, layout});
  if (it == s.index.end()) {
    const auto fc = s.fingerprint_count.find(fingerprint);
    return FindOutcome{nullptr, fc != s.fingerprint_count.end() && fc->second > 0};
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  return FindOutcome{it->second->result, false};
}

void ResultCache::insert(std::uint64_t fingerprint, std::uint64_t layout,
                         CachedResult result) {
  const Key key{fingerprint, layout};
  Shard& s = shardFor(fingerprint);
  std::lock_guard<std::mutex> lock(s.mutex);
  if (const auto it = s.index.find(key); it != s.index.end()) {
    it->second->result = std::move(result);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  if (s.lru.size() >= per_shard_capacity_) {
    const auto& victim = s.lru.back();
    if (auto fc = s.fingerprint_count.find(victim.key.fingerprint);
        fc != s.fingerprint_count.end() && --fc->second == 0) {
      s.fingerprint_count.erase(fc);
    }
    s.index.erase(victim.key);
    s.lru.pop_back();
    ++s.evictions;
  }
  s.lru.push_front(Shard::Entry{key, std::move(result)});
  s.index.emplace(key, s.lru.begin());
  ++s.fingerprint_count[fingerprint];
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    total += s->lru.size();
  }
  return total;
}

std::size_t ResultCache::capacity() const noexcept {
  return per_shard_capacity_ * shards_.size();
}

std::size_t ResultCache::numShards() const noexcept { return shards_.size(); }

std::uint64_t ResultCache::evictions() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    total += s->evictions;
  }
  return total;
}

}  // namespace prio::service
