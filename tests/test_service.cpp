// Tests for the priod service stack: util concurrency primitives, the
// structural dag fingerprint, the result and payload caches, and PrioService
// itself (parity with serial runs, caching, backpressure, failure
// isolation, DAGMan file requests, and a TSan-runnable stress test).
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/prio.h"
#include "dag/fingerprint.h"
#include "dagman/dagman_file.h"
#include "service/cache.h"
#include "service/service.h"
#include "stats/rng.h"
#include "util/bounded_queue.h"
#include "util/thread_pool.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using prio::dag::Digraph;
using prio::dag::DigraphBuilder;
using prio::dag::NodeId;
using prio::service::BackpressurePolicy;
using prio::service::FileRequest;
using prio::service::Payload;
using prio::service::PayloadCache;
using prio::service::PrioService;
using prio::service::Reply;
using prio::service::RequestStatus;
using prio::service::ResultCache;
using prio::service::ServiceConfig;

// ---------------------------------------------------------------- helpers

// Same ids and arcs, fresh names.
Digraph renamed(const Digraph& g, const std::string& tag) {
  DigraphBuilder out;
  out.reserveNodes(g.numNodes());
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    out.addNode(tag + std::to_string(u));
  }
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) out.addEdge(u, v);
  }
  return out.build();
}

// Isomorphic copy with node ids permuted by `perm` (perm[old] = new) and
// fresh names — same structure, different id layout.
Digraph permuted(const Digraph& g, const std::vector<NodeId>& perm) {
  DigraphBuilder out;
  out.reserveNodes(g.numNodes());
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    std::string name = "p";
    name += std::to_string(u);
    out.addNode(std::move(name));
  }
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) out.addEdge(perm[u], perm[v]);
  }
  return out.build();
}

std::vector<NodeId> reversePermutation(std::size_t n) {
  std::vector<NodeId> perm(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm[i] = static_cast<NodeId>(n - 1 - i);
  }
  return perm;
}

Digraph chain3() {
  DigraphBuilder g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c");
  g.addEdge(a, b);
  g.addEdge(b, c);
  return g.build();
}

Digraph fork3() {
  DigraphBuilder g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c");
  g.addEdge(a, b);
  g.addEdge(a, c);
  return g.build();
}

std::vector<Digraph> mixedWorkload() {
  namespace wl = prio::workloads;
  prio::stats::Rng rng(7);
  std::vector<Digraph> dags;
  dags.push_back(wl::makeAirsn({10, 3}));
  dags.push_back(wl::makeInspiral({4, 3}));
  dags.push_back(wl::makeMontage({3, 4, 2}));
  dags.push_back(wl::makeSdss({6, 3, 2, 4}));
  for (int i = 0; i < 6; ++i) {
    dags.push_back(wl::randomDag(40, 0.08, rng));
    dags.push_back(wl::randomComposable(25, rng));
  }
  return dags;
}

// ------------------------------------------------------------ BoundedQueue

TEST(BoundedQueue, FifoAndTryPushRejectsWhenFull) {
  prio::util::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.tryPush(1));
  EXPECT_TRUE(q.tryPush(2));
  EXPECT_FALSE(q.tryPush(3));  // full
  EXPECT_EQ(q.highWater(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.tryPush(4));
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 4);
}

TEST(BoundedQueue, CloseDrainsThenSignalsShutdown) {
  prio::util::BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));     // closed
  EXPECT_FALSE(q.tryPush(3));  // closed
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // drained + closed
}

TEST(BoundedQueue, BlockingPushWakesWhenConsumerDrains) {
  prio::util::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.tryPush(0));
  std::thread producer([&q] {
    for (int i = 1; i <= 50; ++i) ASSERT_TRUE(q.push(i));
    q.close();
  });
  int expected = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, expected++);
  }
  EXPECT_EQ(expected, 51);
  producer.join();
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTaskAcrossThreads) {
  std::atomic<int> sum{0};
  {
    prio::util::ThreadPool pool(4, 8);
    for (int i = 1; i <= 100; ++i) {
      ASSERT_TRUE(pool.submit([&sum, i] {
        sum.fetch_add(i, std::memory_order_relaxed);
      }));
    }
  }  // destructor drains
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, TrySubmitRejectsOnlyWhenQueueFull) {
  // One worker blocked on a gate; capacity-1 queue fills after one
  // pending task.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  auto started = std::make_shared<std::promise<void>>();
  prio::util::ThreadPool pool(1, 1);
  ASSERT_TRUE(pool.submit([opened, started] {
    started->set_value();
    opened.wait();
  }));
  started->get_future().wait();  // worker is now occupied; queue is empty
  bool saw_reject = false;
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (pool.trySubmit([] {})) {
      ++accepted;
    } else {
      saw_reject = true;
    }
  }
  EXPECT_TRUE(saw_reject);
  EXPECT_EQ(accepted, 1);  // exactly one fits the capacity-1 queue
  gate.set_value();
  pool.shutdown();
}

// ------------------------------------------------------------- Fingerprint

TEST(Fingerprint, StableUnderRenamingAndIdPermutation) {
  for (const Digraph& g : mixedWorkload()) {
    const std::uint64_t fp = prio::dag::structuralFingerprint(g);
    EXPECT_EQ(fp, prio::dag::structuralFingerprint(renamed(g, "x")));
    EXPECT_EQ(fp, prio::dag::structuralFingerprint(
                      permuted(g, reversePermutation(g.numNodes()))));
  }
}

TEST(Fingerprint, IgnoresShortcutArcs) {
  // a->b->c->d plus shortcut a->d reduces to the chain.
  DigraphBuilder gb;
  const NodeId a = gb.addNode(), b = gb.addNode(), c = gb.addNode(),
               d = gb.addNode();
  gb.addEdge(a, b);
  gb.addEdge(b, c);
  gb.addEdge(c, d);
  const std::uint64_t chain_fp = prio::dag::structuralFingerprint(gb.build());
  gb.addEdge(a, d);
  const Digraph g = gb.build();
  EXPECT_EQ(chain_fp, prio::dag::structuralFingerprint(g));
  // The layout hash, by contrast, sees the extra arc: a cached result
  // records shortcuts_removed, so the two must not share an entry.
  Digraph h = chain3();
  EXPECT_NE(prio::dag::layoutHash(g), prio::dag::layoutHash(h));
}

TEST(Fingerprint, SeparatesNonIsomorphicDags) {
  // Same node and edge counts, different shape.
  EXPECT_NE(prio::dag::structuralFingerprint(chain3()),
            prio::dag::structuralFingerprint(fork3()));

  // Every pair from the mixed workload is structurally distinct.
  const auto dags = mixedWorkload();
  std::set<std::uint64_t> fps;
  for (const Digraph& g : dags) {
    fps.insert(prio::dag::structuralFingerprint(g));
  }
  EXPECT_EQ(fps.size(), dags.size());
}

TEST(Fingerprint, LayoutHashIsNameBlindButIdSensitive) {
  const Digraph g = chain3();
  EXPECT_EQ(prio::dag::layoutHash(g), prio::dag::layoutHash(renamed(g, "z")));
  EXPECT_NE(prio::dag::layoutHash(g),
            prio::dag::layoutHash(permuted(g, reversePermutation(3))));
}

// ------------------------------------------------------------- ResultCache

TEST(ResultCache, InsertFindEvictLru) {
  ResultCache cache(/*capacity=*/2, /*num_shards=*/1);
  auto mk = [] {
    return std::make_shared<const prio::core::PrioResult>();
  };
  cache.insert(1, 10, mk());
  cache.insert(2, 20, mk());
  EXPECT_NE(cache.find(1, 10).result, nullptr);  // refreshes 1
  cache.insert(3, 30, mk());                     // evicts 2 (LRU)
  EXPECT_NE(cache.find(1, 10).result, nullptr);
  EXPECT_EQ(cache.find(2, 20).result, nullptr);
  EXPECT_NE(cache.find(3, 30).result, nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, AliasDetectedForSameFingerprintOtherLayout) {
  ResultCache cache(8, 2);
  cache.insert(42, 1, std::make_shared<const prio::core::PrioResult>());
  const auto miss = cache.find(42, 2);
  EXPECT_EQ(miss.result, nullptr);
  EXPECT_TRUE(miss.alias);
  const auto plain_miss = cache.find(43, 2);
  EXPECT_FALSE(plain_miss.alias);
  // Both layouts coexist under one fingerprint.
  cache.insert(42, 2, std::make_shared<const prio::core::PrioResult>());
  EXPECT_NE(cache.find(42, 1).result, nullptr);
  EXPECT_NE(cache.find(42, 2).result, nullptr);
}

// --------------------------------------------------------- PayloadCache

Payload textOf(std::size_t n, char fill) {
  return Payload::text(std::string(n, fill));
}

// An entry's cost is its payload plus output bytes.
PayloadCache::Rendered renderedOf(std::size_t output_bytes) {
  PayloadCache::Rendered r;
  r.output.assign(output_bytes, 'o');
  return r;
}

bool cached(PayloadCache& cache, const Payload& p) {
  PayloadCache::Rendered out;
  return cache.find(PayloadCache::keyOf(p), p, out);
}

void put(PayloadCache& cache, const Payload& p, std::size_t output_bytes) {
  cache.insert(PayloadCache::keyOf(p), p, renderedOf(output_bytes));
}

TEST(PayloadCache, EvictsLeastRecentlyUsedByBytes) {
  // Each entry holds 20 payload + 20 output bytes; two fit in 100.
  PayloadCache cache(/*budget_bytes=*/100);
  const Payload a = textOf(20, 'a'), b = textOf(20, 'b'), c = textOf(20, 'c');
  put(cache, a, 20);
  put(cache, b, 20);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_TRUE(cached(cache, a));  // refreshes a
  put(cache, c, 20);              // 120 > 100: evicts b, the coldest
  EXPECT_TRUE(cached(cache, a));
  EXPECT_FALSE(cached(cache, b));
  EXPECT_TRUE(cached(cache, c));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 80u);

  // One entry of 90 bytes displaces both.
  const Payload big = textOf(50, 'd');
  put(cache, big, 40);
  EXPECT_TRUE(cached(cache, big));
  EXPECT_FALSE(cached(cache, a));
  EXPECT_FALSE(cached(cache, c));
  EXPECT_EQ(cache.bytes(), 90u);
}

TEST(PayloadCache, OverBudgetEntryIsNotStoredAndEvictsNothing) {
  PayloadCache cache(/*budget_bytes=*/100);
  const Payload a = textOf(20, 'a');
  put(cache, a, 20);
  const Payload huge = textOf(60, 'h');
  put(cache, huge, 41);  // 101 bytes
  EXPECT_FALSE(cached(cache, huge));
  EXPECT_TRUE(cached(cache, a));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 40u);
  put(cache, huge, 40);  // exactly the budget fits, displacing a
  EXPECT_TRUE(cached(cache, huge));
  EXPECT_FALSE(cached(cache, a));
}

TEST(PayloadCache, ReinsertRefreshesWithoutDoubleCounting) {
  PayloadCache cache(/*budget_bytes=*/100);
  const Payload a = textOf(20, 'a'), b = textOf(20, 'b'), c = textOf(20, 'c');
  put(cache, a, 20);
  put(cache, b, 20);
  put(cache, a, 20);  // refreshes a; still 80 bytes in two entries
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 80u);
  put(cache, c, 20);  // evicts b, not the refreshed a
  EXPECT_TRUE(cached(cache, a));
  EXPECT_FALSE(cached(cache, b));
  put(cache, a, 30);  // a new output size replaces the old one's bytes
  EXPECT_EQ(cache.bytes(), 90u);
}

TEST(PayloadCache, SameBytesUnderTheOtherKindMiss) {
  PayloadCache cache(/*budget_bytes=*/1000);
  const Payload text = Payload::text("Job a a.sub\n");
  const Payload binary = Payload::binary(text.bytes);
  put(cache, text, 10);
  EXPECT_NE(PayloadCache::keyOf(text), PayloadCache::keyOf(binary));
  EXPECT_FALSE(cached(cache, binary));
  // Even routed to the text entry's key, the kind decides.
  PayloadCache::Rendered out;
  EXPECT_FALSE(cache.find(PayloadCache::keyOf(text), binary, out));
  EXPECT_TRUE(cached(cache, text));
}

TEST(PayloadCache, ForcedKeyCollisionWithDifferentBytesMisses) {
  PayloadCache cache(/*budget_bytes=*/1000);
  constexpr std::uint64_t kKey = 7;
  const Payload a = textOf(10, 'a'), b = textOf(10, 'b');
  cache.insert(kKey, a, renderedOf(10));
  PayloadCache::Rendered out;
  EXPECT_FALSE(cache.find(kKey, b, out));
  EXPECT_TRUE(cache.find(kKey, a, out));
  // A colliding insert replaces the entry and its byte count.
  cache.insert(kKey, b, renderedOf(5));
  EXPECT_FALSE(cache.find(kKey, a, out));
  EXPECT_TRUE(cache.find(kKey, b, out));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 15u);
}

// ------------------------------------------------------------- PrioService

TEST(PrioService, ConcurrentBatchMatchesSerialExactly) {
  const auto dags = mixedWorkload();

  std::vector<prio::core::PrioResult> serial;
  for (const Digraph& g : dags) serial.push_back(prio::core::prioritize(prio::core::PrioRequest(g)));

  ServiceConfig config;
  config.num_threads = 4;
  config.queue_capacity = 4;  // smaller than the batch: exercises blocking
  PrioService service(config);
  auto futures = service.submitBatch(dags);
  ASSERT_EQ(futures.size(), dags.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Reply reply = futures[i].get();
    ASSERT_EQ(reply.status, RequestStatus::kOk) << reply.error;
    EXPECT_EQ(reply.result->schedule, serial[i].schedule) << "dag " << i;
    EXPECT_EQ(reply.result->priority, serial[i].priority) << "dag " << i;
    EXPECT_EQ(reply.result->certified_ic_optimal,
              serial[i].certified_ic_optimal);
  }
  EXPECT_EQ(service.metrics().requests_completed.get(), dags.size());
  EXPECT_EQ(service.metrics().requests_failed.get(), 0u);
}

TEST(PrioService, CacheHitReturnsSameResultObject) {
  ServiceConfig config;
  config.num_threads = 1;
  PrioService service(config);
  const Digraph g = prio::workloads::makeAirsn({8, 3});

  const Reply first = service.prioritizeNow(g);
  ASSERT_EQ(first.status, RequestStatus::kOk);
  EXPECT_FALSE(first.cache_hit);

  const Reply second = service.prioritizeNow(g);
  ASSERT_EQ(second.status, RequestStatus::kOk);
  EXPECT_TRUE(second.cache_hit);
  // Literally the same memoized object, not a recompute.
  EXPECT_EQ(second.result.get(), first.result.get());
  EXPECT_EQ(second.fingerprint, first.fingerprint);

  // A renamed instance hits too: fingerprint and layout are name-blind.
  const Reply third = service.prioritizeNow(renamed(g, "other"));
  ASSERT_EQ(third.status, RequestStatus::kOk);
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.result.get(), first.result.get());

  EXPECT_EQ(service.metrics().cache_hits.get(), 2u);
  EXPECT_EQ(service.metrics().cache_misses.get(), 1u);
}

TEST(PrioService, IdPermutedIsomorphIsAliasNotHit) {
  ServiceConfig config;
  config.num_threads = 1;
  PrioService service(config);
  const Digraph g = prio::workloads::makeAirsn({6, 2});
  const Digraph p = permuted(g, reversePermutation(g.numNodes()));

  const Reply first = service.prioritizeNow(g);
  const Reply second = service.prioritizeNow(p);
  ASSERT_EQ(second.status, RequestStatus::kOk);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_NE(first.layout, second.layout);
  EXPECT_FALSE(second.cache_hit);  // reuse would be unsound
  EXPECT_EQ(service.metrics().fingerprint_aliases.get(), 1u);
  // And the recomputed result is genuinely for the permuted dag.
  EXPECT_TRUE(prio::dag::isTopologicalOrder(p, second.result->schedule));
}

TEST(PrioService, RejectPolicyShedsLoadWithBoundedQueue) {
  ServiceConfig config;
  config.num_threads = 1;
  config.queue_capacity = 1;
  config.backpressure = BackpressurePolicy::kReject;
  config.cache_capacity = 0;  // every request pays full compute
  PrioService service(config);

  const Digraph g = prio::workloads::makeSdss({40, 6, 3, 20});
  std::vector<std::future<Reply>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(service.submit(g));

  std::size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    const Reply r = f.get();
    if (r.status == RequestStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, RequestStatus::kRejected);
      EXPECT_EQ(r.result, nullptr);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, 32u);
  EXPECT_GE(ok, 1u);  // the in-flight request always completes
  EXPECT_EQ(service.metrics().requests_rejected.get(), rejected);
  // The queue depth never exceeded its bound.
  EXPECT_LE(service.queueHighWater(), 1u);
}

TEST(PrioService, CyclicDagFailsWithoutKillingWorkers) {
  ServiceConfig config;
  config.num_threads = 2;
  PrioService service(config);

  DigraphBuilder cyclic_b;
  const NodeId a = cyclic_b.addNode(), b = cyclic_b.addNode();
  cyclic_b.addEdge(a, b);
  cyclic_b.addEdge(b, a);

  const Digraph cyclic = cyclic_b.build();
  const Reply bad = service.submit(cyclic).get();
  EXPECT_EQ(bad.status, RequestStatus::kFailed);
  EXPECT_EQ(bad.result, nullptr);
  EXPECT_FALSE(bad.error.empty());

  // Workers survive and keep serving.
  const Reply good = service.submit(chain3()).get();
  EXPECT_EQ(good.status, RequestStatus::kOk);
  EXPECT_EQ(service.metrics().requests_failed.get(), 1u);
}

TEST(PrioService, FileRequestInstrumentsOutput) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "prio_service_test_files";
  fs::create_directories(dir);
  const fs::path in_path = dir / "diamond.dag";
  {
    std::ofstream out(in_path);
    out << "JOB A a.submit\nJOB B b.submit\nJOB C c.submit\n"
           "JOB D d.submit\n"
           "PARENT A CHILD B C\nPARENT B C CHILD D\n";
  }
  const fs::path out_path = dir / "diamond.out.dag";

  ServiceConfig config;
  config.num_threads = 2;
  PrioService service(config);
  const Reply reply =
      service.submit(FileRequest{in_path.string(), out_path.string()}).get();
  ASSERT_EQ(reply.status, RequestStatus::kOk) << reply.error;
  EXPECT_EQ(reply.source, in_path.string());

  auto instrumented = prio::dagman::DagmanFile::parseFile(out_path.string());
  ASSERT_EQ(instrumented.jobs().size(), 4u);
  for (const auto& job : instrumented.jobs()) {
    EXPECT_TRUE(job.var("jobpriority").has_value()) << job.name;
  }
  // Priority values follow Fig. 3: source gets numNodes().
  EXPECT_EQ(instrumented.findJob("A")->var("jobpriority").value(), "4");

  const Reply missing =
      service.submit(FileRequest{(dir / "nope.dag").string(), ""}).get();
  EXPECT_EQ(missing.status, RequestStatus::kFailed);
  fs::remove_all(dir);
}

// A small, TSan-friendly stress run: several submitter threads hammer one
// service (shared cache, shared queue) with a mix of duplicate and fresh
// dags. Run the test binary under -fsanitize=thread (see
// -DPRIO_SANITIZE=thread) to verify the absence of data races; without
// TSan it still checks linearizable counters and full parity.
TEST(PrioServiceStress, ConcurrentSubmittersSharedService) {
  const auto pool = mixedWorkload();
  std::vector<prio::core::PrioResult> serial;
  for (const Digraph& g : pool) serial.push_back(prio::core::prioritize(prio::core::PrioRequest(g)));

  ServiceConfig config;
  config.num_threads = 4;
  config.queue_capacity = 8;
  config.cache_capacity = 8;  // small: forces concurrent evictions
  config.cache_shards = 2;
  PrioService service(config);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      prio::stats::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerSubmitter; ++i) {
        const std::size_t pick = rng.next() % pool.size();
        const Reply reply = service.submit(pool[pick]).get();
        if (reply.status != RequestStatus::kOk ||
            reply.result->schedule != serial[pick].schedule) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  const auto& m = service.metrics();
  EXPECT_EQ(m.requests_submitted.get(),
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(m.requests_completed.get(), m.requests_submitted.get());
  EXPECT_EQ(m.cache_hits.get() + m.cache_misses.get(),
            m.requests_completed.get());
}

}  // namespace
