// Chaos tests: deadline-aware cancellation, graceful degradation, and
// deterministic fault injection across the prioritization stack. Every
// scenario asserts the DESIGN.md §8 contract — a request always
// terminates with kOk, kDegraded, kShed, kRejected, or kFailed, never a
// hang, a crash, or a torn output file.
//
// Run under TSan and ASan in CI: the multithreaded scenarios double as
// race/lifetime checks on the token, injector, and service paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/prio.h"
#include "dag/algorithms.h"
#include "dagman/dagman_file.h"
#include "service/service.h"
#include "util/atomic_file.h"
#include "util/cancellation.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/retry.h"
#include "workloads/scientific.h"

namespace {

namespace fs = std::filesystem;
using namespace prio;
using prio::service::FileRequest;
using prio::service::PrioService;
using prio::service::Reply;
using prio::service::RequestStatus;
using prio::service::ServiceConfig;
using prio::util::fault::Injector;
using prio::util::fault::Kind;
using prio::util::fault::SitePlan;

/// Disarms the global injector when the test scope ends, pass or fail.
struct ScopedInjector {
  explicit ScopedInjector(std::uint64_t seed) {
    Injector::instance().arm(seed);
  }
  ~ScopedInjector() { Injector::instance().disarm(); }
};

/// Asserts `result` is a sound prioritization of `g`: the schedule is a
/// topological permutation and priorities follow Fig. 3 (n down to 1).
void expectValidResult(const dag::Digraph& g, const core::PrioResult& r) {
  const std::size_t n = g.numNodes();
  ASSERT_EQ(r.schedule.size(), n);
  ASSERT_EQ(r.priority.size(), n);
  std::vector<char> seen(n, 0);
  std::vector<std::size_t> position(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_LT(r.schedule[i], n);
    ASSERT_FALSE(seen[r.schedule[i]]) << "schedule is not a permutation";
    seen[r.schedule[i]] = 1;
    position[r.schedule[i]] = i;
  }
  for (dag::NodeId u = 0; u < n; ++u) {
    for (dag::NodeId v : g.children(u)) {
      EXPECT_LT(position[u], position[v]) << "schedule violates an edge";
    }
    EXPECT_EQ(r.priority[u], n - position[u]) << "Fig. 3 priority mismatch";
  }
}

dag::Digraph testDag() { return workloads::makeAirsn({12, 4}); }

std::string writeTempDag(const std::string& name, const std::string& text) {
  const fs::path dir = fs::temp_directory_path() / "prio_chaos";
  fs::create_directories(dir);
  const fs::path path = dir / name;
  std::ofstream out(path);
  out << text;
  return path.string();
}

// ---------------------------------------------------------------------------
// CancelToken basics.

TEST(CancelToken, DefaultNeverFires) {
  util::CancelToken token;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(token.poll());
  EXPECT_FALSE(token.expired());
  EXPECT_NO_THROW(token.throwIfCancelled("test"));
}

TEST(CancelToken, ExplicitCancelFires) {
  util::CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.poll());
  EXPECT_THROW(token.throwIfCancelled("test"), util::Cancelled);
}

TEST(CancelToken, ExpiredDeadlineLatches) {
  util::CancelToken token(0.0);  // already past
  EXPECT_TRUE(token.expired());
  // After the latch even stride-skipped polls see it.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(token.poll());
}

TEST(CancelToken, FarDeadlineDoesNotFire) {
  util::CancelToken token(3600.0);
  for (int i = 0; i < 5000; ++i) EXPECT_FALSE(token.poll());
}

TEST(CancelToken, CancelledIsAnError) {
  // Generic util::Error catch sites must keep working.
  try {
    throw util::Cancelled("test");
  } catch (const util::Error&) {
    SUCCEED();
  } catch (...) {
    FAIL() << "Cancelled must derive util::Error";
  }
}

// ---------------------------------------------------------------------------
// Core: cancellation mid-phase and the degraded fallback.

TEST(Cancellation, PreCancelledTokenStopsPrioritize) {
  const auto g = testDag();
  util::CancelToken token;
  token.cancel();
  core::PrioOptions options;
  options.cancel = &token;
  EXPECT_THROW((void)core::prioritize(core::PrioRequest(g, options)), util::Cancelled);
}

TEST(Cancellation, NullTokenMatchesNoTokenBitExactly) {
  const auto g = testDag();
  const auto plain = core::prioritize(core::PrioRequest(g));
  core::PrioOptions options;  // cancel == nullptr
  const auto with_null = core::prioritize(core::PrioRequest(g, options));
  EXPECT_EQ(plain.schedule, with_null.schedule);
  EXPECT_EQ(plain.priority, with_null.priority);
}

TEST(Cancellation, FarDeadlineMatchesNoTokenBitExactly) {
  const auto g = testDag();
  const auto plain = core::prioritize(core::PrioRequest(g));
  util::CancelToken token(3600.0);
  core::PrioOptions options;
  options.cancel = &token;
  const auto bounded = core::prioritize(core::PrioRequest(g, options));
  EXPECT_EQ(plain.schedule, bounded.schedule);
  EXPECT_EQ(plain.priority, bounded.priority);
}

TEST(Fallback, ProducesValidUncertifiedPrioritization) {
  const auto g = testDag();
  const auto r = core::fallbackPrioritize(g);
  expectValidResult(g, r);
  EXPECT_FALSE(r.certified_ic_optimal);
}

TEST(Fallback, OrdersByOutdegreeAmongEligible) {
  // hub has outdegree 3, loner 0: the fallback must dispatch hub first.
  dag::Digraph g;
  const auto loner = g.addNode("loner");
  const auto hub = g.addNode("hub");
  g.addEdge(hub, g.addNode("c1"));
  g.addEdge(hub, g.addNode("c2"));
  g.addEdge(hub, g.addNode("c3"));
  const auto r = core::fallbackPrioritize(g);
  EXPECT_EQ(r.schedule.front(), hub);
  EXPECT_GT(r.priority[hub], r.priority[loner]);
}

// ---------------------------------------------------------------------------
// Service: deadline → degraded, queue deadline → shed, faults → failed.

TEST(ServiceDegradation, DelayPastDeadlineYieldsDegradedValidResult) {
  ScopedInjector inj(101);
  // A 20 ms stall before decompose pushes every computation past the
  // 2 ms deadline; the poll right after must fire.
  SitePlan stall;
  stall.kind = Kind::kDelay;
  stall.delay = std::chrono::microseconds(20000);
  Injector::instance().plan("core.decompose", stall);

  ServiceConfig config;
  config.num_threads = 1;
  config.compute_deadline_s = 0.002;
  PrioService service(config);
  const auto g = testDag();
  const Reply reply = service.prioritizeNow(g);

  ASSERT_EQ(reply.status, RequestStatus::kDegraded);
  ASSERT_NE(reply.result, nullptr);
  expectValidResult(g, *reply.result);
  EXPECT_FALSE(reply.result->certified_ic_optimal);
  EXPECT_GE(service.metrics().requests_degraded.get(), 1u);
  EXPECT_GE(service.metrics().requests_deadline_exceeded.get(), 1u);
  // Completed: the caller did get a usable answer.
  EXPECT_EQ(service.metrics().requests_completed.get(), 1u);
}

TEST(ServiceDegradation, DegradedResultsAreNotCached) {
  ScopedInjector inj(102);
  SitePlan stall;
  stall.kind = Kind::kDelay;
  stall.delay = std::chrono::microseconds(20000);
  Injector::instance().plan("core.decompose", stall);

  ServiceConfig config;
  config.num_threads = 1;
  config.compute_deadline_s = 0.002;
  PrioService service(config);
  const auto g = testDag();
  const Reply degraded = service.prioritizeNow(g);
  ASSERT_EQ(degraded.status, RequestStatus::kDegraded);

  // Remove the stall: the same dag must now be computed for real, not
  // served from a cache poisoned with the degraded result.
  Injector::instance().disarm();
  const Reply full = service.prioritizeNow(g);
  EXPECT_EQ(full.status, RequestStatus::kOk);
  EXPECT_FALSE(full.cache_hit);
  const auto reference = core::prioritize(core::PrioRequest(g));
  EXPECT_EQ(full.result->priority, reference.priority);
}

TEST(ServiceDegradation, FarDeadlineKeepsOutputIdentical) {
  ServiceConfig bounded;
  bounded.num_threads = 1;
  bounded.compute_deadline_s = 3600.0;
  ServiceConfig unbounded;
  unbounded.num_threads = 1;
  PrioService a(bounded), b(unbounded);
  const auto g = testDag();
  const Reply ra = a.prioritizeNow(g);
  const Reply rb = b.prioritizeNow(g);
  ASSERT_EQ(ra.status, RequestStatus::kOk);
  ASSERT_EQ(rb.status, RequestStatus::kOk);
  EXPECT_EQ(ra.result->schedule, rb.result->schedule);
  EXPECT_EQ(ra.result->priority, rb.result->priority);
}

TEST(ServiceShedding, StaleQueuedRequestsAreShed) {
  ScopedInjector inj(103);
  SitePlan stall;
  stall.kind = Kind::kDelay;
  stall.delay = std::chrono::microseconds(30000);
  Injector::instance().plan("core.decompose", stall);

  ServiceConfig config;
  config.num_threads = 1;
  config.queue_deadline_s = 0.001;
  config.cache_capacity = 0;  // every request computes (and stalls)
  PrioService service(config);

  std::size_t ok = 0, shed = 0;
  const auto tally = [&](const Reply& r) {
    if (r.status == RequestStatus::kOk) ++ok;
    else if (r.status == RequestStatus::kShed) ++shed;
    EXPECT_TRUE(r.status == RequestStatus::kOk ||
                r.status == RequestStatus::kShed);
  };

  // The first request goes alone until it is inside its 30 ms stall. A
  // worker that dequeues it more than 1 ms late (a busy host) sheds it
  // before the stall, so it is resubmitted while it comes back shed.
  std::future<Reply> first = service.submit(testDag());
  while (Injector::instance().fireCount("core.decompose") == 0) {
    if (first.wait_for(std::chrono::microseconds(200)) ==
        std::future_status::ready) {
      const Reply r = first.get();
      ASSERT_EQ(r.status, RequestStatus::kShed);
      tally(r);
      first = service.submit(testDag());
    }
  }

  // The worker is now stalled, so the rest wait in the queue longer
  // than the 1 ms deadline and must be shed.
  std::vector<std::future<Reply>> futures;
  futures.push_back(std::move(first));
  for (int i = 0; i < 4; ++i) futures.push_back(service.submit(testDag()));
  for (auto& f : futures) tally(f.get());
  EXPECT_GE(ok, 1u);
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(service.metrics().requests_shed.get(), shed);
}

TEST(ServiceFaults, ForcedParseFailureIsPermanent) {
  ScopedInjector inj(104);
  Injector::instance().plan("service.parse", {.kind = Kind::kThrowError});
  PrioService service({.num_threads = 1});
  const std::string path =
      writeTempDag("ok.dag", "Job a a.sub\nJob b b.sub\nPARENT a CHILD b\n");
  const Reply reply = service.submit(FileRequest{path, ""}).get();
  EXPECT_EQ(reply.status, RequestStatus::kFailed);
  EXPECT_FALSE(reply.transient);
  EXPECT_EQ(reply.result, nullptr);
  EXPECT_EQ(Injector::instance().fireCount("service.parse"), 1u);
}

TEST(ServiceFaults, TransientFailureIsMarkedRetryable) {
  ScopedInjector inj(105);
  Injector::instance().plan("service.parse",
                            {.kind = Kind::kThrowTransient});
  PrioService service({.num_threads = 1});
  const std::string path =
      writeTempDag("ok2.dag", "Job a a.sub\n");
  const Reply reply = service.submit(FileRequest{path, ""}).get();
  EXPECT_EQ(reply.status, RequestStatus::kFailed);
  EXPECT_TRUE(reply.transient);

  // The retry workflow: disarm (the transient condition clears) and
  // resubmit — the request now succeeds.
  Injector::instance().disarm();
  const Reply retried = service.submit(FileRequest{path, ""}).get();
  EXPECT_EQ(retried.status, RequestStatus::kOk);
  service.noteRetries(1);
  EXPECT_EQ(service.metrics().retries.get(), 1u);
}

// ---------------------------------------------------------------------------
// Crash-safe output.

TEST(CrashSafety, CrashBeforeRenameLeavesNoTornTarget) {
  ScopedInjector inj(106);
  Injector::instance().plan("atomic_file.rename", {.kind = Kind::kCrash});
  PrioService service({.num_threads = 1});
  const std::string input =
      writeTempDag("crash_in.dag",
                   "Job a a.sub\nJob b b.sub\nPARENT a CHILD b\n");
  const fs::path outdir = fs::temp_directory_path() / "prio_chaos_out";
  fs::remove_all(outdir);
  fs::create_directories(outdir);
  const std::string output = (outdir / "crash_out.dag").string();

  const Reply reply = service.submit(FileRequest{input, output}).get();
  EXPECT_EQ(reply.status, RequestStatus::kFailed);
  // The crash struck between flush and rename: the target must not
  // exist at all — never a torn half-file.
  EXPECT_FALSE(fs::exists(output));

  // After "restart" (disarm) the same request completes and the output
  // parses as a full instrumented dag.
  Injector::instance().disarm();
  const Reply retried = service.submit(FileRequest{input, output}).get();
  ASSERT_EQ(retried.status, RequestStatus::kOk);
  ASSERT_TRUE(fs::exists(output));
  auto written = dagman::DagmanFile::parseFile(output);
  ASSERT_EQ(written.jobs().size(), 2u);
  EXPECT_TRUE(written.jobs()[0].var("jobpriority").has_value());
  fs::remove_all(outdir);
}

TEST(CrashSafety, CrashOverOldFileKeepsOldContentIntact) {
  const fs::path dir = fs::temp_directory_path() / "prio_chaos_aw";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string target = (dir / "data.json").string();
  util::atomicWriteFile(target, [](std::ostream& out) { out << "OLD"; });

  {
    ScopedInjector inj(107);
    Injector::instance().plan("atomic_file.rename", {.kind = Kind::kCrash});
    EXPECT_THROW(util::atomicWriteFile(
                     target, [](std::ostream& out) { out << "NEW"; }),
                 util::CrashError);
  }
  std::ifstream in(target);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "OLD");  // the old complete file survived

  util::atomicWriteFile(target, [](std::ostream& out) { out << "NEW"; });
  std::ifstream in2(target);
  std::getline(in2, content);
  EXPECT_EQ(content, "NEW");
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Fault injector determinism.

TEST(FaultInjector, EveryNthFiresDeterministically) {
  ScopedInjector inj(108);
  Injector::instance().plan("test.site", {.kind = Kind::kThrowError,
                                          .every_nth = 3});
  std::size_t thrown = 0;
  for (int i = 0; i < 9; ++i) {
    try {
      util::fault::checkpoint("test.site");
    } catch (const util::Error&) {
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 3u);  // passes 3, 6, 9
  EXPECT_EQ(Injector::instance().fireCount("test.site"), 3u);
  EXPECT_EQ(Injector::instance().passCount("test.site"), 9u);
}

TEST(FaultInjector, SeededProbabilityReplaysExactly) {
  const auto pattern = [](std::uint64_t seed) {
    ScopedInjector inj(seed);
    SitePlan plan;
    plan.kind = Kind::kThrowError;
    plan.every_nth = 0;
    plan.probability = 0.4;
    Injector::instance().plan("test.prob", plan);
    std::vector<char> fired;
    for (int i = 0; i < 64; ++i) {
      bool f = false;
      try {
        util::fault::checkpoint("test.prob");
      } catch (const util::Error&) {
        f = true;
      }
      fired.push_back(f ? 1 : 0);
    }
    return fired;
  };
  const auto a = pattern(42), b = pattern(42), c = pattern(43);
  EXPECT_EQ(a, b);  // same seed, same pattern
  EXPECT_NE(a, c);  // different seed, different pattern (w.h.p.)
  EXPECT_GT(std::accumulate(a.begin(), a.end(), 0), 0);
}

TEST(FaultInjector, DisarmedCheckpointIsInert) {
  Injector::instance().disarm();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NO_THROW(util::fault::checkpoint("service.parse"));
  }
}

// ---------------------------------------------------------------------------
// Backoff.

TEST(Backoff, SeededScheduleReplaysAndGrows) {
  util::ExpBackoff a(0.01, 1.0, 7), b(0.01, 1.0, 7);
  double prev_window = 0.0;
  for (std::uint64_t k = 0; k < 8; ++k) {
    const double da = a.next(k), db = b.next(k);
    EXPECT_EQ(da, db);   // same seed → same jittered schedule
    EXPECT_LE(da, 1.0);  // cap holds
    // Full jitter: a uniform draw from [0, window) where the window
    // doubles each step up to the cap.
    const double window = std::min(0.01 * static_cast<double>(1ULL << k), 1.0);
    EXPECT_EQ(window, a.window(k));
    EXPECT_GE(da, 0.0);
    EXPECT_LT(da, window);
    EXPECT_GE(window, prev_window);
    prev_window = window;
  }
}

TEST(Backoff, FullJitterDecorrelatesDifferentSeeds) {
  // A fleet of clients with distinct seeds must not retry in lockstep:
  // with full jitter the k-th waits spread across the whole window
  // instead of clustering in a narrow multiplicative band.
  constexpr int kFleet = 32;
  double lo = 1e9, hi = -1.0;
  for (int c = 0; c < kFleet; ++c) {
    util::ExpBackoff bo(0.1, 10.0, 1000 + static_cast<std::uint64_t>(c));
    const double d = bo.next(4);  // window = 1.6 s
    lo = std::min(lo, d);
    hi = std::max(hi, d);
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.6);
  }
  // The spread covers most of the window (w.h.p. for 32 uniform draws).
  EXPECT_LT(lo, 0.4);
  EXPECT_GT(hi, 1.2);
}

// ---------------------------------------------------------------------------
// Multithreaded chaos: every request terminates with a defined status.
// This is the TSan/ASan workhorse.

TEST(ChaosStress, EveryRequestTerminatesUnderMixedFaults) {
  ScopedInjector inj(109);
  SitePlan flaky_parse;
  flaky_parse.kind = Kind::kThrowTransient;
  flaky_parse.every_nth = 0;
  flaky_parse.probability = 0.3;
  Injector::instance().plan("service.parse", flaky_parse);
  SitePlan slow_decompose;
  slow_decompose.kind = Kind::kDelay;
  slow_decompose.every_nth = 2;
  slow_decompose.delay = std::chrono::microseconds(5000);
  Injector::instance().plan("core.decompose", slow_decompose);

  ServiceConfig config;
  config.num_threads = 4;
  config.queue_capacity = 8;
  config.backpressure = prio::service::BackpressurePolicy::kReject;
  config.compute_deadline_s = 0.002;
  config.queue_deadline_s = 0.05;
  config.cache_capacity = 16;
  PrioService service(config);

  const std::string path = writeTempDag(
      "stress.dag",
      "Job a a.sub\nJob b b.sub\nJob c c.sub\n"
      "PARENT a CHILD b c\n");
  std::vector<std::future<Reply>> futures;
  for (int i = 0; i < 40; ++i) {
    if (i % 2 == 0) futures.push_back(service.submit(testDag()));
    else futures.push_back(service.submit(FileRequest{path, ""}));
  }

  std::size_t with_result = 0;
  for (auto& f : futures) {
    const Reply r = f.get();  // must terminate — the contract under test
    switch (r.status) {
      case RequestStatus::kOk:
      case RequestStatus::kDegraded:
        ASSERT_NE(r.result, nullptr);
        ++with_result;
        break;
      case RequestStatus::kRejected:
      case RequestStatus::kShed:
      case RequestStatus::kExpired:
      case RequestStatus::kFailed:
        EXPECT_EQ(r.result, nullptr);
        break;
    }
  }
  EXPECT_GT(with_result, 0u);

  // Lifecycle accounting closes: every submission ended exactly one way.
  const auto& m = service.metrics();
  EXPECT_EQ(m.requests_submitted.get(),
            m.requests_completed.get() + m.requests_failed.get() +
                m.requests_rejected.get() + m.requests_shed.get());
}

TEST(ChaosStress, ConcurrentCancelWhilePolling) {
  // One thread flips the token while workers poll it — TSan fodder for
  // the relaxed-atomic token protocol.
  util::CancelToken token(3600.0);
  std::atomic<bool> stop{false};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.cancel();
    stop.store(true);
  });
  bool fired = false;
  while (!fired && !stop.load()) fired = token.poll();
  canceller.join();
  EXPECT_TRUE(token.poll());  // once cancelled, always cancelled
}

}  // namespace
