// bench_net_throughput — closed-loop load generator for the TCP serving
// layer (src/net/): an in-process priod server on an ephemeral loopback
// port (multi-reactor, default shard count), driven by N concurrent
// connections each carrying one outstanding request at a time over the
// AIRSN workload (§3.3, 773 jobs).
//
// The N connections are multiplexed onto a small pool of driver threads
// (min(N, hw, 16)): each thread owns its slice of connections, primes one
// request on each, then cycles receive-then-resend round-robin. Every
// connection stays closed-loop (exactly one outstanding request), but
// c=256 no longer needs 256 client threads, so the high-concurrency
// points are drivable on 8-core CI.
//
// Sweeps connection counts and emits BENCH_net.json with a flat
// "metrics" dict gated by scripts/bench_check.py against
// bench/baselines/BENCH_net_baseline.json:
//
//   airsn.rps@cN         sustained requests per second at N connections
//   airsn.p50_ms@cN      request latency percentiles (client-observed,
//   airsn.p95_ms@cN      includes the wire round trip)
//   airsn.p99_ms@cN
//   airsn.error_rate@cN  responses not kOk/kDegraded per response
//   airsn.shed_rate@cN   kShed + kRejected per response
//   airsn.wakeup_coalescing@cN
//                        shard wakeups signaled per drain that consumed
//                        them during the point (>= 1; higher = more
//                        eventfd coalescing under load; not gated)
//   binary.rps@c64       the same closed loop shipping the AIRSN dag as
//   binary.p50_ms@c64    a typed binary CSR payload (wire v3) instead of
//   binary.error_rate@c64  DAGMan text
//   batch.rps@c64        kBatchRequest frames of 16 binary dags per
//   batch.p50_ms@c64     round-trip; rps counts ITEMS per second, p50 is
//   batch.error_rate@c64 per round-trip
//   parse_share.text     fraction of total service phase time spent in
//   parse_share.binary   "service.parse" with all caches off — the
//                        text-vs-binary hot-path parsing cost the v3
//                        payload redesign exists to kill
//
// Sweep points above the hardware thread count (c=64, c=256) only run on
// machines with at least 8 hardware threads; likewise c=2..c=8 require
// c <= hw. Below the bar the point is skipped, the metric is absent, and
// bench_check skips the gate — or fails it on >= 8-thread machines via
// the baseline's required_if_hw_ge field — the same low-core escape
// hatch BENCH_core uses for its speedup floors.
//
// Env knobs:
//   PRIO_BENCH_NET_SMOKE      "1" = CI smoke scale (shorter measurement
//                             windows; same workload and gates)
//   PRIO_BENCH_NET_SECONDS    seconds per connection count (default 2.0;
//                             smoke default 0.5)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dag/csr.h"
#include "dagman/dagman_file.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "workloads/scientific.h"

namespace {

using Clock = std::chrono::steady_clock;

bool envFlag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && std::strcmp(v, "1") == 0;
}

double envSeconds(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}

std::string airsnDagText() {
  const prio::dag::Digraph g = prio::workloads::makeAirsn({});
  prio::dagman::DagmanFile file;
  for (prio::dag::NodeId u = 0; u < g.numNodes(); ++u) {
    file.addJob(g.name(u), "job.submit");
  }
  for (prio::dag::NodeId u = 0; u < g.numNodes(); ++u) {
    for (prio::dag::NodeId v : g.children(u)) {
      file.addDependency(g.name(u), g.name(v));
    }
  }
  std::ostringstream out;
  file.write(out);
  return std::move(out).str();
}

struct LoadResult {
  std::vector<double> latencies_s;  ///< one entry per ROUND-TRIP
  std::uint64_t items = 0;  ///< answered dags (== round-trips unbatched)
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;  ///< kShed + kRejected
  std::uint64_t failed = 0;
  double wall_s = 0.0;
};

void classify(prio::net::Status status, LoadResult& r) {
  switch (status) {
    case prio::net::Status::kOk: ++r.ok; break;
    case prio::net::Status::kDegraded: ++r.degraded; break;
    case prio::net::Status::kRejected:
    case prio::net::Status::kShed: ++r.shed; break;
    default: ++r.failed; break;
  }
}

/// Counts one response: a single reply is one item; a batch reply is
/// one item per decoded BatchItemReply (all failed if the envelope
/// would not decode).
void classifyResponse(const prio::net::Response& resp,
                      std::size_t batch_items, LoadResult& r) {
  if (!resp.batch) {
    ++r.items;
    classify(resp.status, r);
    return;
  }
  const prio::net::Response::Result result = resp.result();
  if (!result.usable) {
    r.items += batch_items;
    r.failed += batch_items;
    return;
  }
  for (const prio::net::BatchItemReply& item : result.items) {
    ++r.items;
    classify(item.status, r);
  }
}

/// Closed-loop load: `connections` pipelined connections, one
/// outstanding request each, multiplexed onto min(connections, hw, 16)
/// driver threads. Each thread primes its slice, then cycles
/// receive-then-resend round-robin until the deadline, and finally
/// drains the outstanding response left on each connection.
LoadResult runLoad(std::uint16_t port, std::size_t connections,
                   double seconds, const std::string& payload,
                   prio::net::PayloadKind kind =
                       prio::net::PayloadKind::kDagmanText,
                   std::size_t batch_items = 0) {
  const unsigned hw = std::thread::hardware_concurrency();
  // batch_items > 0: each round-trip is one kBatchRequest carrying the
  // payload that many times; 0 is the historical single-request loop.
  std::vector<prio::net::BatchItem> batch;
  for (std::size_t i = 0; i < batch_items; ++i) {
    batch.push_back(prio::net::BatchItem{kind, payload});
  }
  const std::size_t pool = std::max<std::size_t>(
      1, std::min({connections, static_cast<std::size_t>(hw == 0 ? 1 : hw),
                   std::size_t{16}}));

  std::vector<LoadResult> per_thread(pool);
  std::vector<std::thread> threads;
  threads.reserve(pool);
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  for (std::size_t t = 0; t < pool; ++t) {
    // Thread t owns ceil-or-floor(connections / pool) connections.
    const std::size_t owned = connections / pool + (t < connections % pool);
    threads.emplace_back([&, t, owned] {
      LoadResult& r = per_thread[t];
      struct Conn {
        prio::net::Client client;
        Clock::time_point sent;
        bool outstanding = false;
      };
      std::vector<std::unique_ptr<Conn>> conns;
      conns.reserve(owned);
      for (std::size_t k = 0; k < owned; ++k) {
        auto conn = std::make_unique<Conn>();
        conn->client.connect("127.0.0.1", port);
        conns.push_back(std::move(conn));
      }
      auto sendOne = [&](Conn& conn) {
        conn.sent = Clock::now();
        if (batch_items > 0) {
          conn.client.submitBatch(batch);
        } else {
          conn.client.sendPayload(kind, payload);
        }
        conn.outstanding = true;
      };
      for (auto& conn : conns) sendOne(*conn);
      bool running = true;
      while (running) {
        for (auto& conn : conns) {
          const prio::net::Response resp = conn->client.receive();
          conn->outstanding = false;
          r.latencies_s.push_back(
              std::chrono::duration<double>(Clock::now() - conn->sent)
                  .count());
          classifyResponse(resp, batch_items, r);
          if (Clock::now() >= deadline) {
            running = false;
            break;
          }
          sendOne(*conn);
        }
      }
      // Drain: every connection except the one whose receive tripped the
      // deadline still has exactly one request in flight.
      for (auto& conn : conns) {
        if (!conn->outstanding) continue;
        const prio::net::Response resp = conn->client.receive();
        conn->outstanding = false;
        r.latencies_s.push_back(
            std::chrono::duration<double>(Clock::now() - conn->sent)
                .count());
        classifyResponse(resp, batch_items, r);
      }
    });
  }
  for (auto& t : threads) t.join();

  LoadResult total;
  total.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (LoadResult& r : per_thread) {
    total.items += r.items;
    total.ok += r.ok;
    total.degraded += r.degraded;
    total.shed += r.shed;
    total.failed += r.failed;
    total.latencies_s.insert(total.latencies_s.end(), r.latencies_s.begin(),
                             r.latencies_s.end());
  }
  std::sort(total.latencies_s.begin(), total.latencies_s.end());
  return total;
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto i = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[i];
}

}  // namespace

int main() {
  const bool smoke = envFlag("PRIO_BENCH_NET_SMOKE");
  const double seconds =
      envSeconds("PRIO_BENCH_NET_SECONDS", smoke ? 0.5 : 2.0);
  const unsigned hw = std::thread::hardware_concurrency();

  const std::string dag_text = airsnDagText();

  prio::net::ServerConfig config;
  config.port = 0;
  prio::net::Server server(config);
  std::thread server_thread([&] { server.run(); });

  std::printf("bench_net_throughput: airsn %zu bytes, %.2fs per point, "
              "%u hardware threads, %zu reactors%s\n",
              dag_text.size(), seconds, hw, server.reactors(),
              smoke ? " (smoke scale)" : "");

  std::string metrics_json;
  auto metric = [&](const std::string& name, double value) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6g",
                  metrics_json.empty() ? "" : ",", name.c_str(), value);
    metrics_json += buf;
  };

  // Closed-loop points up to the hardware thread count measure scaling;
  // the pooled pipelining driver additionally makes c=64 and c=256
  // drivable anywhere with >= 8 hardware threads. A skipped point's
  // metrics are simply absent from BENCH_net.json.
  std::vector<std::size_t> sweep;
  for (const std::size_t c :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
        std::size_t{64}, std::size_t{256}}) {
    if (hw == 0 || c <= hw || hw >= 8) sweep.push_back(c);
  }

  int rc = 0;
  for (const std::size_t connections : sweep) {
    const prio::net::Server::Stats before = server.stats();
    const LoadResult r = runLoad(server.port(), connections, seconds,
                                 dag_text);
    const prio::net::Server::Stats after = server.stats();
    const auto responses = static_cast<double>(r.items);
    const double rps = r.wall_s > 0 ? responses / r.wall_s : 0.0;
    const double signaled = static_cast<double>(after.wakeups_signaled -
                                                before.wakeups_signaled);
    const double drained = static_cast<double>(after.wakeups_drained -
                                               before.wakeups_drained);
    const double coalescing = signaled / std::max(1.0, drained);
    const std::string tag = "@c" + std::to_string(connections);
    metric("airsn.rps" + tag, rps);
    metric("airsn.p50_ms" + tag, quantile(r.latencies_s, 0.50) * 1e3);
    metric("airsn.p95_ms" + tag, quantile(r.latencies_s, 0.95) * 1e3);
    metric("airsn.p99_ms" + tag, quantile(r.latencies_s, 0.99) * 1e3);
    metric("airsn.error_rate" + tag,
           responses > 0 ? static_cast<double>(r.failed) / responses : 0.0);
    metric("airsn.shed_rate" + tag,
           responses > 0 ? static_cast<double>(r.shed) / responses : 0.0);
    metric("airsn.wakeup_coalescing" + tag, coalescing);
    std::printf("  c=%zu: %7.1f req/s, p50 %6.2fms, p95 %6.2fms, p99 "
                "%6.2fms, coalescing %.2f (%llu ok, %llu degraded, %llu "
                "shed, %llu failed)\n",
                connections, rps, quantile(r.latencies_s, 0.50) * 1e3,
                quantile(r.latencies_s, 0.95) * 1e3,
                quantile(r.latencies_s, 0.99) * 1e3, coalescing,
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.degraded),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.failed));
    if (r.failed > 0) rc = 1;
  }

  // Binary-payload and batched points at c=64 (same gating as the text
  // c=64 point): the dag ships as a typed CSR payload — the server
  // never parses text — and the batch point packs 16 of them into each
  // kBatchRequest round-trip (rps counts items, so the two rps figures
  // compare directly).
  const std::string binary_payload =
      prio::dag::encodeBinaryDag(prio::workloads::makeAirsn({}));
  if (hw == 0 || hw >= 8) {
    constexpr std::size_t kBatchSize = 16;
    struct Point {
      const char* name;
      std::size_t batch;
    };
    for (const Point point : {Point{"binary", 0}, Point{"batch", kBatchSize}}) {
      const LoadResult r =
          runLoad(server.port(), 64, seconds, binary_payload,
                  prio::net::PayloadKind::kBinaryCsr, point.batch);
      const auto items = static_cast<double>(r.items);
      const double rps = r.wall_s > 0 ? items / r.wall_s : 0.0;
      const std::string prefix = point.name;
      metric(prefix + ".rps@c64", rps);
      metric(prefix + ".p50_ms@c64", quantile(r.latencies_s, 0.50) * 1e3);
      metric(prefix + ".error_rate@c64",
             items > 0 ? static_cast<double>(r.failed) / items : 0.0);
      std::printf("  %s c=64: %7.1f dags/s, p50 %6.2fms (%llu ok, %llu "
                  "degraded, %llu shed, %llu failed)\n",
                  point.name, rps, quantile(r.latencies_s, 0.50) * 1e3,
                  static_cast<unsigned long long>(r.ok),
                  static_cast<unsigned long long>(r.degraded),
                  static_cast<unsigned long long>(r.shed),
                  static_cast<unsigned long long>(r.failed));
      if (r.failed > 0) rc = 1;
    }
  }

  server.requestStop();
  server_thread.join();
  const prio::net::Server::Stats final_stats = server.stats();

  // Parse-share split: fresh servers with both caches off, so every
  // request pays its full parse + schedule cost; the share is
  // phase_parse's fraction of total recorded phase time. This is the
  // figure the binary payload exists to collapse. Measured at c=1 with a single worker: the
  // share is a per-request cost ratio, and phase spans record wall
  // time, so any preemption under concurrency inflates short spans
  // (the binary decode most of all) and turns the ratio into a
  // scheduler artifact on small machines.
  auto parseShare = [&](bool binary_mode) {
    prio::net::ServerConfig cold;
    cold.port = 0;
    cold.service.num_threads = 1;
    cold.service.cache_capacity = 0;
    prio::net::Server cold_server(cold);
    std::thread cold_thread([&] { cold_server.run(); });
    runLoad(cold_server.port(), 1, std::min(seconds, 1.0),
            binary_mode ? binary_payload : dag_text,
            binary_mode ? prio::net::PayloadKind::kBinaryCsr
                        : prio::net::PayloadKind::kDagmanText);
    cold_server.requestStop();
    cold_thread.join();
    const prio::obs::Snapshot snap =
        cold_server.service().metrics().registry.snapshot();
    auto sumUs = [&](const char* name) {
      for (const prio::obs::HistogramSnapshot& h : snap.histograms) {
        if (h.name == name) return static_cast<double>(h.sum_us);
      }
      return 0.0;
    };
    const double parse = sumUs("phase_parse");
    const double total = parse + sumUs("phase_reduce") +
                         sumUs("phase_decompose") + sumUs("phase_recurse") +
                         sumUs("phase_combine");
    return total > 0.0 ? parse / total : 0.0;
  };
  const double share_text = parseShare(false);
  const double share_binary = parseShare(true);
  metric("parse_share.text", share_text);
  metric("parse_share.binary", share_binary);
  std::printf("  parse share (caches off): text %.1f%%, binary %.1f%%\n",
              share_text * 100.0, share_binary * 100.0);

  {
    std::ofstream out("BENCH_net.json");
    out << "{\"bench\":\"net_throughput\",\"smoke\":"
        << (smoke ? "true" : "false") << ",\"seconds_per_point\":" << seconds
        << ",\"hardware_concurrency\":" << hw
        << ",\"reactors\":" << server.reactors()
        << ",\"wakeups_signaled\":" << final_stats.wakeups_signaled
        << ",\"wakeups_drained\":" << final_stats.wakeups_drained
        << ",\"metrics\":{" << metrics_json << "}}\n";
  }
  std::printf("bench_net_throughput: %s — wrote BENCH_net.json\n",
              rc == 0 ? "ok" : "FAILED responses observed");
  return rc;
}
