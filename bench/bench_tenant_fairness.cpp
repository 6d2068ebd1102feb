// bench_tenant_fairness — fairness under a hog (src/tenant/): an
// in-process priod server with the deficit-round-robin fair queue, one
// hog tenant keeping 10x the in-flight load of each of eight weight-equal
// small tenants, all over the AIRSN workload (§3.3, 773 jobs).
//
// Two phases over the same small-tenant fleet:
//
//   unloaded   the eight small tenants alone — their baseline p99
//   loaded     the hog joins at 10x per-tenant depth
//
// Emits BENCH_tenant.json with a flat "metrics" dict gated by
// scripts/bench_check.py against bench/baselines/BENCH_tenant_baseline.json:
//
//   fair.small_share_min_ratio   worst small tenant's loaded completion
//                                share over its 1/9 weight share — DRR
//                                must keep every small tenant within 25%
//                                of entitlement (gate: >= 0.75)
//   fair.small_share_max_ratio   best small tenant's share ratio
//   fair.hog_share_ratio         hog share over ITS weight share — DRR
//                                caps the hog near 1.0 despite 10x load
//   fair.p99_inflation           loaded small-tenant p99 over unloaded
//                                p99 (gate: <= 3.0) — without fair
//                                queueing the hog's backlog inflates
//                                this ~10x
//   fair.error_rate              non-kOk responses per response
//
// The gated metrics are only emitted on machines with >= 4 hardware
// threads (2 workers + loop + clients need real parallelism below that);
// bench_check skips gates whose metrics are absent — the same low-core
// escape hatch BENCH_core and BENCH_net use.
//
// Env knobs:
//   PRIO_BENCH_TENANT_SMOKE     "1" = CI smoke scale (shorter windows;
//                               same gates)
//   PRIO_BENCH_TENANT_SECONDS   seconds per phase (default 2.0; smoke
//                               default 0.75)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dagman/dagman_file.h"
#include "net/client.h"
#include "net/server.h"
#include "workloads/scientific.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kHogTenant = 1;
constexpr std::uint32_t kFirstSmallTenant = 2;
constexpr std::size_t kSmallTenants = 8;
constexpr std::size_t kSmallDepth = 2;   ///< in-flight per small tenant
constexpr std::size_t kHogDepth = 20;    ///< 10x a small tenant's load

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
  return file.render();
}

struct TenantLoad {
  std::uint64_t completed = 0;  ///< responses inside the measure window
  std::uint64_t errors = 0;     ///< non-kOk responses, any time
  std::vector<double> latencies_s;
};

/// One tenant's closed loop at a fixed pipeline depth: `depth` requests
/// stay on the wire; each response immediately funds the next request.
/// Only responses completing inside [warm_until, deadline] are counted,
/// so connection setup and pipeline fill don't skew shares.
TenantLoad runTenant(std::uint16_t port, std::uint32_t tenant,
                     std::size_t depth, Clock::time_point warm_until,
                     Clock::time_point deadline,
                     const std::string& dag_text) {
  TenantLoad load;
  prio::net::ClientOptions options;
  options.tenant = tenant;
  prio::net::Client client(options);
  client.connect("127.0.0.1", port);

  std::vector<std::pair<std::uint64_t, Clock::time_point>> in_flight;
  for (std::size_t i = 0; i < depth; ++i) {
    in_flight.emplace_back(client.send(dag_text), Clock::now());
  }
  while (Clock::now() < deadline) {
    const prio::net::Response r = client.receive();
    const auto now = Clock::now();
    const auto it = std::find_if(
        in_flight.begin(), in_flight.end(),
        [&](const auto& p) { return p.first == r.request_id; });
    if (r.status != prio::net::Status::kOk) {
      ++load.errors;
    } else if (now >= warm_until && it != in_flight.end()) {
      ++load.completed;
      load.latencies_s.push_back(
          std::chrono::duration<double>(now - it->second).count());
    }
    if (it != in_flight.end()) in_flight.erase(it);
    in_flight.emplace_back(client.send(dag_text), Clock::now());
  }
  // Abandon the tail; the server handles the disconnect.
  return load;
}

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto i = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  return samples[i];
}

struct PhaseResult {
  std::vector<TenantLoad> small;  ///< one per small tenant
  TenantLoad hog;                 ///< zero-valued when the hog is off
};

PhaseResult runPhase(std::uint16_t port, bool with_hog, double seconds,
                     const std::string& dag_text) {
  const auto t0 = Clock::now();
  const auto warm_until = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(0.2));
  const auto deadline =
      warm_until + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  PhaseResult result;
  result.small.resize(kSmallTenants);
  std::vector<std::thread> threads;
  if (with_hog) {
    threads.emplace_back([&] {
      result.hog = runTenant(port, kHogTenant, kHogDepth, warm_until,
                             deadline, dag_text);
    });
  }
  for (std::size_t i = 0; i < kSmallTenants; ++i) {
    threads.emplace_back([&, i] {
      result.small[i] = runTenant(
          port, kFirstSmallTenant + static_cast<std::uint32_t>(i),
          kSmallDepth, warm_until, deadline, dag_text);
    });
  }
  for (auto& t : threads) t.join();
  return result;
}

}  // namespace

int main() {
  const bool smoke = envFlag("PRIO_BENCH_TENANT_SMOKE");
  const double seconds =
      envSeconds("PRIO_BENCH_TENANT_SECONDS", smoke ? 0.75 : 2.0);
  const unsigned hw = std::thread::hardware_concurrency();
  const bool gated = hw >= 4;

  const std::string dag_text = airsnDagText();
  std::printf("bench_tenant_fairness: airsn %zu bytes, %.2fs per phase, "
              "%u hardware threads%s%s\n",
              dag_text.size(), seconds, hw, smoke ? " (smoke scale)" : "",
              gated ? "" : " (below 4: fairness gates skipped)");

  // Two workers and no cache so the workers — and therefore the fair
  // queue that feeds them — are the bottleneck the bench measures.
  prio::net::ServerConfig config;
  config.port = 0;
  config.service.num_threads = 2;
  config.service.cache_capacity = 0;
  config.service.queue_capacity = 4096;
  prio::net::Server server(config);
  std::thread server_thread([&] { server.run(); });

  std::string metrics_json;
  auto metric = [&](const std::string& name, double value) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6g",
                  metrics_json.empty() ? "" : ",", name.c_str(), value);
    metrics_json += buf;
  };

  int rc = 0;

  // Phase 1: the small fleet alone — the p99 baseline.
  PhaseResult unloaded = runPhase(server.port(), /*with_hog=*/false,
                                  seconds, dag_text);
  std::vector<double> unloaded_lat;
  std::uint64_t errors = 0, responses = 0;
  for (TenantLoad& t : unloaded.small) {
    unloaded_lat.insert(unloaded_lat.end(), t.latencies_s.begin(),
                        t.latencies_s.end());
    errors += t.errors;
    responses += t.completed + t.errors;
  }
  const double p99_unloaded = quantile(unloaded_lat, 0.99);
  std::printf("  unloaded: %zu samples, small p99 %.2fms\n",
              unloaded_lat.size(), p99_unloaded * 1e3);

  // Phase 2: the hog joins at 10x depth.
  PhaseResult loaded = runPhase(server.port(), /*with_hog=*/true, seconds,
                                dag_text);
  std::vector<double> loaded_lat;
  std::uint64_t small_total = 0, small_min = ~0ull, small_max = 0;
  for (TenantLoad& t : loaded.small) {
    loaded_lat.insert(loaded_lat.end(), t.latencies_s.begin(),
                      t.latencies_s.end());
    small_total += t.completed;
    small_min = std::min(small_min, t.completed);
    small_max = std::max(small_max, t.completed);
    errors += t.errors;
    responses += t.completed + t.errors;
  }
  errors += loaded.hog.errors;
  responses += loaded.hog.completed + loaded.hog.errors;
  const double p99_loaded = quantile(loaded_lat, 0.99);

  // All 9 loaded tenants are weight-equal, so each one's entitlement is
  // 1/9 of the completed total; share_ratio = actual / entitlement.
  const double total =
      static_cast<double>(small_total + loaded.hog.completed);
  const double entitlement = total / (kSmallTenants + 1);
  const double share_min =
      entitlement > 0 ? static_cast<double>(small_min) / entitlement : 0.0;
  const double share_max =
      entitlement > 0 ? static_cast<double>(small_max) / entitlement : 0.0;
  const double hog_share =
      entitlement > 0 ? static_cast<double>(loaded.hog.completed) /
                            entitlement
                      : 0.0;
  const double inflation =
      p99_unloaded > 0 ? p99_loaded / p99_unloaded : 0.0;
  const double error_rate =
      responses > 0 ? static_cast<double>(errors) /
                          static_cast<double>(responses)
                    : 0.0;

  std::printf("  loaded: hog %llu, small min/max %llu/%llu of %.1f "
              "entitled — shares %.2f/%.2f, hog %.2f; small p99 %.2fms "
              "(%.2fx unloaded)\n",
              static_cast<unsigned long long>(loaded.hog.completed),
              static_cast<unsigned long long>(small_min),
              static_cast<unsigned long long>(small_max), entitlement,
              share_min, share_max, hog_share, p99_loaded * 1e3, inflation);

  metric("fair.small_p99_unloaded_ms", p99_unloaded * 1e3);
  metric("fair.small_p99_loaded_ms", p99_loaded * 1e3);
  metric("fair.small_completed_total", static_cast<double>(small_total));
  metric("fair.hog_completed", static_cast<double>(loaded.hog.completed));
  if (gated) {
    metric("fair.small_share_min_ratio", share_min);
    metric("fair.small_share_max_ratio", share_max);
    metric("fair.hog_share_ratio", hog_share);
    metric("fair.p99_inflation", inflation);
  }
  metric("fair.error_rate", error_rate);
  if (errors > 0) rc = 1;

  server.requestStop();
  server_thread.join();

  {
    std::ofstream out("BENCH_tenant.json");
    out << "{\"bench\":\"tenant_fairness\",\"smoke\":"
        << (smoke ? "true" : "false") << ",\"seconds_per_phase\":" << seconds
        << ",\"hardware_concurrency\":" << hw << ",\"metrics\":{"
        << metrics_json << "}}\n";
  }
  std::printf("bench_tenant_fairness: %s — wrote BENCH_tenant.json\n",
              rc == 0 ? "ok" : "FAILED responses observed");
  return rc;
}
