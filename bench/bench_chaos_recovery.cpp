// bench_chaos_recovery — crash/restart end-to-end for the fault-tolerant
// serving stack (DESIGN.md §13): a real priod_server child process is
// SIGKILLed mid-load (one request pipelined and unanswered at kill
// time) and restarted on the same port, while a ResilientClient drives
// traffic through the in-process deterministic ChaosProxy (frames split
// into small chunks, seeded stalls). Every response is checked
// byte-for-byte against the offline pipeline — the same code path
// prio_tool runs — so a replayed or post-crash request that produces
// different output is caught, not just a dropped one.
//
// Emits BENCH_chaos.json, gated by scripts/bench_check.py twice: the
// chaos-json schema enforces the hard invariants, and
// bench/baselines/BENCH_chaos_baseline.json gates drift:
//
//   chaos.wrong_answers   responses whose bytes differ from the offline
//                         pipeline's — must be exactly 0
//   chaos.unanswered      logical requests that never reached a
//                         terminal outcome (response or error) within
//                         the wall budget — must be exactly 0
//   chaos.recovery_s      SIGKILL to the first byte-correct response
//                         through the restarted server — budget < 2 s
//
// Env knobs:
//   PRIOD_SERVER              priod_server binary (default
//                             build/examples/priod_server)
//   PRIO_BENCH_CHAOS_SMOKE    "1" = CI smoke scale (fewer requests per
//                             phase; same kill/restart sequence and
//                             the same gates)
//   PRIO_BENCH_CHAOS_SEED     chaos proxy fault-schedule seed
//                             (default 1)
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dagman/dagman_file.h"
#include "dagman/instrument.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/resilient.h"
#include "util/check.h"
#include "workloads/scientific.h"

namespace {

using Clock = std::chrono::steady_clock;

bool envFlag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && std::strcmp(v, "1") == 0;
}

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtoull(v, nullptr, 10);
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr const char* kFig3 =
    "Job a a.submit\n"
    "Job b b.submit\n"
    "Job c c.submit\n"
    "Job d d.submit\n"
    "Job e e.submit\n"
    "PARENT a CHILD b\n"
    "PARENT c CHILD d e\n";

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

/// The offline tool's output for the same text: the byte-parity oracle
/// (prio_tool runs exactly this parse -> prioritize -> write pipeline).
std::string offlineInstrument(const std::string& dag_text) {
  auto file = prio::dagman::DagmanFile::parse(dag_text);
  (void)prio::dagman::prioritizeDagmanFile(file);
  return file.render();
}

/// fork/exec priod_server with stdout+stderr appended to `log_path`.
/// Returns the child pid; the child _exits 127 if exec fails.
pid_t spawnServer(const std::string& binary, std::uint16_t port,
                  const std::string& port_file,
                  const std::string& log_path) {
  const pid_t pid = fork();
  PRIO_CHECK_MSG(pid >= 0, "fork failed: " << std::strerror(errno));
  if (pid == 0) {
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                         0644);
    if (log >= 0) {
      dup2(log, STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
      close(log);
    }
    const std::string port_str = std::to_string(port);
    execl(binary.c_str(), binary.c_str(), "--bind", "127.0.0.1", "--port",
          port_str.c_str(), "--port-file", port_file.c_str(), "--threads",
          "2", static_cast<char*>(nullptr));
    std::perror("bench_chaos_recovery: exec priod_server");
    _exit(127);
  }
  return pid;
}

/// Polls `port_file` until the server writes its bound port (or the
/// child dies / 10 s pass). Returns the port.
std::uint16_t awaitPortFile(const std::string& port_file, pid_t pid) {
  const auto t0 = Clock::now();
  while (secondsSince(t0) < 10.0) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port != 0) return static_cast<std::uint16_t>(port);
    int status = 0;
    PRIO_CHECK_MSG(waitpid(pid, &status, WNOHANG) == 0,
                   "priod_server died at startup (see the bench log)");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  PRIO_CHECK_MSG(false, "priod_server never wrote " << port_file);
  return 0;
}

struct Counters {
  std::uint64_t requests = 0;
  std::uint64_t wrong_answers = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t transport_errors = 0;  ///< thrown calls that were retried
};

/// One logical request: retried through the resilient client until a
/// terminal response arrives or the wall budget is spent. A response
/// with the wrong bytes is terminal (wrong_answers); exhausting the
/// budget without any response is unanswered.
bool oneRequest(prio::net::ResilientClient& client, const std::string& text,
                const std::string& expect, Counters& c,
                double budget_s = 10.0) {
  ++c.requests;
  const auto t0 = Clock::now();
  while (secondsSince(t0) < budget_s) {
    try {
      const prio::net::Response r = client.call(text);
      if (r.hasOutput() && r.payload == expect) return true;
      std::fprintf(stderr,
                   "bench_chaos_recovery: wrong answer (status %s, %zu "
                   "payload bytes)\n",
                   prio::net::statusName(r.status), r.payload.size());
      ++c.wrong_answers;
      return false;
    } catch (const prio::net::BreakerOpenError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } catch (const prio::util::Error&) {
      ++c.transport_errors;
    }
  }
  ++c.unanswered;
  return false;
}

}  // namespace

int main() {
  const bool smoke = envFlag("PRIO_BENCH_CHAOS_SMOKE");
  const std::uint64_t seed = envU64("PRIO_BENCH_CHAOS_SEED", 1);
  const std::size_t per_phase = smoke ? 8 : 24;

  const char* env_server = std::getenv("PRIOD_SERVER");
  const std::string server_bin =
      env_server != nullptr ? env_server : "build/examples/priod_server";
  if (access(server_bin.c_str(), X_OK) != 0) {
    std::fprintf(stderr,
                 "bench_chaos_recovery: server binary %s not executable "
                 "(set PRIOD_SERVER)\n",
                 server_bin.c_str());
    return 1;
  }

  const std::string port_file = "bench_chaos_port.tmp";
  const std::string log_path = "bench_chaos_server.log";
  std::remove(port_file.c_str());
  std::remove(log_path.c_str());

  const std::string small_text = kFig3;
  const std::string airsn_text = airsnDagText();
  const std::string small_expect = offlineInstrument(small_text);
  const std::string airsn_expect = offlineInstrument(airsn_text);
  std::printf("bench_chaos_recovery: seed %llu, %zu requests per phase, "
              "airsn %zu bytes%s\n",
              static_cast<unsigned long long>(seed), per_phase,
              airsn_text.size(), smoke ? " (smoke scale)" : "");

  // Phase 1: server on an ephemeral port (read back from the port file
  // so the restart can reuse the exact same port).
  pid_t server_pid = spawnServer(server_bin, 0, port_file, log_path);
  const std::uint16_t server_port = awaitPortFile(port_file, server_pid);

  // Deterministic mild chaos on every request: frames split into
  // 512-byte chunks (an AIRSN round trip crosses ~240 chunk boundaries),
  // occasional 2 ms stalls. Byte-at-a-time torture lives in the unit
  // tests; here the chunks must stay coarse enough that a healthy round
  // trip fits well inside request_timeout_s.
  prio::net::ChaosOptions chaos;
  chaos.upstream_port = server_port;
  chaos.seed = seed;
  chaos.max_chunk = 512;
  chaos.delay_prob = 0.05;
  chaos.delay_s = 0.002;
  prio::net::ChaosProxy proxy(chaos);
  std::thread proxy_thread([&] { proxy.run(); });

  prio::net::ResilientOptions ropts;
  ropts.client.request_timeout_s = 2.0;
  ropts.client.connect_attempts = 5;
  ropts.max_reconnects = 8;
  ropts.reconnect_backoff_base_s = 0.02;
  ropts.reconnect_backoff_cap_s = 0.2;
  ropts.reconnect_seed = seed;
  ropts.breaker.failure_threshold = 64;  // one restart must not trip it
  prio::net::ResilientClient client("127.0.0.1", proxy.port(), ropts);

  Counters c;
  const auto bench_t0 = Clock::now();
  for (std::size_t i = 0; i < per_phase; ++i) {
    oneRequest(client, i % 4 == 0 ? airsn_text : small_text,
               i % 4 == 0 ? airsn_expect : small_expect, c);
  }
  std::printf("  phase 1 (pre-crash): %llu requests, %llu wrong, %llu "
              "transport errors\n",
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.wrong_answers),
              static_cast<unsigned long long>(c.transport_errors));

  // Crash: pipeline one request so it is in flight at kill time, then
  // SIGKILL the server and restart it on the same port. The client must
  // reconnect through the proxy and replay the pipelined request.
  const std::uint64_t pipelined_id = client.submit(airsn_text);
  ++c.requests;
  PRIO_CHECK(kill(server_pid, SIGKILL) == 0);
  PRIO_CHECK(waitpid(server_pid, nullptr, 0) == server_pid);
  const auto kill_t0 = Clock::now();
  std::remove(port_file.c_str());
  server_pid = spawnServer(server_bin, server_port, port_file, log_path);

  double recovery_s = -1.0;
  bool pipelined_ok = false;
  while (secondsSince(kill_t0) < 10.0) {
    try {
      const prio::net::Response r = client.await();
      PRIO_CHECK_MSG(r.request_id == pipelined_id,
                     "response for unexpected id " << r.request_id);
      recovery_s = secondsSince(kill_t0);
      pipelined_ok = r.hasOutput() && r.payload == airsn_expect;
      if (!pipelined_ok) ++c.wrong_answers;
      break;
    } catch (const prio::net::BreakerOpenError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } catch (const prio::util::Error&) {
      ++c.transport_errors;
    }
  }
  if (recovery_s < 0.0) {
    ++c.unanswered;
    recovery_s = secondsSince(kill_t0);
  }
  std::printf("  crash/restart: first %s response %.3fs after SIGKILL "
              "(%llu reconnects, %llu replays)\n",
              pipelined_ok ? "byte-correct" : "WRONG",
              recovery_s,
              static_cast<unsigned long long>(client.stats().reconnects),
              static_cast<unsigned long long>(client.stats().replays));

  // Phase 2: same load against the restarted server — parity must hold
  // as if the crash never happened.
  for (std::size_t i = 0; i < per_phase; ++i) {
    oneRequest(client, i % 4 == 0 ? airsn_text : small_text,
               i % 4 == 0 ? airsn_expect : small_expect, c);
  }
  const double wall_s = secondsSince(bench_t0);

  kill(server_pid, SIGTERM);
  waitpid(server_pid, nullptr, 0);
  proxy.requestStop();
  proxy_thread.join();
  std::remove(port_file.c_str());

  const prio::net::ChaosProxy::Stats ps = proxy.stats();
  const prio::net::ResilientClient::Stats cs = client.stats();

  std::string metrics_json;
  auto metric = [&](const std::string& name, double value) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6g",
                  metrics_json.empty() ? "" : ",", name.c_str(), value);
    metrics_json += buf;
  };
  metric("chaos.requests", static_cast<double>(c.requests));
  metric("chaos.wrong_answers", static_cast<double>(c.wrong_answers));
  metric("chaos.unanswered", static_cast<double>(c.unanswered));
  metric("chaos.transport_errors", static_cast<double>(c.transport_errors));
  metric("chaos.recovery_s", recovery_s);
  metric("chaos.reconnects", static_cast<double>(cs.reconnects));
  metric("chaos.replays", static_cast<double>(cs.replays));
  metric("chaos.fast_failures", static_cast<double>(cs.fast_failures));
  metric("chaos.proxy_chunks", static_cast<double>(ps.chunks_forwarded));
  metric("chaos.proxy_delays", static_cast<double>(ps.delays_injected));
  metric("chaos.wall_s", wall_s);

  {
    std::ofstream out("BENCH_chaos.json");
    out << "{\"bench\":\"chaos_recovery\",\"smoke\":"
        << (smoke ? "true" : "false") << ",\"seed\":" << seed
        << ",\"metrics\":{" << metrics_json << "}}\n";
  }

  const bool recovered = recovery_s < 2.0;
  const int rc =
      (c.wrong_answers == 0 && c.unanswered == 0 && recovered) ? 0 : 1;
  std::printf("bench_chaos_recovery: %llu requests, %llu wrong, %llu "
              "unanswered, recovery %.3fs — %s, wrote BENCH_chaos.json\n",
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.wrong_answers),
              static_cast<unsigned long long>(c.unanswered), recovery_s,
              rc == 0 ? "ok" : "FAILED");
  return rc;
}
