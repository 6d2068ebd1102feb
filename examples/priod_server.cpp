// priod_server — serve the prioritization service over TCP (src/net/).
//
// Usage:
//   priod_server [options]
//
// Options:
//   --bind ADDR     listen address (default 127.0.0.1)
//   --port N        listen port (default 0 = kernel-chosen ephemeral)
//   --port-file F   write the bound port (one decimal line) to F once
//                   listening — how scripts using --port 0 find the server
//   --threads N     service worker threads (default: hardware concurrency)
//   --reactors N    reactor shards (event-loop threads; default: half the
//                   hardware threads, min 1). Each shard owns its own
//                   epoll loop, listener and connections; with N > 1 the
//                   listeners share the port via SO_REUSEPORT
//   --queue N       pending-request bound (default 256)
//   --reject        full queue / full gate answers kRejected instead of
//                   applying TCP backpressure
//   --cache N       result-cache capacity in entries (default 1024; 0 = off)
//   --max-in-flight N     admission gate: requests inside the service at
//                   once across all connections (default 256)
//   --max-connections N   simultaneous connection cap (default 1024)
//   --deadline-ms N        per-request compute deadline (reply kDegraded)
//   --queue-deadline-ms N  queue-wait deadline (reply kShed)
//   --idle-timeout-ms N    close connections idle this long (default: never)
//   --max-payload N        per-frame payload cap in bytes (default 64 MiB)
//   --max-batch-payload N  payload cap for kBatchRequest frames, so a
//                          batch can deliberately exceed the single-dag
//                          limit (default 0 = 4x max-payload)
//   --drain-timeout-ms N   bound on graceful drain (default 5000)
//   --metrics-out F  write the final Prometheus metrics snapshot to F on
//                    shutdown (the live snapshot is always at GET /metrics)
//   --tenant SPEC   configure one tenant; repeatable. SPEC is
//                   ID[:WEIGHT[:RATE_PER_S[:BURST[:MAX_IN_FLIGHT]]]]
//                   (weight drives the fair queue's service share; a
//                   nonzero rate meters admission with a token bucket;
//                   see DESIGN.md §12). Unlisted tenants use defaults
//                   (weight 1, unmetered).
//   --trace         enable per-request tracing (trace ids join client and
//                   server spans; see README "Serving over TCP")
//
// The server runs until SIGTERM or SIGINT, then drains gracefully:
// in-flight requests finish and their responses flush before exit.
// Exit status: 0 after a clean drain, 2 on usage errors.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "net/server.h"
#include "obs/trace.h"
#include "util/atomic_file.h"

namespace {

prio::net::Server* g_server = nullptr;

extern "C" void handleSignal(int) {
  if (g_server != nullptr) g_server->requestStop();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: priod_server [--bind ADDR] [--port N] [--port-file F] "
      "[--threads N] [--reactors N] [--queue N] [--reject] [--cache N] "
      "[--max-in-flight N] [--max-connections N] [--deadline-ms N] "
      "[--queue-deadline-ms N] [--idle-timeout-ms N] [--drain-timeout-ms N] "
      "[--max-payload N] [--max-batch-payload N] "
      "[--metrics-out F] [--tenant ID[:WEIGHT[:RATE[:BURST[:MAXINFL]]]]]... "
      "[--trace]\n");
  return 2;
}

/// Parses a --tenant SPEC (colon-separated, trailing fields optional).
std::pair<std::uint32_t, prio::tenant::TenantConfig> parseTenantSpec(
    const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.empty() || parts.size() > 5 || parts[0].empty()) {
    throw prio::util::Error("bad --tenant spec: " + spec);
  }
  const std::uint32_t id = static_cast<std::uint32_t>(std::stoul(parts[0]));
  prio::tenant::TenantConfig tc;
  if (parts.size() > 1 && !parts[1].empty()) {
    tc.weight = static_cast<std::uint32_t>(std::stoul(parts[1]));
  }
  if (parts.size() > 2 && !parts[2].empty()) tc.rate_per_s = std::stod(parts[2]);
  if (parts.size() > 3 && !parts[3].empty()) tc.burst = std::stod(parts[3]);
  if (parts.size() > 4 && !parts[4].empty()) {
    tc.max_in_flight = std::stoul(parts[4]);
  }
  return {id, tc};
}

}  // namespace

int main(int argc, char** argv) {
  prio::net::ServerConfig config;
  std::string port_file;
  std::string metrics_out;
  bool trace = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw prio::util::Error("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--bind") config.bind_address = next();
      else if (arg == "--port")
        config.port = static_cast<std::uint16_t>(std::stoul(next()));
      else if (arg == "--port-file") port_file = next();
      else if (arg == "--threads")
        config.service.num_threads = std::stoul(next());
      else if (arg == "--reactors")
        config.reactors = std::stoul(next());
      else if (arg == "--queue")
        config.service.queue_capacity = std::stoul(next());
      else if (arg == "--reject")
        config.service.backpressure =
            prio::service::BackpressurePolicy::kReject;
      else if (arg == "--cache")
        config.service.cache_capacity = std::stoul(next());
      else if (arg == "--max-in-flight")
        config.max_in_flight = std::stoul(next());
      else if (arg == "--max-connections")
        config.max_connections = std::stoul(next());
      else if (arg == "--deadline-ms")
        config.service.compute_deadline_s = std::stod(next()) / 1e3;
      else if (arg == "--queue-deadline-ms")
        config.service.queue_deadline_s = std::stod(next()) / 1e3;
      else if (arg == "--idle-timeout-ms")
        config.idle_timeout_s = std::stod(next()) / 1e3;
      else if (arg == "--drain-timeout-ms")
        config.drain_timeout_s = std::stod(next()) / 1e3;
      else if (arg == "--max-payload")
        config.max_payload = static_cast<std::uint32_t>(std::stoul(next()));
      else if (arg == "--max-batch-payload")
        config.max_batch_payload =
            static_cast<std::uint32_t>(std::stoul(next()));
      else if (arg == "--metrics-out") metrics_out = next();
      else if (arg == "--tenant")
        config.tenants.push_back(parseTenantSpec(next()));
      else if (arg == "--trace") trace = true;
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "priod_server: %s\n", e.what());
      return 2;
    }
  }

  try {
    prio::obs::Tracer tracer;
    if (trace) config.service.tracer = &tracer;

    prio::net::Server server(config);
    g_server = &server;
    std::signal(SIGTERM, handleSignal);
    std::signal(SIGINT, handleSignal);
    std::signal(SIGPIPE, SIG_IGN);  // broken clients surface as EPIPE

    if (!port_file.empty()) {
      prio::util::atomicWriteFile(port_file, [&](std::ostream& out) {
        out << server.port() << "\n";
      });
    }
    std::printf(
        "priod_server: listening on %s:%u (%zu workers, %zu reactors)\n",
        config.bind_address.c_str(), server.port(),
        server.service().numThreads(), server.reactors());
    std::fflush(stdout);

    server.run();

    if (!metrics_out.empty()) {
      prio::util::atomicWriteFile(metrics_out, [&](std::ostream& out) {
        server.writeMetricsText(out);
      });
    }
    const prio::net::Server::Stats s = server.stats();
    std::printf(
        "priod_server: drained — %llu connections, %llu frames, %llu "
        "responses (%llu dropped), %llu protocol errors\n",
        static_cast<unsigned long long>(s.connections_accepted),
        static_cast<unsigned long long>(s.frames_received),
        static_cast<unsigned long long>(s.responses_sent),
        static_cast<unsigned long long>(s.responses_dropped),
        static_cast<unsigned long long>(s.protocol_errors));
    g_server = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "priod_server: %s\n", e.what());
    return 2;
  }
}
