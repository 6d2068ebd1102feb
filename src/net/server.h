// The priod TCP server: N sharded, non-blocking event loops ("reactor
// shards") that expose a PrioService over the framed wire protocol
// (net/protocol.h).
//
// Architecture (DESIGN.md §11 single-loop mechanics, §14 sharding):
//   - Each of the N reactor shards is the single-loop server of §11 in
//     miniature: it owns its sockets exclusively — accepts connections,
//     decodes request frames, submits them to the SHARED PrioService via
//     submitCallback(); worker threads push completed Replies onto the
//     owning shard's completion queue and wake that shard through its
//     eventfd (net/wakeup.h), so replies are serialized back onto their
//     connection without any socket ever being touched from two
//     threads. No connection, buffer, or poller is ever shared between
//     shards.
//   - Connection placement: every shard binds its own listener on the
//     same address (SO_REUSEPORT when there is more than one) and
//     accepts for itself; the kernel spreads the handshakes, and
//     prio_net_shard_connections shows how evenly.
//   - Readiness comes from one level-triggered epoll instance per shard
//     (net/poller.h).
//   - Per-connection state machine: FRAMING connections run the binary
//     protocol; a connection whose first bytes are "GET " flips to HTTP
//     mode and is served one snapshot — "GET /metrics" (plaintext
//     Prometheus), "GET /tenants" (per-tenant JSON), "GET /healthz"
//     (liveness), or "GET /readyz" (readiness: 503 while draining or
//     with the admission gate saturated) — then closed. All counters
//     live in one shared lock-free registry, so the snapshot any shard
//     serves aggregates across every shard.
//   - Admission gate: at most max_in_flight requests may be inside the
//     service at once — one atomic shared by all shards, so the cap is
//     global, not per-shard. Under kBlock a full gate pauses reading
//     from the connection (TCP backpressure reaches the client) and the
//     frame parks; a shard that frees gate slots wakes every sibling
//     with parked frames so cross-shard unparks don't wait for the tick.
//     Under kReject the request is answered Status::kRejected. The
//     tenant token-bucket quota and in-flight cap sit behind the same
//     gate (the registry is internally synchronized).
//   - Idle reaping is O(expired), not O(connections): each shard keeps
//     its connections on an intrusive LRU list ordered by last activity
//     and pops from the cold end until it meets a live one.
//   - Graceful drain: requestStop() (async-signal-safe; call it from a
//     SIGTERM handler) wakes every shard; each closes its listener,
//     stops decoding new frames, lets its in-flight requests finish and
//     flushes their responses. run() returns when the last shard
//     finishes draining; drain_timeout_s bounds how long a stuck client
//     can hold any shard up.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "service/service.h"
#include "tenant/registry.h"

namespace prio::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the choice back with Server::port().
  std::uint16_t port = 0;
  /// Configuration of the owned PrioService (threads, queue, cache,
  /// deadlines, backpressure policy — which also selects the gate's
  /// pause-vs-reject behaviour).
  service::ServiceConfig service;
  /// Reactor shards (event-loop threads). 0 = hardware_concurrency/2,
  /// floored at 1. Each shard owns its connections exclusively and, with
  /// more than one, binds its own SO_REUSEPORT listener on the port.
  std::size_t reactors = 0;
  /// Hard cap on simultaneous connections across all shards; extras are
  /// accepted and immediately closed.
  std::size_t max_connections = 1024;
  /// Admission gate: requests in flight inside the service across all
  /// connections and shards (one shared atomic). Under kBlock
  /// backpressure the effective gate is capped at the service queue
  /// capacity so submissions never block a loop thread.
  std::size_t max_in_flight = 256;
  /// Close connections with no traffic and no pending work for this
  /// long (0 = never).
  double idle_timeout_s = 0.0;
  /// Upper bound on the graceful-drain phase of run().
  double drain_timeout_s = 5.0;
  /// Per-frame payload cap (protocol error beyond it).
  std::uint32_t max_payload = kMaxPayload;
  /// Payload cap for kBatchRequest frames, so a batch can deliberately
  /// exceed the single-dag limit. 0 = 4x max_payload. Each item inside
  /// the envelope is still bounded by max_payload.
  std::uint32_t max_batch_payload = 0;
  /// Tenant policies installed into the server's registry before
  /// serving: (tenant id, config) pairs — the priod_server --tenant
  /// flag. Tenants not listed here self-register with default policy
  /// (weight 1, no quota) on first request.
  std::vector<std::pair<std::uint32_t, tenant::TenantConfig>> tenants;
  /// Default policy for tenants that self-register (and for tenant 0
  /// unless overridden in `tenants`).
  tenant::TenantConfig tenant_defaults;
};

class Server {
 public:
  /// Binds and listens (throws util::Error on failure) but does not
  /// serve until run(). One listener per shard is bound here, all on the
  /// same port.
  explicit Server(const ServerConfig& config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral choice when config.port was 0).
  [[nodiscard]] std::uint16_t port() const;

  /// The number of reactor shards actually serving (the resolved value
  /// of ServerConfig::reactors).
  [[nodiscard]] std::size_t reactors() const;

  /// Serves until requestStop(); returns after every shard drains. Call
  /// from exactly one thread — it becomes shard 0 and the remaining
  /// shards run on threads spawned (and joined) inside.
  void run();

  /// Initiates shutdown. Async-signal-safe and idempotent; callable from
  /// any thread or from a signal handler. Wakes every shard.
  void requestStop() noexcept;

  /// The backing service (metrics, cache introspection).
  [[nodiscard]] service::PrioService& service();
  [[nodiscard]] const service::PrioService& service() const;

  /// The body of the HTTP /metrics endpoint: the service's Prometheus
  /// snapshot, the server's prio_net_* series (aggregated across
  /// shards), the per-shard prio_net_shard_connections family, and the
  /// per-tenant prio_tenant_* families.
  void writeMetricsText(std::ostream& out);

  /// The body of the HTTP /tenants endpoint: live per-tenant JSON
  /// (config, queue depth, admission counters, latency quantiles) —
  /// schema `tenants-json` in scripts/bench_check.py.
  void writeTenantsJson(std::ostream& out);

  /// The server-owned tenant registry (policies and accounting). Safe to
  /// read from any thread; configure() before run() to install policies
  /// programmatically.
  [[nodiscard]] tenant::TenantRegistry& tenants();
  [[nodiscard]] const tenant::TenantRegistry& tenants() const;

  /// Server-side counters, readable from any thread. Counter fields
  /// aggregate across every shard.
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t connections_idle_closed = 0;
    std::uint64_t connections_refused = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t responses_sent = 0;
    std::uint64_t responses_dropped = 0;  ///< connection died before reply
    std::uint64_t responses_oversized = 0;  ///< reply downgraded to kFailed
    std::uint64_t protocol_errors = 0;
    std::uint64_t gate_rejected = 0;  ///< admission gate, kReject policy
    std::uint64_t tenant_rejected = 0;  ///< tenant quota / in-flight cap
    std::uint64_t requests_expired = 0;  ///< answered kExpired on the wire
    std::uint64_t http_requests = 0;
    /// Wakeup coalescing: signal() calls issued vs. drains that consumed
    /// at least one. signaled/drained >= 1 is the coalescing ratio the
    /// net bench reports (eventfd makes it structural).
    std::uint64_t wakeups_signaled = 0;
    std::uint64_t wakeups_drained = 0;
    /// Event-loop watchdog: worst observed time (µs) any shard's loop
    /// spent away from poll in one iteration.
    std::uint64_t loop_stall_max_us = 0;
    /// Connections adopted by each shard, indexed by shard: the kernel's
    /// SO_REUSEPORT distribution.
    std::vector<std::uint64_t> shard_connections;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace prio::net
