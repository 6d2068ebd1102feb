// In-process network-chaos proxy for deterministic fault testing.
//
// ChaosProxy sits between a client and a priod server as a plain TCP
// relay that mangles *delivery* without ever corrupting *bytes*: every
// byte that arrives is forwarded verbatim and in order, but the proxy
// decides — from a seeded PRNG, so runs replay exactly — how the stream
// is chopped up and when it dies:
//
//   - Splitting: forwarded writes are capped at `max_chunk` bytes.
//     max_chunk=1 is the adversarial case, re-feeding the peer's
//     FrameDecoder one byte at a time so every possible split offset of
//     every frame is exercised.
//   - Stalls: with probability `delay_prob` per flush, a direction goes
//     quiet for `delay_s` before the next chunk — the shape that read
//     timeouts and deadline budgets must absorb.
//   - Resets: with probability `reset_prob` per flush (or hard at
//     `reset_after_bytes` forwarded in one direction), both sides get a
//     real RST (SO_LINGER 0 close) — the mid-frame connection death a
//     resilient client must recover from by reconnect + replay.
//   - Truncation: at `truncate_after_bytes` the connection is closed
//     cleanly (FIN) mid-stream — EOF where a frame promised more bytes.
//
// Single-threaded poll(2) loop over all connections that rebuilds its
// interest set every tick, so it needs no Poller. It shares the server's
// listener setup and accept path (util/socket.h) and its eventfd Wakeup
// (net/wakeup.h): run() on a dedicated thread, requestStop() from
// anywhere.
// Fault decisions are drawn per connection from splitmix64 streams
// derived from (seed, connection index), so concurrency does not
// perturb the schedule of any one connection.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace prio::net {

struct ChaosOptions {
  std::string listen_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with ChaosProxy::port().
  std::uint16_t listen_port = 0;
  std::string upstream_host = "127.0.0.1";
  std::uint16_t upstream_port = 0;
  /// Seed for the fault schedule. Same seed + same per-connection
  /// traffic => same faults.
  std::uint64_t seed = 1;
  /// Largest forwarded write, in bytes (0 = unlimited). 1 = the
  /// byte-at-a-time adversarial split.
  std::size_t max_chunk = 0;
  /// Probability per flush of stalling the direction for delay_s.
  double delay_prob = 0.0;
  double delay_s = 0.0;
  /// Probability per flush of killing the connection with an RST.
  double reset_prob = 0.0;
  /// Hard RST once this many bytes were forwarded in one direction
  /// (0 = never). Deterministic alternative to reset_prob.
  std::uint64_t reset_after_bytes = 0;
  /// Clean FIN close once this many bytes were forwarded in one
  /// direction (0 = never): truncation mid-frame.
  std::uint64_t truncate_after_bytes = 0;
};

class ChaosProxy {
 public:
  /// Binds and listens (throws util::Error on failure); relaying starts
  /// with run().
  explicit ChaosProxy(const ChaosOptions& options);
  ~ChaosProxy();
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// The bound listen port.
  [[nodiscard]] std::uint16_t port() const;

  /// Relays until requestStop(). Call from exactly one thread.
  void run();

  /// Stops run(). Idempotent; callable from any thread.
  void requestStop() noexcept;

  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t bytes_forwarded = 0;   ///< both directions
    std::uint64_t chunks_forwarded = 0;  ///< individual mangled writes
    std::uint64_t delays_injected = 0;
    std::uint64_t resets_injected = 0;
    std::uint64_t truncations_injected = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace prio::net
