// Crash-recovering client: reconnect, replay, and fail-fast.
//
// Client (net/client.h) is deliberately dumb — one connection, throws on
// any I/O trouble. ResilientClient wraps it with the recovery policy a
// long-lived caller wants when the server can be killed and restarted
// under it (DESIGN.md §13):
//
//   - submit()/await() pipeline like Client::send()/receive(), but every
//     in-flight request's text is kept until its response arrives. When
//     the connection dies (EOF, ECONNRESET, a response timeout, a
//     protocol error from a half-written frame), the client reconnects
//     with seeded full-jitter backoff and REPLAYS every outstanding
//     request under its original request id, so responses still
//     correlate and the caller never observes the crash — only latency.
//     Replay is safe because requests are idempotent: the same dag text
//     produces the same instrumented output (and usually a cache hit).
//   - Request ids are owned here (Client::send's explicit-id hook), so
//     ids stay unique across reconnects.
//   - A per-endpoint CircuitBreaker sits in front: after
//     `failure_threshold` consecutive recovery failures the breaker
//     opens and submit()/call() throw BreakerOpenError immediately
//     (fail-fast, no connect attempt) until `open_cooldown_s` passes;
//     then one half-open probe decides between closing and re-opening.
//     Time is injectable for deterministic tests.
//
// Not thread-safe: one ResilientClient per thread, like Client.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/client.h"

namespace prio::net {

/// CircuitBreaker tuning. Defaults suit an interactive CLI: trip after a
/// handful of consecutive failures, retry after a second.
struct BreakerOptions {
  /// Consecutive recorded failures that trip kClosed -> kOpen.
  std::uint32_t failure_threshold = 5;
  /// Time in kOpen before one half-open probe is allowed.
  double open_cooldown_s = 1.0;
  /// Consecutive half-open successes required to close again.
  std::uint32_t half_open_successes = 1;
};

/// Classic three-state breaker. Pure state machine over caller-supplied
/// timestamps (seconds on any monotonic clock) — no hidden clock, so
/// tests drive it deterministically.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(BreakerOptions options = {});

  /// May a call proceed at `now_s`? kClosed: yes. kOpen: no until the
  /// cooldown elapses, which transitions to kHalfOpen. kHalfOpen: yes
  /// for one probe at a time (further calls fail fast until the probe
  /// reports back via recordSuccess/recordFailure).
  [[nodiscard]] bool allow(double now_s);

  /// Report the outcome of an allowed call.
  void recordSuccess(double now_s);
  void recordFailure(double now_s);

  /// Current state, after applying the open->half-open timer at now_s.
  [[nodiscard]] State state(double now_s);

  [[nodiscard]] std::uint64_t openedCount() const { return opened_count_; }

 private:
  BreakerOptions options_;
  State state_ = State::kClosed;
  std::uint32_t consecutive_failures_ = 0;
  std::uint32_t half_open_successes_ = 0;
  bool probe_in_flight_ = false;
  double opened_at_s_ = 0.0;
  std::uint64_t opened_count_ = 0;
};

/// The breaker is open: the endpoint has been failing and the cooldown
/// has not elapsed. Callers should treat this as "failed fast" — no
/// network I/O was attempted.
class BreakerOpenError : public util::Error {
 public:
  explicit BreakerOpenError(const std::string& what) : util::Error(what) {}
};

struct ResilientOptions {
  /// Options for the wrapped Client. Set request_timeout_s here or a
  /// dead server stalls await() for the full kernel TCP timeout;
  /// deadline_ms and tenant ride through unchanged.
  ClientOptions client;
  /// Reconnect rounds per recovery before giving up (each round is one
  /// connect, itself retried per client.connect_attempts on refusal).
  std::uint32_t max_reconnects = 4;
  /// Full-jitter backoff between reconnect rounds.
  double reconnect_backoff_base_s = 0.05;
  double reconnect_backoff_cap_s = 1.0;
  std::uint64_t reconnect_seed = 1;
  BreakerOptions breaker;
  /// Injectable monotonic clock for the breaker (tests); null uses
  /// steady_clock.
  std::function<double()> now_fn;
};

class ResilientClient {
 public:
  ResilientClient(std::string host, std::uint16_t port,
                  ResilientOptions options = {});

  /// Sends one request (connecting or recovering first if needed) and
  /// tracks it for replay. Returns the request id. Throws
  /// BreakerOpenError when the breaker is open, util::Error when
  /// recovery is exhausted.
  std::uint64_t submit(const std::string& dag_text);

  /// submit() for a typed payload (text or binary CSR) — same tracking
  /// and replay semantics.
  std::uint64_t submitPayload(PayloadKind kind, const std::string& payload);

  /// Submits one kBatchRequest covering `items`; the whole batch is one
  /// tracked request (one await() answers every item) and replays as a
  /// unit after a reconnect.
  std::uint64_t submitBatch(const std::vector<BatchItem>& items);

  /// Blocks for the next response to ANY tracked request, recovering the
  /// connection (reconnect + replay) as needed along the way — at most
  /// max_reconnects recoveries per call, so a peer that accepts but never
  /// answers surfaces the receive error instead of spinning. Throws
  /// BreakerOpenError / util::Error like submit(). PRIO_CHECKs when
  /// nothing is in flight. The failed request stays tracked: a later
  /// await() replays and can still complete it.
  Response await();

  /// submit() + await() for the single-request caller. The returned
  /// response is matched by id (pipelined callers use submit/await).
  Response call(const std::string& dag_text);

  [[nodiscard]] std::size_t inFlight() const { return in_flight_.size(); }
  [[nodiscard]] CircuitBreaker& breaker() { return breaker_; }

  /// Recovery counters (monotonic over the client's lifetime).
  struct Stats {
    std::uint64_t reconnects = 0;     ///< successful reconnections
    std::uint64_t replays = 0;        ///< requests re-sent after a reconnect
    std::uint64_t fast_failures = 0;  ///< calls refused by the open breaker
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  [[nodiscard]] double now() const;
  /// Throws BreakerOpenError (counting it) unless the breaker allows.
  void checkBreaker();
  /// Ensures a live connection with every in-flight request replayed on
  /// it. On success records breaker success; on exhaustion records
  /// failure and rethrows the last error.
  void recover();
  /// The shared submit path: track, send (or recover-and-replay).
  std::uint64_t submitPending(FrameType type, PayloadKind kind,
                              std::string payload);

  std::string host_;
  std::uint16_t port_;
  ResilientOptions options_;
  Client client_;
  CircuitBreaker breaker_;
  /// Everything needed to replay one tracked request byte-identically:
  /// batch requests keep their pre-encoded envelope in `payload`.
  struct PendingRequest {
    FrameType type = FrameType::kRequest;
    PayloadKind kind = PayloadKind::kDagmanText;
    std::string payload;
  };
  /// id -> request, ordered so replay resends in submission order;
  /// replies are matched back by id.
  std::map<std::uint64_t, PendingRequest> in_flight_;
  std::uint64_t next_id_ = 1;
  bool ever_connected_ = false;
  std::uint64_t reconnect_round_ = 0;  ///< backoff step, reset on success
  Stats stats_;
};

}  // namespace prio::net
