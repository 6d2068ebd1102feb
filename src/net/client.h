// Blocking client for the priod wire protocol (net/protocol.h).
//
// One Client owns one TCP connection. send() writes a request frame and
// returns immediately with its request id; receive() blocks for the next
// response frame. Because the two are independent, callers pipeline
// freely: send k requests back to back, then drain k responses and match
// them up by the echoed request id. That id is the contract: the server
// writes replies in completion order, which matches submission order
// only with a single service worker.
//
// connect() retries refused connections with seeded exponential backoff
// (util/retry.h) — the natural race when a test or script starts the
// server and client concurrently.
//
// Tracing: give ClientOptions a Tracer and every call() runs under a
// client-side "net.request" span whose trace id rides the frame's
// trace_id field; the server adopts it for the request's server-side span
// tree, so one id joins both halves of the distributed trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "obs/trace.h"
#include "util/socket.h"

namespace prio::net {

struct ClientOptions {
  /// Connection attempts before giving up (ECONNREFUSED only; other
  /// errors fail immediately).
  std::uint64_t connect_attempts = 10;
  double backoff_base_s = 0.02;
  double backoff_cap_s = 0.5;
  std::uint64_t backoff_seed = 1;
  /// Optional tracer (borrowed; must outlive the client). Enables the
  /// per-call "net.request" span and wire trace-id propagation.
  obs::Tracer* tracer = nullptr;
  /// Payload cap applied to received frames.
  std::uint32_t max_payload = kMaxPayload;
  /// Payload cap for batch frames in either direction (a batch may
  /// deliberately exceed the single-dag limit). 0 = 4x max_payload —
  /// mirror the server's ServerConfig::max_batch_payload.
  std::uint32_t max_batch_payload = 0;
  /// Tenant id stamped on every request frame (0 = default tenant).
  /// Selects the server-side fair-queue lane, quota, and accounting row
  /// (priod_client --tenant).
  std::uint32_t tenant = 0;
  /// Wall-clock bound on one receive()/fetch (seconds; 0 = wait
  /// forever, the historical behavior). A stalled or dead peer then
  /// costs a TimeoutError instead of an infinite hang — the poll-based
  /// read path behind priod_client --timeout-ms.
  double request_timeout_s = 0.0;
  /// Whole-request deadline stamped on every request frame in
  /// milliseconds (0 = none). Rides the v2 kFlagDeadline field; the
  /// server sheds the request kExpired once the budget is spent.
  std::uint32_t deadline_ms = 0;
};

/// receive()/fetch exceeded ClientOptions::request_timeout_s. Distinct
/// from util::Error so retry layers can tell "peer is slow or dead"
/// (reconnect and replay) from "peer answered garbage" (give up).
class TimeoutError : public util::Error {
 public:
  explicit TimeoutError(const std::string& what) : util::Error(what) {}
};

/// One response, correlated by request id.
struct Response {
  std::uint64_t request_id = 0;
  Status status = Status::kOk;
  /// The server-side trace id (the adopted client id when one was sent).
  std::uint64_t trace_id = 0;
  /// The tenant the request was billed to (echoed; 0 from v1 servers).
  std::uint32_t tenant = 0;
  /// What the payload encodes on kOk/kDegraded: instrumented DAGMan text
  /// or a binary BPRI priority block (always kDagmanText from pre-v3
  /// servers and for error messages).
  PayloadKind kind = PayloadKind::kDagmanText;
  /// True for kBatchResponse frames: the payload is a batch envelope —
  /// read it through result().items rather than directly.
  bool batch = false;
  /// Instrumented output (kOk / kDegraded) or the error message; for
  /// batch responses, the encoded per-item envelope.
  std::string payload;

  /// The typed view of a response: whole-frame status, whether the
  /// payload (or every decoded batch item) is safe to consume, and the
  /// per-item replies for batch responses (in submission order).
  struct Result {
    Status status = Status::kOk;
    /// Single responses: usable when the status is kOk/kDegraded and
    /// the payload is non-empty (a kDegraded reply whose fallback
    /// produced nothing parses as an empty DAGMan file; treating it as
    /// success silently writes empty output — the priod_client
    /// exit-code contract keys on this). Batch responses: usable when
    /// the envelope decoded cleanly; judge each item by its own
    /// BatchItemReply::usable().
    bool usable = false;
    /// Batch responses only: one reply per submitted item, in order.
    std::vector<BatchItemReply> items;
  };
  [[nodiscard]] Result result() const;

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
  /// kOk or kDegraded: the payload is a valid instrumented dag.
  [[nodiscard]] bool hasOutput() const {
    return status == Status::kOk || status == Status::kDegraded;
  }
  /// Pre-v3 spelling of result().usable for single text responses.
  [[deprecated("use result().usable")]] [[nodiscard]] bool usableOutput()
      const {
    return hasOutput() && !payload.empty();
  }
};

class Client {
 public:
  explicit Client(ClientOptions options = {});

  /// Connects (with backoff on ECONNREFUSED). Throws util::Error when
  /// every attempt fails. Reconnecting an already-connected client closes
  /// the old connection first.
  void connect(const std::string& host, std::uint16_t port);

  [[nodiscard]] bool connected() const { return fd_.valid(); }
  void close();

  /// Writes one request frame carrying `dag_text`; returns its request
  /// id. `trace_id` nonzero propagates that id to the server. A nonzero
  /// `request_id` overrides the client's own id sequence — the hook a
  /// reconnecting wrapper uses to replay an in-flight request under its
  /// original id so responses still correlate. Stamps
  /// ClientOptions::deadline_ms onto the frame when set. Throws
  /// util::Error on I/O failure.
  std::uint64_t send(const std::string& dag_text, std::uint64_t trace_id = 0,
                     std::uint64_t request_id = 0);

  /// send() for a typed payload: kDagmanText payloads go out exactly
  /// like send() (a v2 frame, so pre-v3 servers interoperate); a
  /// kBinaryCsr payload rides a v3 frame with its kind byte set.
  std::uint64_t sendPayload(PayloadKind kind, const std::string& payload,
                            std::uint64_t trace_id = 0,
                            std::uint64_t request_id = 0);

  /// Encodes `items` as one kBatchRequest envelope (v3) and writes it;
  /// returns the request id correlating the single kBatchResponse that
  /// answers all items. Throws util::Error when the envelope exceeds
  /// the batch payload cap.
  std::uint64_t submitBatch(const std::vector<BatchItem>& items,
                            std::uint64_t trace_id = 0,
                            std::uint64_t request_id = 0);

  /// The raw frame hook underneath send()/sendPayload()/submitBatch():
  /// writes one frame of the given type/kind. Text kRequest frames
  /// encode as v2 (byte-identical to historical clients); anything
  /// needing the kind byte or a batch type encodes as v3. The replay
  /// path of reconnecting wrappers.
  std::uint64_t sendFrame(FrameType type, PayloadKind kind,
                          const std::string& payload,
                          std::uint64_t trace_id = 0,
                          std::uint64_t request_id = 0);

  /// Blocks for the next response frame, at most request_timeout_s when
  /// that is set (TimeoutError past it; the connection is left as-is —
  /// close() or reconnect to discard the half-read stream). Throws
  /// util::Error on protocol violations or a connection closed
  /// mid-response.
  Response receive();

  /// send() + receive() under a "net.request" span when the client has a
  /// tracer (the span's trace id rides the wire). The single-caller
  /// convenience — pipelining callers use send()/receive() directly.
  Response call(const std::string& dag_text);

  /// Fetches the server's plaintext metrics snapshot ("GET /metrics")
  /// over a throwaway connection; returns the body without HTTP headers.
  /// Throws util::Error on connect failure or a non-200 status.
  static std::string fetchMetrics(const std::string& host,
                                  std::uint16_t port,
                                  ClientOptions options = {});

  /// Fetches the live per-tenant JSON document ("GET /tenants") the same
  /// way (priod_client --tenants).
  static std::string fetchTenants(const std::string& host,
                                  std::uint16_t port,
                                  ClientOptions options = {});

  /// Generic one-shot GET against the introspection surface. With
  /// `http_status` null any non-200 throws (like fetchMetrics); with it
  /// non-null the status code is stored and the body returned as-is, so
  /// probes can distinguish a 503 /readyz from a dead server
  /// (priod_client --healthz / --readyz).
  static std::string fetchHttp(const std::string& host, std::uint16_t port,
                               const std::string& path,
                               ClientOptions options = {},
                               int* http_status = nullptr);

 private:
  ClientOptions options_;
  util::UniqueFd fd_;
  FrameDecoder decoder_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace prio::net
