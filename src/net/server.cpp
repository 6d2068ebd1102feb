#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <exception>
#include <list>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/poller.h"
#include "net/wakeup.h"
#include "obs/metrics.h"
#include "tenant/fair_queue.h"
#include "util/check.h"
#include "util/socket.h"

namespace prio::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;

Status toWireStatus(service::RequestStatus s) {
  switch (s) {
    case service::RequestStatus::kOk: return Status::kOk;
    case service::RequestStatus::kDegraded: return Status::kDegraded;
    case service::RequestStatus::kRejected: return Status::kRejected;
    case service::RequestStatus::kShed: return Status::kShed;
    case service::RequestStatus::kFailed: return Status::kFailed;
    case service::RequestStatus::kExpired: return Status::kExpired;
  }
  return Status::kFailed;
}

tenant::Outcome toTenantOutcome(service::RequestStatus s) {
  switch (s) {
    case service::RequestStatus::kOk: return tenant::Outcome::kOk;
    case service::RequestStatus::kDegraded: return tenant::Outcome::kDegraded;
    case service::RequestStatus::kRejected: return tenant::Outcome::kRejected;
    case service::RequestStatus::kShed: return tenant::Outcome::kShed;
    case service::RequestStatus::kFailed: return tenant::Outcome::kFailed;
    case service::RequestStatus::kExpired: return tenant::Outcome::kExpired;
  }
  return tenant::Outcome::kFailed;
}

/// The net and service PayloadKind enums mirror each other by value;
/// these keep the cast in one audited place.
service::PayloadKind toServiceKind(PayloadKind k) {
  return k == PayloadKind::kBinaryCsr ? service::PayloadKind::kBinaryCsr
                                      : service::PayloadKind::kDagmanText;
}

PayloadKind toWireKind(service::PayloadKind k) {
  return k == service::PayloadKind::kBinaryCsr ? PayloadKind::kBinaryCsr
                                               : PayloadKind::kDagmanText;
}

/// The owned service's config with the server's tenant registry patched
/// in, so the work queue is the weighted-fair queue keyed by frame
/// tenant ids.
service::ServiceConfig withTenantRegistry(service::ServiceConfig config,
                                          tenant::TenantRegistry* registry) {
  config.tenants = registry;
  return config;
}

/// ServerConfig::reactors resolved to the shard count actually run.
std::size_t resolveReactors(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw / 2 : 1;
}

}  // namespace

struct Server::Impl {
  struct Connection {
    std::uint64_t id = 0;
    util::UniqueFd fd;
    FrameDecoder decoder;
    std::string out;
    std::size_t out_pos = 0;
    /// Protocol sniffing: kUnknown until the first bytes arrive; "GET "
    /// selects kHttp, anything else the binary framing.
    enum class Mode { kUnknown, kFraming, kHttp } mode = Mode::kUnknown;
    std::string http_buf;
    std::size_t in_flight = 0;
    /// One decoded frame parked while the admission gate is full
    /// (kBlock policy); reads stay paused until it dispatches.
    std::optional<Frame> parked;
    /// Absolute expiry of the parked frame's wire deadline on the
    /// nowSeconds() clock (0 = the frame carries no deadline). A parked
    /// frame that outlives it is answered kExpired instead of waiting
    /// for a gate slot its caller no longer wants.
    double parked_deadline_s = 0.0;
    bool paused = false;   ///< read interest withdrawn (gate / drain)
    bool closing = false;  ///< close once `out` flushes
    Clock::time_point last_activity;
    /// Position on the owning shard's LRU list (always valid while the
    /// connection lives): front = least recently active, so the idle
    /// reaper pops cold connections without scanning warm ones.
    std::list<Connection*>::iterator lru_it;

    [[nodiscard]] bool wantWrite() const { return out_pos < out.size(); }
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    /// Echoed from the request frame so the response encodes in a layout
    /// the client's decoder understands (a v1 client never sees v2).
    std::uint8_t version = kVersion;
    std::uint32_t tenant = 0;
    /// True when the request was a kBatchRequest: the reply's items are
    /// re-encoded as a kBatchResponse envelope.
    bool batch = false;
    service::Reply reply;
  };

  /// One reactor: an event-loop thread and everything it owns
  /// exclusively — poller, listener, connection tables, LRU list,
  /// buffers, completion queue, wakeup fd. Only completions_ (mutex) and
  /// parked_frames_/accepted_ (atomic) are ever touched by another
  /// thread.
  struct Shard {
    Shard(Impl* impl, std::size_t index)
        : impl(impl), index(index), next_conn_id_(index + 1) {}

    Impl* impl;
    std::size_t index = 0;
    /// This shard's own listener; with more than one shard every
    /// listener shares the port through SO_REUSEPORT.
    util::UniqueFd listen_fd_;
    Wakeup wake_;
    Poller poller_;

    /// Ids stride by the shard count so they are unique without
    /// coordination (shard i mints i+1, i+1+N, ...).
    std::uint64_t next_conn_id_;
    std::unordered_map<int, std::unique_ptr<Connection>> conns_by_fd_;
    std::unordered_map<std::uint64_t, Connection*> conns_by_id_;
    /// Intrusive LRU: every live connection is on it, coldest first.
    std::list<Connection*> lru_;
    /// Requests dispatched by this shard whose completions have not yet
    /// drained (loop-thread only; includes completions for connections
    /// that died, which still owe the tenant a recordReply).
    std::size_t outstanding_ = 0;
    /// Written by the loop thread; read by sibling shards deciding whom
    /// to wake and by /readyz.
    std::atomic<std::size_t> parked_frames_{0};
    /// Connections adopted by this shard (Stats::shard_connections).
    std::atomic<std::uint64_t> accepted_{0};

    bool draining_ = false;
    Clock::time_point drain_deadline_{};

    std::mutex completions_mu_;
    std::vector<Completion> completions_;

    // ----------------------------------------------------------- loop

    void loop() {
      poller_.add(listen_fd_.get(), /*read=*/true, /*write=*/false);
      poller_.add(wake_.fd(), /*read=*/true, /*write=*/false);

      std::vector<Poller::Event> events;
      while (true) {
        // Finer ticks only when a timer could fire; otherwise wakes
        // come from sockets and the wakeup fd. A parked frame counts as
        // a timer: its tenant's token bucket refills with wall time, so
        // the retry in resumePaused() must not wait for socket traffic.
        const int timeout_ms =
            (impl->config_.idle_timeout_s > 0.0 || draining_ ||
             parked_frames_.load(std::memory_order_relaxed) > 0)
                ? 50
                : 1000;
        events.clear();
        poller_.wait(events, timeout_ms);
        const Clock::time_point wake = Clock::now();

        for (const Poller::Event& e : events) {
          if (e.fd == wake_.fd()) {
            if (wake_.drain() > 0) impl->wakeups_drained.add();
          } else if (e.fd == listen_fd_.get()) {
            if (!draining_) acceptAll();
          } else {
            // The connection may have been closed by an earlier event
            // in this same batch.
            auto it = conns_by_fd_.find(e.fd);
            if (it == conns_by_fd_.end()) continue;
            Connection* conn = it->second.get();
            if (e.error) {
              closeConn(conn);
              continue;
            }
            if (e.writable && !flushConn(conn)) continue;
            if (e.readable) handleRead(conn);
          }
        }

        drainCompletions();
        if (!draining_ &&
            parked_frames_.load(std::memory_order_relaxed) > 0) {
          resumePaused();
        }
        if (impl->config_.idle_timeout_s > 0.0 && !draining_) closeIdle();

        if (impl->stop_requested_.load(std::memory_order_relaxed) &&
            !draining_) {
          beginDrain();
        }
        if (draining_ && drainComplete()) break;

        // Watchdog: how long this iteration kept the loop away from
        // poll. A stalled loop can't flush replies or accept
        // connections, so the worst gap across shards is the liveness
        // number an operator should alarm on.
        const auto stall_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - wake)
                .count();
        impl->loop_stall_max_us.setMax(static_cast<std::uint64_t>(stall_us));
      }

      // Point-of-no-return cleanup: anything still connected is dropped.
      if (!conns_by_fd_.empty()) {
        impl->open_conns_.fetch_sub(conns_by_fd_.size(),
                                    std::memory_order_relaxed);
      }
      conns_by_fd_.clear();
      conns_by_id_.clear();
      lru_.clear();
    }

    // ---------------------------------------------------- connections

    void acceptAll() {
      for (;;) {
        util::UniqueFd fd = util::acceptNonBlocking(listen_fd_.get());
        // EAGAIN or a transient accept failure: try next round.
        if (!fd.valid()) return;
        // The connection cap is global; the atomic reservation makes it
        // exact even with every shard accepting at once.
        if (impl->open_conns_.fetch_add(1, std::memory_order_relaxed) >=
            impl->config_.max_connections) {
          impl->open_conns_.fetch_sub(1, std::memory_order_relaxed);
          impl->connections_refused.add();
          continue;  // fd closes on scope exit
        }
        const int one = 1;
        ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        impl->connections_accepted.add();

        auto conn = std::make_unique<Connection>();
        conn->id = next_conn_id_;
        next_conn_id_ += impl->num_shards_;
        conn->fd = std::move(fd);
        conn->decoder =
            FrameDecoder(impl->config_.max_payload, impl->max_batch_payload_);
        conn->last_activity = Clock::now();
        poller_.add(conn->fd.get(), /*read=*/true, /*write=*/false);
        conn->lru_it = lru_.insert(lru_.end(), conn.get());
        accepted_.fetch_add(1, std::memory_order_relaxed);
        conns_by_id_[conn->id] = conn.get();
        const int cfd = conn->fd.get();
        conns_by_fd_[cfd] = std::move(conn);
        impl->connections_open.set(
            impl->open_conns_.load(std::memory_order_relaxed));
      }
    }

    /// Refreshes activity and moves the connection to the warm end of
    /// the LRU list (O(1) splice).
    void touch(Connection* conn) {
      conn->last_activity = Clock::now();
      lru_.splice(lru_.end(), lru_, conn->lru_it);
    }

    void closeConn(Connection* conn) {
      if (conn->parked.has_value()) {
        parked_frames_.fetch_sub(1, std::memory_order_relaxed);
      }
      lru_.erase(conn->lru_it);
      poller_.remove(conn->fd.get());
      conns_by_id_.erase(conn->id);
      impl->connections_closed.add();
      conns_by_fd_.erase(conn->fd.get());  // destroys conn, closes fd
      impl->open_conns_.fetch_sub(1, std::memory_order_relaxed);
      impl->connections_open.set(
          impl->open_conns_.load(std::memory_order_relaxed));
    }

    void updateInterest(Connection* conn) {
      const bool read = !conn->paused && !conn->closing && !draining_;
      poller_.update(conn->fd.get(), read, conn->wantWrite());
    }

    /// Flushes buffered output. False when the connection was closed.
    bool flushConn(Connection* conn) {
      bool progressed = false;
      while (conn->wantWrite()) {
        const long w =
            util::writeSome(conn->fd.get(), conn->out.data() + conn->out_pos,
                            conn->out.size() - conn->out_pos);
        if (w < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (progressed) touch(conn);
            updateInterest(conn);
            return true;
          }
          closeConn(conn);
          return false;
        }
        conn->out_pos += static_cast<std::size_t>(w);
        progressed = true;
      }
      conn->out.clear();
      conn->out_pos = 0;
      if (conn->closing) {
        closeConn(conn);
        return false;
      }
      if (progressed) touch(conn);
      updateInterest(conn);
      return true;
    }

    void handleRead(Connection* conn) {
      char buf[kReadChunk];
      for (;;) {
        const long r = util::readSome(conn->fd.get(), buf, sizeof(buf));
        if (r < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          closeConn(conn);
          return;
        }
        if (r == 0) {
          // EOF. Any in-flight replies have nowhere to go; dropping the
          // connection now makes their completions no-ops.
          closeConn(conn);
          return;
        }
        touch(conn);
        if (conn->mode == Connection::Mode::kUnknown) {
          sniffProtocol(conn, buf, static_cast<std::size_t>(r));
        }
        if (conn->mode == Connection::Mode::kHttp) {
          conn->http_buf.append(buf, static_cast<std::size_t>(r));
          if (!maybeServeHttp(conn)) return;
        } else {
          conn->decoder.feed(buf, static_cast<std::size_t>(r));
          if (!processFrames(conn)) return;
        }
        // Gate full, or a one-shot (HTTP / protocol-error) response is
        // queued: leave the rest unread so it cannot re-trigger
        // handling.
        if (conn->paused) return;
      }
    }

    void sniffProtocol(Connection* conn, const char* data, std::size_t n) {
      // Enough bytes always arrive at once in practice; a frame's first
      // byte is 0x50 ('P'), so a 1-byte "G" prefix is also decisive.
      conn->mode = (n > 0 && data[0] == 'G') ? Connection::Mode::kHttp
                                             : Connection::Mode::kFraming;
    }

    /// Serves the /metrics snapshot once the request head is complete.
    /// False when the connection was closed.
    bool maybeServeHttp(Connection* conn) {
      if (conn->http_buf.find("\r\n\r\n") == std::string::npos &&
          conn->http_buf.find("\n\n") == std::string::npos) {
        if (conn->http_buf.size() > 64 * 1024) {
          closeConn(conn);
          return false;
        }
        return true;
      }
      impl->http_requests.add();
      std::istringstream head(conn->http_buf);
      std::string method, path;
      head >> method >> path;
      std::string body;
      std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
      const char* status_line;
      if (method == "GET" && (path == "/metrics" || path == "/metrics/")) {
        std::ostringstream out;
        impl->writeMetricsText(out);
        body = std::move(out).str();
        status_line = "HTTP/1.0 200 OK";
      } else if (method == "GET" &&
                 (path == "/tenants" || path == "/tenants/")) {
        std::ostringstream out;
        impl->writeTenantsJson(out);
        body = std::move(out).str();
        content_type = "application/json";
        status_line = "HTTP/1.0 200 OK";
      } else if (method == "GET" &&
                 (path == "/healthz" || path == "/healthz/")) {
        // Liveness: answering at all proves this shard's loop turns.
        body = "ok\n";
        status_line = "HTTP/1.0 200 OK";
      } else if (method == "GET" &&
                 (path == "/readyz" || path == "/readyz/")) {
        // Readiness: live AND able to admit a request right now, across
        // every shard (gate and drain state are global). Reported 503 so
        // load balancers need no body parsing.
        const std::size_t in_flight =
            impl->in_flight_.load(std::memory_order_relaxed);
        const bool gate_full = in_flight >= impl->max_in_flight_;
        const bool draining =
            draining_ || impl->stop_requested_.load(std::memory_order_relaxed);
        const bool ready = !draining && !gate_full;
        std::size_t parked = 0;
        for (const auto& shard : impl->shards_) {
          parked += shard->parked_frames_.load(std::memory_order_relaxed);
        }
        std::ostringstream out;
        out << "{\"ready\":" << (ready ? "true" : "false")
            << ",\"draining\":" << (draining ? "true" : "false")
            << ",\"in_flight\":" << in_flight
            << ",\"max_in_flight\":" << impl->max_in_flight_
            << ",\"parked\":" << parked
            << ",\"reactors\":" << impl->num_shards_ << "}\n";
        body = std::move(out).str();
        content_type = "application/json";
        status_line =
            ready ? "HTTP/1.0 200 OK" : "HTTP/1.0 503 Service Unavailable";
      } else {
        body =
            "only GET /metrics, /tenants, /healthz, and /readyz are served "
            "here\n";
        status_line = "HTTP/1.0 404 Not Found";
      }
      conn->out.append(status_line);
      conn->out.append("\r\nContent-Type: " + content_type +
                       "\r\nContent-Length: " + std::to_string(body.size()) +
                       "\r\nConnection: close\r\n\r\n");
      conn->out.append(body);
      conn->closing = true;
      conn->paused = true;
      updateInterest(conn);
      return flushConn(conn);
    }

    /// Answers `request` with a status frame that no service work stands
    /// behind (protocol error, bad batch envelope, admission reject,
    /// parked-frame expiry), counts it in responses_sent and flushes. The
    /// reply echoes the request's version, id and tenant; a protocol
    /// error answers no request, so it bills no tenant and closes the
    /// connection once flushed. False when the connection was closed.
    bool replyStatus(Connection* conn, const Frame& request, Status status,
                     std::string message) {
      Frame reply;
      reply.version = request.version;
      reply.type = FrameType::kResponse;
      reply.status = status;
      reply.request_id = request.request_id;
      if (status == Status::kProtocolError) {
        conn->closing = true;
        conn->paused = true;
      } else {
        reply.tenant = request.tenant;
      }
      reply.payload = std::move(message);
      encodeFrame(reply, conn->out, impl->config_.max_payload);
      impl->responses_sent.add();
      return flushConn(conn);
    }

    /// Decodes and dispatches frames until the buffer runs dry, the
    /// gate pauses the connection, or a protocol error ends it. False
    /// when the connection was closed.
    bool processFrames(Connection* conn) {
      while (!conn->paused && !draining_) {
        Frame frame;
        switch (conn->decoder.next(frame)) {
          case FrameDecoder::Result::kNeedMore:
            return true;
          case FrameDecoder::Result::kError: {
            impl->protocol_errors.add();
            // v1 layout: the one error frame EVERY decoder vintage
            // parses (the sender's version is unknowable once framing
            // is lost).
            Frame lost;
            lost.version = kVersionLegacy;
            return replyStatus(conn, lost, Status::kProtocolError,
                               conn->decoder.error());
          }
          case FrameDecoder::Result::kFrame:
            break;
        }
        if (frame.type != FrameType::kRequest &&
            frame.type != FrameType::kBatchRequest) {
          impl->protocol_errors.add();
          return replyStatus(conn, frame, Status::kProtocolError,
                             "expected a request frame");
        }
        impl->frames_received.add();
        if (frame.type == FrameType::kBatchRequest) {
          // Scan the envelope before burning an admission slot: the
          // framing is intact, so a malformed envelope is a content
          // error — answer kFailed and keep the connection alive. The
          // real decode runs in dispatch(); a parked frame keeps the
          // raw (already validated) envelope.
          std::size_t item_count = 0;
          std::string env_err;
          if (!validateBatchRequest(frame.payload, impl->config_.max_payload,
                                    item_count, env_err)) {
            if (!replyStatus(conn, frame, Status::kFailed,
                             std::move(env_err))) {
              return false;
            }
            continue;
          }
        }
        // Two-stage admission: the global gate first (one shared atomic
        // — the cheaper check, and it caps total work in the service),
        // then the tenant's token bucket and in-flight cap. A denial
        // from either maps onto the same backpressure policy: answer
        // kRejected under kReject, park the frame under kBlock. The
        // gate slot is released if the tenant stage denies.
        const char* deny = nullptr;
        bool tenant_denied = false;
        if (!impl->tryAcquireGate()) {
          deny = "admission gate full";
        } else {
          switch (impl->registry_.tryAdmit(frame.tenant,
                                           impl->nowSeconds())) {
            case tenant::Admission::kAdmit:
              break;
            case tenant::Admission::kQuota:
              deny = "tenant quota exceeded";
              tenant_denied = true;
              break;
            case tenant::Admission::kInFlightCap:
              deny = "tenant in-flight cap reached";
              tenant_denied = true;
              break;
          }
          if (deny != nullptr) impl->releaseGate();
        }
        if (deny != nullptr) {
          if (impl->config_.service.backpressure ==
              service::BackpressurePolicy::kReject) {
            (tenant_denied ? impl->tenant_rejected : impl->gate_rejected)
                .add();
            impl->registry_.recordRejected(frame.tenant);
            if (!replyStatus(conn, frame, Status::kRejected, deny)) {
              return false;
            }
            continue;
          }
          // kBlock: park the frame and stop reading this connection;
          // the unread bytes stay in the kernel buffer and TCP flow
          // control pushes back on the client. resumePaused() retries
          // admission every tick (and whenever a sibling shard frees
          // gate slots) — a gate slot or a refilled token unparks it,
          // and a wire deadline bounds how long the wait may last.
          conn->parked_deadline_s =
              frame.deadline_ms > 0
                  ? impl->nowSeconds() +
                        static_cast<double>(frame.deadline_ms) / 1e3
                  : 0.0;
          conn->parked = std::move(frame);
          conn->paused = true;
          parked_frames_.fetch_add(1, std::memory_order_relaxed);
          updateInterest(conn);
          return true;
        }
        dispatch(conn, std::move(frame));
      }
      return true;
    }

    /// Submits an ALREADY-ADMITTED frame (gate slot held and
    /// registry tryAdmit succeeded) to the service; the paired
    /// registry recordReply runs when the completion drains.
    void dispatch(Connection* conn, Frame frame) {
      // The wire budget (already net of parked time) becomes the
      // service-side budget: spent in the work queue the request
      // answers kExpired, and the remainder tightens the compute
      // CancelToken.
      const double deadline_s =
          frame.deadline_ms > 0
              ? static_cast<double>(frame.deadline_ms) / 1e3
              : 0.0;
      const bool batch = frame.type == FrameType::kBatchRequest;
      auto complete = [shard = this, conn_id = conn->id,
                       request_id = frame.request_id, version = frame.version,
                       tenant = frame.tenant,
                       batch](service::Reply reply) {
        {
          std::lock_guard<std::mutex> lock(shard->completions_mu_);
          shard->completions_.push_back(Completion{
              conn_id, request_id, version, tenant, batch, std::move(reply)});
        }
        shard->impl->signalShard(*shard);
      };
      if (batch) {
        service::BatchRequest request;
        std::vector<BatchItem> items;
        std::string env_err;
        // Validated before admission, so this decode cannot fail; the
        // guard keeps a framing bug from throwing out of the loop.
        if (!decodeBatchRequest(frame.payload, items, env_err)) {
          impl->releaseGate();
          impl->registry_.recordReply(frame.tenant, tenant::Outcome::kFailed,
                                      false, 0.0);
          replyStatus(conn, frame, Status::kFailed, std::move(env_err));
          return;
        }
        request.items.reserve(items.size());
        for (BatchItem& item : items) {
          service::Payload payload;
          payload.kind = toServiceKind(item.kind);
          payload.bytes = std::move(item.bytes);
          request.items.push_back(std::move(payload));
        }
        request.trace_id = frame.trace_id;
        request.tenant = frame.tenant;
        request.deadline_s = deadline_s;
        ++conn->in_flight;
        ++outstanding_;
        impl->requests_in_flight.set(
            impl->in_flight_.load(std::memory_order_relaxed));
        impl->service_.submitCallback(std::move(request), std::move(complete));
        return;
      }
      service::Request request;
      request.payload.kind = toServiceKind(frame.payload_kind);
      request.payload.bytes = std::move(frame.payload);
      request.trace_id = frame.trace_id;
      request.tenant = frame.tenant;
      request.deadline_s = deadline_s;
      ++conn->in_flight;
      ++outstanding_;
      impl->requests_in_flight.set(
          impl->in_flight_.load(std::memory_order_relaxed));
      impl->service_.submitCallback(std::move(request), std::move(complete));
    }

    void drainCompletions() {
      std::vector<Completion> batch;
      {
        std::lock_guard<std::mutex> lock(completions_mu_);
        batch.swap(completions_);
      }
      if (batch.empty()) return;
      for (Completion& c : batch) {
        impl->releaseGate();
        --outstanding_;
        // Account the reply to its tenant (and release its in-flight
        // slot) even when the connection died — the work was done
        // either way.
        impl->registry_.recordReply(c.tenant, toTenantOutcome(c.reply.status),
                                    c.reply.cache_hit, c.reply.latency_s);
        auto it = conns_by_id_.find(c.conn_id);
        if (it == conns_by_id_.end()) {
          impl->responses_dropped.add();
          continue;
        }
        Connection* conn = it->second;
        --conn->in_flight;
        if (c.reply.status == service::RequestStatus::kExpired) {
          impl->requests_expired.add();
        }
        Frame resp;
        resp.version = c.version;
        resp.tenant = c.tenant;
        resp.status = toWireStatus(c.reply.status);
        resp.request_id = c.request_id;
        resp.trace_id = c.reply.trace_id;
        if (c.batch) {
          // Re-encode the per-item replies as a kBatchResponse
          // envelope, in request order. Failures degrade per item; a
          // whole-batch failure (the oversized downgrade below) is
          // answered as a plain kResponse carrying the error text.
          resp.type = FrameType::kBatchResponse;
          std::vector<BatchItemReply> item_replies;
          item_replies.reserve(c.reply.items.size());
          for (service::Reply& item : c.reply.items) {
            BatchItemReply r;
            r.status = toWireStatus(item.status);
            r.kind = toWireKind(item.output_kind);
            r.payload =
                (item.status == service::RequestStatus::kOk ||
                 item.status == service::RequestStatus::kDegraded)
                    ? std::move(item.output)
                    : (item.error.empty() ? std::string(statusName(r.status))
                                          : std::move(item.error));
            item_replies.push_back(std::move(r));
          }
          resp.payload = encodeBatchResponse(item_replies);
        } else {
          resp.type = FrameType::kResponse;
          resp.payload_kind = toWireKind(c.reply.output_kind);
          resp.payload = (c.reply.status == service::RequestStatus::kOk ||
                          c.reply.status == service::RequestStatus::kDegraded)
                             ? std::move(c.reply.output)
                             : (c.reply.error.empty()
                                    ? std::string(statusName(resp.status))
                                    : std::move(c.reply.error));
        }
        const std::uint32_t cap =
            c.batch ? impl->max_batch_payload_ : impl->config_.max_payload;
        if (resp.payload.size() > cap) {
          // The instrumented output always outgrows its input, so a
          // valid request near the cap can yield an unencodable reply;
          // answer kFailed instead of letting encodeFrame throw out of
          // the loop.
          impl->responses_oversized.add();
          resp.type = FrameType::kResponse;
          resp.payload_kind = PayloadKind::kDagmanText;
          resp.status = Status::kFailed;
          resp.payload = "response of " +
                         std::to_string(resp.payload.size()) +
                         " bytes exceeds the " + std::to_string(cap) +
                         "-byte frame cap";
          if (resp.payload.size() > cap) {
            resp.payload.resize(cap);
          }
        }
        encodeFrame(resp, conn->out, cap);
        impl->responses_sent.add();
        flushConn(conn);
      }
      impl->requests_in_flight.set(
          impl->in_flight_.load(std::memory_order_relaxed));
      // The slots just released may be exactly what a sibling's parked
      // frame is waiting for; don't leave the unpark to the 50ms tick.
      impl->wakeParkedSiblings(this);
    }

    /// Re-opens gated connections whose parked frame now passes
    /// admission: the parked frame dispatches first, then buffered
    /// frames, then socket reads. Checked per connection, not globally
    /// — one tenant stuck on an empty token bucket must not stall other
    /// tenants' connections behind it.
    void resumePaused() {
      // Ids, not iterators: processFrames() can close connections,
      // which erases from the map being walked.
      std::vector<std::uint64_t> paused;
      for (const auto& [fd, conn] : conns_by_fd_) {
        if (conn->paused && !conn->closing) paused.push_back(conn->id);
      }
      for (const std::uint64_t id : paused) {
        auto it = conns_by_id_.find(id);
        if (it == conns_by_id_.end()) continue;
        Connection* conn = it->second;
        if (conn->parked.has_value()) {
          const double now_s = impl->nowSeconds();
          if (conn->parked_deadline_s > 0.0 &&
              now_s >= conn->parked_deadline_s) {
            // The budget died in the parking lot: answer kExpired
            // without admitting (no token burned, no in-flight slot),
            // then resume reading — the connection itself is healthy.
            Frame frame = std::move(*conn->parked);
            conn->parked.reset();
            conn->parked_deadline_s = 0.0;
            parked_frames_.fetch_sub(1, std::memory_order_relaxed);
            impl->requests_expired.add();
            impl->registry_.recordExpired(frame.tenant);
            conn->paused = false;
            if (!replyStatus(conn, frame, Status::kExpired,
                             "deadline expired before admission")) {
              continue;
            }
            processFrames(conn);
            continue;
          }
          if (!impl->tryAcquireGate()) continue;
          if (impl->registry_.tryAdmit(conn->parked->tenant, now_s) !=
              tenant::Admission::kAdmit) {
            impl->releaseGate();
            continue;  // still over quota / cap; retry next tick
          }
          Frame frame = std::move(*conn->parked);
          conn->parked.reset();
          parked_frames_.fetch_sub(1, std::memory_order_relaxed);
          if (conn->parked_deadline_s > 0.0) {
            // Shrink the budget by the time spent parked, floored at
            // 1 ms so the service still sees (and expires) a nonzero
            // deadline.
            const double remaining_s = conn->parked_deadline_s - now_s;
            frame.deadline_ms = static_cast<std::uint32_t>(
                std::max(1.0, remaining_s * 1e3));
            conn->parked_deadline_s = 0.0;
          }
          dispatch(conn, std::move(frame));
        }
        conn->paused = false;
        updateInterest(conn);
        processFrames(conn);
      }
    }

    /// O(expired): pops connections off the cold end of the LRU list
    /// until one inside the idle window appears. A connection that is
    /// expired but waiting on the server (paused, in-flight reply,
    /// unflushed output) is touched instead of closed — server-side
    /// wait counts as activity, and touching moves it off the cold end
    /// so it is not rescanned this pass.
    void closeIdle() {
      const auto cutoff =
          Clock::now() - std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 impl->config_.idle_timeout_s));
      while (!lru_.empty()) {
        Connection* conn = lru_.front();
        if (!(conn->last_activity < cutoff)) break;
        if (conn->paused || conn->in_flight > 0 || conn->wantWrite()) {
          touch(conn);
          continue;
        }
        impl->connections_idle_closed.add();
        closeConn(conn);
      }
    }

    void beginDrain() {
      draining_ = true;
      drain_deadline_ =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 impl->config_.drain_timeout_s));
      poller_.remove(listen_fd_.get());
      for (auto& [fd, conn] : conns_by_fd_) updateInterest(conn.get());
    }

    [[nodiscard]] bool drainComplete() {
      if (Clock::now() >= drain_deadline_) return true;
      if (outstanding_ != 0) return false;
      {
        std::lock_guard<std::mutex> lock(completions_mu_);
        if (!completions_.empty()) return false;
      }
      for (const auto& [fd, conn] : conns_by_fd_) {
        if (conn->wantWrite()) return false;
      }
      return true;
    }
  };

  explicit Impl(const ServerConfig& config)
      : config_(config),
        connections_accepted(net_registry_.counter("connections_accepted")),
        connections_closed(net_registry_.counter("connections_closed")),
        connections_idle_closed(
            net_registry_.counter("connections_idle_closed")),
        connections_refused(net_registry_.counter("connections_refused")),
        frames_received(net_registry_.counter("frames_received")),
        responses_sent(net_registry_.counter("responses_sent")),
        responses_dropped(net_registry_.counter("responses_dropped")),
        responses_oversized(net_registry_.counter("responses_oversized")),
        protocol_errors(net_registry_.counter("protocol_errors")),
        gate_rejected(net_registry_.counter("gate_rejected")),
        tenant_rejected(net_registry_.counter("tenant_rejected")),
        requests_expired(net_registry_.counter("requests_expired")),
        http_requests(net_registry_.counter("http_requests")),
        wakeups_signaled(net_registry_.counter("wakeups_signaled")),
        wakeups_drained(net_registry_.counter("wakeups_drained")),
        connections_open(net_registry_.gauge("connections_open")),
        requests_in_flight(net_registry_.gauge("requests_in_flight")),
        loop_stall_max_us(net_registry_.gauge("loop_stall_max_us")),
        registry_(config.tenant_defaults),
        service_(withTenantRegistry(config.service, &registry_)) {
    for (const auto& [id, tenant_config] : config_.tenants) {
      registry_.configure(id, tenant_config);
    }
    // Under kBlock the service's submit() blocks on a full queue; keep
    // the gate within the queue capacity so a loop thread never can.
    max_in_flight_ = config_.max_in_flight == 0 ? 1 : config_.max_in_flight;
    if (config_.service.backpressure == service::BackpressurePolicy::kBlock &&
        max_in_flight_ > config_.service.queue_capacity) {
      max_in_flight_ = config_.service.queue_capacity;
    }

    // Batch envelopes may deliberately exceed the single-dag frame cap;
    // 0 defaults to 4x (computed in 64 bits so a near-max cap saturates
    // instead of wrapping).
    max_batch_payload_ = config_.max_batch_payload;
    if (max_batch_payload_ == 0) {
      max_batch_payload_ = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(std::uint64_t{4} * config_.max_payload,
                                  0xffffffffull));
    }

    num_shards_ = resolveReactors(config_.reactors);
    shards_.reserve(num_shards_);
    for (std::size_t i = 0; i < num_shards_; ++i) {
      shards_.push_back(std::make_unique<Shard>(this, i));
    }

    // Every shard accepts on its own listener. With more than one shard
    // they share the port through SO_REUSEPORT and the kernel spreads
    // the handshakes.
    const bool reuseport = num_shards_ > 1;
    shards_[0]->listen_fd_ =
        util::listenTcp(config_.bind_address, config_.port, reuseport);
    bound_port_ = util::localPort(shards_[0]->listen_fd_.get());
    for (std::size_t i = 1; i < num_shards_; ++i) {
      shards_[i]->listen_fd_ =
          util::listenTcp(config_.bind_address, bound_port_, reuseport);
    }
  }

  // ------------------------------------------------------------- run

  void run() {
    std::vector<std::thread> threads;
    threads.reserve(num_shards_ - 1);
    for (std::size_t i = 1; i < num_shards_; ++i) {
      threads.emplace_back([this, i] { runShard(*shards_[i]); });
    }
    runShard(*shards_[0]);
    for (std::thread& t : threads) t.join();
    connections_open.set(0);
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(run_error_mu_);
      err = run_error_;
      run_error_ = nullptr;
    }
    if (err) std::rethrow_exception(err);
  }

  void runShard(Shard& shard) {
    try {
      shard.loop();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(run_error_mu_);
        if (!run_error_) run_error_ = std::current_exception();
      }
      requestStop();  // tear the sibling shards down gracefully
    }
  }

  void requestStop() noexcept {
    stop_requested_.store(true, std::memory_order_relaxed);
    // Async-signal-safe: one non-blocking write per shard on
    // pre-opened fds (plus lock-free counter bumps).
    for (const auto& shard : shards_) signalShard(*shard);
  }

  // ------------------------------------------------------------ gate

  /// Claims one of the max_in_flight_ global gate slots. Lock-free;
  /// called from every shard.
  [[nodiscard]] bool tryAcquireGate() {
    std::size_t cur = in_flight_.load(std::memory_order_relaxed);
    while (cur < max_in_flight_) {
      if (in_flight_.compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void releaseGate() { in_flight_.fetch_sub(1, std::memory_order_acq_rel); }

  void signalShard(Shard& shard) noexcept {
    wakeups_signaled.add();
    shard.wake_.signal();
  }

  void wakeParkedSiblings(Shard* self) {
    if (num_shards_ == 1) return;
    for (const auto& shard : shards_) {
      if (shard.get() == self) continue;
      if (shard->parked_frames_.load(std::memory_order_relaxed) > 0) {
        signalShard(*shard);
      }
    }
  }

  [[nodiscard]] double nowSeconds() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  // ------------------------------------------------------ inspection

  /// Registry snapshot with each tenant's live fair-queue depth filled
  /// in (the registry itself never sees queue contents).
  [[nodiscard]] std::vector<tenant::TenantSnapshot> tenantSnapshots() {
    std::vector<tenant::TenantSnapshot> snaps = registry_.snapshot();
    if (const tenant::FairQueue* fq = service_.fairQueue()) {
      for (tenant::TenantSnapshot& s : snaps) s.queued = fq->queuedFor(s.id);
    }
    return snaps;
  }

  void writeMetricsText(std::ostream& out) {
    service_.writePrometheusText(out);
    net_registry_.snapshot().writePrometheus(out, "prio_net_");
    out << "# HELP prio_net_shard_connections Connections adopted per "
           "reactor shard.\n"
           "# TYPE prio_net_shard_connections gauge\n";
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      out << "prio_net_shard_connections{shard=\"" << i << "\"} "
          << shards_[i]->accepted_.load(std::memory_order_relaxed) << "\n";
    }
    tenant::writeTenantsPrometheus(out, tenantSnapshots());
  }

  void writeTenantsJson(std::ostream& out) {
    tenant::writeTenantsJson(out, tenantSnapshots());
  }

  // ------------------------------------------------------------ state

  ServerConfig config_;
  obs::Registry net_registry_;
  obs::Counter& connections_accepted;
  obs::Counter& connections_closed;
  obs::Counter& connections_idle_closed;
  obs::Counter& connections_refused;
  obs::Counter& frames_received;
  obs::Counter& responses_sent;
  obs::Counter& responses_dropped;
  obs::Counter& responses_oversized;
  obs::Counter& protocol_errors;
  obs::Counter& gate_rejected;
  obs::Counter& tenant_rejected;
  obs::Counter& requests_expired;  ///< answered kExpired on the wire
  obs::Counter& http_requests;
  obs::Counter& wakeups_signaled;  ///< signal() calls across all shards
  obs::Counter& wakeups_drained;   ///< drains that consumed >= 1 signal
  obs::Gauge& connections_open;
  obs::Gauge& requests_in_flight;
  /// Event-loop watchdog: the worst observed gap (µs) any shard's loop
  /// spent away from poll — i.e. how long a reply could sit unserved
  /// because a loop thread was busy. Exported as
  /// prio_net_loop_stall_max_us.
  obs::Gauge& loop_stall_max_us;

  std::size_t max_in_flight_ = 1;
  /// Resolved payload cap for kBatchRequest frames (never 0; see
  /// ServerConfig::max_batch_payload).
  std::uint32_t max_batch_payload_ = kMaxPayload;
  std::size_t num_shards_ = 1;
  std::uint16_t bound_port_ = 0;

  /// The global admission gate: requests inside the service across all
  /// shards. Shards acquire with a CAS loop, release per completion.
  std::atomic<std::size_t> in_flight_{0};
  /// Live connections across all shards — the max_connections
  /// reservation counter.
  std::atomic<std::size_t> open_conns_{0};
  std::atomic<bool> stop_requested_{false};

  /// Epoch for the registry's token-bucket clock (monotonic seconds).
  const Clock::time_point epoch_ = Clock::now();

  std::mutex run_error_mu_;
  std::exception_ptr run_error_;

  /// Stable once constructed (unique_ptr contents never move): worker
  /// completion callbacks and requestStop() hold Shard pointers.
  /// Declared before service_ so the shards (and their wakeup fds)
  /// outlive the workers that signal them.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Tenant policies and accounting (internally synchronized — every
  /// shard admits through it). Declared before (so destroyed after) the
  /// service, whose fair queue reads weights from it until the workers
  /// join.
  tenant::TenantRegistry registry_;
  /// Declared last so it is destroyed first: the destructor joins the
  /// workers while the shards their completion callbacks signal are
  /// still alive.
  service::PrioService service_;
};

Server::Server(const ServerConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

Server::~Server() = default;

std::uint16_t Server::port() const { return impl_->bound_port_; }

std::size_t Server::reactors() const { return impl_->num_shards_; }

void Server::run() { impl_->run(); }

void Server::requestStop() noexcept { impl_->requestStop(); }

service::PrioService& Server::service() { return impl_->service_; }
const service::PrioService& Server::service() const {
  return impl_->service_;
}

void Server::writeMetricsText(std::ostream& out) {
  impl_->writeMetricsText(out);
}

void Server::writeTenantsJson(std::ostream& out) {
  impl_->writeTenantsJson(out);
}

tenant::TenantRegistry& Server::tenants() { return impl_->registry_; }
const tenant::TenantRegistry& Server::tenants() const {
  return impl_->registry_;
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections_accepted = impl_->connections_accepted.get();
  s.connections_closed = impl_->connections_closed.get();
  s.connections_idle_closed = impl_->connections_idle_closed.get();
  s.connections_refused = impl_->connections_refused.get();
  s.frames_received = impl_->frames_received.get();
  s.responses_sent = impl_->responses_sent.get();
  s.responses_dropped = impl_->responses_dropped.get();
  s.responses_oversized = impl_->responses_oversized.get();
  s.protocol_errors = impl_->protocol_errors.get();
  s.gate_rejected = impl_->gate_rejected.get();
  s.tenant_rejected = impl_->tenant_rejected.get();
  s.requests_expired = impl_->requests_expired.get();
  s.http_requests = impl_->http_requests.get();
  s.wakeups_signaled = impl_->wakeups_signaled.get();
  s.wakeups_drained = impl_->wakeups_drained.get();
  s.loop_stall_max_us = impl_->loop_stall_max_us.get();
  s.shard_connections.reserve(impl_->shards_.size());
  for (const auto& shard : impl_->shards_) {
    s.shard_connections.push_back(
        shard->accepted_.load(std::memory_order_relaxed));
  }
  return s;
}

}  // namespace net
