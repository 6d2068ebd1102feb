#include "net/chaos.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <list>
#include <mutex>
#include <string>
#include <vector>

#include "net/wakeup.h"
#include "util/check.h"
#include "util/retry.h"
#include "util/socket.h"

namespace prio::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Closes `fd` with SO_LINGER {on, 0} so the kernel sends RST instead of
/// FIN — the "connection died mid-frame" fault.
void closeWithReset(util::UniqueFd& fd) {
  if (!fd.valid()) return;
  struct linger lg {};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  fd.reset();
}

}  // namespace

struct ChaosProxy::Impl {
  /// One relay direction (client->upstream or upstream->client): bytes
  /// read from `src` queue in `pending` until the fault schedule lets
  /// them flush to `dst`.
  struct Direction {
    int src = -1;
    int dst = -1;
    std::string pending;
    /// Earliest time the next chunk may flush (stall injection).
    Clock::time_point release = Clock::time_point::min();
    /// A stall already fired for the chunk at the head of `pending`;
    /// don't draw another before it flushes (delay_prob=1.0 must mean
    /// "one stall per chunk", not a livelock).
    bool stalled = false;
    bool src_eof = false;
    std::uint64_t forwarded = 0;
  };

  struct Conn {
    util::UniqueFd client;
    util::UniqueFd upstream;
    util::SplitMix64 rng;
    Direction up;    // client -> upstream
    Direction down;  // upstream -> client

    explicit Conn(std::uint64_t seed) : rng(seed) {}
  };

  explicit Impl(const ChaosOptions& options)
      : options_(options),
        listen_fd_(util::listenTcp(options_.listen_address,
                                   options_.listen_port,
                                   /*reuseport=*/false)),
        bound_port_(util::localPort(listen_fd_.get())) {}

  void run() {
    std::vector<struct pollfd> pfds;
    while (!stop_flag_.load(std::memory_order_acquire)) {
      pfds.clear();
      pfds.push_back({listen_fd_.get(), POLLIN, 0});
      pfds.push_back({wake_.fd(), POLLIN, 0});
      Clock::time_point earliest = Clock::time_point::max();
      for (Conn& c : conns_) {
        armDirection(c.up, pfds, earliest);
        armDirection(c.down, pfds, earliest);
      }
      int timeout_ms = -1;
      if (earliest != Clock::time_point::max()) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            earliest - Clock::now());
        timeout_ms = left.count() < 0 ? 0 : static_cast<int>(left.count()) + 1;
      }
      int rc;
      do {
        rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (stop_flag_.load(std::memory_order_acquire)) break;

      for (const struct pollfd& p : pfds) {
        if (p.fd == wake_.fd() && (p.revents & POLLIN) != 0) {
          wake_.drain();
        } else if (p.fd == listen_fd_.get() && (p.revents & POLLIN) != 0) {
          acceptAll();
        }
      }
      // Service every connection each tick: readiness is re-derived from
      // the fds directly (a pfd's revents may be stale once a fault
      // closed its connection earlier in the loop).
      for (auto it = conns_.begin(); it != conns_.end();) {
        Conn& c = *it;
        const bool alive = serviceDirection(c, c.up, pfds) &&
                           serviceDirection(c, c.down, pfds);
        if (!alive || finished(c)) {
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    conns_.clear();
  }

  void requestStop() noexcept {
    stop_flag_.store(true, std::memory_order_release);
    wake_.signal();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

 private:
  /// Adds the direction's poll interest: read from src while pending is
  /// small, write to dst when bytes are flushable. Tracks the earliest
  /// stall release for the poll timeout.
  void armDirection(const Direction& d, std::vector<struct pollfd>& pfds,
                    Clock::time_point& earliest) {
    if (d.src >= 0 && !d.src_eof && d.pending.size() < kMaxBuffer) {
      pfds.push_back({d.src, POLLIN, 0});
    }
    if (d.dst >= 0 && !d.pending.empty()) {
      if (d.release > Clock::now()) {
        if (d.release < earliest) earliest = d.release;
      } else {
        pfds.push_back({d.dst, POLLOUT, 0});
      }
    }
  }

  void acceptAll() {
    for (;;) {
      util::UniqueFd client = util::acceptNonBlocking(listen_fd_.get());
      if (!client.valid()) return;
      util::UniqueFd upstream = connectUpstream();
      if (!upstream.valid()) {
        client.reset();  // no upstream: refuse by closing
        continue;
      }
      PRIO_CHECK(util::setNonBlocking(upstream.get()));
      const int one = 1;
      ::setsockopt(client.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // Derive this connection's private fault stream so one
      // connection's traffic volume never perturbs another's schedule.
      util::SplitMix64 mix(options_.seed ^
                           (0x517cc1b727220a95ULL * (conn_index_ + 1)));
      Conn c(mix.next());
      c.client = std::move(client);
      c.upstream = std::move(upstream);
      c.up.src = c.client.get();
      c.up.dst = c.upstream.get();
      c.down.src = c.upstream.get();
      c.down.dst = c.client.get();
      conns_.push_back(std::move(c));
      ++conn_index_;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections;
    }
  }

  util::UniqueFd connectUpstream() {
    util::UniqueFd fd = util::socketCloexec(AF_INET, SOCK_STREAM, 0);
    if (!fd.valid()) return {};
    struct sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.upstream_port);
    if (::inet_pton(AF_INET, options_.upstream_host.c_str(), &addr.sin_addr) !=
        1) {
      return {};
    }
    int rc;
    do {
      rc = ::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) return {};
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }

  /// Pumps one direction: read whatever src has, then flush to dst under
  /// the fault schedule. Returns false when the connection must die
  /// (fault-injected reset/truncation or a real error).
  bool serviceDirection(Conn& c, Direction& d,
                        const std::vector<struct pollfd>& pfds) {
    // Read side.
    if (!d.src_eof && d.pending.size() < kMaxBuffer && readable(d.src, pfds)) {
      char buf[16 * 1024];
      for (;;) {
        const long r = ::read(d.src, buf, sizeof(buf));
        if (r > 0) {
          d.pending.append(buf, static_cast<std::size_t>(r));
          if (d.pending.size() >= kMaxBuffer) break;
          continue;
        }
        if (r == 0) {
          d.src_eof = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return killConn(c, /*reset=*/false, /*count=*/false);
      }
    }
    // Flush side: always attempted — the descriptors are non-blocking,
    // so an unwritable dst just returns EAGAIN and the next tick arms
    // POLLOUT for it. Gating on last tick's POLLOUT would strand bytes
    // read this tick behind an indefinite poll.
    while (d.dst >= 0 && !d.pending.empty() && d.release <= Clock::now()) {
      // Byte-count faults fire exactly at their configured offset.
      if (options_.reset_after_bytes != 0 &&
          d.forwarded >= options_.reset_after_bytes) {
        return killConn(c, /*reset=*/true, /*count=*/true);
      }
      if (options_.truncate_after_bytes != 0 &&
          d.forwarded >= options_.truncate_after_bytes) {
        bumpTruncations();
        return killConn(c, /*reset=*/false, /*count=*/false);
      }
      // Probabilistic faults, one draw per flush attempt.
      if (options_.reset_prob > 0.0 &&
          c.rng.nextUniform() < options_.reset_prob) {
        return killConn(c, /*reset=*/true, /*count=*/true);
      }
      if (!d.stalled && options_.delay_prob > 0.0 &&
          c.rng.nextUniform() < options_.delay_prob) {
        d.release = Clock::now() + std::chrono::microseconds(static_cast<long>(
                                       options_.delay_s * 1e6));
        d.stalled = true;
        bumpDelays();
        break;
      }
      std::size_t chunk = d.pending.size();
      if (options_.max_chunk != 0 && chunk > options_.max_chunk) {
        chunk = options_.max_chunk;
      }
      if (options_.reset_after_bytes != 0 &&
          d.forwarded + chunk > options_.reset_after_bytes) {
        chunk = options_.reset_after_bytes - d.forwarded;
      }
      if (options_.truncate_after_bytes != 0 &&
          d.forwarded + chunk > options_.truncate_after_bytes) {
        chunk = options_.truncate_after_bytes - d.forwarded;
      }
      // MSG_NOSIGNAL: the destination leg dying mid-relay (the whole
      // point of this proxy) must be an EPIPE we turn into a teardown,
      // not a process-killing SIGPIPE.
      const long w = ::send(d.dst, d.pending.data(), chunk, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return killConn(c, /*reset=*/false, /*count=*/false);
      }
      d.pending.erase(0, static_cast<std::size_t>(w));
      d.forwarded += static_cast<std::uint64_t>(w);
      d.stalled = false;  // the stalled chunk flushed; the next may stall
      bumpForwarded(static_cast<std::uint64_t>(w));
      // One mangled write per poll tick keeps chunked output from
      // coalescing in the peer's receive buffer within one burst.
      if (options_.max_chunk != 0) break;
    }
    // Half-close: src saw EOF and everything queued has been relayed.
    if (d.src_eof && d.pending.empty() && d.dst >= 0) {
      ::shutdown(d.dst, SHUT_WR);
      d.dst = -1;
    }
    return true;
  }

  [[nodiscard]] static bool readable(int fd,
                                     const std::vector<struct pollfd>& pfds) {
    for (const struct pollfd& p : pfds) {
      if (p.fd == fd && (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        return true;
      }
    }
    return false;
  }

  bool killConn(Conn& c, bool reset, bool count) {
    if (reset) {
      closeWithReset(c.client);
      closeWithReset(c.upstream);
      if (count) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.resets_injected;
      }
    } else {
      c.client.reset();
      c.upstream.reset();
    }
    return false;
  }

  [[nodiscard]] static bool finished(const Conn& c) {
    const bool up_done = c.up.src_eof && c.up.pending.empty();
    const bool down_done = c.down.src_eof && c.down.pending.empty();
    return up_done && down_done;
  }

  void bumpDelays() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.delays_injected;
  }
  void bumpTruncations() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.truncations_injected;
  }
  void bumpForwarded(std::uint64_t n) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bytes_forwarded += n;
    ++stats_.chunks_forwarded;
  }

  static constexpr std::size_t kMaxBuffer = 256 * 1024;

  ChaosOptions options_;
  util::UniqueFd listen_fd_;
  std::uint16_t bound_port_ = 0;
  Wakeup wake_;
  std::list<Conn> conns_;
  std::uint64_t conn_index_ = 0;
  std::atomic<bool> stop_flag_{false};
  mutable std::mutex stats_mu_;
  Stats stats_;

  friend class prio::net::ChaosProxy;
};

ChaosProxy::ChaosProxy(const ChaosOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

ChaosProxy::~ChaosProxy() { requestStop(); }

std::uint16_t ChaosProxy::port() const { return impl_->bound_port_; }

void ChaosProxy::run() { impl_->run(); }

void ChaosProxy::requestStop() noexcept { impl_->requestStop(); }

ChaosProxy::Stats ChaosProxy::stats() const { return impl_->stats(); }

}  // namespace prio::net
