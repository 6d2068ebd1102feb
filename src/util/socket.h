// RAII file-descriptor ownership and EINTR-safe I/O helpers for the
// network layer (src/net/).
//
// UniqueFd is to a POSIX fd what unique_ptr is to heap memory: move-only
// ownership, closed exactly once on destruction. Sockets are created
// close-on-exec (SOCK_CLOEXEC) so a fork+exec elsewhere in the process
// never leaks a connection.
//
// listenTcp()/acceptNonBlocking() are the one listener setup and accept
// path shared by the server's reactor shards and the chaos proxy: the
// listener and every accepted connection are non-blocking and
// close-on-exec from birth.
//
// readSome()/writeSome() wrap read()/write() in the canonical EINTR
// retry loop: a signal that interrupts the syscall before any bytes move
// must restart it, not surface a phantom error. Both carry a fault-
// injection site ("net.read", "net.write" — see util/fault_injection.h):
// a plan of Kind::kThrowTransient fires as a *synthetic EINTR*, so tests
// drive the retry loop deterministically without real signals; the
// socket kinds simulate a short transfer (kShortIo), a readiness storm
// (kEagain), or a peer reset (kReset) without touching the descriptor;
// kDelay stalls the byte stream; any other plan kind propagates as
// usual (a hard injected I/O failure).
//
// waitReadable()/readSomeTimed() are the poll(2)-based bounded variants
// the client uses so a stalled peer costs a timeout, never a hang.
//
// Close intentionally does NOT retry on EINTR: on Linux the descriptor
// is released even when close() returns EINTR, and retrying can close a
// descriptor that another thread has already been handed.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "util/check.h"
#include "util/fault_injection.h"

namespace prio::util {

/// Move-only owner of one POSIX file descriptor.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) noexcept : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Gives up ownership without closing.
  [[nodiscard]] int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the held descriptor (if any) and adopts `fd`.
  void reset(int fd = -1) noexcept {
    if (fd_ >= 0) ::close(fd_);  // no EINTR retry; see file comment
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

/// socket(2) with SOCK_CLOEXEC folded in. Invalid UniqueFd on failure
/// (errno set).
[[nodiscard]] inline UniqueFd socketCloexec(int domain, int type,
                                           int protocol) {
  return UniqueFd(::socket(domain, type | SOCK_CLOEXEC, protocol));
}

/// A bound, listening, non-blocking IPv4 TCP socket on address:port
/// (port 0 = kernel-chosen ephemeral). `reuseport` sets SO_REUSEPORT so
/// several listeners can share one port. Throws util::Error on failure.
[[nodiscard]] inline UniqueFd listenTcp(const std::string& address,
                                       std::uint16_t port, bool reuseport) {
  UniqueFd fd = socketCloexec(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  PRIO_CHECK_MSG(fd.valid(), "socket: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport) {
    PRIO_CHECK_MSG(::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                                sizeof(one)) == 0,
                   "setsockopt(SO_REUSEPORT): " << std::strerror(errno));
  }
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  PRIO_CHECK_MSG(::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) == 1,
                 "bad bind address " << address);
  PRIO_CHECK_MSG(::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "bind " << address << ":" << port << ": "
                         << std::strerror(errno));
  PRIO_CHECK_MSG(::listen(fd.get(), 256) == 0,
                 "listen: " << std::strerror(errno));
  return fd;
}

/// The local port a bound socket listens on.
[[nodiscard]] inline std::uint16_t localPort(int fd) {
  struct sockaddr_in bound {};
  socklen_t len = sizeof(bound);
  PRIO_CHECK(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                           &len) == 0);
  return ntohs(bound.sin_port);
}

/// accept4(2) of one pending connection, non-blocking and close-on-exec,
/// retried on EINTR. Invalid UniqueFd when none is pending (EAGAIN) or
/// the accept failed (errno set).
[[nodiscard]] inline UniqueFd acceptNonBlocking(int listen_fd) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0 || errno != EINTR) return UniqueFd(fd);
  }
}

/// Puts `fd` into non-blocking mode. False on failure (errno set).
inline bool setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

namespace detail {

/// What one consult of a socket fault site asks the helper to do.
struct IoOutcome {
  bool eintr = false;     ///< pretend the syscall was interrupted; retry
  bool eagain = false;    ///< fail with EAGAIN without the syscall
  bool reset = false;     ///< fail with ECONNRESET without the syscall
  bool short_io = false;  ///< cap the transfer at 1 byte
};

/// Consults the named fault site. Kind::kThrowTransient is the synthetic
/// EINTR; the socket kinds map onto the flags; kThrowError/kCrash throw
/// through to the caller (a hard injected I/O failure); kDelay has
/// already slept inside the checkpoint.
inline IoOutcome consultFaults(const char* site) {
  IoOutcome o;
  try {
    switch (fault::ioCheckpoint(site)) {
      case fault::IoFault::kNone: break;
      case fault::IoFault::kShort: o.short_io = true; break;
      case fault::IoFault::kEagain: o.eagain = true; break;
      case fault::IoFault::kReset: o.reset = true; break;
    }
  } catch (const TransientError&) {
    o.eintr = true;
  }
  return o;
}

}  // namespace detail

/// read(2) retried on EINTR (real or injected via site "net.read").
/// Returns bytes read (0 = EOF) or -1 with errno set (EAGAIN/EWOULDBLOCK
/// included — non-blocking callers handle those themselves).
inline long readSome(int fd, void* buf, std::size_t n) {
  for (;;) {
    const detail::IoOutcome f = detail::consultFaults("net.read");
    if (f.eintr) {
      errno = EINTR;
      continue;
    }
    if (f.eagain) {
      errno = EAGAIN;
      return -1;
    }
    if (f.reset) {
      errno = ECONNRESET;
      return -1;
    }
    const std::size_t want = f.short_io && n > 1 ? 1 : n;
    const long r = ::read(fd, buf, want);
    if (r >= 0 || errno != EINTR) return r;
  }
}

/// write(2) retried on EINTR (real or injected via site "net.write").
/// Returns bytes written or -1 with errno set.
inline long writeSome(int fd, const void* buf, std::size_t n) {
  for (;;) {
    const detail::IoOutcome f = detail::consultFaults("net.write");
    if (f.eintr) {
      errno = EINTR;
      continue;
    }
    if (f.eagain) {
      errno = EAGAIN;
      return -1;
    }
    if (f.reset) {
      errno = ECONNRESET;
      return -1;
    }
    const std::size_t want = f.short_io && n > 1 ? 1 : n;
    // MSG_NOSIGNAL: writing to a peer that already reset must surface as
    // EPIPE for the caller to handle, never as a process-killing SIGPIPE
    // (the chaos proxy and the crash-recovering client both write into
    // freshly-dead connections as a matter of course). Non-socket fds
    // get ENOTSOCK and fall back to plain write().
    long r = ::send(fd, buf, want, MSG_NOSIGNAL);
    if (r < 0 && errno == ENOTSOCK) r = ::write(fd, buf, want);
    if (r >= 0 || errno != EINTR) return r;
  }
}

/// poll(2) for readability with a wall-clock bound. Returns 1 when `fd`
/// is readable (or has a pending error/EOF to harvest), 0 on timeout,
/// -1 on poll failure (errno set). EINTR restarts with the remaining
/// time so a signal can't silently extend the bound. timeout_ms < 0
/// waits forever (plain blocking semantics).
inline int waitReadable(int fd, int timeout_ms) {
  const auto start = std::chrono::steady_clock::now();
  int remaining = timeout_ms;
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int r = ::poll(&pfd, 1, remaining);
    if (r >= 0) return r > 0 ? 1 : 0;
    if (errno != EINTR) return -1;
    if (timeout_ms < 0) continue;
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    remaining = timeout_ms - static_cast<int>(waited);
    if (remaining <= 0) return 0;
  }
}

/// readSome() bounded by waitReadable(): returns bytes read (0 = EOF),
/// -1 with errno set on error, or -2 when `timeout_ms` elapsed with no
/// byte available. For BLOCKING descriptors an injected/real EAGAIN is
/// treated as "not ready yet" and re-polled until the deadline, so an
/// EAGAIN storm costs time, not correctness.
inline constexpr long kReadTimedOut = -2;
inline long readSomeTimed(int fd, void* buf, std::size_t n, int timeout_ms) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    int remaining = timeout_ms;
    if (timeout_ms >= 0) {
      const auto waited =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      remaining = timeout_ms - static_cast<int>(waited);
      if (remaining < 0) remaining = 0;
    }
    const int ready = waitReadable(fd, remaining);
    if (ready < 0) return -1;
    if (ready == 0) return kReadTimedOut;
    const long r = readSome(fd, buf, n);
    if (r >= 0) return r;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return -1;
    // Spurious readiness or an injected EAGAIN storm: poll again with
    // whatever budget is left.
    if (timeout_ms == 0) return kReadTimedOut;
  }
}

/// Writes all `n` bytes to a BLOCKING descriptor, absorbing short writes
/// and EINTR. False on error (errno set).
inline bool writeAll(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const long w = writeSome(fd, p, n);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads exactly `n` bytes from a BLOCKING descriptor unless EOF or an
/// error intervenes. Returns bytes read (< n means EOF), or -1 on error.
inline long readFull(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const long r = readSome(fd, p + got, n - got);
    if (r < 0) return -1;
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return static_cast<long>(got);
}

}  // namespace prio::util
