// Cross-thread wakeup for an event loop: other threads (and requestStop
// from a signal handler) signal(), the loop's poller waits on fd(), the
// loop drain()s. Used by every reactor shard (net/server.cpp) and by the
// chaos proxy's relay loop (net/chaos.cpp).
//
// An eventfd(2): one descriptor, and the kernel-side 64-bit counter
// makes coalescing structural — a thousand signal()s between two loop
// iterations cost one readable event and one 8-byte read.
//
// signal() is async-signal-safe (a single write(2) on a pre-opened fd)
// and never blocks: the fd is non-blocking, and a full counter is
// exactly the "wake already pending" case.
#pragma once

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "util/check.h"
#include "util/socket.h"

namespace prio::net {

class Wakeup {
 public:
  Wakeup() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
    PRIO_CHECK_MSG(fd_.valid(), "eventfd: " << std::strerror(errno));
  }

  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  /// The descriptor to register for read interest with the poller.
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  /// Wakes the owning loop. Async-signal-safe; EAGAIN (counter full)
  /// means a wake is already pending, which is success.
  void signal() noexcept {
    const std::uint64_t one = 1;
    (void)!::write(fd_.get(), &one, sizeof(one));
  }

  /// Consumes every pending signal. Returns how many signal() calls were
  /// coalesced into this drain (0 = spurious readiness). Loop-thread
  /// only — uses plain read(2), not the fault-injected helpers, because
  /// wakeups are control plane, not the byte stream under test.
  std::uint64_t drain() noexcept {
    std::uint64_t count = 0;
    long r;
    do {
      r = ::read(fd_.get(), &count, sizeof(count));
    } while (r < 0 && errno == EINTR);
    return r == static_cast<long>(sizeof(count)) ? count : 0;
  }

 private:
  util::UniqueFd fd_;
};

}  // namespace prio::net
