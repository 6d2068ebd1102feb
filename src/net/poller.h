// Readiness for a reactor shard (net/server.cpp): one level-triggered
// epoll instance. Each reactor shard owns exactly one Poller and is the
// only thread that ever touches it, so it carries no locks.
//
// Level-triggered on purpose: a handler that leaves bytes unread or
// unwritten is simply called again on the next wait(), so partial
// progress never needs re-arming bookkeeping.
#pragma once

#include <vector>

#include "util/socket.h"

namespace prio::net {

class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  /// Creates the epoll instance; throws util::Error on failure.
  Poller();

  void add(int fd, bool read, bool write);
  void update(int fd, bool read, bool write);
  void remove(int fd);
  /// Fills `out` with ready fds; blocks up to timeout_ms (-1 = forever).
  void wait(std::vector<Event>& out, int timeout_ms);

 private:
  void ctl(int op, int fd, bool read, bool write);

  util::UniqueFd ep_;
};

}  // namespace prio::net
