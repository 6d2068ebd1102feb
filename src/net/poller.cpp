#include "net/poller.h"

#include <sys/epoll.h>

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "util/check.h"

namespace prio::net {

Poller::Poller() : ep_(::epoll_create1(EPOLL_CLOEXEC)) {
  PRIO_CHECK_MSG(ep_.valid(), "epoll_create1: " << std::strerror(errno));
}

void Poller::add(int fd, bool read, bool write) {
  ctl(EPOLL_CTL_ADD, fd, read, write);
}

void Poller::update(int fd, bool read, bool write) {
  ctl(EPOLL_CTL_MOD, fd, read, write);
}

void Poller::remove(int fd) {
  struct epoll_event ev {};
  ::epoll_ctl(ep_.get(), EPOLL_CTL_DEL, fd, &ev);
}

void Poller::wait(std::vector<Event>& out, int timeout_ms) {
  std::array<struct epoll_event, 64> evs;
  int n;
  do {
    n = ::epoll_wait(ep_.get(), evs.data(), static_cast<int>(evs.size()),
                     timeout_ms);
  } while (n < 0 && errno == EINTR);
  for (int i = 0; i < n; ++i) {
    Event e;
    e.fd = evs[static_cast<std::size_t>(i)].data.fd;
    const std::uint32_t m = evs[static_cast<std::size_t>(i)].events;
    e.readable = (m & (EPOLLIN | EPOLLHUP)) != 0;
    e.writable = (m & EPOLLOUT) != 0;
    e.error = (m & EPOLLERR) != 0;
    out.push_back(e);
  }
}

void Poller::ctl(int op, int fd, bool read, bool write) {
  struct epoll_event ev {};
  ev.data.fd = fd;
  if (read) ev.events |= EPOLLIN;
  if (write) ev.events |= EPOLLOUT;
  PRIO_CHECK_MSG(::epoll_ctl(ep_.get(), op, fd, &ev) == 0,
                 "epoll_ctl: " << std::strerror(errno));
}

}  // namespace prio::net
