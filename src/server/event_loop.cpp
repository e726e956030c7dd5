#include "server/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

namespace dsud::server {

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// epoll_event.data layout: fd in the low 32 bits, registration generation
/// in the high 32 (see EventLoop::Handler).
std::uint64_t packEvent(int fd, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         static_cast<std::uint32_t>(fd);
}

}  // namespace

EventLoop::EventLoop() {
  epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epollFd_ < 0) {
    throw NetError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  wakeFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeFd_ < 0) {
    const int err = errno;
    ::close(epollFd_);
    epollFd_ = -1;
    throw NetError(std::string("eventfd: ") + std::strerror(err));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = packEvent(wakeFd_, 0);  // the wake fd never closes; gen 0
  if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) != 0) {
    const int err = errno;
    ::close(wakeFd_);
    ::close(epollFd_);
    wakeFd_ = epollFd_ = -1;
    throw NetError(std::string("epoll_ctl(wake): ") + std::strerror(err));
  }
}

EventLoop::~EventLoop() {
  if (wakeFd_ >= 0) ::close(wakeFd_);
  if (epollFd_ >= 0) ::close(epollFd_);
}

void EventLoop::add(int fd, std::uint32_t events, IoCallback callback) {
  const std::uint32_t gen = nextGen_++;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = packEvent(fd, gen);
  if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw NetError(std::string("epoll_ctl(add): ") + std::strerror(errno));
  }
  handlers_[fd] = Handler{gen, std::make_shared<IoCallback>(std::move(callback))};
}

void EventLoop::modify(int fd, std::uint32_t events) {
  const auto it = handlers_.find(fd);
  if (it == handlers_.end()) {
    throw NetError("epoll_ctl(mod): fd not registered");
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = packEvent(fd, it->second.gen);
  if (::epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw NetError(std::string("epoll_ctl(mod): ") + std::strerror(errno));
  }
}

void EventLoop::remove(int fd) {
  // The kernel drops the registration with the last close() anyway; the
  // explicit ctl keeps the loop's view exact while the fd is still open.
  ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::stop() {
  stopRequested_ = true;
  wake();
}

void EventLoop::post(std::function<void()> task) {
  {
    std::lock_guard lock(postMutex_);
    posted_.push_back(std::move(task));
  }
  wake();
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wakeFd_, &one, sizeof one);
}

void EventLoop::drainWake() {
  std::uint64_t value = 0;
  while (::read(wakeFd_, &value, sizeof value) == sizeof value) {
  }
}

void EventLoop::runPosted() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard lock(postMutex_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

std::uint64_t EventLoop::runAfter(double seconds, std::function<void()> fn) {
  const std::uint64_t token = nextTimerToken_++;
  timers_.push_back(Timer{token, nowSeconds() + std::max(0.0, seconds),
                          std::move(fn)});
  return token;
}

void EventLoop::cancelTimer(std::uint64_t token) {
  timers_.erase(std::remove_if(timers_.begin(), timers_.end(),
                               [token](const Timer& t) {
                                 return t.token == token;
                               }),
                timers_.end());
}

int EventLoop::msUntilNextTimer() const {
  if (timers_.empty()) return -1;  // block until an fd or the wake fires
  double next = timers_.front().deadline;
  for (const Timer& t : timers_) next = std::min(next, t.deadline);
  const double ms = (next - nowSeconds()) * 1e3;
  if (ms <= 0) return 0;
  return static_cast<int>(std::min(ms, 60'000.0)) + 1;
}

void EventLoop::runDueTimers() {
  if (timers_.empty()) return;
  const double now = nowSeconds();
  std::vector<Timer> due;
  timers_.erase(std::remove_if(timers_.begin(), timers_.end(),
                               [&](Timer& t) {
                                 if (t.deadline > now) return false;
                                 due.push_back(std::move(t));
                                 return true;
                               }),
                timers_.end());
  for (Timer& t : due) t.fn();
}

void EventLoop::run() {
  running_ = true;
  // However run() ends, the next run() starts without a pending stop.
  struct Reset {
    EventLoop* loop;
    ~Reset() {
      loop->running_ = false;
      loop->stopRequested_ = false;
    }
  } reset{this};
  epoll_event events[64];
  while (!stopRequested_) {
    const int n =
        ::epoll_wait(epollFd_, events, std::size(events), msUntilNextTimer());
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NetError(std::string("epoll_wait: ") + std::strerror(errno));
    }
    for (int i = 0; i < n && !stopRequested_; ++i) {
      const std::uint64_t key = events[i].data.u64;
      const int fd = static_cast<int>(key & 0xffffffffu);
      const std::uint32_t gen = static_cast<std::uint32_t>(key >> 32);
      if (fd == wakeFd_) {
        drainWake();
        if (wakeHandler_) wakeHandler_();
        continue;
      }
      // Hold a reference: the callback may remove (even close) its own fd.
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;  // removed by an earlier callback
      if (it->second.gen != gen) continue;  // fd reused; event is stale
      const std::shared_ptr<IoCallback> handler = it->second.callback;
      (*handler)(events[i].events);
    }
    runPosted();
    runDueTimers();
  }
}

}  // namespace dsud::server
