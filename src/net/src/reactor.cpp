#include "mapsec/net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <ctime>

namespace mapsec::net {

Reactor::Reactor(Clock& clock) : clock_(clock) {
  // Seed the EventQueue's origin so relative timers land on the same
  // timeline now_us() reports.
  queue_.run_until(clock_.now_us());
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ >= 0 && wake_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
}

Reactor::~Reactor() {
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void Reactor::add_fd(int fd, std::uint32_t events,
                     std::function<void(std::uint32_t)> on_event) {
  auto entry = std::make_shared<FdEntry>();
  entry->on_event = std::move(on_event);
  fds_[fd] = std::move(entry);
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void Reactor::modify_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void Reactor::remove_fd(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  it->second->alive = false;  // events already harvested this round skip it
  fds_.erase(it);
}

void Reactor::defer_flush(Flushable* target) { deferred_.push_back(target); }

void Reactor::cancel_flush(Flushable* target) {
  deferred_.erase(std::remove(deferred_.begin(), deferred_.end(), target),
                  deferred_.end());
}

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    posted_.push_back(std::move(fn));
  }
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void Reactor::drain_posted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void Reactor::flush_deferred() {
  // Endpoints may re-defer while flushing (partial write re-arms); take
  // the list by value so re-entries land in the next round's list.
  std::vector<Flushable*> batch;
  batch.swap(deferred_);
  for (Flushable* f : batch) f->flush_now();
}

std::size_t Reactor::poll(SimTime max_wait_us) {
  drain_posted();
  queue_.run_until(clock_.now_us());
  flush_deferred();

  // Sleep no further than the next timer deadline.
  SimTime wait_us = max_wait_us;
  SimTime next = queue_.next_time();
  if (next != EventQueue::kNoEvent) {
    SimTime now = clock_.now_us();
    SimTime until_timer = next > now ? next - now : 0;
    wait_us = std::min(wait_us, until_timer);
  }
  // Sleep to the microsecond the queue asks for: epoll_pwait2 takes a
  // timespec, so a 500 us timer waits 500 us instead of a whole
  // rounded-up millisecond. A zero wait polls without blocking.
  wait_us = std::min<SimTime>(wait_us, 60'000'000);
  const timespec timeout{static_cast<time_t>(wait_us / 1'000'000),
                         static_cast<long>(wait_us % 1'000'000) * 1'000};

  epoll_event events[64];
  int n = epoll_pwait2(epoll_fd_, events, 64, &timeout, nullptr);
  if (n < 0 && errno == ENOSYS)  // pre-5.11 kernel: millisecond fallback
    n = epoll_wait(epoll_fd_, events, 64,
                   static_cast<int>((wait_us + 999) / 1000));
  std::size_t dispatched = 0;
  if (n > 0) {
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drain;
        while (read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      auto it = fds_.find(fd);
      if (it == fds_.end()) continue;
      // Hold a ref: the callback may remove_fd(fd) (or a sibling's may),
      // which only marks the entry dead.
      std::shared_ptr<FdEntry> entry = it->second;
      if (!entry->alive) continue;
      entry->on_event(events[i].events);
      ++dispatched;
    }
  }

  // The whole ready set is dispatched before the queue runs, so a 0-delay
  // event a handler queued (the server's pipeline flush) sees every frame
  // this turn read, and what it sends leaves in this turn's flush.
  drain_posted();
  queue_.run_until(clock_.now_us());
  flush_deferred();
  return dispatched;
}

bool Reactor::run_until(const std::function<bool()>& done,
                        SimTime wall_budget_us) {
  SimTime deadline =
      wall_budget_us == 0 ? EventQueue::kNoEvent : sat_add_time(clock_.now_us(), wall_budget_us);
  for (;;) {
    if (done()) return true;
    SimTime now = clock_.now_us();
    if (deadline != EventQueue::kNoEvent && now >= deadline) return false;
    SimTime wait = 10'000;  // 10 ms cap keeps done()/budget checks timely
    if (deadline != EventQueue::kNoEvent && deadline - now < wait) wait = deadline - now;
    poll(wait);
  }
}

}  // namespace mapsec::net
