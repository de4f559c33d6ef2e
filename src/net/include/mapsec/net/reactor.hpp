// Per-shard epoll reactor: one thread, one epoll instance, one clock.
//
// The sim bearer runs the whole fleet off an EventQueue; the real bearer
// needs the same timeout machinery plus actual file descriptors. The
// reactor is the marriage: it owns an EventQueue driven by a wall Clock
// (MonotonicClock in production, so ReliableLink RTOs and server idle
// sweeps fire at real deadlines), a level-triggered epoll set for the
// sockets, and a deferred-flush list so every endpoint that queued bytes
// during a dispatch round gets exactly one gathering send at the end of
// the round — records produced by separate send() calls coalesce into
// one syscall.
//
// Threading: everything runs on the reactor's thread except post(),
// which is the one cross-thread entry point (mutex-guarded queue plus an
// eventfd wakeup). A fleet runs one reactor per shard thread; reactors
// share nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "mapsec/net/clock.hpp"
#include "mapsec/net/sim_clock.hpp"

namespace mapsec::net {

/// An endpoint whose queued output the reactor flushes at the end of the
/// current dispatch round (see Reactor::defer_flush).
class Flushable {
 public:
  virtual ~Flushable() = default;
  virtual void flush_now() = 0;
};

class Reactor {
 public:
  /// `clock` supplies the timeline the reactor's EventQueue is advanced
  /// to on every turn; it must outlive the reactor.
  explicit Reactor(Clock& clock);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  EventQueue& queue() { return queue_; }
  Clock& clock() { return clock_; }

  /// Register interest in `fd`. `on_event` receives the epoll event mask
  /// (EPOLLIN/EPOLLOUT/EPOLLERR/EPOLLHUP bits). Level-triggered.
  void add_fd(int fd, std::uint32_t events,
              std::function<void(std::uint32_t)> on_event);
  void modify_fd(int fd, std::uint32_t events);
  /// Forget `fd`, which the caller closes next. Safe from inside its own
  /// (or a sibling's) event callback: the entry is marked dead and skipped
  /// for the rest of the dispatch round. Issues no EPOLL_CTL_DEL: close()
  /// removes a socket from the epoll set once no other descriptor refers
  /// to it, and the bearer's sockets are SOCK_CLOEXEC and never dup'd.
  void remove_fd(int fd);

  /// Queue `target` for one flush_now() at the end of the current poll
  /// turn. Duplicates are the caller's problem (SocketEndpoint tracks an
  /// in-list flag); a target that dies mid-round must cancel_flush().
  void defer_flush(Flushable* target);
  void cancel_flush(Flushable* target);

  /// Thread-safe: enqueue `fn` to run on the reactor thread and wake it.
  void post(std::function<void()> fn);

  /// One turn: run posted fns, advance the EventQueue to the clock, wait
  /// for fd events at most `max_wait_us` (clamped to the next timer, to
  /// the microsecond; at most 60 s; 0 = do not block),
  /// dispatch them, advance again, then flush deferred endpoints.
  /// Returns the number of fd events dispatched.
  std::size_t poll(SimTime max_wait_us);

  /// Turn poll() until `done()` or `wall_budget_us` of clock time passes
  /// (0 = no budget). Returns true iff `done()` stopped it.
  bool run_until(const std::function<bool()>& done, SimTime wall_budget_us = 0);

 private:
  struct FdEntry {
    std::function<void(std::uint32_t)> on_event;
    bool alive = true;
  };

  void drain_posted();
  void flush_deferred();

  Clock& clock_;
  EventQueue queue_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd; post() writes, reactor thread drains
  std::unordered_map<int, std::shared_ptr<FdEntry>> fds_;
  std::vector<Flushable*> deferred_;
  std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace mapsec::net
