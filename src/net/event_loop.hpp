// Single-threaded epoll event loop: fd readiness, one-shot timers and
// cross-thread task injection — the real-time counterpart of the
// discrete-event simulator's scheduler.
//
// All protocol objects attached to a loop are touched only from the loop
// thread (the simulator's single-thread discipline); post() is
// the one thread-safe entry point.  Timers drive nothing but the link
// layer's retransmissions — per the paper's model, no protocol decision
// above the links depends on time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <queue>
#include <vector>

namespace sintra::net {

class EventLoop {
 public:
  using TimerId = std::uint64_t;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers a level-triggered read-readiness callback for `fd`.
  /// Loop-thread only (or before run()).  One callback per fd.
  void add_fd(int fd, std::function<void()> on_readable);
  void remove_fd(int fd);

  /// One-shot timer; returns an id usable with cancel().  Loop-thread
  /// only.  Delays clamp to >= 0.
  TimerId call_later(double delay_ms, std::function<void()> fn);
  void cancel(TimerId id);

  /// Enqueues `fn` to run on the loop thread.  Thread-safe; wakes the
  /// loop if it is blocked in epoll_wait.
  void post(std::function<void()> fn);

  /// Alias for post() under the conventional event-loop name — the
  /// crypto worker pool's completion hook uses it to hop results back
  /// onto the loop thread.
  void call_soon(std::function<void()> fn) { post(std::move(fn)); }

  /// Requests the loop to return from run().  Thread- and signal-safe
  /// via the wakeup eventfd.
  void stop();

  /// Installs handlers so the listed signals (e.g. SIGINT, SIGTERM) stop
  /// the loop instead of killing the process.  At most one loop per
  /// process may use this.  `on_signal`, if given, runs on the loop
  /// thread before the loop exits.
  void stop_on_signals(std::initializer_list<int> signals,
                       std::function<void(int)> on_signal = {});

  /// Installs a handler that runs `fn` on the loop thread whenever
  /// `signo` is delivered, *without* stopping the loop (e.g. SIGUSR1 ->
  /// dump a metrics snapshot).  Same one-loop-per-process restriction as
  /// stop_on_signals, with which it composes.
  void on_signal(int signo, std::function<void()> fn);

  /// Runs until stop().  Returns the number of callbacks dispatched.
  std::uint64_t run();

  /// Runs until `pred()` is true (checked after every dispatch batch),
  /// stop() is called, or `timeout_ms` of wall-clock elapses.  Returns
  /// whether the predicate was satisfied.  For tests and simple tools.
  bool run_until(const std::function<bool()>& pred, double timeout_ms);

  /// Monotonic milliseconds (an arbitrary epoch, comparable within the
  /// process).
  [[nodiscard]] double now_ms() const;

  [[nodiscard]] bool stopped() const { return stop_requested_.load(); }

 private:
  struct Timer {
    double deadline_ms;
    TimerId id;
    bool operator>(const Timer& o) const {
      return deadline_ms > o.deadline_ms ||
             (deadline_ms == o.deadline_ms && id > o.id);
    }
  };

  /// One pass: wait (up to the next timer / `max_wait_ms`), then dispatch
  /// ready fds, expired timers and posted tasks.  Returns callbacks run.
  std::uint64_t step(double max_wait_ms);
  void drain_wakeup();

  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;  // eventfd: post()/stop()/signal wakeups

  std::map<int, std::function<void()>> fd_callbacks_;

  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  std::map<TimerId, std::function<void()>> timer_fns_;  // absent = cancelled
  TimerId next_timer_id_ = 1;

  std::mutex posted_mutex_;
  std::vector<std::function<void()>> posted_;

  std::atomic<bool> stop_requested_{false};
  std::function<void(int)> signal_fn_;
  std::vector<int> handled_signals_;
  std::map<int, std::function<void()>> signal_callbacks_;  // non-stopping

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

}  // namespace sintra::net
