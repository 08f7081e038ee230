// Minimal per-worker readiness loop: level-triggered read callbacks plus a
// periodic tick, built on epoll(7) on Linux and poll(2) elsewhere.
//
// One EventLoop per worker thread. Only wake() may be called from another
// thread; it interrupts a blocked wait so the worker promptly re-checks its
// stop flag (the drain path in runtime/mux_server.cc).
#pragma once

#include <atomic>
#include <functional>
#include <memory>

namespace duet::runtime {

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // False when the kernel refused the backing fds (fd exhaustion).
  bool ok() const noexcept;

  // Registers a level-triggered readable callback for `fd`. The callback
  // must consume until EAGAIN or the loop spins. `fd` must stay open until
  // remove() or destruction.
  bool add(int fd, std::function<void()> on_readable);
  bool remove(int fd);

  // Dispatches readiness callbacks until `stop` becomes true, invoking
  // `on_tick` (if set) roughly every `tick_ms`, and also in the iteration
  // that drains a wake(), before that iteration's read callbacks: work
  // queued before a wake() (a live MuxServer update) applies at once, not up
  // to tick_ms later, and to every datagram read after it. wake() and tick
  // expiry both re-check `stop`, so shutdown latency is bounded by tick_ms
  // even if wake() is never called.
  void run(const std::atomic<bool>& stop, int tick_ms,
           const std::function<void()>& on_tick = nullptr);

  // Thread-safe: interrupts a blocked run() iteration and runs its tick.
  void wake();

 private:
  struct Impl;
  // Destroyed out-of-line in event_loop.cc where Impl is complete (the dtor
  // also closes the backing fds first).
  std::unique_ptr<Impl> impl_;
};

}  // namespace duet::runtime
