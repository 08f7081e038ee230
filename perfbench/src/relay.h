// The reference path: a bench-owned two-hop UDP relay with duetd's thread
// topology and nothing else. The first hop receives the client's datagram
// and hands it to the second, which sends it back to the client, as duetd's
// mux worker hands a packet to an echo DIP that answers the client directly.
//
// The serving workloads send to it in windows interleaved with duetd's and
// report duetd's figures relative to it. On a shared VM the cost of a
// syscall and of waking a thread drifts by a third over minutes, with the
// host's load; both paths pay it alike, so the ratio keeps what duetd itself
// adds and drops the drift.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

class Relay {
 public:
  Relay() = default;
  ~Relay();
  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  // Binds both hops on loopback and starts their threads, the first on
  // `cpus1` and the second on `cpus2` (empty: anywhere). False on failure.
  bool start(const std::vector<int>& cpus1, const std::vector<int>& cpus2);
  void stop();

  // Where the client sends, and the port its replies come from.
  std::uint16_t port() const noexcept { return in_port_; }
  std::uint16_t reply_port() const noexcept { return out_port_; }
  // On-CPU nanoseconds of each hop's thread so far.
  std::vector<std::uint64_t> thread_cpu_ns();

 private:
  void forward_loop();
  void answer_loop();

  int in_fd_ = -1, out_fd_ = -1;
  std::uint16_t in_port_ = 0, out_port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread forward_, answer_;
};

}  // namespace perfbench
