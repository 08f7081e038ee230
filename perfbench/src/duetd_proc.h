// A duetd child process driven from outside: spawned with its own data
// directory, configured over its ops socket, measured through /proc, and
// killed with SIGKILL (the crash path) or SIGTERM (a clean stop).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "persist/ctl_protocol.h"

namespace perfbench {

class DuetdProcess {
 public:
  DuetdProcess() = default;
  ~DuetdProcess();
  DuetdProcess(const DuetdProcess&) = delete;
  DuetdProcess& operator=(const DuetdProcess&) = delete;

  // Spawns `binary --dir DIR --socket DIR/duetd.sock <args>` on `cpus`
  // (empty: anywhere) and waits (up to 60 s) for its "serving" line. The
  // data directory is created if missing. Returns false with *error set; the
  // child is reaped on every failure.
  bool launch(const std::string& binary, const std::string& dir,
              const std::vector<std::string>& args, const std::vector<int>& cpus,
              std::string* error);

  int pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }
  // Seconds from spawn to the serving line.
  double ready_s() const noexcept { return ready_s_; }

  // One ops-socket request. nullopt on transport failure. *rtt_us (when set)
  // receives connect-to-reply wall time.
  std::optional<duet::persist::CtlResponse> request(const std::vector<std::string>& argv,
                                                    double* rtt_us = nullptr) const;

  // SIGKILL and reap: the crash path.
  void kill9();

  // Seconds to spawn `binary` with no arguments on `cpus` and reap it: it
  // prints its usage and exits at once, so this is the cost of starting the
  // binary (exec, loading, static set-up) with no recovery in it.
  static double start_floor_s(const std::string& binary, const std::vector<int>& cpus);

  // SIGTERM, then SIGKILL after `grace_ms`; reaps.
  void stop(int grace_ms = 5000);

 private:
  int pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  double ready_s_ = 0.0;
  std::string socket_path_;
};

// Counters parsed from duetd's `stats` reply.
struct DuetdStats {
  std::uint64_t vips = 0, flows = 0, fast_hits = 0, fast_misses = 0, fast_rebuilds = 0;
};
std::optional<DuetdStats> parse_stats(const std::string& text);

}  // namespace perfbench
