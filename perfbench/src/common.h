// Shared helpers for the perfbench binary: clocks, percentiles, the result
// record every workload fills, and /proc readers for the process under test.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock steady_clock uses).
std::uint64_t mono_ns();
double mono_s();
// CPU time of the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns();

// Linear-interpolated percentile (p in [0, 100]) of a sample; sorts a copy.
// 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
// The lowest median over consecutive groups of `group` samples (a short
// trailing group is dropped unless it is the only one). For times that
// noise on a shared machine can only lengthen: the quietest group is the
// system's own cost, and a regression raises every group.
double min_group_median(const std::vector<double>& values, std::size_t group);

// What one workload run reports. `metrics` is keyed by the metric name the
// result line carries; `units` gives each metric's unit.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> units;
  std::vector<std::string> errors;  // one line per failed correctness gate

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = value;
    units[name] = unit;
  }
  // Records a failed correctness gate: the run is not correct.
  void fail_gate(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

// Prints `result` with every metric it measured as the single JSON result
// line. A non-finite value is a failed gate and is left out.
void print_result_line(Result& result);

// --- /proc readers (Linux) -----------------------------------------------------

// Sum of on-CPU nanoseconds over every thread of `pid` (schedstat), or of
// utime+stime from /proc/<pid>/stat when schedstat is unavailable.
std::uint64_t process_cpu_ns(int pid);
// Per-thread on-CPU nanoseconds, keyed by tid.
std::map<int, std::uint64_t> thread_cpu_ns_of(int pid);
std::string thread_name(int pid, int tid);
// Peak resident set (VmHWM) in MiB; 0 when unreadable.
double peak_rss_mib(int pid);
// This machine, for the run header: nproc, kernel, build type, CPU plan.
std::string machine_line();

// --- CPU placement -------------------------------------------------------------

// Where the serving workloads' threads run, with at least 4 usable CPUs:
// the client's open-loop sender, which spins, alone on the first; the
// client's receiver (and the ops thread) on the second; duetd's two busy
// threads, the mux worker and the echo pool, one each on the third and
// fourth, and the reference relay's two hops (relay.h) on the same two.
// Left to the scheduler, each run put these threads on a different mix of
// shared and separate CPUs, and on a VM waking a thread on an idle CPU costs
// several times a wake-up on a busy one, so RTT and CPU per packet moved by
// a quarter between runs. With fewer CPUs `pinned` is false and nothing is
// pinned.
struct CpuPlan {
  bool pinned = false;
  std::vector<int> sender, receiver, hop1, hop2;  // one CPU each
  std::vector<int> rest;                          // receiver + hop1 + hop2
  std::vector<int> all;                           // every usable CPU
};
const CpuPlan& cpu_plan();
// Pins the calling thread (in a child before exec: the process) to `cpus`.
// No-op for an empty set; false if the kernel refused.
bool pin_to(const std::vector<int>& cpus);
// Pins thread `tid` of another process to `cpus`, as `taskset -p` does.
bool pin_thread_to(int tid, const std::vector<int>& cpus);

}  // namespace perfbench
