#include "common.h"

#include <sched.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

std::uint64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double mono_s() { return static_cast<double>(mono_ns()) * 1e-9; }

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double min_group_median(const std::vector<double>& values, std::size_t group) {
  if (values.size() < group || group == 0) return median(values);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t at = 0; at + group <= values.size(); at += group) {
    best = std::min(best, median(std::vector<double>(values.begin() + static_cast<long>(at),
                                                     values.begin() + static_cast<long>(at + group))));
  }
  return best;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<int> task_ids(int pid) {
  std::vector<int> tids;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return tids;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') tids.push_back(std::atoi(e->d_name));
  }
  closedir(d);
  std::sort(tids.begin(), tids.end());
  return tids;
}

// On-CPU ns of one task: schedstat's first field, else utime+stime ticks.
std::uint64_t task_cpu_ns(int pid, int tid) {
  const std::string base = "/proc/" + std::to_string(pid) + "/task/" + std::to_string(tid);
  const std::string sched = read_file(base + "/schedstat");
  if (!sched.empty()) return std::strtoull(sched.c_str(), nullptr, 10);
  const std::string stat = read_file(base + "/stat");
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  std::uint64_t utime = 0, stime = 0;
  // Fields after "(comm)": state is field 3; utime/stime are 14/15.
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return (utime + stime) * 1'000'000'000ull / static_cast<std::uint64_t>(hz > 0 ? hz : 100);
}

}  // namespace

void print_result_line(Result& result) {
  for (const auto& [name, value] : result.metrics) {
    if (!std::isfinite(value)) result.fail_gate("metric not finite: " + name);
  }
  for (const auto& e : result.errors) std::printf("GATE FAILED: %s\n", e.c_str());
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : result.metrics) {
    if (!std::isfinite(v)) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) line += ", ";
    first = false;
    line += "\"" + json_escape(name) + "\": {\"value\": " + value + ", \"unit\": \"" +
            json_escape(result.units[name]) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::uint64_t process_cpu_ns(int pid) {
  std::uint64_t total = 0;
  for (const int tid : task_ids(pid)) total += task_cpu_ns(pid, tid);
  return total;
}

std::map<int, std::uint64_t> thread_cpu_ns_of(int pid) {
  std::map<int, std::uint64_t> out;
  for (const int tid : task_ids(pid)) out[tid] = task_cpu_ns(pid, tid);
  return out;
}

std::string thread_name(int pid, int tid) {
  std::string name =
      read_file("/proc/" + std::to_string(pid) + "/task/" + std::to_string(tid) + "/comm");
  while (!name.empty() && (name.back() == '\n' || name.back() == ' ')) name.pop_back();
  return name;
}

double peak_rss_mib(int pid) {
  std::istringstream in(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0.0;
}

std::string machine_line() {
  utsname u{};
  uname(&u);
  const CpuPlan& plan = cpu_plan();
  std::string cpus = "unpinned (fewer than 4 usable CPUs)";
  if (plan.pinned) {
    cpus = "cpus: sender " + std::to_string(plan.sender[0]) + ", receiver " +
           std::to_string(plan.receiver[0]) + ", duetd/relay hops " + std::to_string(plan.hop1[0]) +
           " and " + std::to_string(plan.hop2[0]);
  }
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "machine: nproc %ld | kernel %s %s | build %s | %s | traffic over loopback UDP, "
                "not a real link",
                sysconf(_SC_NPROCESSORS_ONLN), u.sysname, u.release, PERFBENCH_BUILD_TYPE,
                cpus.c_str());
  return buf;
}

const CpuPlan& cpu_plan() {
  static const CpuPlan plan = [] {
    CpuPlan p;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return p;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) p.all.push_back(c);
    }
    if (p.all.size() < 4) return p;
    p.pinned = true;
    p.sender = {p.all[0]};
    p.receiver = {p.all[1]};
    p.hop1 = {p.all[2]};
    p.hop2 = {p.all[3]};
    p.rest = {p.all[1], p.all[2], p.all[3]};
    return p;
  }();
  return plan;
}

namespace {

bool set_affinity(int tid, const std::vector<int>& cpus) {
  if (cpus.empty()) return true;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

}  // namespace

bool pin_to(const std::vector<int>& cpus) { return set_affinity(0, cpus); }

bool pin_thread_to(int tid, const std::vector<int>& cpus) { return set_affinity(tid, cpus); }

}  // namespace perfbench
