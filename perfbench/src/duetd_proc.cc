#include "duetd_proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common.h"

namespace perfbench {

namespace {

constexpr int kRequestTimeoutMs = 10000;

bool wait_exit(int pid, int timeout_ms) {
  for (int waited = 0; waited <= timeout_ms; waited += 5) {
    int status = 0;
    const int r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || r < 0) return true;
    ::usleep(5000);
  }
  return false;
}

}  // namespace

DuetdProcess::~DuetdProcess() { kill9(); }

bool DuetdProcess::launch(const std::string& binary, const std::string& dir,
                          const std::vector<std::string>& args, const std::vector<int>& cpus,
                          std::string* error) {
  ::mkdir(dir.c_str(), 0755);
  socket_path_ = dir + "/duetd.sock";
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> argv_s{binary, "--dir", dir, "--socket", socket_path_};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log = dir + "/duetd.log";

  const double t0 = mono_s();
  const int pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return false;
  }
  if (pid == 0) {
    // Child: dies with the benchmark, whatever way the benchmark exits.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    pin_to(cpus);  // every thread duetd starts inherits it
    ::dup2(pipefd[1], STDOUT_FILENO);
    const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (err >= 0) ::dup2(err, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  pid_ = pid;
  out_fd_ = pipefd[0];

  // Read stdout until "serving 127.0.0.1:PORT".
  std::string buf;
  const double deadline = t0 + 60.0;
  while (mono_s() < deadline) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char chunk[512];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n <= 0) break;  // the child exited
    buf.append(chunk, static_cast<std::size_t>(n));
    const auto at = buf.find("serving 127.0.0.1:");
    if (at != std::string::npos && buf.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::strtoul(buf.c_str() + at + 18, nullptr, 10));
      ready_s_ = mono_s() - t0;
      return true;
    }
  }
  *error = "duetd did not come up; stdout: " + buf + " (see " + log + ")";
  kill9();
  return false;
}

std::optional<duet::persist::CtlResponse> DuetdProcess::request(
    const std::vector<std::string>& argv, double* rtt_us) const {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) return std::nullopt;
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  const double t0 = mono_s();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return std::nullopt;
  std::optional<duet::persist::CtlResponse> out;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
      duet::persist::ctl_send_frame(fd, duet::persist::encode_request(argv),
                                    kRequestTimeoutMs)) {
    if (auto frame = duet::persist::ctl_recv_frame(fd, kRequestTimeoutMs); frame.has_value()) {
      out = duet::persist::decode_response(*frame);
    }
  }
  ::close(fd);
  if (rtt_us != nullptr) *rtt_us = (mono_s() - t0) * 1e6;
  return out;
}

double DuetdProcess::start_floor_s(const std::string& binary, const std::vector<int>& cpus) {
  std::string path = binary;
  char* argv[] = {path.data(), nullptr};
  const double t0 = mono_s();
  const int pid = ::fork();
  if (pid < 0) return 0.0;
  if (pid == 0) {
    pin_to(cpus);
    const int null = ::open("/dev/null", O_WRONLY);
    if (null >= 0) {
      ::dup2(null, STDOUT_FILENO);
      ::dup2(null, STDERR_FILENO);
    }
    ::execv(path.c_str(), argv);
    ::_exit(127);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return mono_s() - t0;
}

void DuetdProcess::kill9() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    wait_exit(pid_, 10000);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

void DuetdProcess::stop(int grace_ms) {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    if (wait_exit(pid_, grace_ms)) pid_ = -1;
  }
  kill9();
}

std::optional<DuetdStats> parse_stats(const std::string& text) {
  unsigned long long vips = 0, rx = 0, tx = 0, flows = 0, dip = 0, hits = 0, misses = 0,
                     rebuilds = 0;
  const auto v = text.find("\nvips ");
  const auto a = text.find("\nrx ");
  const auto b = text.find("\nfast tier: ");
  if (v == std::string::npos || a == std::string::npos || b == std::string::npos ||
      std::sscanf(text.c_str() + v, "\nvips %llu", &vips) != 1 ||
      std::sscanf(text.c_str() + a, "\nrx %llu | tx %llu | flows %llu | dip packets %llu", &rx,
                  &tx, &flows, &dip) != 4 ||
      std::sscanf(text.c_str() + b, "\nfast tier: %llu hits | %llu misses | %llu rebuilds", &hits,
                  &misses, &rebuilds) != 3) {
    return std::nullopt;
  }
  return DuetdStats{vips, flows, hits, misses, rebuilds};
}

}  // namespace perfbench
