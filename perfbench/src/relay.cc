#include "relay.h"

#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cstring>

#include "common.h"

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 64;  // duet's batch size
constexpr std::size_t kBufBytes = 128;
constexpr std::size_t kPortBytes = 2;  // the first hop appends the client's port

int bind_loopback(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int buf = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(a);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *port = ntohs(a.sin_port);
  return fd;
}

// One hop: waits for datagrams like duetd's event loop (poll with a 1 ms
// tick), receives a batch, lets `rewrite` turn each into a datagram and its
// destination, and sends the batch.
template <typename Rewrite>
void hop_loop(int fd, const std::atomic<bool>& stop, Rewrite rewrite) {
  std::vector<std::uint8_t> in(kBatch * kBufBytes), out(kBatch * kBufBytes);
  std::vector<iovec> in_iov(kBatch), out_iov(kBatch);
  std::vector<sockaddr_in> from(kBatch), to(kBatch);
  std::vector<mmsghdr> in_msgs(kBatch), out_msgs(kBatch);
  pollfd pfd{fd, POLLIN, 0};
  while (!stop.load(std::memory_order_acquire)) {
    if (::poll(&pfd, 1, 1) <= 0) continue;
    for (std::size_t i = 0; i < kBatch; ++i) {
      in_iov[i] = iovec{in.data() + i * kBufBytes, kBufBytes};
      in_msgs[i] = mmsghdr{};
      in_msgs[i].msg_hdr.msg_iov = &in_iov[i];
      in_msgs[i].msg_hdr.msg_iovlen = 1;
      in_msgs[i].msg_hdr.msg_name = &from[i];
      in_msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
    const int n = ::recvmmsg(fd, in_msgs.data(), kBatch, MSG_DONTWAIT, nullptr);
    if (n <= 0) continue;
    unsigned m = 0;
    for (int i = 0; i < n; ++i) {
      std::uint8_t* dst = out.data() + m * kBufBytes;
      const std::size_t len = rewrite(in.data() + static_cast<std::size_t>(i) * kBufBytes,
                                      in_msgs[i].msg_len, from[i], dst, &to[m]);
      if (len == 0) continue;
      out_iov[m] = iovec{dst, len};
      out_msgs[m] = mmsghdr{};
      out_msgs[m].msg_hdr.msg_iov = &out_iov[m];
      out_msgs[m].msg_hdr.msg_iovlen = 1;
      out_msgs[m].msg_hdr.msg_name = &to[m];
      out_msgs[m].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      ++m;
    }
    for (unsigned done = 0; done < m;) {
      const int r = ::sendmmsg(fd, out_msgs.data() + done, m - done, 0);
      if (r <= 0) break;  // a refused datagram is a lost reply: the client counts it
      done += static_cast<unsigned>(r);
    }
  }
}

std::uint64_t cpu_ns_of(std::thread& t) {
  clockid_t clock;
  timespec ts{};
  if (pthread_getcpuclockid(t.native_handle(), &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

Relay::~Relay() { stop(); }

bool Relay::start(const std::vector<int>& cpus1, const std::vector<int>& cpus2) {
  in_fd_ = bind_loopback(&in_port_);
  out_fd_ = bind_loopback(&out_port_);
  if (in_fd_ < 0 || out_fd_ < 0) return false;
  stop_.store(false);
  forward_ = std::thread([this, cpus1] {
    pin_to(cpus1);
    forward_loop();
  });
  answer_ = std::thread([this, cpus2] {
    pin_to(cpus2);
    answer_loop();
  });
  return true;
}

void Relay::stop() {
  stop_.store(true, std::memory_order_release);
  if (forward_.joinable()) forward_.join();
  if (answer_.joinable()) answer_.join();
  if (in_fd_ >= 0) ::close(in_fd_);
  if (out_fd_ >= 0) ::close(out_fd_);
  in_fd_ = out_fd_ = -1;
}

std::vector<std::uint64_t> Relay::thread_cpu_ns() {
  return {cpu_ns_of(forward_), cpu_ns_of(answer_)};
}

void Relay::forward_loop() {
  sockaddr_in next{};
  next.sin_family = AF_INET;
  next.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  next.sin_port = htons(out_port_);
  hop_loop(in_fd_, stop_, [&](const std::uint8_t* data, std::size_t len, const sockaddr_in& from,
                              std::uint8_t* out, sockaddr_in* to) -> std::size_t {
    if (len + kPortBytes > kBufBytes) return 0;
    std::memcpy(out, data, len);
    std::memcpy(out + len, &from.sin_port, kPortBytes);  // network order
    *to = next;
    return len + kPortBytes;
  });
}

void Relay::answer_loop() {
  hop_loop(out_fd_, stop_, [](const std::uint8_t* data, std::size_t len, const sockaddr_in&,
                              std::uint8_t* out, sockaddr_in* to) -> std::size_t {
    if (len < kPortBytes) return 0;
    std::memcpy(out, data, len - kPortBytes);
    *to = sockaddr_in{};
    to->sin_family = AF_INET;
    to->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::memcpy(&to->sin_port, data + len - kPortBytes, kPortBytes);
    return len - kPortBytes;
  });
}

}  // namespace perfbench
