#include "runtime/udp.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/hot.h"
#include "util/logging.h"

// recvmmsg/sendmmsg are Linux-only; everywhere else the same interface runs
// a recvfrom/sendto loop (correct, just one syscall per datagram).
#if defined(__linux__)
#define DUET_RUNTIME_HAVE_MMSG 1
#else
#define DUET_RUNTIME_HAVE_MMSG 0
#endif

#if defined(__linux__)
#include <netinet/udp.h>
#include <pthread.h>
#include <sched.h>
#endif

// UDP GSO needs the UDP_SEGMENT socket option (Linux >= 4.18, glibc headers
// >= 2.29); without it send_batch sends one datagram per message.
#if DUET_RUNTIME_HAVE_MMSG && defined(UDP_SEGMENT)
#define DUET_RUNTIME_HAVE_GSO 1
#else
#define DUET_RUNTIME_HAVE_GSO 0
#endif

namespace duet::runtime {

const bool kBatchIoAvailable = DUET_RUNTIME_HAVE_MMSG != 0;

std::size_t online_cpus() noexcept {
#if defined(__linux__)
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
#else
  return 1;
#endif
}

void name_this_thread(const char* name) noexcept {
#if defined(__linux__)
  char cut[16];
  std::strncpy(cut, name, sizeof(cut) - 1);
  cut[sizeof(cut) - 1] = '\0';
  (void)pthread_setname_np(pthread_self(), cut);
#else
  (void)name;
#endif
}

bool udp_gso_available() noexcept {
#if DUET_RUNTIME_HAVE_GSO
  static const bool available = [] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) return false;
    int segment = 0;
    socklen_t len = sizeof(segment);
    const bool ok = getsockopt(fd, SOL_UDP, UDP_SEGMENT, &segment, &len) == 0;
    ::close(fd);
    return ok;
  }();
  return available;
#else
  return false;
#endif
}

bool pin_thread_to_cpu(std::size_t cpu) noexcept {
#if defined(__linux__)
  if (cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

namespace {

#if DUET_RUNTIME_HAVE_MMSG
// The kernel's limits on one UDP_SEGMENT message: UDP_MAX_SEGMENTS was 64
// until Linux 6.9, and the payload must fit one IPv4 UDP datagram
// (65535 - 20-byte IP header - 8-byte UDP header).
constexpr std::size_t kGsoMaxSegments = 64;
constexpr std::size_t kGsoMaxBytes = 65507;
#endif

#if DUET_RUNTIME_HAVE_GSO
// One message's UDP_SEGMENT control block, aligned for cmsghdr.
union GsoCmsg {
  char buf[CMSG_SPACE(sizeof(std::uint16_t))];
  cmsghdr align;
};
#endif

sockaddr_in to_sockaddr(Endpoint e) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(e.port);
  sa.sin_addr.s_addr = htonl(e.addr.value());
  return sa;
}

Endpoint from_sockaddr(const sockaddr_in& sa) {
  return Endpoint{Ipv4Address{ntohl(sa.sin_addr.s_addr)}, ntohs(sa.sin_port)};
}

bool wait_writable(int fd, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLOUT;
  return poll(&p, 1, timeout_ms) > 0;
}

}  // namespace

std::string Endpoint::to_string() const {
  return addr.to_string() + ":" + std::to_string(port);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

std::optional<UdpSocket> UdpSocket::bind(Endpoint at, bool reuse_port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return std::nullopt;
  UdpSocket sock;
  sock.fd_ = fd;

  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return std::nullopt;

  const int one = 1;
  if (reuse_port) {
#ifdef SO_REUSEPORT
    if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) return std::nullopt;
#else
    return std::nullopt;  // multi-worker sharding needs SO_REUSEPORT
#endif
  }
  // Large kernel buffers: loopback bursts at 100k+ pps overrun the defaults
  // long before the worker gets scheduled. Best-effort (clamped by rmem_max).
  const int kBufBytes = 4 * 1024 * 1024;
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kBufBytes, sizeof(kBufBytes));
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kBufBytes, sizeof(kBufBytes));
  (void)one;

  const sockaddr_in sa = to_sockaddr(at);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0) {
    DUET_LOG_WARN << "bind(" << at.to_string() << ") failed: " << std::strerror(errno);
    return std::nullopt;
  }
  return sock;
}

Endpoint UdpSocket::local() const {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (fd_ < 0 || getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) < 0) return {};
  return from_sockaddr(sa);
}

bool UdpSocket::send_to(std::span<const std::uint8_t> bytes, Endpoint to) const {
  const sockaddr_in sa = to_sockaddr(to);
  const ssize_t n = ::sendto(fd_, bytes.data(), bytes.size(), 0,
                             reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  return n == static_cast<ssize_t>(bytes.size());
}

// --- BatchIo -----------------------------------------------------------------

struct BatchIo::Scratch {
#if DUET_RUNTIME_HAVE_MMSG
  std::vector<mmsghdr> rx_hdrs;
  std::vector<iovec> rx_iovs;
  // One tx message per run: tx_hdrs[m] covers tx_count[m] datagrams, whose
  // iovecs are consecutive in tx_iovs (one iovec per datagram).
  std::vector<mmsghdr> tx_hdrs;
  std::vector<iovec> tx_iovs;
  std::vector<std::uint32_t> tx_count;
  // udp_gso_available(), read once at construction; cleared for good by the
  // first train the kernel refuses (see send_batch).
  bool gso = false;
#endif
#if DUET_RUNTIME_HAVE_GSO
  std::vector<GsoCmsg> tx_gso;  // cmsg headers prefilled; only the size varies
#endif
  std::vector<sockaddr_in> rx_addrs;
  std::vector<sockaddr_in> tx_addrs;
};

BatchIo::BatchIo(std::size_t batch, std::size_t mtu, std::size_t headroom)
    : batch_(batch < 1 ? 1 : batch),
      mtu_(mtu),
      headroom_(headroom),
      stride_(headroom + mtu),
      pool_(batch_ * stride_),
      scratch_(std::make_unique<Scratch>()) {
  scratch_->rx_addrs.resize(batch_);
  scratch_->tx_addrs.resize(batch_);
#if DUET_RUNTIME_HAVE_MMSG
  scratch_->rx_hdrs.resize(batch_);
  scratch_->rx_iovs.resize(batch_);
  scratch_->tx_hdrs.resize(batch_);
  scratch_->tx_iovs.resize(batch_);
  scratch_->tx_count.resize(batch_);
  for (std::size_t i = 0; i < batch_; ++i) {
    scratch_->rx_iovs[i].iov_base = pool_.data() + i * stride_ + headroom_;
    scratch_->rx_iovs[i].iov_len = mtu_;
    msghdr& mh = scratch_->rx_hdrs[i].msg_hdr;
    mh = msghdr{};
    mh.msg_name = &scratch_->rx_addrs[i];
    mh.msg_iov = &scratch_->rx_iovs[i];
    mh.msg_iovlen = 1;
  }
#endif
#if DUET_RUNTIME_HAVE_GSO
  scratch_->gso = udp_gso_available();
  scratch_->tx_gso.resize(batch_);
  for (GsoCmsg& c : scratch_->tx_gso) {
    c.align.cmsg_level = SOL_UDP;
    c.align.cmsg_type = UDP_SEGMENT;
    c.align.cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
  }
#endif
}

BatchIo::~BatchIo() = default;

// Purity roots (DESIGN.md §14): the per-batch syscall legs. Syscall wrappers
// themselves are leaves the gate permits; what the gate enforces is that no
// formatting, locking, or per-packet allocation crept in around them (the
// one amortized exception, out's vector growth, is allow-listed).
DUET_HOT std::size_t BatchIo::recv_batch(int fd, std::span<RxPacket> out) {
  DUET_HOT_CHECK(out.size() >= batch_, "recv_batch descriptor span smaller than batch()");
#if DUET_RUNTIME_HAVE_MMSG
  // The kernel rewrites msg_namelen and iov_len stays fixed, so only the
  // namelen fields need resetting between calls.
  for (std::size_t i = 0; i < batch_; ++i) {
    scratch_->rx_hdrs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }
  const int n = recvmmsg(fd, scratch_->rx_hdrs.data(), static_cast<unsigned>(batch_),
                         MSG_DONTWAIT, nullptr);
  if (n <= 0) return 0;
  for (int i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] = RxPacket{
        std::span<std::uint8_t>(pool_.data() + static_cast<std::size_t>(i) * stride_ + headroom_,
                                scratch_->rx_hdrs[i].msg_len),
        from_sockaddr(scratch_->rx_addrs[i])};
  }
  return static_cast<std::size_t>(n);
#else
  std::size_t n = 0;
  while (n < batch_) {
    std::uint8_t* slot = pool_.data() + n * stride_ + headroom_;
    sockaddr_in& sa = scratch_->rx_addrs[n];
    socklen_t sa_len = sizeof(sa);
    const ssize_t got = ::recvfrom(fd, slot, mtu_, 0, reinterpret_cast<sockaddr*>(&sa), &sa_len);
    if (got < 0) break;  // EAGAIN: socket drained
    out[n] = RxPacket{std::span<std::uint8_t>(slot, static_cast<std::size_t>(got)),
                      from_sockaddr(sa)};
    ++n;
  }
  return n;
#endif
}

DUET_HOT std::size_t BatchIo::send_batch(int fd, std::span<const TxPacket> items,
                                         int flush_wait_ms) {
  std::size_t sent = 0;
#if DUET_RUNTIME_HAVE_MMSG
  Scratch& s = *scratch_;
  while (sent < items.size()) {
    // Pack up to batch() datagrams into messages, one per run (see udp.h).
    const std::size_t chunk = std::min(items.size() - sent, batch_);
    std::size_t msgs = 0;
    for (std::size_t i = 0; i < chunk;) {
      const TxPacket& head = items[sent + i];
      std::size_t run = 1;
      if (s.gso && head.len > 0) {
        const std::size_t cap = std::min(kGsoMaxSegments, kGsoMaxBytes / head.len);
        while (run < cap && i + run < chunk && items[sent + i + run].len == head.len &&
               items[sent + i + run].to == head.to) {
          ++run;
        }
      }
      for (std::size_t k = 0; k < run; ++k) {
        const TxPacket& t = items[sent + i + k];
        s.tx_iovs[i + k].iov_base = const_cast<std::uint8_t*>(t.data);
        s.tx_iovs[i + k].iov_len = t.len;
      }
      s.tx_addrs[msgs] = to_sockaddr(head.to);
      msghdr& mh = s.tx_hdrs[msgs].msg_hdr;
      mh = msghdr{};
      mh.msg_name = &s.tx_addrs[msgs];
      mh.msg_namelen = sizeof(sockaddr_in);
      mh.msg_iov = &s.tx_iovs[i];
      mh.msg_iovlen = run;
#if DUET_RUNTIME_HAVE_GSO
      if (run > 1) {
        GsoCmsg& c = s.tx_gso[msgs];
        const auto segment = static_cast<std::uint16_t>(head.len);
        std::memcpy(CMSG_DATA(&c.align), &segment, sizeof(segment));
        mh.msg_control = c.buf;
        mh.msg_controllen = sizeof(c.buf);
      }
#endif
      s.tx_count[msgs] = static_cast<std::uint32_t>(run);
      ++msgs;
      i += run;
    }
    std::size_t done = 0;  // messages of this chunk the kernel took
    while (done < msgs) {
      const int n = sendmmsg(fd, s.tx_hdrs.data() + done, static_cast<unsigned>(msgs - done), 0);
      if (n > 0) {
        for (int m = 0; m < n; ++m) {
          const std::uint32_t count = s.tx_count[done + static_cast<std::size_t>(m)];
          sent += count;
          tx_counts_.datagrams += count;
          tx_counts_.trains += count > 1 ? 1 : 0;
        }
        tx_counts_.messages += static_cast<std::uint64_t>(n);
        done += static_cast<std::size_t>(n);
        continue;
      }
      if ((errno == EINVAL || errno == EIO) && s.tx_count[done] > 1) {
        // GSO refused: this call and every later one send one datagram per
        // message, so a socket or route that always refuses trains costs
        // one failed sendmmsg, not one per call.
        s.gso = false;
        break;
      }
      if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) && flush_wait_ms > 0 &&
          wait_writable(fd, flush_wait_ms)) {
        continue;
      }
      return sent;  // persistent backpressure or a hard error: drop the rest
    }
  }
#else
  while (sent < items.size()) {
    const std::size_t chunk = std::min(items.size() - sent, batch_);
    for (std::size_t i = 0; i < chunk; ++i) {
      const TxPacket& t = items[sent + i];
      const sockaddr_in sa = to_sockaddr(t.to);
      for (;;) {
        const ssize_t n = ::sendto(fd, t.data, t.len, 0,
                                   reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
        if (n >= 0) break;
        if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) &&
            flush_wait_ms > 0 && wait_writable(fd, flush_wait_ms)) {
          continue;
        }
        tx_counts_.datagrams += i;
        tx_counts_.messages += i;
        return sent + i;
      }
    }
    sent += chunk;
    tx_counts_.datagrams += chunk;
    tx_counts_.messages += chunk;
  }
#endif
  return sent;
}

BatchIo::TxCounts BatchIo::take_tx_counts() noexcept {
  const TxCounts counts = tx_counts_;
  tx_counts_ = TxCounts{};
  return counts;
}

bool BatchIo::coalesces() const noexcept {
#if DUET_RUNTIME_HAVE_MMSG
  return scratch_->gso;
#else
  return false;
#endif
}

}  // namespace duet::runtime
