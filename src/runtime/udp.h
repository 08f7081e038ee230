// Non-blocking UDP sockets and batched datagram I/O for the live runtime.
//
// The serving path (runtime/mux_server.h) moves Duet's wire-format packets
// (net/wire.h) over real sockets. Throughput at software-LB rates comes from
// amortizing syscalls: on Linux every socket read/write moves a BATCH of
// datagrams via recvmmsg/sendmmsg into a preallocated buffer pool (BatchIo),
// one syscall per batch instead of per packet. Platforms without the mmsg
// calls fall back to recvfrom/sendto loops behind the same interface
// (kBatchIoAvailable tells callers which world they are in, so CI legs can
// skip throughput assertions gracefully).
//
// Sends go one step further where the kernel offers UDP GSO (UDP_SEGMENT,
// Linux >= 4.18): send_batch hands each run of consecutive equal-length
// datagrams to one destination to the kernel as ONE message, which the
// kernel splits back into the original datagrams (DESIGN.md §12). A loopback
// sendmmsg costs about as much per message as per datagram, so a mux batch
// to one tunnel endpoint (runtime/fake_dip.h's ingress) costs one message
// instead of one per packet. The receiver needs nothing: a socket without
// UDP_GRO gets every datagram separately, byte-identical.
//
// Buffers carry kIpv4HeaderBytes of HEADROOM in front of every received
// datagram, sized for exactly one more encap layer: the mux writes the outer
// IP-in-IP header into the headroom (wire.h encapsulate_on_wire) and
// transmits without copying the payload.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/ip.h"
#include "net/wire.h"

struct sockaddr_in;  // avoid dragging <netinet/in.h> into every include site

namespace duet::runtime {

// True when the build uses recvmmsg/sendmmsg batching (Linux); false on the
// recvfrom/sendto fallback.
extern const bool kBatchIoAvailable;

// True when the kernel supports UDP GSO and send_batch coalesces runs.
// Detected once, positively: getsockopt(SOL_UDP, UDP_SEGMENT) succeeds on a
// probe socket (kernels before 4.18 refuse it). Never inferred from a send:
// a kernel that ignored the cmsg would emit a run as one concatenated
// datagram.
bool udp_gso_available() noexcept;

// CPU affinity for the sharded-worker scale-out (MuxServerOptions::pin_cpus):
// pins the CALLING thread to `cpu`. Returns false when pinning is
// unsupported (non-Linux) or refused (sandboxed cpuset, cpu offline) —
// callers degrade to unpinned, never fail. online_cpus() never returns 0.
bool pin_thread_to_cpu(std::size_t cpu) noexcept;
std::size_t online_cpus() noexcept;

// Names the CALLING thread (at most 15 characters; longer names are cut) so
// `top -H` and /proc/<pid>/task/<tid>/comm tell the serving threads apart.
// A no-op where unsupported.
void name_this_thread(const char* name) noexcept;

// A real (kernel-routable) UDP endpoint. Distinct from the SIMULATED
// addresses inside the wire format: the runtime maps simulated DIP/client
// addresses onto loopback endpoints (see MuxServer::map_dip).
struct Endpoint {
  Ipv4Address addr;
  std::uint16_t port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
  std::string to_string() const;
};

// Move-only RAII wrapper over a bound, non-blocking UDP socket with large
// kernel buffers. `reuse_port` joins an SO_REUSEPORT group: several sockets
// bound to the same endpoint, the kernel sharding ingress flows between them
// (the multi-worker mux's shard mechanism).
class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  // Binds to `at` (port 0 = kernel-assigned). Returns nullopt on failure.
  static std::optional<UdpSocket> bind(Endpoint at, bool reuse_port = false);

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  // The actually-bound endpoint (resolves port 0).
  Endpoint local() const;

  // Single-datagram send; returns false on any failure (including EAGAIN).
  bool send_to(std::span<const std::uint8_t> bytes, Endpoint to) const;

 private:
  int fd_ = -1;
};

// One received datagram; `bytes` points into the owning BatchIo's pool and
// is valid until its next recv_batch call. `bytes.data() - headroom()` is
// writable scratch for prepending one encap header.
struct RxPacket {
  std::span<std::uint8_t> bytes;
  Endpoint from;
};

// One datagram to transmit. `data` may point into the rx pool (the zero-copy
// forward path) or anywhere else alive across the send_batch call.
struct TxPacket {
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
  Endpoint to;
};

// Preallocated buffers plus the mmsghdr/iovec/sockaddr scratch arrays for
// batched I/O on one socket. Not thread-safe: one BatchIo per worker.
class BatchIo {
 public:
  explicit BatchIo(std::size_t batch, std::size_t mtu = 2048,
                   std::size_t headroom = kIpv4HeaderBytes);
  ~BatchIo();
  BatchIo(const BatchIo&) = delete;
  BatchIo& operator=(const BatchIo&) = delete;

  std::size_t batch() const noexcept { return batch_; }
  std::size_t headroom() const noexcept { return headroom_; }

  // Receives up to batch() datagrams without blocking; writes them to
  // out[0..n) and returns n (0 when the socket is drained). Requires
  // out.size() >= batch() — callers size their descriptor array once at
  // setup, so the receive path compiles down with no growth branch at all
  // (the hot-path purity gate, DESIGN.md §14, checks exactly that).
  // Overwrites the pool, invalidating spans from the previous call.
  std::size_t recv_batch(int fd, std::span<RxPacket> out);

  // Sends as many of `items` as the socket accepts, in order, waiting up to
  // `flush_wait_ms` for buffer space before giving up on the remainder.
  // Returns the number of datagrams actually handed to the kernel.
  //
  // With udp_gso_available(), each run of consecutive datagrams with the
  // same length and destination becomes one sendmmsg message carrying a
  // UDP_SEGMENT cmsg (at most 64 segments and 65,507 payload bytes; a run
  // of one stays a plain message). The iovecs still point at the callers'
  // buffers (zero copy), and the message count sendmmsg returns is mapped
  // back to datagrams. A coalesced message the kernel refuses at send time
  // (EINVAL/EIO: a route MTU below the segment, SO_NO_CHECK on the socket)
  // is resent, with the rest of the call, one datagram per message, and
  // this BatchIo stops coalescing for good: every caller sends through
  // sockets set up alike, so one refusal predicts the next.
  //
  // Runs form only where the traffic has them: consecutive datagrams of one
  // length to one endpoint. A mux forwarding to DIPs at separate endpoints,
  // or packets of mixed lengths, sends mostly plain messages; take_tx_counts
  // shows how many datagrams each message carried.
  std::size_t send_batch(int fd, std::span<const TxPacket> items, int flush_wait_ms = 5);

  // What send_batch handed to the kernel since the last take_tx_counts
  // (which zeroes them): datagrams, the messages they went in, and how many
  // of those messages were GSO trains (more than one datagram).
  struct TxCounts {
    std::uint64_t datagrams = 0;
    std::uint64_t messages = 0;
    std::uint64_t trains = 0;
  };
  TxCounts take_tx_counts() noexcept;
  // Whether send_batch still coalesces runs: udp_gso_available() until the
  // kernel refuses a train on this BatchIo.
  bool coalesces() const noexcept;

 private:
  std::size_t batch_;
  std::size_t mtu_;
  std::size_t headroom_;
  std::size_t stride_;
  std::vector<std::uint8_t> pool_;
  TxCounts tx_counts_;
  // Opaque scratch (mmsghdr/iovec/sockaddr_in arrays on Linux); hidden so
  // this header stays free of <sys/socket.h>. Destroyed out-of-line in
  // udp.cc where Scratch is complete.
  struct Scratch;
  std::unique_ptr<Scratch> scratch_;
};

}  // namespace duet::runtime

template <>
struct std::hash<duet::runtime::Endpoint> {
  std::size_t operator()(const duet::runtime::Endpoint& e) const noexcept {
    return std::hash<duet::Ipv4Address>{}(e.addr) * 65599 + e.port;
  }
};
