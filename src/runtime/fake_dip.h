// Echo endpoints standing in for real DIP servers, behind one tunnel ingress.
//
// Like a rack's servers behind one tunnel endpoint, every DIP of the pool
// sits behind ONE ingress socket (ingress()): a mux forwards each DIP's
// IP-in-IP traffic there, and the tunnel's outer destination address, not
// the UDP port, names the DIP. The pool thread recvmmsg's the ingress,
// validates each datagram with peek_encap (no allocation), looks its DIP up
// by outer destination, decapsulates by dropping the outer 20 bytes — the
// nested total-length chain stays valid, so the inner datagram is
// byte-for-byte what the client originally sent — and echoes it to
// (reply_addr, inner src_port).
//
// This is the paper's DSR analog (§2.1): replies bypass the mux entirely.
// Each DIP still answers from its OWN socket (add_dip's endpoint, which
// nothing reads), so the reply's kernel source endpoint tells the load
// generator exactly which DIP served the flow — the observable the sim/live
// equivalence test keys on. A batch's replies are grouped per DIP by an
// in-place sort of packed (DIP, slot) keys, which allocates nothing, and
// each DIP answers with one send_batch.
//
// Why one ingress: a mux batch to many DIPs is then one run of datagrams to
// one destination, which BatchIo::send_batch sends as a single UDP GSO
// train (runtime/udp.h) instead of one message per packet.
//
// The I/O arena is per thread: only the pool thread receives and sends, so
// its BatchIo and descriptor arrays need no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "net/ip.h"
#include "runtime/event_loop.h"
#include "runtime/udp.h"
#include "util/flat_table.h"

namespace duet::runtime {

class FakeDipPool {
 public:
  struct Options {
    Ipv4Address bind_addr{127, 0, 0, 1};
    Ipv4Address reply_addr{127, 0, 0, 1};
    std::size_t batch = 64;
  };

  // Binds the ingress socket (ingress() reads port 0 if that failed, and
  // start() then refuses).
  FakeDipPool() : FakeDipPool(Options{}) {}
  explicit FakeDipPool(Options options);
  ~FakeDipPool();
  FakeDipPool(const FakeDipPool&) = delete;
  FakeDipPool& operator=(const FakeDipPool&) = delete;

  // Where a mux forwards every DIP's tunnel traffic:
  // MuxServer::map_dip(dip, pool.ingress()) for each added DIP.
  Endpoint ingress() const;

  // Binds `dip`'s own reply socket and returns its endpoint, the source of
  // every echo for `dip`; nullopt on bind failure. Add each DIP once. Works
  // before start() and on a running pool: the pool thread picks a live add
  // up after its next receive, before it dispatches that batch, so a
  // datagram a mux forwards once add_dip has returned is never rejected as
  // naming no DIP (duetd's `duetctl add-dip` path).
  std::optional<Endpoint> add_dip(Ipv4Address dip);

  bool start();
  void shutdown();
  void join();

  // Live counters (relaxed). packets_at: tunnel datagrams echoed for `dip`;
  // total_packets: their sum over every DIP; rejects: ingress datagrams that
  // were not a valid tunnel packet or named no added DIP.
  std::uint64_t packets_at(Ipv4Address dip) const;
  std::uint64_t total_packets() const;
  std::uint64_t rejects() const noexcept { return rejects_.load(std::memory_order_relaxed); }

 private:
  struct Dip;
  // Receives and echoes until the ingress drains. Pool thread only.
  void pump();
  // Moves queued adds into dips_/index_. Pool thread (or start()) only.
  void adopt_added();

  Options opts_;
  UdpSocket ingress_;
  BatchIo io_;  // the pool thread's arena (see above)
  std::vector<RxPacket> rx_;
  std::vector<TxPacket> reply_;  // reply_[i]: the echo of rx_[i]
  std::vector<std::uint64_t> order_;  // (DIP index << 32 | rx slot), sorted per batch
  std::vector<TxPacket> tx_;          // one DIP's replies
  // dips_ grows only on the pool thread, under mu_; other threads read it
  // under mu_. index_ (outer destination -> dips_ slot) is the pool
  // thread's alone.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Dip>> dips_;
  util::FlatTable<Ipv4Address, std::uint32_t> index_;
  std::vector<std::unique_ptr<Dip>> added_;  // add_dip's queue, under mu_
  std::atomic<bool> has_added_{false};
  std::atomic<std::uint64_t> rejects_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
  EventLoop loop_;
};

}  // namespace duet::runtime
