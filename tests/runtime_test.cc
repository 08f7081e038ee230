// Live-runtime tests: real UDP sockets on loopback.
//
// The centerpiece is the sim/live equivalence test: a MuxServer (duetd's
// serving core), a FakeDipPool (echo DIPs), and an in-process LoadGenerator
// close a real packet loop, and every flow must land on exactly the DIP a
// PURE-SIMULATION Smux — same FlowHasher seed, same VIP→DIP sets — predicts
// for the same 5-tuples. That is the contract that makes the simulation
// results transferable to the live path: the wire never changes a decision.
//
// Every test binds only loopback sockets on kernel-assigned ports; if even
// that is unavailable (sandboxed build hosts), the tests skip.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "audit/invariants.h"
#include "duet/smux.h"
#include "net/wire.h"
#include "runtime/event_loop.h"
#include "runtime/fake_dip.h"
#include "runtime/load_gen.h"
#include "runtime/mux_server.h"
#include "runtime/stamp.h"
#include "runtime/udp.h"

namespace duet::runtime {
namespace {

constexpr auto kLoopback = Ipv4Address{127, 0, 0, 1};

bool loopback_available() {
  return UdpSocket::bind(Endpoint{kLoopback, 0}).has_value();
}

#define REQUIRE_LOOPBACK()                                        \
  do {                                                            \
    if (!loopback_available()) {                                  \
      GTEST_SKIP() << "no loopback UDP sockets in this sandbox";  \
    }                                                             \
  } while (0)

// --- Stamp ------------------------------------------------------------------------

TEST(Stamp, OffsetSurvivesEncapThenDecap) {
  const FiveTuple t{Ipv4Address{10, 1, 2, 3}, Ipv4Address{100, 0, 0, 1}, 9999, 80,
                    IpProto::kUdp};
  auto bytes = serialize_packet(Packet{t, 64});
  ASSERT_TRUE(write_stamp(bytes, Stamp{42, 1234567}));

  // Mux-side encap, then DIP-side decap (drop the outer 20 bytes).
  std::vector<std::uint8_t> out(bytes.size() + kIpv4HeaderBytes);
  const EncapHeader outer{Ipv4Address{192, 0, 2, 100}, Ipv4Address{10, 0, 0, 1}};
  ASSERT_EQ(encapsulate_on_wire(bytes, outer, out), out.size());

  // At depth 1 the stamp reads at the shifted offset…
  const auto deep = read_stamp(out, 1);
  ASSERT_TRUE(deep.has_value());
  EXPECT_EQ(deep->seq, 42u);
  // …and after decap it is back at depth 0, byte-identical.
  const auto shallow =
      read_stamp(std::span<const std::uint8_t>(out).subspan(kIpv4HeaderBytes), 0);
  ASSERT_TRUE(shallow.has_value());
  EXPECT_EQ(shallow->seq, 42u);
  EXPECT_EQ(shallow->send_ns, 1234567u);
}

// --- BatchIo ----------------------------------------------------------------------

TEST(BatchIo, RoundTripsABatchBetweenSockets) {
  REQUIRE_LOOPBACK();
  auto a = UdpSocket::bind(Endpoint{kLoopback, 0});
  auto b = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(a.has_value() && b.has_value());

  BatchIo tx_io(16);
  BatchIo rx_io(16);
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<TxPacket> tx;
  for (std::uint8_t i = 0; i < 10; ++i) {
    payloads.emplace_back(32 + i, i);  // distinct sizes and fills
    tx.push_back(TxPacket{payloads.back().data(), payloads.back().size(), b->local()});
  }
  ASSERT_EQ(tx_io.send_batch(a->fd(), tx), tx.size());

  // Pool reuse invalidates spans on the next recv_batch call, so copy each
  // datagram out as it lands.
  std::vector<std::pair<std::vector<std::uint8_t>, Endpoint>> got;
  std::vector<RxPacket> rx(rx_io.batch());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got.size() < tx.size() && std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = rx_io.recv_batch(b->fd(), rx);
    if (n == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (const RxPacket& p : std::span<const RxPacket>(rx.data(), n)) {
      got.emplace_back(std::vector<std::uint8_t>(p.bytes.begin(), p.bytes.end()), p.from);
    }
  }
  ASSERT_EQ(got.size(), tx.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, payloads[i]);
    EXPECT_EQ(got[i].second, a->local());
  }
}

// Receives until `want` datagrams arrived at `sock` (or 5 s passed), copying
// each out: recv_batch reuses its pool on the next call.
std::vector<std::vector<std::uint8_t>> drain_datagrams(const UdpSocket& sock, std::size_t want) {
  BatchIo io(64);
  std::vector<RxPacket> rx(io.batch());
  std::vector<std::vector<std::uint8_t>> got;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got.size() < want && std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = io.recv_batch(sock.fd(), rx);
    if (n == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (const RxPacket& p : std::span<const RxPacket>(rx.data(), n)) {
      got.emplace_back(p.bytes.begin(), p.bytes.end());
    }
  }
  return got;
}

// `count` datagrams of `len` bytes, each filled with its own index so the
// receiver can tell them apart and check their order.
std::vector<std::vector<std::uint8_t>> numbered_payloads(std::size_t count, std::size_t len) {
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < count; ++i) {
    payloads.emplace_back(len, static_cast<std::uint8_t>(i));
  }
  return payloads;
}

// A run of equal datagrams to one endpoint is one GSO train where the kernel
// supports it; the receiver (no UDP_GRO) must still see every datagram
// separately and byte-identical, in order. The 2000-byte round exceeds the
// 65,507-byte train limit (64 x 2000), so it also covers a split run: two
// trains of 32 and 32.
TEST(BatchIo, EqualDatagramsToOneEndpointArriveSeparatelyInOrder) {
  REQUIRE_LOOPBACK();
  auto a = UdpSocket::bind(Endpoint{kLoopback, 0});
  auto b = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(a.has_value() && b.has_value());
  BatchIo tx_io(64);
  const bool gso = udp_gso_available();
  EXPECT_EQ(tx_io.coalesces(), gso);
  for (const std::size_t len : {std::size_t{60}, std::size_t{2000}}) {
    const auto payloads = numbered_payloads(64, len);
    std::vector<TxPacket> tx;
    for (const auto& p : payloads) tx.push_back(TxPacket{p.data(), p.size(), b->local()});
    ASSERT_EQ(tx_io.send_batch(a->fd(), tx), tx.size()) << "len " << len;
    EXPECT_EQ(drain_datagrams(*b, payloads.size()), payloads) << "len " << len;
    const BatchIo::TxCounts counts = tx_io.take_tx_counts();
    const std::uint64_t trains = !gso ? 0 : len == 60 ? 1 : 2;
    EXPECT_EQ(counts.datagrams, 64u) << "len " << len;
    EXPECT_EQ(counts.trains, trains) << "len " << len;
    EXPECT_EQ(counts.messages, gso ? trains : 64u) << "len " << len;
  }
}

TEST(BatchIo, MixedLengthsAndDestinationsKeepTheirOrder) {
  REQUIRE_LOOPBACK();
  auto a = UdpSocket::bind(Endpoint{kLoopback, 0});
  auto b = UdpSocket::bind(Endpoint{kLoopback, 0});
  auto c = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  // Runs of equal lengths broken by a length change or a destination change,
  // single datagrams between them, and more items than one batch() chunk.
  struct Run {
    std::size_t count, len;
    bool to_b;
  };
  const Run runs[] = {{5, 32, true}, {3, 48, true},  {4, 32, false}, {1, 32, true},
                      {2, 32, true}, {1, 100, false}, {7, 64, false}, {1, 64, true},
                      {6, 64, true}, {10, 20, true}, {3, 20, false}};
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<bool> to_b;
  for (int round = 0; round < 2; ++round) {
    for (const Run& r : runs) {
      for (std::size_t i = 0; i < r.count; ++i) {
        payloads.emplace_back(r.len, static_cast<std::uint8_t>(payloads.size()));
        to_b.push_back(r.to_b);
      }
    }
  }
  std::vector<TxPacket> tx;
  std::vector<std::vector<std::uint8_t>> want_b, want_c;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    tx.push_back(TxPacket{payloads[i].data(), payloads[i].size(),
                          to_b[i] ? b->local() : c->local()});
    (to_b[i] ? want_b : want_c).push_back(payloads[i]);
  }
  BatchIo tx_io(32);  // smaller than the item count: runs straddle chunks
  ASSERT_EQ(tx_io.send_batch(a->fd(), tx), tx.size());
  EXPECT_EQ(drain_datagrams(*b, want_b.size()), want_b);
  EXPECT_EQ(drain_datagrams(*c, want_c.size()), want_c);
  const BatchIo::TxCounts counts = tx_io.take_tx_counts();
  EXPECT_EQ(counts.datagrams, tx.size());
  EXPECT_EQ(counts.trains > 0, udp_gso_available());

  // Destinations alternating datagram by datagram (DIPs at separate
  // endpoints) form no run: one plain message per datagram.
  tx.clear();
  want_b.clear();
  want_c.clear();
  for (std::size_t i = 0; i < 40; ++i) {
    tx.push_back(TxPacket{payloads[0].data(), payloads[0].size(),
                          i % 2 == 0 ? b->local() : c->local()});
    (i % 2 == 0 ? want_b : want_c).push_back(payloads[0]);
  }
  ASSERT_EQ(tx_io.send_batch(a->fd(), tx), tx.size());
  EXPECT_EQ(drain_datagrams(*b, want_b.size()), want_b);
  EXPECT_EQ(drain_datagrams(*c, want_c.size()), want_c);
  const BatchIo::TxCounts alternating = tx_io.take_tx_counts();
  EXPECT_EQ(alternating.datagrams, 40u);
  EXPECT_EQ(alternating.messages, 40u);
  EXPECT_EQ(alternating.trains, 0u);
}

#ifdef SO_NO_CHECK
// SO_NO_CHECK makes the kernel refuse a GSO message (EINVAL): send_batch
// must resend the run one datagram per message, and count every datagram.
// The refusal is remembered: later calls build no train at all, instead of
// paying one failed sendmmsg each.
TEST(BatchIo, GsoRefusedBySenderStillDeliversEveryDatagram) {
  REQUIRE_LOOPBACK();
  auto a = UdpSocket::bind(Endpoint{kLoopback, 0});
  auto b = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(a.has_value() && b.has_value());
  const int one = 1;
  ASSERT_EQ(::setsockopt(a->fd(), SOL_SOCKET, SO_NO_CHECK, &one, sizeof(one)), 0);
  const auto payloads = numbered_payloads(64, 60);
  std::vector<TxPacket> tx;
  for (const auto& p : payloads) tx.push_back(TxPacket{p.data(), p.size(), b->local()});
  BatchIo tx_io(64);
  for (int call = 0; call < 2; ++call) {
    ASSERT_EQ(tx_io.send_batch(a->fd(), tx), tx.size()) << "call " << call;
    EXPECT_EQ(drain_datagrams(*b, payloads.size()), payloads) << "call " << call;
    EXPECT_FALSE(tx_io.coalesces()) << "call " << call;
    const BatchIo::TxCounts counts = tx_io.take_tx_counts();
    EXPECT_EQ(counts.datagrams, 64u);
    EXPECT_EQ(counts.messages, 64u);
    EXPECT_EQ(counts.trains, 0u);
  }
}
#endif

// --- EventLoop --------------------------------------------------------------------

TEST(EventLoop, DispatchesTicksAndStopsOnWake) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::atomic<bool> stop{false};
  std::atomic<int> ticks{0};
  std::thread runner([&] { loop.run(stop, 5, [&] { ticks.fetch_add(1); }); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  stop.store(true);
  loop.wake();
  runner.join();
  EXPECT_GE(ticks.load(), 3);
}

TEST(EventLoop, ReadCallbackFires) {
  REQUIRE_LOOPBACK();
  auto sock = UdpSocket::bind(Endpoint{kLoopback, 0});
  auto sender = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(sock.has_value() && sender.has_value());
  EventLoop loop;
  ASSERT_TRUE(loop.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  ASSERT_TRUE(loop.add(sock->fd(), [&] {
    std::uint8_t buf[64];
    while (::recv(sock->fd(), buf, sizeof(buf), 0) > 0) reads.fetch_add(1);
  }));
  std::thread runner([&] { loop.run(stop, 50, nullptr); });
  const std::vector<std::uint8_t> ping{1, 2, 3};
  ASSERT_TRUE(sender->send_to(ping, sock->local()));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reads.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  loop.wake();
  runner.join();
  EXPECT_EQ(reads.load(), 1);
}

// --- FakeDipPool: one tunnel ingress, one I/O arena, a reply socket per DIP ---------

// The encapsulated datagram a mux would forward to `dip`: inner flow from the
// client's real port to `tag` (so the echo says which send it answers).
std::vector<std::uint8_t> encap_to(Ipv4Address dip, std::uint16_t client_port,
                                   std::uint16_t tag) {
  Packet p{FiveTuple{Ipv4Address{10, 9, 9, 9}, Ipv4Address{100, 0, 0, 1}, client_port, tag,
                     IpProto::kUdp},
           64};
  p.encapsulate(EncapHeader{Ipv4Address{192, 0, 2, 100}, dip});
  return serialize_packet(p);
}

TEST(FakeDipPool, SharedArenaEchoesEachDipFromItsOwnSocket) {
  REQUIRE_LOOPBACK();
  constexpr std::size_t kBefore = 64;
  constexpr std::size_t kLive = 16;
  constexpr std::size_t kRounds = 3;
  auto client = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(client.has_value());
  const std::uint16_t client_port = client->local().port;

  FakeDipPool pool;
  std::vector<Ipv4Address> dips;
  std::vector<Endpoint> at;
  const auto add = [&](std::size_t i) {
    const Ipv4Address dip{static_cast<std::uint32_t>((10u << 24) + i + 1)};
    const auto ep = pool.add_dip(dip);
    ASSERT_TRUE(ep.has_value());
    dips.push_back(dip);
    at.push_back(*ep);
  };
  for (std::size_t i = 0; i < kBefore; ++i) add(i);
  ASSERT_TRUE(pool.start());
  for (std::size_t i = kBefore; i < kBefore + kLive; ++i) add(i);  // live adds

  // Everything goes to the one ingress; the tunnel header names the DIP.
  // Interleaved: every round visits every DIP once, so a received batch
  // spans many DIPs and its replies leave from many sockets.
  const Endpoint ingress = pool.ingress();
  ASSERT_NE(ingress.port, 0);
  const std::size_t n = dips.size();
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto tag = static_cast<std::uint16_t>(1000 + i);
      ASSERT_TRUE(client->send_to(encap_to(dips[i], client_port, tag), ingress));
    }
  }
  // Rejected at the ingress: a tunnel header naming no added DIP, and a
  // datagram that is no tunnel packet at all.
  ASSERT_TRUE(client->send_to(encap_to(Ipv4Address{10, 255, 0, 1}, client_port, 999), ingress));
  const std::vector<std::uint8_t> junk{0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(client->send_to(junk, ingress));

  BatchIo io(64);
  std::vector<RxPacket> rx(io.batch());
  std::vector<std::size_t> echoes(n, 0);
  std::size_t got = 0;
  std::size_t wrong_source = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got < n * kRounds && std::chrono::steady_clock::now() < deadline) {
    const std::size_t k = io.recv_batch(client->fd(), rx);
    if (k == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (const RxPacket& p : std::span<const RxPacket>(rx.data(), k)) {
      const auto echo = parse_packet(p.bytes);
      ASSERT_TRUE(echo.has_value());
      ASSERT_FALSE(echo->encapsulated());  // decapsulated before the echo
      const std::size_t i = echo->tuple().dst_port - 1000u;
      ASSERT_LT(i, n);
      if (p.from != at[i]) ++wrong_source;
      ++echoes[i];
      ++got;
    }
  }
  while (pool.rejects() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pool.shutdown();
  pool.join();

  EXPECT_EQ(got, n * kRounds);
  EXPECT_EQ(wrong_source, 0u);  // each DIP answered from its own socket
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(echoes[i], kRounds) << "dip " << i;
    EXPECT_EQ(pool.packets_at(dips[i]), kRounds) << "dip " << i;
  }
  // Exactly the two strays: no live add's datagram was rejected as naming
  // no DIP.
  EXPECT_EQ(pool.rejects(), 2u);
  EXPECT_EQ(pool.total_packets(), n * kRounds);
}

#ifdef __linux__
std::size_t vm_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}

TEST(FakeDipPool, LiveAddsAllocateNoPerDipBuffers) {
  REQUIRE_LOOPBACK();
  FakeDipPool pool;
  ASSERT_TRUE(pool.add_dip(Ipv4Address{10, 0, 0, 1}).has_value());
  ASSERT_TRUE(pool.start());
  const std::size_t before = vm_rss_kib();
  ASSERT_GT(before, 0u);
  std::optional<Endpoint> last;
  Ipv4Address last_dip;
  for (std::uint32_t i = 0; i < 256; ++i) {
    last_dip = Ipv4Address{(10u << 24) + (1u << 16) + i};
    last = pool.add_dip(last_dip);
    ASSERT_TRUE(last.has_value());
  }
  // One echo through the newest DIP: the pool thread has adopted the live
  // adds and pumped through the shared arena.
  auto client = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(client->send_to(encap_to(last_dip, client->local().port, 7), pool.ingress()));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.packets_at(last_dip) == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::size_t after = vm_rss_kib();
  pool.shutdown();
  pool.join();
  EXPECT_EQ(pool.packets_at(last_dip), 1u);
  EXPECT_EQ(pool.rejects(), 0u);
  // A per-DIP BatchIo (64 x 2068 B each) would add ~32 MiB here.
  EXPECT_LT(after - std::min(after, before), 8u * 1024u) << before << " -> " << after << " KiB";
}
#endif

// --- End-to-end loopback: sim/live equivalence ------------------------------------

struct LiveFixture {
  DuetConfig cfg;
  FlowHasher hasher{0xd0e7ULL};
  std::vector<Ipv4Address> vips;
  std::unordered_map<Ipv4Address, std::vector<Ipv4Address>> dips_of;
  std::unordered_map<Endpoint, Ipv4Address> dip_of_endpoint;

  FakeDipPool dips;
  MuxServer* mux = nullptr;

  // Builds `nv` VIPs with `nd` DIPs each, echo sockets included. The mux
  // forwards every DIP to the pool's ingress; replies name the DIP by their
  // source endpoint.
  bool build(MuxServer& server, std::size_t nv, std::size_t nd) {
    mux = &server;
    for (std::size_t v = 0; v < nv; ++v) {
      const Ipv4Address vip{static_cast<std::uint32_t>((100u << 24) + 256 * v + 1)};
      std::vector<Ipv4Address> pool;
      for (std::size_t d = 0; d < nd; ++d) {
        const Ipv4Address dip{
            static_cast<std::uint32_t>((10u << 24) + (v << 16) + d + 1)};
        const auto at = dips.add_dip(dip);
        if (!at.has_value()) return false;
        server.map_dip(dip, dips.ingress());
        dip_of_endpoint.emplace(*at, dip);
        pool.push_back(dip);
      }
      server.set_vip(vip, pool);
      dips_of.emplace(vip, std::move(pool));
      vips.push_back(vip);
    }
    return dips.start();
  }

  // The pure-simulation prediction for one flow.
  Ipv4Address predict(const FiveTuple& flow, Smux& reference) const {
    Packet p{flow, 64};
    if (!reference.process(p)) return Ipv4Address{};
    return p.outer().outer_dst;
  }
};

TEST(MuxServerLive, FlowsLandOnTheDipPureSimulationPredicts) {
  REQUIRE_LOOPBACK();
  LiveFixture fx;
  MuxServerOptions mopts;
  mopts.workers = 2;
  mopts.batch = 32;
  mopts.hasher = fx.hasher;
  MuxServer mux(mopts, fx.cfg);
  ASSERT_TRUE(fx.build(mux, 2, 6));
  ASSERT_TRUE(mux.start());
  ASSERT_NE(mux.listen_endpoint().port, 0);

  LoadGenOptions lopts;
  lopts.target = mux.listen_endpoint();
  lopts.sockets = 2;  // spread flows over both SO_REUSEPORT workers
  lopts.window = 64;
  lopts.packet_bytes = 64;
  LoadGenerator gen(lopts);
  ASSERT_TRUE(gen.init());
  const auto flows = gen.make_flows(fx.vips, 64);
  ASSERT_EQ(flows.size(), 64u);

  const auto report = gen.run_closed(flows, 2000);

  // The loop closed: every packet resolved, nothing corrupted, no flow
  // bounced between DIPs mid-run.
  EXPECT_EQ(report.sent - report.retries, 2000u);
  EXPECT_GE(report.received, 1900u) << "loopback closed loop lost too much";
  EXPECT_EQ(report.integrity_failures, 0u);
  EXPECT_EQ(report.remap_violations, 0u);

  mux.shutdown();
  mux.join();
  fx.dips.shutdown();
  fx.dips.join();

  // Zero parse failures: every datagram the generator built was a valid
  // wire-format packet, and the mux never mangled one.
  EXPECT_EQ(mux.metrics().counter("duet.runtime.parse_failures").value(), 0u);
  EXPECT_EQ(fx.dips.rejects(), 0u);

  // THE equivalence assertion: observed DIP == pure-sim prediction, per flow.
  Smux reference{0, fx.hasher, fx.cfg};
  for (const auto& vip : fx.vips) reference.set_vip(vip, fx.dips_of.at(vip));
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Endpoint serving = report.dip_by_flow[f];
    ASSERT_NE(serving.port, 0) << "flow " << f << " never answered";
    const auto it = fx.dip_of_endpoint.find(serving);
    ASSERT_NE(it, fx.dip_of_endpoint.end()) << "flow " << f << " answered by a stranger";
    EXPECT_EQ(it->second, fx.predict(flows[f], reference))
        << "flow " << f << ": live decision diverged from simulation";
  }

  // Drained server: pins exist, and the live snapshot passes the same
  // invariant auditor the simulations run under.
  EXPECT_GT(mux.flow_table_size(), 0u);
  const auto audit_report = audit::InvariantAuditor{}.audit(mux.audit_snapshot());
  EXPECT_TRUE(audit_report.clean()) << audit_report.summary();
}

TEST(MuxServerLive, OpenLoopDrainsCleanlyOnShutdown) {
  REQUIRE_LOOPBACK();
  LiveFixture fx;
  MuxServerOptions mopts;
  mopts.workers = 1;
  mopts.hasher = fx.hasher;
  MuxServer mux(mopts, fx.cfg);
  ASSERT_TRUE(fx.build(mux, 1, 4));
  ASSERT_TRUE(mux.start());

  LoadGenOptions lopts;
  lopts.target = mux.listen_endpoint();
  lopts.packet_bytes = 64;
  lopts.pps = 20e3;
  lopts.duration_s = 0.3;
  LoadGenerator gen(lopts);
  ASSERT_TRUE(gen.init());
  const auto flows = gen.make_flows(fx.vips, 16);
  const auto report = gen.run_open(flows);
  EXPECT_GT(report.sent, 0u);
  EXPECT_GT(report.received, 0u);

  mux.shutdown();
  mux.join();
  fx.dips.shutdown();
  fx.dips.join();

  auto& m = mux.metrics();
  const auto rx = m.counter("duet.runtime.rx_packets").value();
  const auto tx = m.counter("duet.runtime.tx_packets").value();
  EXPECT_GT(rx, 0u);
  EXPECT_LE(tx, rx);
  EXPECT_EQ(m.counter("duet.runtime.parse_failures").value(), 0u);
  // Echoed replies go straight to the generator, never back through the mux.
  EXPECT_LE(report.received, fx.dips.total_packets());
  EXPECT_GT(mux.flow_table_size(), 0u);
}

// A live update is applied in the loop iteration that drains its wake, not
// on the next tick: with a 1 s tick, a VIP added after start() forwards
// within 100 ms.
TEST(MuxServerLive, LiveUpdateForwardsBeforeTheNextTick) {
  REQUIRE_LOOPBACK();
  FakeDipPool dips;
  const Ipv4Address dip{10, 0, 0, 1};
  ASSERT_TRUE(dips.add_dip(dip).has_value());
  ASSERT_TRUE(dips.start());
  MuxServerOptions mopts;
  mopts.tick_ms = 1000;
  MuxServer mux(mopts, DuetConfig{});
  mux.map_dip(dip, dips.ingress());
  ASSERT_TRUE(mux.start());
  auto client = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(client.has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // worker in its loop

  const Ipv4Address vip{100, 0, 0, 1};
  const auto t0 = std::chrono::steady_clock::now();
  mux.set_vip(vip, {dip});
  const auto ping = serialize_packet(
      Packet{FiveTuple{Ipv4Address{10, 9, 9, 9}, vip, client->local().port, 80, IpProto::kUdp},
             64});
  // One datagram per millisecond: one that races the wake may still meet
  // the old configuration, a later one must not.
  while (dips.packets_at(dip) == 0 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(100)) {
    ASSERT_TRUE(client->send_to(ping, mux.listen_endpoint()));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  const std::uint64_t forwarded = dips.packets_at(dip);
  mux.shutdown();
  mux.join();
  dips.shutdown();
  dips.join();
  EXPECT_GT(forwarded, 0u) << "no packet forwarded within "
                           << std::chrono::duration<double, std::milli>(waited).count()
                           << " ms of set_vip";
}

TEST(MuxServerLive, MalformedIngressCountsAsParseFailureNotCrash) {
  REQUIRE_LOOPBACK();
  LiveFixture fx;
  MuxServerOptions mopts;
  mopts.workers = 1;
  MuxServer mux(mopts, fx.cfg);
  ASSERT_TRUE(fx.build(mux, 1, 2));
  ASSERT_TRUE(mux.start());

  auto sender = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(sender.has_value());
  const std::vector<std::uint8_t> junk{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02};
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(sender->send_to(junk, mux.listen_endpoint()));

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (mux.metrics().counter("duet.runtime.parse_failures").value() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  mux.shutdown();
  mux.join();
  fx.dips.shutdown();
  fx.dips.join();
  EXPECT_EQ(mux.metrics().counter("duet.runtime.parse_failures").value(), 20u);
  EXPECT_EQ(mux.metrics().counter("duet.runtime.tx_packets").value(), 0u);
}

}  // namespace
}  // namespace duet::runtime
