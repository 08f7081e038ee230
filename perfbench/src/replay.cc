#include "replay.h"

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <thread>

#include "client.h"
#include "common.h"
#include "duet/config.h"
#include "duet/fast_tier.h"
#include "duet/smux.h"
#include "net/hash.h"
#include "net/wire.h"
#include "runtime/udp.h"
#include "util/flat_table.h"

namespace perfbench {

namespace {

using duet::runtime::BatchIo;
using duet::runtime::Endpoint;
using duet::runtime::RxPacket;
using duet::runtime::TxPacket;

constexpr std::size_t kBatch = 64;  // MuxServerOptions::batch default
const duet::Ipv4Address kSelf{192, 0, 2, 100};
const duet::FlowHasher kHasher{1};  // duetd --seed 1

struct Replica {
  explicit Replica(const duet::DuetConfig& cfg) : smux(0, kHasher, cfg, kSelf), io(kBatch) {
    rx.resize(kBatch);
  }
  duet::Smux smux;
  duet::FastTier fast{1};
  duet::util::FlatTable<duet::Ipv4Address, Endpoint> dip_map;
  BatchIo io;
  std::vector<RxPacket> rx;
  std::vector<TxPacket> tx;
  std::vector<duet::Packet> pkts, miss_pkts;
  std::vector<duet::Ipv4Address> chosen, miss_chosen;
  std::vector<std::uint32_t> rx_index, miss_pos;
};

struct PassStats {
  std::uint64_t packets = 0, batches = 0, cpu_ns = 0;
};

// One serving pass: MuxServer::pump's stages, each in a span.
PassStats serve_pass(Replica& r, int fd, const std::atomic<bool>& sender_done,
                     std::uint64_t t0_ns, SpanRecorder& spans) {
  PassStats st;
  const std::uint64_t cpu0 = thread_cpu_ns();
  pollfd pfd{fd, POLLIN, 0};
  for (;;) {
    if (::poll(&pfd, 1, 1) <= 0) {
      if (sender_done.load(std::memory_order_acquire)) break;
      continue;
    }
    for (;;) {
      const int batch = spans.begin("runtime.batch", st.batches);
      int s = spans.begin("runtime.recv_batch", st.batches);
      const std::size_t n = r.io.recv_batch(fd, r.rx);
      spans.end(s);
      if (n == 0) {
        spans.end(batch);
        break;
      }
      ++st.batches;
      st.packets += n;
      const double now = static_cast<double>(mono_ns() - t0_ns) * 1e-3;

      s = spans.begin("net.parse", st.batches);
      r.pkts.clear();
      r.rx_index.clear();
      for (std::size_t i = 0; i < n; ++i) {
        auto parsed = duet::parse_packet(r.rx[i].bytes);
        if (!parsed.has_value()) continue;
        r.pkts.push_back(std::move(*parsed));
        r.rx_index.push_back(static_cast<std::uint32_t>(i));
      }
      spans.end(s);

      r.chosen.resize(r.pkts.size());
      s = spans.begin("fast_tier.lookup", st.batches);
      const duet::FastTierTable* fast = r.fast.acquire(0);
      if (fast != nullptr && fast->empty()) {
        r.fast.release(0);
        fast = nullptr;
      }
      r.miss_pkts.clear();
      r.miss_pos.clear();
      if (fast != nullptr) {
        for (std::size_t k = 0; k < r.pkts.size(); ++k) {
          const duet::FiveTuple& t = r.pkts[k].tuple();
          const duet::Ipv4Address* dip = fast->lookup(t.dst.value(), kHasher.hash(t));
          if (dip != nullptr) {
            r.chosen[k] = *dip;
          } else {
            r.miss_pos.push_back(static_cast<std::uint32_t>(k));
            r.miss_pkts.push_back(r.pkts[k]);
          }
        }
        r.fast.release(0);
      }
      spans.end(s);

      s = spans.begin("smux.process_batch", st.batches);
      if (fast == nullptr) {
        r.smux.process_batch(r.pkts, r.chosen, now);
      } else if (!r.miss_pkts.empty()) {
        r.miss_chosen.resize(r.miss_pkts.size());
        r.smux.process_batch(r.miss_pkts, r.miss_chosen, now);
        for (std::size_t j = 0; j < r.miss_pkts.size(); ++j) {
          r.chosen[r.miss_pos[j]] = r.miss_chosen[j];
        }
      }
      spans.end(s);

      s = spans.begin("net.encap", st.batches);
      r.tx.clear();
      for (std::size_t k = 0; k < r.pkts.size(); ++k) {
        const duet::Ipv4Address dip = r.chosen[k];
        if (dip == duet::Ipv4Address{}) continue;
        const Endpoint* at = r.dip_map.find(dip);
        if (at == nullptr) continue;
        const RxPacket& p = r.rx[r.rx_index[k]];
        std::uint8_t* head = p.bytes.data() - r.io.headroom();
        const std::size_t len = duet::encapsulate_on_wire(
            p.bytes, duet::EncapHeader{kSelf, dip},
            std::span<std::uint8_t>(head, p.bytes.size() + duet::kIpv4HeaderBytes));
        if (len != 0) r.tx.push_back(TxPacket{head, len, *at});
      }
      spans.end(s);

      s = spans.begin("runtime.send_batch", st.batches);
      r.io.send_batch(fd, r.tx, 5);
      spans.end(s);
      spans.end(batch);
      if (n < r.io.batch()) break;
    }
  }
  st.cpu_ns = thread_cpu_ns() - cpu0;
  return st;
}

}  // namespace

ReplayReport replay_serving(const ReplayInputs& in, SpanRecorder& spans) {
  ReplayReport rep;
  duet::DuetConfig cfg;
  cfg.smux_engine = in.stateless ? duet::SmuxEngine::kStateless : duet::SmuxEngine::kStateful;
  Replica r(cfg);

  auto mux_sock = duet::runtime::UdpSocket::bind(Endpoint{duet::Ipv4Address{127, 0, 0, 1}, 0});
  auto sink = duet::runtime::UdpSocket::bind(Endpoint{duet::Ipv4Address{127, 0, 0, 1}, 0});
  if (!mux_sock || !sink) {
    rep.error = "replay sockets";
    return rep;
  }
  const int buf = 4 << 20;
  ::setsockopt(mux_sock->fd(), SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  for (const auto& [vip, dips] : in.pools) {
    r.smux.set_vip(vip, dips);
    for (const auto& d : dips) r.dip_map.insert(d, sink->local());
  }

  Client client(mux_sock->local().port, 2);
  if (!client.init()) {
    rep.error = "replay client sockets";
    return rep;
  }
  const FlowSet flows(*in.vips, *in.flows, client.ports(), in.src_base);
  client.set_flows(&flows);

  const std::uint64_t t0 = mono_ns();
  // Pin the warm flows, as the live warm-up does, before anything is timed.
  {
    std::vector<duet::Packet> batch;
    std::vector<duet::Ipv4Address> out(kBatch);
    for (std::size_t f = 0; f < in.pinned; ++f) {
      batch.push_back(*duet::parse_packet(flows.bytes(f)));
      if (batch.size() == kBatch || f + 1 == in.pinned) {
        r.smux.process_batch(batch, std::span<duet::Ipv4Address>(out.data(), batch.size()),
                             static_cast<double>(mono_ns() - t0) * 1e-3);
        batch.clear();
      }
    }
  }
  std::vector<double> rebuild_us;
  for (int i = 0; i < 21; ++i) {
    const std::uint64_t a = mono_ns();
    r.fast.rebuild(r.smux, static_cast<double>(a - t0) * 1e-3);
    rebuild_us.push_back(static_cast<double>(mono_ns() - a) * 1e-3);
  }
  rep.rebuild_us = median(rebuild_us);

  // Pass 0 untraced, pass 1 traced: the same schedule, the same packets.
  PassStats pass[2];
  for (int p = 0; p < 2; ++p) {
    SpanRecorder off(false);
    std::atomic<bool> done{false};
    std::thread sender([&] {
      PhaseSpec spec;
      spec.open_loop = true;
      spec.rate_pps = in.rate_pps;
      spec.seconds = in.seconds;
      spec.flow_of = in.flow_of;
      client.run_phase(spec);
      done.store(true, std::memory_order_release);
    });
    pass[p] = serve_pass(r, mux_sock->fd(), done, t0, p == 0 ? off : spans);
    sender.join();
  }
  const PassStats& traced = pass[1];
  if (traced.packets == 0 || pass[0].packets == 0) {
    rep.error = "replay received nothing";
    return rep;
  }
  const auto self = spans.self_ns_by_name();
  const auto per_pkt = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / static_cast<double>(traced.packets);
  };
  rep.packets = traced.packets;
  rep.recv_ns = per_pkt("runtime.recv_batch");
  rep.parse_ns = per_pkt("net.parse");
  rep.fast_ns = per_pkt("fast_tier.lookup");
  rep.smux_ns = per_pkt("smux.process_batch");
  rep.encap_ns = per_pkt("net.encap");
  rep.send_ns = per_pkt("runtime.send_batch");
  rep.glue_ns = per_pkt("runtime.batch");
  rep.batch_fill = static_cast<double>(traced.packets) / static_cast<double>(traced.batches);
  const double cpu_off = static_cast<double>(pass[0].cpu_ns) / static_cast<double>(pass[0].packets);
  const double cpu_on = static_cast<double>(traced.cpu_ns) / static_cast<double>(traced.packets);
  rep.overhead_frac = cpu_on / cpu_off - 1.0;
  return rep;
}

}  // namespace perfbench
