#include "runtime/mux_server.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "duet/fast_tier.h"
#include "duet/smux.h"
#include "exec/thread_pool.h"
#include "net/wire.h"
#include "runtime/event_loop.h"
#include "util/logging.h"

namespace duet::runtime {

struct MuxServer::PendingUpdate {
  enum class Kind : std::uint8_t { kSetVip, kRemoveVip, kRemoveDip, kMapDip, kSetEngine };
  Kind kind = Kind::kSetVip;
  Ipv4Address vip;
  std::vector<Ipv4Address> dips;
  std::vector<std::uint32_t> weights;
  Ipv4Address dip;
  Endpoint at;
  std::optional<SmuxEngine> engine;
};

struct MuxServer::Worker {
  Worker(std::size_t index_, UdpSocket sock_, Smux smux_, std::size_t batch)
      : index(index_), sock(std::move(sock_)), smux(std::move(smux_)), io(batch) {
    rx.resize(batch);  // fixed-size descriptor array: recv_batch never grows it
    pkts.reserve(batch);
    chosen.reserve(batch);
    rx_index.reserve(batch);
    miss_pkts.reserve(batch);
    miss_pos.reserve(batch);
    miss_chosen.reserve(batch);
  }

  std::size_t index;
  UdpSocket sock;
  Smux smux;
  BatchIo io;
  EventLoop loop;
  std::vector<RxPacket> rx;
  std::vector<TxPacket> tx;
  // Per-batch scratch, reused so the hot path never allocates: parsed
  // packets, their decided DIPs, and each parsed packet's rx slot.
  std::vector<Packet> pkts;
  std::vector<Ipv4Address> chosen;
  std::vector<std::uint32_t> rx_index;
  // Fast-tier miss scatter/gather scratch: the cold remainder of a batch
  // (packets the snapshot cannot decide) and where each lands in `chosen`.
  std::vector<Packet> miss_pkts;
  std::vector<std::uint32_t> miss_pos;
  std::vector<Ipv4Address> miss_chosen;

  // This worker's fast tier (DESIGN.md §17), snapshotting this worker's own
  // Smux replica: settledness is per-replica state, so the table must be
  // built from — and on the tick thread of — the replica it fronts.
  FastTier fast{1};
  bool fast_dirty = true;         // VIP churn since the last snapshot
  std::uint64_t fast_seen_seq = 0;  // last rebuild_fast_tier() clock applied

  // Serving counts since the last fold_stats. pump() and the tick both run
  // on this worker's thread, so these are plain integers: the batch path
  // touches no shared cache line, and the registry gets the deltas on the
  // tick.
  struct Deltas {
    std::uint64_t rx_packets = 0, rx_bytes = 0, tx_packets = 0, tx_bytes = 0;
    std::uint64_t rx_batches = 0, parse_failures = 0, unmapped_dip = 0, tx_drops = 0;
    std::uint64_t fast_hits = 0, fast_misses = 0;
  } deltas;
  // This worker's Smux flow-table gauge (flow_table_size() sums them).
  const telemetry::Gauge* flow_table_size = nullptr;

  // This worker's own DIP→endpoint map. Unshared, so pump() reads it without
  // synchronization; live changes arrive through the pending queue below and
  // land on the worker thread's tick.
  util::FlatTable<Ipv4Address, Endpoint> dip_map;
  std::mutex pending_mu;
  std::vector<PendingUpdate> pending;
};

MuxServer::MuxServer(MuxServerOptions options, DuetConfig config)
    : opts_(std::move(options)), config_(config) {
  tm_rx_packets_ = &registry_.counter("duet.runtime.rx_packets");
  tm_rx_bytes_ = &registry_.counter("duet.runtime.rx_bytes");
  tm_tx_packets_ = &registry_.counter("duet.runtime.tx_packets");
  tm_tx_bytes_ = &registry_.counter("duet.runtime.tx_bytes");
  tm_parse_failures_ = &registry_.counter("duet.runtime.parse_failures");
  tm_unmapped_dip_ = &registry_.counter("duet.runtime.unmapped_dip");
  tm_tx_drops_ = &registry_.counter("duet.runtime.tx_drops");
  tm_rx_batches_ = &registry_.counter("duet.runtime.rx_batches");
  tm_tx_messages_ = &registry_.counter("duet.runtime.tx_messages");
  tm_tx_gso_trains_ = &registry_.counter("duet.runtime.tx_gso_trains");
  tm_fast_hits_ = &registry_.counter("duet.runtime.fast_tier.hits");
  tm_fast_misses_ = &registry_.counter("duet.runtime.fast_tier.misses");
  tm_fast_rebuilds_ = &registry_.counter("duet.runtime.fast_tier.rebuilds");
  tm_batch_fill_ = &registry_.histogram(
      "duet.runtime.batch_fill", telemetry::Histogram::exponential_bounds(1.0, 1024.0, 11));
}

MuxServer::~MuxServer() {
  shutdown();
  join();
}

void MuxServer::enqueue_update(const PendingUpdate& update) {
  if (!running()) return;  // start() seeds the workers from vips_ / dip_map_
  for (const auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->pending_mu);
      worker->pending.push_back(update);
    }
    worker->loop.wake();
  }
}

void MuxServer::drain_updates(Worker& worker) {
  std::vector<PendingUpdate> batch;
  {
    std::lock_guard<std::mutex> lock(worker.pending_mu);
    if (worker.pending.empty()) return;
    batch.swap(worker.pending);
  }
  for (const PendingUpdate& u : batch) {
    switch (u.kind) {
      case PendingUpdate::Kind::kSetVip:
        worker.smux.set_vip(u.vip, u.dips, u.weights);
        worker.fast_dirty = true;  // snapshot is stale until re-admitted
        break;
      case PendingUpdate::Kind::kRemoveVip:
        worker.smux.remove_vip(u.vip);
        worker.fast_dirty = true;
        break;
      case PendingUpdate::Kind::kRemoveDip:
        worker.smux.remove_dip(u.vip, u.dip);
        worker.fast_dirty = true;  // else the snapshot keeps serving the DIP
        break;
      case PendingUpdate::Kind::kMapDip:
        worker.dip_map.insert(u.dip, u.at);  // post-decision; tier unaffected
        break;
      case PendingUpdate::Kind::kSetEngine: {
        const SmuxEngine before = worker.smux.engine_for(u.vip);
        if (u.engine.has_value()) {
          worker.smux.set_engine_override(u.vip, *u.engine);
        } else {
          worker.smux.clear_engine_override(u.vip);
        }
        // Admission depends on the engine (stateless VIPs only).
        if (worker.smux.engine_for(u.vip) != before) worker.fast_dirty = true;
        break;
      }
    }
  }
}

void MuxServer::rebuild_fast_tier() {
  fast_rebuild_seq_.fetch_add(1, std::memory_order_acq_rel);
  for (const auto& worker : workers_) worker->loop.wake();
}

void MuxServer::set_vip(Ipv4Address vip, std::vector<Ipv4Address> dips,
                        std::vector<std::uint32_t> weights) {
  std::lock_guard<std::mutex> lock(config_mu_);
  const auto rec = std::find_if(vips_.begin(), vips_.end(),
                                [vip](const VipRecord& r) { return r.vip == vip; });
  if (rec != vips_.end()) {
    rec->dips = dips;
    rec->weights = weights;
  } else {
    vips_.push_back(VipRecord{vip, dips, weights});
  }
  PendingUpdate u;
  u.kind = PendingUpdate::Kind::kSetVip;
  u.vip = vip;
  u.dips = std::move(dips);
  u.weights = std::move(weights);
  enqueue_update(u);
}

void MuxServer::remove_vip(Ipv4Address vip) {
  std::lock_guard<std::mutex> lock(config_mu_);
  std::erase_if(vips_, [vip](const VipRecord& r) { return r.vip == vip; });
  engine_overrides_.erase(vip);  // as Smux::remove_vip does on every worker
  PendingUpdate u;
  u.kind = PendingUpdate::Kind::kRemoveVip;
  u.vip = vip;
  enqueue_update(u);
}

void MuxServer::remove_dip(Ipv4Address vip, Ipv4Address dip) {
  std::lock_guard<std::mutex> lock(config_mu_);
  const auto rec = std::find_if(vips_.begin(), vips_.end(),
                                [vip](const VipRecord& r) { return r.vip == vip; });
  DUET_CHECK(rec != vips_.end()) << "remove_dip on unknown VIP " << vip.to_string();
  const auto pos = std::find(rec->dips.begin(), rec->dips.end(), dip);
  if (pos == rec->dips.end()) return;
  DUET_CHECK(rec->dips.size() > 1) << "removing last DIP of " << vip.to_string();
  if (!rec->weights.empty()) rec->weights.erase(rec->weights.begin() + (pos - rec->dips.begin()));
  rec->dips.erase(pos);
  PendingUpdate u;
  u.kind = PendingUpdate::Kind::kRemoveDip;
  u.vip = vip;
  u.dip = dip;
  enqueue_update(u);
}

void MuxServer::map_dip(Ipv4Address dip, Endpoint at) {
  std::lock_guard<std::mutex> lock(config_mu_);
  dip_map_.insert(dip, at);
  PendingUpdate u;
  u.kind = PendingUpdate::Kind::kMapDip;
  u.dip = dip;
  u.at = at;
  enqueue_update(u);
}

void MuxServer::set_engine_override(Ipv4Address vip, std::optional<SmuxEngine> engine) {
  std::lock_guard<std::mutex> lock(config_mu_);
  if (engine.has_value()) {
    engine_overrides_.insert(vip, *engine);
  } else {
    engine_overrides_.erase(vip);
  }
  PendingUpdate u;
  u.kind = PendingUpdate::Kind::kSetEngine;
  u.vip = vip;
  u.engine = engine;
  enqueue_update(u);
}

bool MuxServer::start() {
  if (running()) return false;
  workers_.clear();
  stop_.store(false, std::memory_order_release);

  // Env override for deployments that cannot edit options (benches, CI).
  if (const char* pin = std::getenv("DUET_CPU_PIN"); pin != nullptr && *pin != '\0') {
    opts_.pin_cpus = std::strcmp(pin, "0") != 0;
  }

  const std::size_t n = opts_.workers < 1 ? 1 : opts_.workers;
  const bool shard = n > 1;
  auto first = UdpSocket::bind(opts_.listen, shard);
  if (!first) return false;
  const Endpoint resolved = first->local();

  for (std::size_t w = 0; w < n; ++w) {
    std::optional<UdpSocket> sock;
    if (w == 0) {
      sock = std::move(first);
    } else {
      sock = UdpSocket::bind(resolved, true);
      if (!sock) {
        workers_.clear();
        return false;
      }
    }
    Smux smux(static_cast<std::uint32_t>(w), opts_.hasher, config_, opts_.self);
    engine_overrides_.for_each(
        [&smux](Ipv4Address vip, SmuxEngine engine) { smux.set_engine_override(vip, engine); });
    for (const VipRecord& rec : vips_) smux.set_vip(rec.vip, rec.dips, rec.weights);
    const std::string prefix = "duet.runtime.smux.w" + std::to_string(w) + ".";
    smux.bind_telemetry(registry_, prefix);
    auto worker =
        std::make_unique<Worker>(w, std::move(*sock), std::move(smux), opts_.batch);
    worker->flow_table_size = &registry_.gauge(prefix + "flow_table_size");
    if (!worker->loop.ok()) {
      workers_.clear();
      return false;
    }
    worker->dip_map = dip_map_;  // private copy; live changes arrive per tick
    workers_.push_back(std::move(worker));
  }

  t0_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  runner_ = std::thread([this] {
    exec::ThreadPool pool(workers_.size());
    pool.parallel_for(workers_.size(), [this](std::size_t i) { serve(i); });
  });
  return true;
}

void MuxServer::shutdown() {
  stop_.store(true, std::memory_order_release);
  for (const auto& worker : workers_) worker->loop.wake();
}

void MuxServer::join() {
  if (runner_.joinable()) runner_.join();
  running_.store(false, std::memory_order_release);
}

Endpoint MuxServer::listen_endpoint() const {
  return workers_.empty() ? Endpoint{} : workers_[0]->sock.local();
}

std::size_t MuxServer::flow_table_size() const {
  std::size_t total = 0;
  for (const auto& worker : workers_) {
    total += static_cast<std::size_t>(worker->flow_table_size->value());
  }
  return total;
}

double MuxServer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0_)
      .count();
}

void MuxServer::maybe_rebuild_fast(Worker& worker, double now) {
  if (!opts_.fast_tier) return;
  const std::uint64_t seq = fast_rebuild_seq_.load(std::memory_order_acquire);
  if (!worker.fast_dirty && seq == worker.fast_seen_seq) return;
  worker.fast_dirty = false;
  worker.fast_seen_seq = seq;
  // Off the serving path: this tick-thread build never races pump() on this
  // worker (same thread), and the swap protocol covers external readers.
  worker.fast.rebuild(worker.smux, now);
  tm_fast_rebuilds_->inc();
}

void MuxServer::fold_stats(Worker& worker) {
  const auto flush = [](std::uint64_t& delta, telemetry::Counter* out) {
    if (delta != 0) out->inc(delta);
    delta = 0;
  };
  auto& d = worker.deltas;
  flush(d.rx_packets, tm_rx_packets_);
  flush(d.rx_bytes, tm_rx_bytes_);
  flush(d.tx_packets, tm_tx_packets_);
  flush(d.tx_bytes, tm_tx_bytes_);
  flush(d.rx_batches, tm_rx_batches_);
  flush(d.parse_failures, tm_parse_failures_);
  flush(d.unmapped_dip, tm_unmapped_dip_);
  flush(d.tx_drops, tm_tx_drops_);
  flush(d.fast_hits, tm_fast_hits_);
  flush(d.fast_misses, tm_fast_misses_);
  BatchIo::TxCounts io = worker.io.take_tx_counts();
  flush(io.messages, tm_tx_messages_);
  flush(io.trains, tm_tx_gso_trains_);
}

void MuxServer::serve(std::size_t index) {
  Worker& worker = *workers_[index];
  std::string name = "duet-mux";
  name.append(std::to_string(index));
  name_this_thread(name.c_str());
  if (opts_.pin_cpus) {
    // Best-effort: a refused pin (non-Linux, sandboxed cpuset) serves
    // unpinned — the fallback ISSUE'd for restricted environments.
    if (!pin_thread_to_cpu(index % online_cpus())) {
      DUET_LOG_INFO << "worker " << index << ": cpu pin unavailable, serving unpinned";
    }
  }
  // First snapshot before any packet (a new worker starts fast_dirty), so a
  // stateless deployment serves its very first batch from the fast tier.
  maybe_rebuild_fast(worker, now_us());
  worker.loop.add(worker.sock.fd(), [this, &worker] { pump(worker, false); });
  worker.loop.run(stop_, opts_.tick_ms, [this, &worker] {
    // Control-plane changes land here, on the serving thread, between
    // batches — no lock on the packet path.
    drain_updates(worker);
    // One clock read per tick; bounded incremental eviction (never a
    // full-table pass on the serving thread).
    const double now = now_us();
    maybe_rebuild_fast(worker, now);
    worker.smux.expire_flows_step(now, opts_.evict_scan_slots);
    fold_stats(worker);
  });
  // Drain: serve whatever the kernel already queued, then exit. Each pump
  // empties the socket, so the first empty read means the queue is flushed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(opts_.drain_wait_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pump(worker, true) == 0) break;
  }
  // Final fold: after this the shared registry holds this worker's exact
  // totals (join()'s quiescent-counters contract).
  fold_stats(worker);
}

std::size_t MuxServer::pump(Worker& worker, bool draining) {
  std::size_t total = 0;
  for (;;) {
    const std::size_t n = worker.io.recv_batch(worker.sock.fd(), worker.rx);
    if (n == 0) break;
    total += n;
    const double now = now_us();  // one clock read per batch

    // Parse pass: telemetry accumulated in locals, flushed once per batch.
    worker.pkts.clear();
    worker.rx_index.clear();
    std::uint64_t rx_bytes = 0;
    std::uint64_t parse_failures = 0;
    for (std::size_t i = 0; i < n; ++i) {
      rx_bytes += worker.rx[i].bytes.size();
      auto parsed = parse_packet(worker.rx[i].bytes);
      if (!parsed.has_value()) {
        ++parse_failures;
        continue;
      }
      worker.pkts.push_back(std::move(*parsed));
      worker.rx_index.push_back(static_cast<std::uint32_t>(i));
    }

    // Decision pass. The fast tier goes first: one direct-mapped probe per
    // packet against the worker's hot-VIP snapshot (hits are bit-identical
    // to the stateless engine's choice by construction — DESIGN.md §17);
    // the cold remainder goes through Smux::process_batch unchanged
    // (prefetched flow lookups, batched counters). Unknown VIPs come back
    // as 0.0.0.0 and are counted by the smux's unknown_vip.
    worker.chosen.resize(worker.pkts.size());
    std::uint64_t fast_hits = 0;
    std::uint64_t fast_misses = 0;
    const FastTierTable* fast = opts_.fast_tier ? worker.fast.acquire(0) : nullptr;
    if (fast != nullptr && fast->empty()) {
      worker.fast.release(0);
      fast = nullptr;  // nothing admitted: skip the probe pass entirely
    }
    if (fast == nullptr) {
      worker.smux.process_batch(worker.pkts, worker.chosen, now);
    } else {
      worker.miss_pkts.clear();
      worker.miss_pos.clear();
      for (std::size_t k = 0; k < worker.pkts.size(); ++k) {
        const FiveTuple& t = worker.pkts[k].tuple();
        const Ipv4Address* dip = fast->lookup(t.dst.value(), opts_.hasher.hash(t));
        if (dip != nullptr) {
          worker.chosen[k] = *dip;
          ++fast_hits;
        } else {
          worker.miss_pos.push_back(static_cast<std::uint32_t>(k));
          worker.miss_pkts.push_back(worker.pkts[k]);
        }
      }
      worker.fast.release(0);
      fast_misses = worker.miss_pkts.size();
      if (!worker.miss_pkts.empty()) {
        worker.miss_chosen.resize(worker.miss_pkts.size());
        worker.smux.process_batch(worker.miss_pkts, worker.miss_chosen, now);
        for (std::size_t j = 0; j < worker.miss_pkts.size(); ++j) {
          worker.chosen[worker.miss_pos[j]] = worker.miss_chosen[j];
        }
      }
    }

    // Encap + forward pass.
    worker.tx.clear();
    std::uint64_t unmapped = 0;
    std::uint64_t encap_drops = 0;
    for (std::size_t k = 0; k < worker.pkts.size(); ++k) {
      const Ipv4Address dip = worker.chosen[k];
      if (dip == Ipv4Address{}) continue;
      const Endpoint* at = worker.dip_map.find(dip);
      if (at == nullptr) {
        ++unmapped;
        continue;
      }
      // Zero-copy forward: the outer header goes into the rx headroom.
      const RxPacket& p = worker.rx[worker.rx_index[k]];
      std::uint8_t* head = p.bytes.data() - worker.io.headroom();
      const std::size_t len = encapsulate_on_wire(
          p.bytes, EncapHeader{opts_.self, dip},
          std::span<std::uint8_t>(head, p.bytes.size() + kIpv4HeaderBytes));
      if (len == 0) {
        ++encap_drops;
        continue;
      }
      worker.tx.push_back(TxPacket{head, len, *at});
    }

    const std::size_t sent =
        worker.io.send_batch(worker.sock.fd(), worker.tx, draining ? 1 : 5);
    std::uint64_t tx_bytes = 0;
    for (std::size_t i = 0; i < sent; ++i) tx_bytes += worker.tx[i].len;

    // One telemetry flush per batch, into this worker's own plain deltas
    // (no atomics, no shared cache line). The shared registry gets them on
    // the tick (fold_stats); the batch-fill histogram keeps its shared
    // record (one bucket increment per batch, not per packet).
    auto& d = worker.deltas;
    d.rx_batches += 1;
    tm_batch_fill_->record(static_cast<double>(n));
    d.rx_packets += n;
    d.rx_bytes += rx_bytes;
    d.parse_failures += parse_failures;
    d.unmapped_dip += unmapped;
    d.tx_packets += sent;
    d.tx_bytes += tx_bytes;
    d.tx_drops += encap_drops + (worker.tx.size() - sent);
    d.fast_hits += fast_hits;
    d.fast_misses += fast_misses;

    if (n < worker.io.batch()) break;  // short read: the socket is drained
  }
  return total;
}

audit::SystemSnapshot MuxServer::audit_snapshot() const {
  audit::SystemSnapshot snap;
  snap.host_table_capacity = config_.host_table_capacity;
  snap.aggregate = opts_.vip_aggregate;
  snap.live_smux_count = workers_.size();
  for (const auto& worker : workers_) {
    audit::SmuxSnapshot s;
    s.id = static_cast<std::uint32_t>(worker->index);
    s.alive = true;
    s.vip_count = worker->smux.vip_count();
    snap.smuxes.push_back(s);
  }
  for (std::size_t i = 0; i < vips_.size(); ++i) {
    const VipRecord& rec = vips_[i];
    audit::VipSnapshot v;
    v.id = static_cast<VipId>(i);
    v.vip = rec.vip;
    v.dip_count = rec.dips.size();
    v.weights = rec.weights;
    v.on_smux_list = true;  // a pure-SMux deployment: every VIP on the list
    v.aggregate_covers = opts_.vip_aggregate.contains(rec.vip);
    for (const auto& worker : workers_) {
      if (worker->smux.has_vip(rec.vip)) ++v.live_smuxes_holding;
    }
    snap.vips.push_back(std::move(v));
  }
  return snap;
}

}  // namespace duet::runtime
