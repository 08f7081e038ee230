// Software Mux (SMux) model, after Ananta (§2.1–2.2).
//
// An SMux holds the complete VIP→DIP mapping in main memory (no practical
// capacity limit on the number of VIPs/DIPs), selects DIPs with the shared
// FlowHasher, and encapsulates in software. What software costs is latency
// and throughput, calibrated to Fig 1:
//   * per-packet added latency is lognormal: median 196 µs at no load with a
//     heavy tail (p90 ≈ 1 ms), inflating as the CPU approaches saturation;
//   * the CPU saturates at 300 Kpps (3.6 Gbps @1500 B); beyond that queues
//     build and latency jumps to tens of milliseconds (Fig 11).
//
// DIP selection note: "same hash function" (§3.3.1) must mean the same
// *bucket layout*, not just the same 64-bit mix — the switch maps flows via
// a resilient-hash bucket array, so the SMux replicates exactly that
// structure (ResilientHashGroup) for first-packet decisions. Otherwise a
// VIP failing over between mux types would remap every connection.
//
// The per-flow DECISION stage is a pluggable engine (duet/decision_engine.h):
//   * stateful (default) — flow-table pins; DIP addition does not remap
//     existing connections (§5.2). O(concurrent flows) memory.
//   * stateless — versioned Othello-style bucket map (src/stateless/);
//     O(DIPs) memory, immune to SYN-flood state exhaustion.
// Selection: globally via DuetConfig::smux_engine, or per VIP via
// set_engine_override (a mixed fleet: flood-prone VIPs stateless, the rest
// on the classical pins). The POOL FRONT-END — which DIP pool applies, the
// (vip, dst_port) ACL rule or the VIP-wide pool — is engine-independent and
// lives here.
//
// Hot path (DESIGN.md §12): all lookup structures are FlatTables (open
// addressing, cache-friendly, prefetchable), and the live runtime drives
// decisions through process_batch — one timestamp per batch, slot prefetch
// across the batch, telemetry accumulated in locals and flushed once. The
// stateful engine is called through its concrete type (header-inline, no
// virtual dispatch); the stateless branch costs one null check when unused.
// Per-tuple DIP selection is bit-identical between process and
// process_batch, and — with the default stateful engine — identical to the
// pre-engine-extraction implementation: the decision inputs (FlowHasher,
// ResilientHashGroup layout, pin state) never touch table iteration order.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "duet/config.h"
#include "duet/decision_engine.h"
#include "duet/stateful_engine.h"
#include "net/hash.h"
#include "net/packet.h"
#include "telemetry/metrics.h"
#include "util/flat_table.h"
#include "util/mix.h"
#include "util/random.h"

namespace duet {

namespace stateless {
class StatelessEngine;
}  // namespace stateless

class Smux {
 public:
  Smux(std::uint32_t id, FlowHasher hasher, const DuetConfig& config,
       Ipv4Address self = Ipv4Address{192, 0, 2, 100});
  ~Smux();
  Smux(Smux&&) noexcept;
  Smux& operator=(Smux&&) noexcept;

  std::uint32_t id() const noexcept { return id_; }

  // --- VIP-DIP reconfiguration (SMuxes hold ALL VIPs, §3.3.1) ----------------
  // Optional WCMP weights (§5.2): the member-slot expansion (a DIP with
  // weight w occupies w slots) replicates the switch's layout exactly, so
  // weighted VIPs keep the cross-device agreement invariant too.
  void set_vip(Ipv4Address vip, std::vector<Ipv4Address> dips,
               const std::vector<std::uint32_t>& weights = {});

  // Port-based LB (§5.2): a (vip, dst_port)-specific DIP pool, mirroring the
  // ACL rule the HMux programs. Consulted before the VIP-wide pool.
  void set_port_rule(Ipv4Address vip, std::uint16_t dst_port, std::vector<Ipv4Address> dips);
  bool remove_port_rule(Ipv4Address vip, std::uint16_t dst_port);
  bool remove_vip(Ipv4Address vip);
  // DIP addition: existing connections stay pinned (stateful) or keep their
  // bucket's old map version until it drains (stateless) — no remap either way.
  void add_dip(Ipv4Address vip, Ipv4Address dip);
  // DIP removal: flows to other DIPs survive; flows to the removed DIP
  // terminate (§5.1) — pins erased / buckets flipped off the dead owner.
  void remove_dip(Ipv4Address vip, Ipv4Address dip);

  bool has_vip(Ipv4Address vip) const { return vips_.contains(vip); }
  std::size_t vip_count() const noexcept { return vips_.size(); }

  // Control-path pool iteration (unspecified order — FlatTable). The fast
  // tier's rebuild (duet/fast_tier.h) snapshots the hot-VIP set through
  // these; nothing order-dependent may consume them.
  template <typename F>
  void for_each_vip(F&& fn) const {
    vips_.for_each(fn);  // fn(Ipv4Address vip, const VipPool& pool)
  }
  template <typename F>
  void for_each_port_rule(F&& fn) const {
    port_rules_.for_each(fn);  // fn(std::uint64_t pool_id, const VipPool& pool)
  }

  // --- engine selection -------------------------------------------------------
  // The engine deciding a VIP's flows: the per-VIP override if set, else the
  // DuetConfig::smux_engine default. remove_vip drops the VIP's override.
  SmuxEngine engine_for(Ipv4Address vip) const {
    const SmuxEngine* o = engine_overrides_.find(vip);
    return o != nullptr ? *o : config_.smux_engine;
  }
  void set_engine_override(Ipv4Address vip, SmuxEngine engine);
  bool clear_engine_override(Ipv4Address vip) { return engine_overrides_.erase(vip); }

  StatefulEngine& stateful_engine() noexcept { return stateful_; }
  const StatefulEngine& stateful_engine() const noexcept { return stateful_; }
  // Non-null once any VIP decides statelessly (global knob or override).
  stateless::StatelessEngine* stateless_engine() noexcept { return stateless_.get(); }
  const stateless::StatelessEngine* stateless_engine() const noexcept {
    return stateless_.get();
  }
  // Engine-owned decision-state bytes (both engines; excludes shared pools).
  std::size_t decision_state_bytes() const noexcept;

  // --- data plane ---------------------------------------------------------------
  // Encapsulates toward a DIP; returns false when the VIP is unknown.
  // `now_us` stamps per-flow state (pins / bucket drain timestamps).
  bool process(Packet& packet, double now_us = 0.0);

  // Batch decision API — the live runtime's entry point. For each packet,
  // writes the chosen DIP to dips_out (Ipv4Address{} = unknown VIP, drop)
  // WITHOUT touching the packet: the caller encapsulates on the wire
  // (encapsulate_on_wire), so the hot path never allocates a Packet encap
  // stack. One `now_us` stamps the whole batch; flow-table slots are
  // prefetched across the batch before the decision pass; telemetry
  // (packets, unknown_vip, flow_pins, flow_table_size, stateless.*) is
  // accumulated in locals and flushed once per batch. Per-tuple decisions
  // are bit-identical to process(). Returns the number of forwardable
  // packets.
  std::size_t process_batch(std::span<const Packet> packets, std::span<Ipv4Address> dips_out,
                            double now_us);

  // Evicts connection pins idle for longer than `idle_us` — production
  // SMuxes garbage-collect their flow tables or they grow without bound
  // under churny traffic. Returns the number of pins evicted. Safe: an
  // evicted live flow re-pins to the SAME DIP (the hash is deterministic)
  // unless the DIP set changed in between. Exact (full pass, every idle pin
  // goes) — the control-path form; the serving loop uses expire_flows_step.
  // Stateful-engine state only; the stateless engine has nothing to expire.
  std::size_t expire_flows(double now_us, double idle_us) {
    return stateful_.expire_flows(now_us, idle_us);
  }

  // Convenience overload using the DuetConfig knob.
  std::size_t expire_flows(double now_us) {
    return config_.smux_flow_idle_us > 0 ? expire_flows(now_us, config_.smux_flow_idle_us) : 0;
  }

  // Bounded incremental eviction: scans at most `max_slots` flow-table slots
  // from a persistent cursor, evicting idle pins inline. Every pass is
  // budget-bounded by construction (scanned <= max_slots), so eviction on
  // the serving thread never stalls a batch; repeated calls cycle the whole
  // table. Telemetry: flow_scan_slots (total), flow_scan_max_slots (worst
  // single pass — the proof no pass exceeded its budget).
  struct EvictStats {
    std::size_t scanned = 0;
    std::size_t evicted = 0;
  };
  EvictStats expire_flows_step(double now_us, double idle_us, std::size_t max_slots) {
    const auto r = stateful_.expire_flows_step(now_us, idle_us, max_slots);
    return EvictStats{r.scanned, r.evicted};
  }
  EvictStats expire_flows_step(double now_us, std::size_t max_slots) {
    return config_.smux_flow_idle_us > 0
               ? expire_flows_step(now_us, config_.smux_flow_idle_us, max_slots)
               : EvictStats{};
  }

  // --- performance model ----------------------------------------------------------
  // Offered load as a fraction of CPU capacity.
  double utilization(double offered_pps) const {
    return offered_pps / config_.smux_capacity_pps;
  }
  // CPU% shown in Fig 1(b).
  double cpu_percent(double offered_pps) const;
  // Median added latency at the given utilization (µs).
  double median_added_latency_us(double rho) const;
  // One latency sample (µs) from the lognormal tail at the given utilization.
  double sample_added_latency_us(double rho, Rng& rng) const;

  std::size_t flow_table_size() const noexcept { return stateful_.flow_table_size(); }

  // --- telemetry ------------------------------------------------------------
  // Binds per-mux packet/flow telemetry under `prefix` (e.g. "duet.smux.3.").
  // Counters: packets, unknown_vip (dropped: no matching pool), flow_pins
  // (connections pinned), flow_evictions (pins expired, capacity-shed, or
  // killed by DIP removal), flow_scan_slots (slots visited by eviction
  // scans). Gauges: flow_table_size, flow_scan_max_slots. When the stateless
  // engine is active its metrics bind under `prefix + "stateless."` (see
  // stateless/stateless_engine.h). The registry must outlive this mux.
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix);

 private:
  // The decision pipeline shared by process and process_batch: resolve the
  // pool (port rule → VIP-wide), dispatch to the VIP's engine. Writes the
  // chosen DIP; returns false on unknown VIP. `pinned` reports whether the
  // engine created per-flow state (the caller owns the telemetry).
  bool decide(const FiveTuple& tuple, double now_us, Ipv4Address* chosen, bool* pinned);

  // Lazily constructs the stateless engine and replays every existing pool
  // into it (version 0 of each map), so an override can arrive after VIPs.
  stateless::StatelessEngine& ensure_stateless();
  void notify_pool_updated(std::uint64_t pool_id, const VipPool& pool);

  std::uint32_t id_;
  FlowHasher hasher_;
  DuetConfig config_;
  Ipv4Address self_;
  telemetry::Counter* tm_packets_ = nullptr;
  telemetry::Counter* tm_unknown_vip_ = nullptr;
  telemetry::Counter* tm_flow_pins_ = nullptr;
  telemetry::MetricRegistry* registry_ = nullptr;  // for late engine binding
  std::string tm_prefix_;

  // Pool front-end: VIP-wide pools and (vip << 16 | port) ACL pools.
  // Mix64Hash for the packed key: std::hash<uint64_t> is identity on common
  // stdlibs and the key's low bits are the port.
  util::FlatTable<Ipv4Address, VipPool> vips_;
  util::FlatTable<std::uint64_t, VipPool, Mix64Hash> port_rules_;

  // The engines. Stateful is always present (overrides may point any VIP at
  // it) and is called through the concrete type on the hot path; stateless
  // is built on first use.
  StatefulEngine stateful_;
  std::unique_ptr<stateless::StatelessEngine> stateless_;
  util::FlatTable<Ipv4Address, SmuxEngine> engine_overrides_;
};

}  // namespace duet
