// StatefulEngine: the classical Ananta/Duet SMux decision engine — first
// packet hashes through the switch-mirrored ResilientHashGroup, then a
// per-connection flow table pins the choice (§2.2, §5.2).
//
// It implements the engine contract in duet/decision_engine.h beside the
// stateless engine. The hot path (decide, prefetch) is header-inline:
// Smux::process_batch calls it through the concrete type, so the split
// costs nothing on the ≥2x pin-hit gate (bench_hotpath).
//
// Memory is O(concurrent flows) — the property the stateless engine exists
// to escape: a SYN flood inserts one FlowPin per spoofed tuple until the
// smux_flow_table_max cap forces eviction of real flows (bench_stateless
// measures exactly this).
#pragma once

#include <cstdint>

#include "duet/config.h"
#include "duet/decision_engine.h"
#include "net/hash.h"
#include "net/packet.h"
#include "telemetry/metrics.h"
#include "util/flat_table.h"
#include "util/hot.h"

namespace duet {

class StatefulEngine {
 public:
  StatefulEngine(FlowHasher hasher, const DuetConfig& config)
      : hasher_(hasher), config_(config) {}

  // --- engine contract (duet/decision_engine.h) --------------------------------
  // Pool rebuilds never touch pins: existing connections stay pinned across
  // DIP addition / weight changes (§5.2 no-remap).
  void pool_updated(std::uint64_t, const VipPool&, double) {}

  // VIP removal drops every pin for the VIP; port-rule removal keeps pins
  // (an established flow keeps its port-steered DIP, as before).
  void pool_removed(std::uint64_t pool_id, Ipv4Address vip, double) {
    if ((pool_id & kVipWidePoolBit) == 0) return;
    flow_table_.erase_if(
        [vip](const FiveTuple& tuple, const FlowPin&) { return tuple.dst == vip; });
    refresh_size_gauge();
  }

  // Connections to the removed DIP necessarily terminate (§5.1); pinned
  // flows to other DIPs survive untouched.
  void dip_removed(std::uint64_t pool_id, const VipPool&, Ipv4Address dip, double) {
    const Ipv4Address vip{static_cast<std::uint32_t>(
        (pool_id & kVipWidePoolBit) != 0 ? pool_id & 0xffffffffULL : pool_id >> 16)};
    const std::size_t evicted = flow_table_.erase_if([&](const FiveTuple& tuple,
                                                         const FlowPin& pin) {
      return tuple.dst == vip && pin.dip == dip;
    });
    if (evicted > 0) {
      // flow_evictions stays the inclusive total; flow_dip_kills splits out
      // the §5.1 slice so chaos reports can tell cap shedding from DIP loss.
      if (tm_flow_evictions_ != nullptr) tm_flow_evictions_->inc(evicted);
      if (tm_flow_dip_kills_ != nullptr) tm_flow_dip_kills_->inc(evicted);
    }
    refresh_size_gauge();
  }

  // The decision core: pin hit -> pinned DIP, else hash-select (the exact
  // bucket layout every HMux computes, §3.3.1) and pin. Purity root
  // (DESIGN.md §14): everything reachable except the allow-listed cap/grow
  // cold paths must stay allocation/lock/clock/stdio-free.
  DUET_HOT bool decide(std::uint64_t, const VipPool& pool, const FiveTuple& tuple,
                       double now_us, Ipv4Address* chosen, bool* pinned) {
    *pinned = false;
    FlowPin* pin = flow_table_.find(tuple);
    if (pin != nullptr) {
      *chosen = pin->dip;
      pin->last_seen_us = now_us;
      return true;
    }
    const Ipv4Address dip = pool.dips[pool.group.select(hasher_.hash(tuple))];
    *flow_table_.try_emplace(tuple).first = FlowPin{dip, now_us};
    *pinned = true;
    if (config_.smux_flow_table_max > 0 && flow_table_.size() > config_.smux_flow_table_max) {
      enforce_flow_cap(now_us);
    }
    *chosen = dip;
    return true;
  }

  std::size_t decision_state_bytes() const noexcept {
    return flow_table_.capacity() *
           sizeof(util::FlatTable<FiveTuple, FlowPin>::Slot);
  }

  // --- hot-path helpers (Smux::process_batch) ---------------------------------
  DUET_HOT void prefetch(const FiveTuple& tuple) const { flow_table_.prefetch(tuple); }

  // --- flow-table hygiene (see smux.h for the eviction contract) --------------
  std::size_t expire_flows(double now_us, double idle_us);

  struct EvictStats {
    std::size_t scanned = 0;
    std::size_t evicted = 0;
  };
  EvictStats expire_flows_step(double now_us, double idle_us, std::size_t max_slots);

  std::size_t flow_table_size() const noexcept { return flow_table_.size(); }

  // Flow-table telemetry: flow_evictions, flow_scan_slots counters;
  // flow_table_size, flow_scan_max_slots gauges (see Smux::bind_telemetry).
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix);

  // Batched gauge update: decide() leaves the size gauge alone so a batch
  // pays one atomic store, not one per pin (Smux flushes after the batch).
  void refresh_size_gauge() {
    if (tm_flow_table_size_ != nullptr) {
      tm_flow_table_size_->set(static_cast<double>(flow_table_.size()));
    }
  }

 private:
  struct FlowPin {
    Ipv4Address dip;
    double last_seen_us = 0.0;
  };

  // Called when an insert pushes the table past smux_flow_table_max: expire
  // idle pins, then shed the coldest survivors down to the cap. Ties on
  // last-seen break by tuple order, so the shed set is independent of table
  // iteration order.
  void enforce_flow_cap(double now_us);

  FlowHasher hasher_;
  DuetConfig config_;
  telemetry::Counter* tm_flow_evictions_ = nullptr;
  telemetry::Counter* tm_flow_dip_kills_ = nullptr;
  telemetry::Counter* tm_flow_scan_slots_ = nullptr;
  telemetry::Gauge* tm_flow_table_size_ = nullptr;
  telemetry::Gauge* tm_flow_scan_max_ = nullptr;

  // Connection pinning: 5-tuple -> chosen DIP + idle timestamp.
  util::FlatTable<FiveTuple, FlowPin> flow_table_;
  // expire_flows_step's persistent position.
  std::size_t scan_cursor_ = 0;
  std::size_t scan_max_slots_ = 0;
};

}  // namespace duet
