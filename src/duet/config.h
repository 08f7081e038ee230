// Calibrated constants for the Duet reproduction.
//
// Every number here is taken from the paper (section references inline); the
// benches print results in the same units the paper reports, so keeping the
// constants in one place makes the calibration auditable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "routing/bgp.h"

namespace duet {

// Which decision engine an SMux runs behind the shared port-rule/VIP
// front-end (duet/decision_engine.h):
//   * kStateful  — per-connection flow-table pins (Ananta §2.2): exact PCC,
//     O(concurrent flows) memory, SYN-floodable (smux_flow_table_max caps
//     the damage at the price of evicting real flows);
//   * kStateless — versioned bucket map with per-bucket epoch stamps
//     (stateless/stateless_engine.h, after Concury): O(DIPs) memory flat in
//     flows, zero per-flow state for a flood to exhaust; established flows
//     keep their DIP because a moved bucket adopts the newest map version
//     only after stateless_drain_idle_us of bucket silence.
// Selectable globally here or per VIP via Smux::set_engine_override.
enum class SmuxEngine : std::uint8_t { kStateful = 0, kStateless = 1 };

constexpr const char* to_string(SmuxEngine e) noexcept {
  return e == SmuxEngine::kStateless ? "stateless" : "stateful";
}

// Parses the `smux_engine=stateful|stateless` knob (duetctl --engine, env
// overrides). Returns false on an unknown name, leaving *out untouched.
inline bool parse_smux_engine(const char* name, SmuxEngine* out) noexcept {
  if (name == nullptr) return false;
  if (std::strcmp(name, "stateful") == 0) {
    *out = SmuxEngine::kStateful;
    return true;
  }
  if (std::strcmp(name, "stateless") == 0) {
    *out = SmuxEngine::kStateless;
    return true;
  }
  return false;
}

struct DuetConfig {
  // --- SMux (Ananta software mux), §2.2 / Fig 1 -----------------------------
  // CPU saturates at 300 Kpps; with 1500-byte packets that is 3.6 Gbps.
  double smux_capacity_pps = 300e3;
  double smux_packet_bytes = 1500.0;
  // Added latency at zero load: median 196 us, 90th percentile ~1 ms.
  double smux_base_latency_us = 196.0;
  double smux_latency_sigma = 1.25;  // lognormal sigma giving p90/p50 ~ 5
  // Queue-limited latency once the CPU saturates (Fig 11 shows 20-30 ms).
  double smux_overload_latency_us = 25e3;

  // --- SMux flow-table hygiene (long-running duetd processes) ----------------
  // Connection pins idle for longer than this are eligible for eviction; a
  // re-pinned live flow maps to the SAME DIP as long as the DIP set is
  // unchanged (deterministic hash), so eviction never breaks the §5.2
  // no-remap guarantee for flows that are actually sending. 0 disables
  // idle-based expiry.
  double smux_flow_idle_us = 120e6;  // 2 minutes
  // Hard cap on flow-table entries; crossing it first expires idle pins,
  // then sheds the coldest survivors. 0 = unbounded (the short-lived sims).
  std::size_t smux_flow_table_max = 1u << 20;

  // --- SMux decision engine (DESIGN.md §13) -----------------------------------
  // Default engine for every pool on every SMux; per-VIP overrides via
  // Smux::set_engine_override. `duetd --engine stateless` flips it for the
  // live runtime.
  SmuxEngine smux_engine = SmuxEngine::kStateful;
  // Stateless engine: a bucket whose map version changed adopts the newest
  // version only once the bucket has seen NO packet for this long — the
  // bucket-granular analogue of flow-table idle eviction (an idle bucket
  // holds no live flows, so flipping it breaks no connection). Matches
  // smux_flow_idle_us by default so both engines age out silence alike.
  double stateless_drain_idle_us = 120e6;  // 2 minutes
  // Bucket-array headroom: buckets per DISTINCT DIP at pool creation (sized
  // next_pow2(buckets_per_dip x dips)). If the DIP count outgrows it 2x the
  // array regrows by PCC-preserving bucket splitting (counted in telemetry).
  // Keyed on DIP cardinality, not WCMP-expanded slots, so weight changes
  // never resize.
  std::size_t stateless_buckets_per_dip = 32;
  std::size_t stateless_min_buckets = 256;
  // Hard cap on retained map versions per pool. A bucket kept busy across
  // many DIP updates pins its old version; past the cap the oldest pinned
  // version is force-retired (its buckets adopt the newest map — a counted,
  // potential PCC break, stateless.forced_adoptions). 0 = unbounded.
  std::size_t stateless_max_versions = 16;

  // --- HMux (switch), §3.1 ---------------------------------------------------
  // "microsecond latency", "high capacity (500 Gbps)".
  double hmux_latency_us = 1.0;
  double hmux_capacity_gbps = 500.0;
  std::size_t host_table_capacity = 16 * 1024;  // global VIP cap on HMuxes
  std::size_t tunnel_table_capacity = 512;      // DIP slots per switch
  std::size_t ecmp_table_capacity = 4 * 1024;

  // --- Network, §2.2 / §4 ------------------------------------------------------
  double dc_rtt_us = 381.0;           // median DC RTT without load balancer
  double indirection_delay_us = 30.0; // extra propagation via HMux detour (<30us)
  double link_headroom = 0.8;         // assignment uses 80 % of link bandwidth

  // --- Probe (ping) path model for the testbed experiments (§7) ----------------
  // Per-switch-hop latency and end-host stack cost; together they put the
  // no-mux testbed RTT in the few-hundred-µs range the paper plots.
  double probe_hop_us = 15.0;
  double probe_stack_us = 120.0;
  // Multiplicative RTT dispersion: each delivered probe's path RTT is scaled
  // by Uniform(1-f, 1+f), modelling queueing and scheduling noise along the
  // hops. Without it the hop+stack model is a constant per path and the
  // Fig 12 RTT histograms collapse to a single bucket (min==p99).
  double probe_jitter_frac = 0.12;

  // --- Assignment / migration, §4 ---------------------------------------------
  double sticky_threshold = 0.05;  // migrate only if MRU improves by 5 %

  // --- Control plane timings (Figs 12-14) --------------------------------------
  ControlPlaneTimings timings;

  double smux_capacity_gbps() const {
    return smux_capacity_pps * smux_packet_bytes * 8.0 / 1e9;
  }
};

}  // namespace duet
