// The per-flow DIP-selection stage of an SMux, and what its two engines
// share: the resolved DIP pool (VipPool) and the pool ids.
//
// The SMux pipeline has two stages (Fig 8 / §5.2):
//   1. the POOL FRONT-END — which DIP pool applies to this packet: the
//      (vip, dst_port) ACL rule if one exists, else the VIP-wide pool. This
//      stage is identical for every engine and stays in Smux;
//   2. the DECISION — which DIP within the resolved pool serves this flow,
//      and how that choice stays stable across DIP updates (PCC, §5.2's
//      no-remap guarantee). This stage is the engine.
//
// Engines (Smux calls each through its concrete type):
//   * StatefulEngine (duet/stateful_engine.h): first packet hashes through
//     the switch-mirrored ResilientHashGroup, then a per-connection flow
//     table pins the choice. O(concurrent flows) memory — the SYN-flood
//     exhaustion surface (smux_flow_table_max + eviction knobs).
//   * stateless::StatelessEngine (stateless/stateless_engine.h): a versioned
//     bucket map from connection hash to DIP with per-bucket epoch stamps.
//     O(DIPs) memory regardless of flow count; no per-flow entries to flood.
//
// Both engines provide the same members, with this contract:
//   * pool_updated(pool_id, pool, now_us): the pool was created or its slot
//     layout rebuilt (set_vip / set_port_rule / weight change); the `pool`
//     reference is NOT retained past the call.
//   * pool_removed(pool_id, vip, now_us): the pool (and, for VIP-wide pools,
//     the VIP) went away entirely.
//   * dip_removed(pool_id, pool, dip, now_us): a DIP was removed in place
//     (slots killed, layout otherwise untouched). Connections to `dip`
//     terminate (§5.1) and flows on surviving DIPs must not move.
//   * decide(pool_id, pool, tuple, now_us, &chosen, &pinned): the hot path.
//     It must be deterministic: the same (pool content, tuple, call history)
//     always yields the same DIP — the bit-for-bit sweep contract
//     (DESIGN.md §9) and the golden traces depend on it. `pinned` reports
//     whether the call created per-flow state (the caller owns flow-pin
//     telemetry); a stateless engine always reports false. Returns false
//     only when the engine cannot serve the pool (never for a live pool).
//   * decision_state_bytes(): resident engine-owned decision state (per-flow
//     tables, or version/stamp arrays), excluding the shared pools.
//   * Pool lifecycle calls run on the control path; decide() is the only
//     hot-path entry. Nothing is thread-safe — an engine belongs to one Smux
//     replica, one worker (§2.2 scale-out).
#pragma once

#include <cstdint>
#include <vector>

#include "dataplane/resilient_hash.h"
#include "net/ip.h"
#include "util/logging.h"

namespace duet {

// A resolved DIP pool: the WCMP slot expansion plus the switch-mirrored
// resilient-hash group over those slots (§3.3.1 "same hash function" means
// same *bucket layout*; see smux.h). Shared by the front-end and both
// engines; built once per set_vip/set_port_rule.
struct VipPool {
  // Member slots; a removed DIP keeps its slot (dead) so surviving slots —
  // and therefore surviving flows — never move, mirroring the switch.
  std::vector<Ipv4Address> dips;
  ResilientHashGroup group{1};

  // WCMP slot expansion, identical to the switch's tunneling-table layout
  // (a DIP with weight w occupies w slots).
  static VipPool build(const std::vector<Ipv4Address>& dips,
                       const std::vector<std::uint32_t>& weights, std::uint64_t salt) {
    DUET_CHECK(!dips.empty()) << "pool with no DIPs";
    DUET_CHECK(weights.empty() || weights.size() == dips.size())
        << "weights/dips size mismatch";
    VipPool pool;
    for (std::size_t i = 0; i < dips.size(); ++i) {
      const std::uint32_t w = weights.empty() ? 1 : weights[i];
      DUET_CHECK(w > 0) << "zero WCMP weight";
      for (std::uint32_t r = 0; r < w; ++r) pool.dips.push_back(dips[i]);
    }
    pool.group = ResilientHashGroup(pool.dips.size(), 4, salt);
    return pool;
  }
};

// Stable pool identifiers shared between the front-end and the engines.
// Port rules pack as (vip << 16 | port); VIP-wide pools set the top bit so
// the two spaces never collide (VIP values fit 32 bits, ports 16).
constexpr std::uint64_t kVipWidePoolBit = 1ULL << 63;

constexpr std::uint64_t port_rule_pool_id(Ipv4Address vip, std::uint16_t port) noexcept {
  return (static_cast<std::uint64_t>(vip.value()) << 16) | port;
}
constexpr std::uint64_t vip_pool_id(Ipv4Address vip) noexcept {
  return kVipWidePoolBit | vip.value();
}

}  // namespace duet
