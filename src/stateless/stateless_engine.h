// StatelessEngine: O(1)-in-flows DIP decisions (Concury, arXiv:1908.01889).
//
// One VersionedPoolMap per pool (VIP-wide or port-rule), keyed by the same
// pool ids the Smux front-end resolves. Per packet: FlowHasher over the
// 5-tuple (the §3.3.1 shared hash) -> the pool map's bucket -> the bucket's
// stamped map version -> DIP. No flow table, no pins, no eviction: the
// engine's memory is a pure function of the DIP sets, so a SYN flood finds
// nothing to exhaust and established flows nothing to lose (DESIGN.md §13).
//
// PCC across DIP churn comes from the map's drain-stamped versioning (see
// versioned_map.h); this class is the pool directory plus telemetry.
//
// Telemetry is accumulated in plain locals inside the maps and flushed once
// per batch by the Smux front-end (flush_telemetry), mirroring the batched
// counter discipline of DESIGN.md §12. Counters: stateless.lookups,
// stateless.held_lookups, stateless.adoptions, stateless.version_builds,
// stateless.noop_builds, stateless.retired_versions,
// stateless.forced_adoptions, stateless.dead_owner_flips,
// stateless.bucket_regrows. Gauges: stateless.state_bytes,
// stateless.versions_retained, stateless.pools.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "duet/config.h"
#include "duet/decision_engine.h"
#include "net/hash.h"
#include "net/packet.h"
#include "stateless/versioned_map.h"
#include "telemetry/metrics.h"
#include "util/flat_table.h"
#include "util/hot.h"
#include "util/mix.h"

namespace duet::stateless {

class StatelessEngine {
 public:
  StatelessEngine(FlowHasher hasher, const DuetConfig& config)
      : hasher_(hasher),
        knobs_{config.stateless_drain_idle_us, config.stateless_buckets_per_dip,
               config.stateless_min_buckets, config.stateless_max_versions} {}

  // --- engine contract (duet/decision_engine.h) --------------------------------
  void pool_updated(std::uint64_t pool_id, const VipPool& pool, double now_us);
  void pool_removed(std::uint64_t pool_id, Ipv4Address vip, double now_us);
  void dip_removed(std::uint64_t pool_id, const VipPool& pool, Ipv4Address dip,
                   double now_us);

  // Purity root (DESIGN.md §14): the whole stateless lookup path — directory
  // find, bucket hash, stamped-version read — must stay allocation-free.
  DUET_HOT bool decide(std::uint64_t pool_id, const VipPool&, const FiveTuple& tuple,
                       double now_us, Ipv4Address* chosen, bool* pinned) {
    *pinned = false;  // never any per-flow state
    auto* map = pools_.find(pool_id);
    if (map == nullptr || !(*map)->built()) return false;
    *chosen = (*map)->lookup(hasher_.hash(tuple), now_us);
    return true;
  }

  std::size_t decision_state_bytes() const noexcept;

  // --- introspection / tests ---------------------------------------------------
  std::size_t pool_count() const noexcept { return pools_.size(); }
  // The pool's map, nullptr when the pool is unknown. Test/bench access.
  const VersionedPoolMap* pool_map(std::uint64_t pool_id) const {
    const auto* map = pools_.find(pool_id);
    return map == nullptr ? nullptr : map->get();
  }
  VersionedPoolMap* mutable_pool_map(std::uint64_t pool_id) {
    auto* map = pools_.find(pool_id);
    return map == nullptr ? nullptr : map->get();
  }

  // Aggregated per-map stats (control path; walks every pool).
  VersionedPoolMap::Stats aggregate_stats() const;

  // --- telemetry ---------------------------------------------------------------
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix);
  // Pushes counter deltas + gauges; called once per batch by the front-end.
  void flush_telemetry();

 private:
  FlowHasher hasher_;
  StatelessKnobs knobs_;
  // unique_ptr values keep map addresses stable across directory rehashes
  // (lookup() mutates the map; FlatTable moves values on growth).
  util::FlatTable<std::uint64_t, std::unique_ptr<VersionedPoolMap>, Mix64Hash> pools_;

  telemetry::Counter* tm_lookups_ = nullptr;
  telemetry::Counter* tm_held_ = nullptr;
  telemetry::Counter* tm_adoptions_ = nullptr;
  telemetry::Counter* tm_builds_ = nullptr;
  telemetry::Counter* tm_noop_builds_ = nullptr;
  telemetry::Counter* tm_retired_ = nullptr;
  telemetry::Counter* tm_forced_ = nullptr;
  telemetry::Counter* tm_dead_flips_ = nullptr;
  telemetry::Counter* tm_regrows_ = nullptr;
  telemetry::Gauge* tm_state_bytes_ = nullptr;
  telemetry::Gauge* tm_versions_ = nullptr;
  telemetry::Gauge* tm_pools_ = nullptr;
  VersionedPoolMap::Stats flushed_;  // last flushed totals (delta base)
};

}  // namespace duet::stateless
