#include "duet/smux.h"

#include <algorithm>
#include <cmath>

#include "stateless/stateless_engine.h"
#include "util/hot.h"
#include "util/logging.h"

namespace duet {

Smux::Smux(std::uint32_t id, FlowHasher hasher, const DuetConfig& config, Ipv4Address self)
    : id_(id), hasher_(hasher), config_(config), self_(self), stateful_(hasher, config) {
  if (config_.smux_engine == SmuxEngine::kStateless) ensure_stateless();
}

Smux::~Smux() = default;
Smux::Smux(Smux&&) noexcept = default;
Smux& Smux::operator=(Smux&&) noexcept = default;

stateless::StatelessEngine& Smux::ensure_stateless() {
  if (stateless_ == nullptr) {
    stateless_ = std::make_unique<stateless::StatelessEngine>(hasher_, config_);
    // Replay every existing pool so the engine can serve it immediately.
    vips_.for_each([&](Ipv4Address vip, const VipPool& pool) {
      stateless_->pool_updated(vip_pool_id(vip), pool, 0.0);
    });
    port_rules_.for_each([&](std::uint64_t pool_id, const VipPool& pool) {
      stateless_->pool_updated(pool_id, pool, 0.0);
    });
    if (registry_ != nullptr) {
      stateless_->bind_telemetry(*registry_, tm_prefix_ + "stateless.");
    }
  }
  return *stateless_;
}

void Smux::set_engine_override(Ipv4Address vip, SmuxEngine engine) {
  engine_overrides_.insert(vip, engine);
  if (engine == SmuxEngine::kStateless) ensure_stateless();
}

void Smux::notify_pool_updated(std::uint64_t pool_id, const VipPool& pool) {
  stateful_.pool_updated(pool_id, pool, 0.0);
  if (stateless_ != nullptr) stateless_->pool_updated(pool_id, pool, 0.0);
}

void Smux::set_vip(Ipv4Address vip, std::vector<Ipv4Address> dips,
                   const std::vector<std::uint32_t>& weights) {
  auto [pool, inserted] =
      vips_.insert(vip, VipPool::build(dips, weights, vip_group_salt(vip.value())));
  (void)inserted;
  notify_pool_updated(vip_pool_id(vip), *pool);
}

void Smux::set_port_rule(Ipv4Address vip, std::uint16_t dst_port,
                         std::vector<Ipv4Address> dips) {
  // Same salt derivation as SwitchDataPlane::install_port_rule.
  const std::uint64_t salt =
      vip_group_salt(vip.value()) ^ (std::uint64_t{dst_port} * 0x100000001ULL);
  const std::uint64_t pool_id = port_rule_pool_id(vip, dst_port);
  auto [pool, inserted] = port_rules_.insert(pool_id, VipPool::build(dips, {}, salt));
  (void)inserted;
  notify_pool_updated(pool_id, *pool);
}

bool Smux::remove_port_rule(Ipv4Address vip, std::uint16_t dst_port) {
  const std::uint64_t pool_id = port_rule_pool_id(vip, dst_port);
  if (!port_rules_.erase(pool_id)) return false;
  stateful_.pool_removed(pool_id, vip, 0.0);
  if (stateless_ != nullptr) stateless_->pool_removed(pool_id, vip, 0.0);
  return true;
}

bool Smux::remove_vip(Ipv4Address vip) {
  // The override goes with the VIP: a VIP added again under the same address
  // starts on the default engine, as a replica rebuilt from the journal does.
  engine_overrides_.erase(vip);
  if (!vips_.erase(vip)) return false;
  stateful_.pool_removed(vip_pool_id(vip), vip, 0.0);
  if (stateless_ != nullptr) stateless_->pool_removed(vip_pool_id(vip), vip, 0.0);
  return true;
}

void Smux::add_dip(Ipv4Address vip, Ipv4Address dip) {
  auto* pool = vips_.find(vip);
  DUET_CHECK(pool != nullptr) << "add_dip on unknown VIP " << vip.to_string();
  pool->dips.push_back(dip);
  pool->group.add_member();
  // Existing connections keep their pins / bucket versions — no remapping
  // (§5.2); the stateless engine builds a new version that steals only the
  // added DIP's share.
  notify_pool_updated(vip_pool_id(vip), *pool);
}

void Smux::remove_dip(Ipv4Address vip, Ipv4Address dip) {
  auto* pool = vips_.find(vip);
  DUET_CHECK(pool != nullptr) << "remove_dip on unknown VIP " << vip.to_string();
  DUET_CHECK(pool->group.member_count() > 1) << "removing last DIP of " << vip.to_string();
  // Kill every member slot carrying this DIP (slots stay in place so the
  // survivors' buckets — and flows — are untouched, as on the switch).
  for (std::uint32_t slot = 0; slot < pool->dips.size(); ++slot) {
    if (pool->dips[slot] == dip && pool->group.member_alive(slot)) {
      pool->group.remove_member(slot);
    }
  }
  // Connections to the removed DIP necessarily terminate (§5.1): the
  // stateful engine erases their pins, the stateless one flips their
  // buckets off the dead owner.
  stateful_.dip_removed(vip_pool_id(vip), *pool, dip, 0.0);
  if (stateless_ != nullptr) stateless_->dip_removed(vip_pool_id(vip), *pool, dip, 0.0);
}

std::size_t Smux::decision_state_bytes() const noexcept {
  return stateful_.decision_state_bytes() +
         (stateless_ != nullptr ? stateless_->decision_state_bytes() : 0);
}

DUET_HOT bool Smux::decide(const FiveTuple& tuple, double now_us, Ipv4Address* chosen,
                           bool* pinned) {
  // Port-specific pool first (the ACL stage of the switch pipeline, Fig 8).
  std::uint64_t pool_id = port_rule_pool_id(tuple.dst, tuple.dst_port);
  const VipPool* pool = port_rules_.find(pool_id);
  if (pool == nullptr) {
    pool = vips_.find(tuple.dst);
    if (pool == nullptr) return false;
    pool_id = vip_pool_id(tuple.dst);
  }
  // Engine dispatch: one null check when no VIP decides statelessly; the
  // stateful path stays a concrete inline call (bench_hotpath's gates).
  if (stateless_ != nullptr && engine_for(tuple.dst) == SmuxEngine::kStateless) {
    if (stateless_->decide(pool_id, *pool, tuple, now_us, chosen, pinned)) return true;
    // Pool not yet replayed into the engine (cannot happen through the
    // public API); fall through to the stateful path rather than drop.
  }
  return stateful_.decide(pool_id, *pool, tuple, now_us, chosen, pinned);
}

bool Smux::process(Packet& packet, double now_us) {
  if (tm_packets_ != nullptr) tm_packets_->inc();
  Ipv4Address chosen;
  bool pinned = false;
  if (!decide(packet.tuple(), now_us, &chosen, &pinned)) {
    if (tm_unknown_vip_ != nullptr) tm_unknown_vip_->inc();
    return false;
  }
  if (pinned) {
    if (tm_flow_pins_ != nullptr) tm_flow_pins_->inc();
    stateful_.refresh_size_gauge();
  }
  if (stateless_ != nullptr) stateless_->flush_telemetry();
  packet.encapsulate(EncapHeader{self_, chosen});
  return true;
}

DUET_HOT std::size_t Smux::process_batch(std::span<const Packet> packets,
                                         std::span<Ipv4Address> dips_out, double now_us) {
  DUET_HOT_CHECK(dips_out.size() >= packets.size(), "process_batch output span too small");
  // Overlap the flow-table misses: by the time the decision pass reaches
  // packet k, its home slot has been in flight for k prefetch distances.
  // (No-op under a purely stateless config: the flow table stays empty.)
  for (const Packet& p : packets) stateful_.prefetch(p.tuple());

  std::uint64_t unknown = 0;
  std::uint64_t pins = 0;
  std::size_t forwarded = 0;
  for (std::size_t k = 0; k < packets.size(); ++k) {
    Ipv4Address chosen{};
    bool pinned = false;
    if (!decide(packets[k].tuple(), now_us, &chosen, &pinned)) {
      ++unknown;
      dips_out[k] = Ipv4Address{};
      continue;
    }
    if (pinned) ++pins;
    dips_out[k] = chosen;
    ++forwarded;
  }

  // One telemetry flush per batch: locals above, atomics here.
  if (tm_packets_ != nullptr) tm_packets_->inc(packets.size());
  if (tm_unknown_vip_ != nullptr && unknown > 0) tm_unknown_vip_->inc(unknown);
  if (pins > 0) {
    if (tm_flow_pins_ != nullptr) tm_flow_pins_->inc(pins);
    stateful_.refresh_size_gauge();
  }
  if (stateless_ != nullptr) stateless_->flush_telemetry();
  return forwarded;
}

void Smux::bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix) {
  registry_ = &registry;
  tm_prefix_ = prefix;
  tm_packets_ = &registry.counter(prefix + "packets");
  tm_unknown_vip_ = &registry.counter(prefix + "unknown_vip");
  tm_flow_pins_ = &registry.counter(prefix + "flow_pins");
  stateful_.bind_telemetry(registry, prefix);
  if (stateless_ != nullptr) stateless_->bind_telemetry(registry, prefix + "stateless.");
}

double Smux::cpu_percent(double offered_pps) const {
  return std::min(100.0, utilization(offered_pps) * 100.0);
}

double Smux::median_added_latency_us(double rho) const {
  if (rho > 1.02) return config_.smux_overload_latency_us;
  // M/M/1-style inflation of the no-load median, clamped at the overload
  // plateau where the NIC queue caps the wait.
  const double inflated = config_.smux_base_latency_us / std::max(0.05, 1.0 - 0.9 * rho);
  return std::min(inflated, config_.smux_overload_latency_us);
}

double Smux::sample_added_latency_us(double rho, Rng& rng) const {
  const double median = median_added_latency_us(rho);
  if (rho > 1.02) {
    // Saturated: queue-dominated, narrow distribution around the plateau.
    return median * rng.uniform_real(0.8, 1.3);
  }
  // Lognormal around the median: exp(mu) = median.
  const double mu = std::log(median);
  const double sample = rng.lognormal(mu, config_.smux_latency_sigma);
  // Physical floor: software forwarding can't beat ~40 us even when lucky.
  return std::max(40.0, std::min(sample, config_.smux_overload_latency_us * 1.5));
}

}  // namespace duet
