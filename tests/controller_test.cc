// Tests for the Duet controller (Fig 9) and the Ananta baseline pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ananta/ananta.h"
#include "duet/controller.h"
#include "workload/tracegen.h"

namespace duet {
namespace {

const Ipv4Prefix kAgg{Ipv4Address{100, 0, 0, 0}, 8};

Packet packet_to(Ipv4Address dst, std::uint16_t sport = 999) {
  return Packet{FiveTuple{Ipv4Address(172, 16, 9, 9), dst, sport, 80, IpProto::kTcp}, 1500};
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : fabric_(build_fattree(FatTreeParams::scaled(3, 4, 3))),
        controller_(fabric_, DuetConfig{}, FlowHasher{7}, 11) {
    controller_.deploy_smuxes({fabric_.tors[0], fabric_.tors[5]}, kAgg);
    trace_params_.vip_count = 120;
    trace_params_.total_gbps = 200.0;
    trace_params_.epochs = 3;
    trace_params_.max_dips = 60;
    trace_ = generate_trace(fabric_, trace_params_);
    // Register the trace's VIPs with the controller so demand ids match.
    for (const auto& v : trace_.vips) {
      const VipId id = controller_.add_vip(v.vip, v.dips);
      EXPECT_EQ(id, v.id);  // both allocate sequentially from 0
    }
  }

  FatTree fabric_;
  DuetController controller_;
  TraceParams trace_params_;
  Trace trace_;
};

TEST_F(ControllerTest, NewVipsStartOnSmuxes) {
  for (const auto& v : trace_.vips) {
    EXPECT_EQ(controller_.owner_of(v.vip), DuetController::Owner::kSmux);
  }
  auto p = packet_to(trace_.vips[0].vip);
  const auto dip = controller_.load_balance(p);
  ASSERT_TRUE(dip.has_value());
  const auto& dips = trace_.vips[0].dips;
  EXPECT_NE(std::find(dips.begin(), dips.end(), *dip), dips.end());
}

TEST_F(ControllerTest, EpochMovesTrafficOntoHmuxes) {
  const auto demands = build_demands(fabric_, trace_, 0);
  const auto report = controller_.run_epoch(demands);
  EXPECT_GT(report.hmux_fraction, 0.8);
  // The heaviest VIP must now be served by a hardware mux.
  EXPECT_EQ(controller_.owner_of(trace_.vips[0].vip), DuetController::Owner::kHmux);
  auto p = packet_to(trace_.vips[0].vip);
  const auto dip = controller_.load_balance(p);
  ASSERT_TRUE(dip.has_value());
}

TEST_F(ControllerTest, RoutingViewsMatchOwnership) {
  const auto demands = build_demands(fabric_, trace_, 0);
  controller_.run_epoch(demands);
  for (const auto& v : trace_.vips) {
    const auto best = controller_.routing().rib(0).best_prefix(v.vip);
    ASSERT_TRUE(best.has_value()) << "VIP with no route";
    if (controller_.owner_of(v.vip) == DuetController::Owner::kHmux) {
      EXPECT_EQ(best->length(), 32);
    } else {
      EXPECT_EQ(*best, kAgg);
    }
  }
}

TEST_F(ControllerTest, ConnectionsSurviveEpochMigration) {
  // The shared-hash invariant end to end: DIP choice before and after the
  // VIP moves from SMux to HMux must match for the same 5-tuple.
  std::unordered_map<std::uint16_t, Ipv4Address> before;
  const auto vip = trace_.vips[0].vip;
  for (std::uint16_t sp = 1; sp <= 200; ++sp) {
    auto p = packet_to(vip, sp);
    const auto dip = controller_.load_balance(p);
    ASSERT_TRUE(dip.has_value());
    before[sp] = *dip;
  }
  controller_.run_epoch(build_demands(fabric_, trace_, 0));
  ASSERT_EQ(controller_.owner_of(vip), DuetController::Owner::kHmux);
  for (std::uint16_t sp = 1; sp <= 200; ++sp) {
    auto p = packet_to(vip, sp);
    const auto dip = controller_.load_balance(p);
    ASSERT_TRUE(dip.has_value());
    EXPECT_EQ(*dip, before[sp]) << "connection remapped by migration, sport " << sp;
  }
}

TEST_F(ControllerTest, SwitchFailureFallsBackToSmux) {
  controller_.run_epoch(build_demands(fabric_, trace_, 0));
  const auto vip = trace_.vips[0].vip;
  const auto home = controller_.hmux_home(vip);
  ASSERT_TRUE(home.has_value());
  controller_.handle_switch_failure(*home);
  EXPECT_EQ(controller_.owner_of(vip), DuetController::Owner::kSmux);
  auto p = packet_to(vip);
  EXPECT_TRUE(controller_.load_balance(p).has_value());
  // The dead switch must not be chosen again next epoch.
  controller_.run_epoch(build_demands(fabric_, trace_, 1));
  const auto new_home = controller_.hmux_home(vip);
  if (new_home.has_value()) {
    EXPECT_NE(*new_home, *home);
  }
}

TEST_F(ControllerTest, SmuxFailureKeepsServiceViaRemainingSmuxes) {
  const auto vip = trace_.vips[5].vip;
  controller_.handle_smux_failure(0);
  auto p = packet_to(vip);
  EXPECT_TRUE(controller_.load_balance(p).has_value());
}

TEST_F(ControllerTest, DipAdditionBouncesVipThroughSmux) {
  controller_.run_epoch(build_demands(fabric_, trace_, 0));
  const auto vip = trace_.vips[0].vip;
  ASSERT_EQ(controller_.owner_of(vip), DuetController::Owner::kHmux);
  controller_.add_dip(vip, fabric_.servers.back());
  // §5.2: VIP leaves the HMux so the DIP set can grow safely.
  EXPECT_EQ(controller_.owner_of(vip), DuetController::Owner::kSmux);
  auto p = packet_to(vip);
  EXPECT_TRUE(controller_.load_balance(p).has_value());
  // Next epoch moves it back to hardware.
  controller_.run_epoch(build_demands(fabric_, trace_, 1));
  EXPECT_EQ(controller_.owner_of(vip), DuetController::Owner::kHmux);
}

TEST_F(ControllerTest, DipRemovalKeepsVipOnHmux) {
  controller_.run_epoch(build_demands(fabric_, trace_, 0));
  const auto vip = trace_.vips[0].vip;
  const auto dips = trace_.vips[0].dips;
  ASSERT_GT(dips.size(), 1u);
  controller_.remove_dip(vip, dips[0]);
  EXPECT_EQ(controller_.owner_of(vip), DuetController::Owner::kHmux);
  for (std::uint16_t sp = 1; sp <= 100; ++sp) {
    auto p = packet_to(vip, sp);
    const auto dip = controller_.load_balance(p);
    ASSERT_TRUE(dip.has_value());
    EXPECT_NE(*dip, dips[0]);
  }
}

TEST_F(ControllerTest, UnhealthyDipReportRemovesIt) {
  const auto vip = trace_.vips[1].vip;
  const auto bad = trace_.vips[1].dips[0];
  controller_.report_dip_health(vip, bad, /*healthy=*/false);
  for (std::uint16_t sp = 1; sp <= 100; ++sp) {
    auto p = packet_to(vip, sp);
    const auto dip = controller_.load_balance(p);
    ASSERT_TRUE(dip.has_value());
    EXPECT_NE(*dip, bad);
  }
}

TEST_F(ControllerTest, RemoveVipWithdrawsEverything) {
  controller_.run_epoch(build_demands(fabric_, trace_, 0));
  const auto vip = trace_.vips[0].vip;
  controller_.remove_vip(vip);
  EXPECT_EQ(controller_.owner_of(vip), DuetController::Owner::kNone);
  auto p = packet_to(vip);
  // The aggregate still matches (SMuxes announce it), but no SMux knows the
  // VIP, so the packet is dropped.
  EXPECT_FALSE(controller_.load_balance(p).has_value());
}

TEST_F(ControllerTest, PortRulesFollowTheVipAcrossMuxTypes) {
  // A (vip, port) pool must be honored on the SMuxes AND keep working after
  // the VIP moves to hardware (Â§5.2 port-based LB).
  const auto vip = trace_.vips[0].vip;
  const std::vector<Ipv4Address> ftp_pool{fabric_.servers[100], fabric_.servers[101]};
  controller_.install_port_rule(vip, 21, ftp_pool);

  auto check = [&](const char* when) {
    for (std::uint16_t sp = 1; sp <= 60; ++sp) {
      Packet ftp{FiveTuple{Ipv4Address(172, 16, 9, 9), vip, sp, 21, IpProto::kTcp}, 64};
      const auto dip = controller_.load_balance(ftp);
      ASSERT_TRUE(dip.has_value()) << when;
      EXPECT_NE(std::find(ftp_pool.begin(), ftp_pool.end(), *dip), ftp_pool.end())
          << when << ", sport " << sp;
      Packet http{FiveTuple{Ipv4Address(172, 16, 9, 9), vip, sp, 80, IpProto::kTcp}, 64};
      const auto hdip = controller_.load_balance(http);
      ASSERT_TRUE(hdip.has_value()) << when;
      EXPECT_EQ(std::find(ftp_pool.begin(), ftp_pool.end(), *hdip), ftp_pool.end())
          << when << ": HTTP flow landed in the FTP pool";
    }
  };
  check("on SMux");
  controller_.run_epoch(build_demands(fabric_, trace_, 0));
  ASSERT_EQ(controller_.owner_of(vip), DuetController::Owner::kHmux);
  check("on HMux");

  controller_.remove_port_rule(vip, 21);
  Packet b{FiveTuple{Ipv4Address(172, 16, 9, 9), vip, 7, 21, IpProto::kTcp}, 64};
  const auto after = controller_.load_balance(b);
  ASSERT_TRUE(after.has_value());
  // With the rule gone, port 21 uses the VIP-wide pool again.
  EXPECT_EQ(std::find(ftp_pool.begin(), ftp_pool.end(), *after), ftp_pool.end());
}

TEST_F(ControllerTest, WeightChangeBouncesThroughSmuxAndSkewsSplit) {
  controller_.run_epoch(build_demands(fabric_, trace_, 0));
  const auto& v = trace_.vips[0];
  ASSERT_GE(v.dips.size(), 2u);
  std::vector<std::uint32_t> weights(v.dips.size(), 1);
  weights[0] = 5;
  controller_.set_dip_weights(v.vip, weights);
  EXPECT_EQ(controller_.owner_of(v.vip), DuetController::Owner::kSmux);  // bounced

  controller_.run_epoch(build_demands(fabric_, trace_, 1));
  ASSERT_EQ(controller_.owner_of(v.vip), DuetController::Owner::kHmux);

  std::size_t to_heavy = 0;
  const std::uint32_t total = 4000;
  for (std::uint32_t i = 0; i < total; ++i) {
    Packet p{FiveTuple{Ipv4Address{(172u << 24) + i}, v.vip,
                       static_cast<std::uint16_t>(i), 80, IpProto::kTcp},
             64};
    const auto dip = controller_.load_balance(p);
    ASSERT_TRUE(dip.has_value());
    to_heavy += (*dip == v.dips[0]);
  }
  const double expect = 5.0 / static_cast<double>(4 + v.dips.size());  // 5/(5+(n-1))
  EXPECT_NEAR(static_cast<double>(to_heavy) / total, expect, 0.05);
}

TEST_F(ControllerTest, DipChurnKeepsWcmpWeightsAlignedWithThePool) {
  const Ipv4Address vip{100, 254, 254, 1};
  const Ipv4Address a{10, 254, 0, 1}, b{10, 254, 0, 2}, c{10, 254, 0, 3};
  const Ipv4Address d{10, 254, 0, 4}, e{10, 254, 0, 5};
  controller_.add_vip(vip, {a, b, c});
  controller_.set_dip_weights(vip, {1, 2, 3});
  const auto aligned = [&] {
    return controller_.weights_of(vip).size() == controller_.dips_of(vip).size();
  };
  ASSERT_TRUE(aligned());

  // A DIP added to a weighted pool joins with weight 1.
  controller_.add_dip(vip, d);
  EXPECT_TRUE(aligned());
  EXPECT_EQ(controller_.weights_of(vip), (std::vector<std::uint32_t>{1, 2, 3, 1}));

  // A removed DIP takes its own weight with it...
  controller_.remove_dip(vip, b);
  EXPECT_TRUE(aligned());
  EXPECT_EQ(controller_.weights_of(vip), (std::vector<std::uint32_t>{1, 3, 1}));

  // ...so a later addition does not inherit it.
  controller_.add_dip(vip, e);
  EXPECT_TRUE(aligned());
  EXPECT_EQ(controller_.weights_of(vip), (std::vector<std::uint32_t>{1, 3, 1, 1}));

  // The SMuxes serve the reshaped pool, and only it.
  const std::vector<Ipv4Address> pool{a, c, d, e};
  for (std::uint16_t sport = 1; sport <= 64; ++sport) {
    auto p = packet_to(vip, sport);
    const auto dip = controller_.load_balance(p);
    ASSERT_TRUE(dip.has_value());
    EXPECT_NE(std::find(pool.begin(), pool.end(), *dip), pool.end());
  }
}

TEST_F(ControllerTest, StickyEpochsShuffleLittle) {
  controller_.run_epoch(build_demands(fabric_, trace_, 0));
  const auto r1 = controller_.run_epoch(build_demands(fabric_, trace_, 1));
  EXPECT_LT(r1.migration.shuffled_fraction(), 0.25);
  const auto r2 = controller_.run_epoch(build_demands(fabric_, trace_, 2));
  EXPECT_LT(r2.migration.shuffled_fraction(), 0.25);
}

// Large-fanout tests need more servers than the small fixture fabric has.
class FanoutControllerTest : public ::testing::Test {
 protected:
  FanoutControllerTest()
      : fabric_(build_fattree(FatTreeParams::scaled(4, 8, 4))),
        controller_(fabric_, DuetConfig{}, FlowHasher{7}, 11) {
    controller_.deploy_smuxes({fabric_.tors[0], fabric_.tors[9]}, kAgg);
  }

  // Registers a fat VIP and a demand heavy enough to land on hardware.
  VipDemand register_fat_vip(Ipv4Address vip, std::size_t dip_count, double gbps) {
    std::vector<Ipv4Address> many;
    for (std::size_t i = 0; i < dip_count; ++i) many.push_back(fabric_.servers[i]);
    const VipId id = controller_.add_vip(vip, many);
    VipDemand d;
    d.id = id;
    d.vip = vip;
    d.total_gbps = gbps;
    d.dip_count = many.size();
    d.ingress_gbps = {{fabric_.cores[0], gbps / 2}, {fabric_.cores[1], gbps / 2}};
    std::unordered_map<SwitchId, double> per_tor;
    for (const auto dip : many) per_tor[fabric_.topo.tor_of(dip)] += gbps / many.size();
    for (const auto& [tor, g] : per_tor) d.dip_tor_gbps.push_back({tor, g});
    dips_ = std::move(many);
    return d;
  }

  FatTree fabric_;
  DuetController controller_;
  std::vector<Ipv4Address> dips_;
};

TEST_F(FanoutControllerTest, LargeFanoutVipServedThroughTips) {
  // A VIP with 700 backends (> the 512-entry tunneling table) must still be
  // servable from hardware, via the Â§5.2 TIP double bounce.
  const Ipv4Address fat_vip{100, 0, 99, 1};
  const auto d = register_fat_vip(fat_vip, 700, 50.0);
  controller_.run_epoch({d});
  ASSERT_EQ(controller_.owner_of(fat_vip), DuetController::Owner::kHmux);

  // End to end: every flow reaches one of the 700 DIPs, spread widely.
  std::unordered_set<Ipv4Address> reached;
  for (std::uint32_t i = 1; i <= 4000; ++i) {
    auto p = packet_to(fat_vip, static_cast<std::uint16_t>(i));
    p.tuple().src = Ipv4Address{(172u << 24) + i};
    const auto dip = controller_.load_balance(p);
    ASSERT_TRUE(dip.has_value()) << "flow " << i;
    ASSERT_NE(std::find(dips_.begin(), dips_.end(), *dip), dips_.end());
    reached.insert(*dip);
  }
  EXPECT_GT(reached.size(), 500u) << "fanout should spread across the whole pool";

  // Teardown is clean: removal leaves no TIP state behind anywhere.
  controller_.remove_vip(fat_vip);
  for (SwitchId s = 0; s < fabric_.topo.switch_count(); ++s) {
    const auto* hmux = controller_.hmux_at(s);
    if (hmux != nullptr) {
      EXPECT_EQ(hmux->dataplane().vip_count(), 0u) << "switch " << s;
    }
  }
}

TEST_F(FanoutControllerTest, FanoutPartitionHostFailureFallsBackToSmux) {
  const Ipv4Address fat_vip{100, 0, 99, 2};
  const auto d = register_fat_vip(fat_vip, 600, 30.0);
  controller_.run_epoch({d});
  ASSERT_EQ(controller_.owner_of(fat_vip), DuetController::Owner::kHmux);

  // Find a switch hosting one of the VIP's TIP partitions and kill it: the
  // primary stays alive, but the VIP must retreat to the SMuxes.
  const auto primary = controller_.hmux_home(fat_vip);
  ASSERT_TRUE(primary.has_value());
  SwitchId partition_host = kInvalidSwitch;
  for (SwitchId s = 0; s < fabric_.topo.switch_count(); ++s) {
    if (s == *primary) continue;
    const auto* hmux = controller_.hmux_at(s);
    if (hmux != nullptr && hmux->dataplane().vip_count() > 0) {
      partition_host = s;
      break;
    }
  }
  ASSERT_NE(partition_host, kInvalidSwitch);
  controller_.handle_switch_failure(partition_host);
  EXPECT_EQ(controller_.owner_of(fat_vip), DuetController::Owner::kSmux);
  auto p = packet_to(fat_vip);
  EXPECT_TRUE(controller_.load_balance(p).has_value());
}

TEST_F(ControllerTest, SmuxesNeededReportedPositive) {
  const auto r = controller_.run_epoch(build_demands(fabric_, trace_, 0));
  EXPECT_GE(r.smuxes_needed, 1u);
}

// --- Ananta baseline ---------------------------------------------------------------

TEST(AnantaModel, SmuxCountScalesLinearly) {
  DuetConfig cfg;
  AnantaModel model{cfg};
  // §2.2: 15 Tbps at 3.6 Gbps per SMux needs >4000 SMuxes.
  EXPECT_GT(model.smuxes_required(15000.0, cfg.smux_capacity_gbps()), 4000u);
  EXPECT_EQ(model.smuxes_required(36.0, 3.6), 10u);
  EXPECT_EQ(model.smuxes_required(0.0, 3.6), 1u);
}

TEST(AnantaModel, LatencyFallsWithMoreSmuxes) {
  DuetConfig cfg;
  AnantaModel model{cfg};
  const double ten_tbps = 10'000.0;
  const double lat_2k = model.median_latency_us(ten_tbps, 2000);
  const double lat_5k = model.median_latency_us(ten_tbps, 5000);
  const double lat_15k = model.median_latency_us(ten_tbps, 15000);
  EXPECT_GT(lat_2k, lat_5k);
  EXPECT_GT(lat_5k, lat_15k);
  // Fig 17: with few SMuxes latency is milliseconds; with 15K it approaches
  // the DC RTT + base SMux latency (~600 µs).
  EXPECT_GT(lat_2k, 5000.0);
  EXPECT_LT(lat_15k, 700.0);
}

TEST(AnantaPool, ProcessesViaEcmpAndAgreesWithVipMapping) {
  DuetConfig cfg;
  AnantaPool pool{8, FlowHasher{3}, cfg};
  const Ipv4Address vip{100, 0, 0, 9};
  const std::vector<Ipv4Address> dips{Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2)};
  pool.set_vip(vip, dips);
  std::unordered_map<Ipv4Address, int> counts;
  for (std::uint16_t sp = 1; sp <= 1000; ++sp) {
    auto p = packet_to(vip, sp);
    const auto dip = pool.process(p);
    ASSERT_TRUE(dip.has_value());
    ++counts[*dip];
  }
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_NEAR(counts[dips[0]], 500, 120);
}

TEST(AnantaPool, FastPathBypassesMuxes) {
  DuetConfig cfg;
  AnantaPool pool{2, FlowHasher{3}, cfg};
  const Ipv4Address vip{100, 0, 0, 9};
  pool.set_vip(vip, {Ipv4Address(10, 0, 0, 1)});
  pool.enable_fast_path(true);
  auto p = packet_to(vip);
  const auto dip = pool.process(p, /*intra_dc=*/true);
  ASSERT_TRUE(dip.has_value());
  EXPECT_FALSE(p.encapsulated());  // went direct, no IP-in-IP
  auto p2 = packet_to(vip);
  pool.process(p2, /*intra_dc=*/false);  // Internet traffic still muxes
  EXPECT_TRUE(p2.encapsulated());
}

TEST(AnantaPool, RemoveVipStopsService) {
  DuetConfig cfg;
  AnantaPool pool{2, FlowHasher{3}, cfg};
  const Ipv4Address vip{100, 0, 0, 9};
  pool.set_vip(vip, {Ipv4Address(10, 0, 0, 1)});
  pool.remove_vip(vip);
  auto p = packet_to(vip);
  EXPECT_FALSE(pool.process(p).has_value());
}

}  // namespace
}  // namespace duet
