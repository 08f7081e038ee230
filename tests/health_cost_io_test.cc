// Tests for the operational modules: health monitoring (§5.1/§6), the cost
// model (§1/§2.2), and trace serialization.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "duet/controller.h"
#include "duet/cost.h"
#include "duet/health.h"
#include "workload/trace_io.h"
#include "workload/tracegen.h"

namespace duet {
namespace {

const Ipv4Address kVip{100, 0, 0, 1};
const Ipv4Address kDip{10, 0, 0, 1};
constexpr double kSec = 1e6;

// --- HealthMonitor ---------------------------------------------------------------

TEST(HealthMonitor, StartsHealthy) {
  HealthMonitor hm;
  hm.watch(kVip, kDip, 0.0);
  EXPECT_TRUE(hm.is_healthy(kVip, kDip));
  EXPECT_TRUE(hm.poll().empty());
}

TEST(HealthMonitor, SingleMissDoesNotFlap) {
  HealthMonitor hm;
  hm.watch(kVip, kDip, 0.0);
  hm.report_probe(kVip, kDip, false, 1 * kSec);
  EXPECT_TRUE(hm.is_healthy(kVip, kDip));
  hm.report_probe(kVip, kDip, true, 2 * kSec);
  hm.report_probe(kVip, kDip, false, 3 * kSec);
  hm.report_probe(kVip, kDip, false, 4 * kSec);
  // Misses were never 3-consecutive.
  EXPECT_TRUE(hm.is_healthy(kVip, kDip));
}

TEST(HealthMonitor, ThreeConsecutiveMissesMarkDown) {
  HealthMonitor hm;
  hm.watch(kVip, kDip, 0.0);
  for (int i = 1; i <= 3; ++i) hm.report_probe(kVip, kDip, false, i * kSec);
  EXPECT_FALSE(hm.is_healthy(kVip, kDip));
  const auto transitions = hm.poll();
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_FALSE(transitions[0].healthy);
  EXPECT_EQ(transitions[0].dip, kDip);
  EXPECT_DOUBLE_EQ(transitions[0].at_us, 3 * kSec);
  EXPECT_TRUE(hm.poll().empty());  // drained
}

TEST(HealthMonitor, RecoveryNeedsConsecutiveSuccesses) {
  HealthMonitor hm;
  hm.watch(kVip, kDip, 0.0);
  for (int i = 1; i <= 3; ++i) hm.report_probe(kVip, kDip, false, i * kSec);
  ASSERT_FALSE(hm.is_healthy(kVip, kDip));
  hm.report_probe(kVip, kDip, true, 4 * kSec);
  EXPECT_FALSE(hm.is_healthy(kVip, kDip));  // one success is not enough
  hm.report_probe(kVip, kDip, false, 5 * kSec);
  hm.report_probe(kVip, kDip, true, 6 * kSec);
  hm.report_probe(kVip, kDip, true, 7 * kSec);
  EXPECT_TRUE(hm.is_healthy(kVip, kDip));
  const auto transitions = hm.poll();
  ASSERT_EQ(transitions.size(), 2u);  // down, then up
  EXPECT_TRUE(transitions[1].healthy);
}

TEST(HealthMonitor, HeartbeatSilenceIsDeath) {
  // Host crash: no agent left to report failure; the deadline catches it.
  HealthMonitor hm;
  hm.watch(kVip, kDip, 0.0);
  hm.advance_time(2.9 * kSec);
  EXPECT_TRUE(hm.is_healthy(kVip, kDip));
  hm.advance_time(3.1 * kSec);
  EXPECT_FALSE(hm.is_healthy(kVip, kDip));
}

TEST(HealthMonitor, UnwatchStopsTracking) {
  HealthMonitor hm;
  hm.watch(kVip, kDip, 0.0);
  hm.unwatch(kVip, kDip);
  EXPECT_FALSE(hm.is_healthy(kVip, kDip));
  hm.report_probe(kVip, kDip, false, 1 * kSec);  // stale report: ignored
  EXPECT_TRUE(hm.poll().empty());
}

TEST(HealthMonitor, DrivesControllerDipRemoval) {
  // The full loop: monitor transition -> controller removes the DIP.
  const auto fabric = build_fattree(FatTreeParams::scaled(2, 3, 2));
  DuetController controller{fabric, DuetConfig{}, FlowHasher{1}};
  controller.deploy_smuxes({fabric.tors[0]}, Ipv4Prefix{Ipv4Address{100, 0, 0, 0}, 8});
  const std::vector<Ipv4Address> dips{fabric.servers[0], fabric.servers[10]};
  controller.add_vip(kVip, dips);

  HealthMonitor hm;
  for (const auto d : dips) hm.watch(kVip, d, 0.0);
  for (int i = 1; i <= 3; ++i) hm.report_probe(kVip, dips[0], false, i * kSec);
  for (const auto& t : hm.poll()) controller.report_dip_health(t.vip, t.dip, t.healthy);

  for (std::uint16_t sp = 1; sp <= 50; ++sp) {
    Packet p{FiveTuple{fabric.servers[20], kVip, sp, 80, IpProto::kTcp}, 64};
    const auto dip = controller.load_balance(p);
    ASSERT_TRUE(dip.has_value());
    EXPECT_EQ(*dip, dips[1]);
  }
}

// --- CostModel -------------------------------------------------------------------

TEST(CostModel, ReproducesThePaperHeadlineNumbers) {
  const CostModel m;
  // §1: 15 Tbps -> over 4000 SMuxes, over $10M.
  EXPECT_GT(m.ananta_smuxes(15'000.0), 4000u);
  EXPECT_GT(m.ananta_usd(15'000.0), 10e6);
  // §2.2: ~10% of a 40K-server DC.
  EXPECT_NEAR(m.fleet_fraction(m.ananta_smuxes(15'000.0), 40'000), 0.10, 0.01);
}

TEST(CostModel, DuetIsAFractionOfAnanta) {
  const CostModel m;
  // Fig 16-style outcome: Duet's backstop is ~10x smaller.
  const auto ananta = m.ananta_smuxes(10'000.0);
  const double duet = m.duet_usd(ananta / 10);
  EXPECT_LT(duet, m.ananta_usd(10'000.0) / 5.0);
}

TEST(CostModel, HardwareLbDwarfsBoth) {
  const CostModel m;
  EXPECT_GT(m.hardware_lb_usd(15'000.0), m.ananta_usd(15'000.0));
}

TEST(CostModel, ZeroTraffic) {
  const CostModel m;
  EXPECT_EQ(m.ananta_smuxes(0.0), 0u);
  EXPECT_DOUBLE_EQ(m.ananta_usd(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.hardware_lb_usd(0.0), 0.0);
}

// --- Trace I/O -------------------------------------------------------------------

class TraceIoTest : public ::testing::Test {
 protected:
  TraceIoTest() : fabric_(build_fattree(FatTreeParams::scaled(2, 3, 2))) {
    TraceParams p;
    p.vip_count = 40;
    p.total_gbps = 60.0;
    p.epochs = 3;
    trace_ = generate_trace(fabric_, p);
    // One file per test and process: ctest runs these tests as parallel
    // processes, which must not share (and delete) one file.
    std::string name = "duet_trace_test_";
    name.append(std::to_string(::getpid()))
        .append("_")
        .append(::testing::UnitTest::GetInstance()->current_test_info()->name())
        .append(".txt");
    path_ = std::filesystem::temp_directory_path() / name;
  }
  ~TraceIoTest() override { std::filesystem::remove(path_); }

  FatTree fabric_;
  Trace trace_;
  std::filesystem::path path_;
};

TEST_F(TraceIoTest, RoundTripPreservesEverything) {
  ASSERT_TRUE(save_trace(path_.string(), trace_));
  const auto loaded = load_trace(path_.string(), fabric_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->vips.size(), trace_.vips.size());
  EXPECT_EQ(loaded->epochs, trace_.epochs);
  EXPECT_EQ(loaded->vip_aggregate, trace_.vip_aggregate);
  for (std::size_t i = 0; i < trace_.vips.size(); ++i) {
    EXPECT_EQ(loaded->vips[i].vip, trace_.vips[i].vip);
    EXPECT_EQ(loaded->vips[i].dips, trace_.vips[i].dips);
    ASSERT_EQ(loaded->vips[i].sources.size(), trace_.vips[i].sources.size());
    for (std::size_t s = 0; s < trace_.vips[i].sources.size(); ++s) {
      EXPECT_EQ(loaded->vips[i].sources[s].ingress, trace_.vips[i].sources[s].ingress);
      EXPECT_NEAR(loaded->vips[i].sources[s].fraction, trace_.vips[i].sources[s].fraction,
                  1e-9);
    }
    ASSERT_EQ(loaded->vips[i].gbps_by_epoch.size(), trace_.vips[i].gbps_by_epoch.size());
    for (std::size_t e = 0; e < trace_.epochs; ++e) {
      EXPECT_NEAR(loaded->vips[i].gbps_by_epoch[e], trace_.vips[i].gbps_by_epoch[e], 1e-9);
    }
  }
}

TEST_F(TraceIoTest, LoadedTraceDrivesTheAssigner) {
  ASSERT_TRUE(save_trace(path_.string(), trace_));
  const auto loaded = load_trace(path_.string(), fabric_);
  ASSERT_TRUE(loaded.has_value());
  const auto demands = build_demands(fabric_, *loaded, 0);
  const auto a = VipAssigner{fabric_, AssignmentOptions{}}.assign(demands);
  EXPECT_GT(a.hmux_fraction(), 0.5);
}

TEST_F(TraceIoTest, RejectsForeignFabric) {
  ASSERT_TRUE(save_trace(path_.string(), trace_));
  // A different fabric: the trace's DIPs are not attached servers there.
  const auto other = build_fattree(FatTreeParams::scaled(2, 2, 2));
  EXPECT_FALSE(load_trace(path_.string(), other).has_value());
}

TEST_F(TraceIoTest, RejectsMalformedFiles) {
  auto write = [&](const char* content) {
    std::FILE* f = std::fopen(path_.string().c_str(), "w");
    std::fputs(content, f);
    std::fclose(f);
  };
  write("epochs 0\n");
  EXPECT_FALSE(load_trace(path_.string(), fabric_).has_value());
  write("aggregate not-a-prefix\n");
  EXPECT_FALSE(load_trace(path_.string(), fabric_).has_value());
  write("epochs 2\naggregate 100.0.0.0/8\nvip 9.9.9.9 dips 10.0.0.1 sources 0:1 gbps 1;1\n");
  EXPECT_FALSE(load_trace(path_.string(), fabric_).has_value());  // VIP outside aggregate
  write("epochs 2\naggregate 100.0.0.0/8\nvip 100.0.0.1 dips 10.0.0.1 sources 0:0.5 gbps 1;1\n");
  EXPECT_FALSE(load_trace(path_.string(), fabric_).has_value());  // fractions != 1
  write("epochs 2\naggregate 100.0.0.0/8\nvip 100.0.0.1 dips 10.0.0.1 sources 0:1 gbps 1\n");
  EXPECT_FALSE(load_trace(path_.string(), fabric_).has_value());  // series too short
  write("");
  EXPECT_FALSE(load_trace(path_.string(), fabric_).has_value());
  EXPECT_FALSE(load_trace("/nonexistent/path/trace.txt", fabric_).has_value());
}

}  // namespace
}  // namespace duet
