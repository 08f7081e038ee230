// The control-plane layers, timed in churn_live's traced run: the durable
// controller that churn_live's ops drive inside duetd, here in-process at the
// medium bench scale (20x10x10 fabric, 3,750 VIPs) and driven through the
// public persist::PersistentController API. Assignment, audit and persist do
// all the work, at a realistic state size.
//
// The sequence: trace generation (bench seed 20140817, 6 epochs), VIP adds,
// the first from-scratch epoch, then five sticky kRunEpoch ops interleaved
// with seeded DIP-churn pairs, a snapshot, further churn, and a crash (the
// store is destroyed without a snapshot) followed by open() recovery,
// kRecoveries times, each checked bit-for-bit against the state before the
// crash. Each epoch's public calls are re-timed on the epoch's own inputs.
//
// The trace is fixed; --seed seeds the churn. The sequence is fixed-length:
// --seconds does not change it. The controller runs at its default width
// (exec::default_width()), as it ships. Its times follow the host's memory
// speed too closely to gate (README, "Steadiness"), so every metric here is
// per-layer.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string_view>

#include "audit/check.h"
#include "audit/invariants.h"
#include "audit/snapshot.h"
#include "duet/assignment.h"
#include "duet/controller.h"
#include "exec/thread_pool.h"
#include "persist/op_log.h"
#include "persist/state_image.h"
#include "persist/store.h"
#include "spans.h"
#include "topo/fattree.h"
#include "util/random.h"
#include "workload/demand.h"
#include "workload/tracegen.h"
#include "workloads.h"

namespace perfbench {

namespace {

using duet::persist::Op;
using duet::persist::OpKind;

constexpr std::uint64_t kTraceSeed = 20140817;  // the bench seed (bench/common.h)
constexpr std::size_t kEpochs = 6;
constexpr std::size_t kVipCount = 3750;     // medium scale
constexpr double kTotalGbps = 6700.0 / 8.0;  // 6.7 paper Tbps at 1/8 scale (Fig 20)
constexpr std::size_t kPairsPerEpoch = 32;
constexpr int kRecoveries = 5;
// The invariants this sequence is known to violate (README, "Known
// defects"): counted in `failed`, not a failed gate. Any other invariant's
// violation fails the run.
constexpr std::array<std::string_view, 2> kKnownDefects = {"ecmp-tunnel-refs",
                                                           "host-table-global-limit"};
constexpr std::string_view kViolationPrefix = "duet.audit.violation.";

double gauge(const duet::DuetController& c, const char* name) {
  const auto* g = c.metrics().find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

// Adds the controller's per-invariant violation counters (the registry the
// audit binds to its newest controller) to `by_invariant`. Called once per
// controller, before it is destroyed.
void add_violations(const duet::DuetController& c,
                    std::map<std::string, std::uint64_t>& by_invariant) {
  for (const auto& [name, counter] : c.metrics().counters()) {
    if (name.starts_with(kViolationPrefix) && counter->value() > 0) {
      by_invariant[name.substr(kViolationPrefix.size())] += counter->value();
    }
  }
}

}  // namespace

void run_controller_layers(const RunArgs& args, Result& result) {
  SpanRecorder spans(true);
  const std::uint64_t violations0 = duet::audit::violation_count();
  std::map<std::string, std::uint64_t> violations_by_invariant;
  std::uint64_t ops_failed = 0;
  std::uint64_t ops_done = 0;
  double clock_us = 0.0;
  std::printf("control plane: 20x10x10 fabric, %zu VIPs, trace seed %llu, %zu epochs, churn "
              "seed %llu, %zu controller threads\n",
              kVipCount, static_cast<unsigned long long>(kTraceSeed), kEpochs,
              static_cast<unsigned long long>(args.seed), duet::exec::default_width());

  const auto fabric = duet::build_fattree(duet::FatTreeParams::scaled(20, 10, 10));
  duet::DuetConfig cfg;
  cfg.host_table_capacity = 2048;  // the medium bench scale's HMux table budget
  duet::TraceParams tp;
  tp.vip_count = kVipCount;
  tp.total_gbps = kTotalGbps;
  tp.epochs = kEpochs;
  tp.seed = kTraceSeed;
  tp.arrival_fraction = 0.15;
  const std::string dir = "ctl";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  duet::persist::StoreOptions so;
  so.dir = dir;
  so.fsync = duet::persist::FsyncPolicy::kEveryRecord;
  so.snapshot_every_ops = 0;
  std::string error;

  std::unique_ptr<duet::persist::PersistentController> store;
  const auto apply = [&](Op op, const char* what, std::uint64_t request) {
    clock_us += 1000.0;
    op.t_us = clock_us;
    const int sp = spans.begin(what, request);
    const bool ok = store->apply(std::move(op));
    spans.end(sp);
    ++ops_done;
    if (!ok) ++ops_failed;
    return ok;
  };
  std::vector<std::vector<duet::VipDemand>> demands;
  const auto run_epoch = [&](std::size_t e, bool sticky) {
    Op op;
    op.kind = OpKind::kRunEpoch;
    op.flag = sticky;
    op.demands = demands[e];
    clock_us = static_cast<double>(e + 1) * 600e6;
    return apply(std::move(op), "controller.epoch", e);
  };

  // --- set-up --------------------------------------------------------------------
  double t = mono_s();
  int span = spans.begin("workload.generate_trace", 0);
  const duet::Trace trace = duet::generate_trace(fabric, tp);
  spans.end(span);
  const double trace_ms = (mono_s() - t) * 1e3;
  t = mono_s();
  for (std::size_t e = 0; e < kEpochs; ++e) {
    span = spans.begin("workload.build_demands", e);
    demands.push_back(duet::build_demands(fabric, trace, e));
    spans.end(span);
  }
  const double demands_ms = (mono_s() - t) * 1e3;
  store = duet::persist::PersistentController::open(fabric, cfg, duet::FlowHasher{1}, 1, so,
                                                    &error);
  if (store == nullptr) {
    result.fail_gate("open: " + error);
    return;
  }
  Op deploy;
  deploy.kind = OpKind::kDeploySmuxes;
  deploy.aggregate = trace.vip_aggregate;
  for (const auto tor :
       {fabric.tors.front(), fabric.tors[fabric.tors.size() / 2], fabric.tors.back()}) {
    deploy.addrs.push_back(tor);
  }
  apply(std::move(deploy), "persist.apply", 0);
  for (const auto& v : trace.vips) {
    Op add;
    add.kind = OpKind::kAddVip;
    add.vip = v.vip;
    for (const auto& d : v.dips) add.addrs.push_back(d.value());
    apply(std::move(add), "persist.apply", v.id);
  }
  run_epoch(0, false);

  // --- sticky epochs with churn ------------------------------------------------------
  duet::Rng rng(args.seed);
  std::uint32_t next_dip = (10u << 24) | (250u << 16) | 1u;
  std::vector<Op> churn_ops;  // kept for the append pricing below
  std::vector<double> churn_us;
  // Pair i picks a seeded VIP from the i-th of `pairs` slices of the trace's
  // VIPs (they are in decreasing traffic rank). An add-dip bounces its VIP to
  // the SMux backstop for the next epoch to re-place, so every seed bounces
  // the same traffic profile and the epochs do comparable work.
  const auto churn = [&](std::size_t pairs) {
    const std::size_t slice = trace.vips.size() / pairs;
    for (std::size_t i = 0; i < pairs; ++i) {
      const auto& v = trace.vips[i * slice + rng.uniform(slice)];
      Op add;
      add.kind = OpKind::kAddDip;
      add.vip = v.vip;
      add.dip = duet::Ipv4Address{next_dip++};
      Op remove = add;
      remove.kind = OpKind::kRemoveDip;
      for (Op* o : {&add, &remove}) {
        churn_ops.push_back(*o);
        const double a = mono_s();
        apply(*o, "persist.apply", churn_ops.size());
        churn_us.push_back((mono_s() - a) * 1e6);
      }
    }
  };

  // The controller's own assigner settings (DuetController's constructor).
  duet::AssignmentOptions assign_opts = duet::AssignmentOptions::from_config(cfg);
  assign_opts.seed = 1;
  const duet::VipAssigner assigner(fabric, assign_opts);
  std::vector<double> epoch_ms, assign_ms, audit_ms, self_ms;
  for (std::size_t e = 1; e < kEpochs; ++e) {
    churn(kPairsPerEpoch);
    // The assignment the epoch starts from, for re-timing its sticky pass.
    const duet::Assignment before_epoch =
        duet::persist::ControllerAccess::capture(store->controller()).assignment;
    const double a = mono_s();
    if (!run_epoch(e, true)) result.fail_gate("epoch " + std::to_string(e) + " not applied");
    epoch_ms.push_back((mono_s() - a) * 1e3);
    // The public calls an epoch makes, re-timed on the same inputs: the
    // sticky assignment from the pre-epoch assignment, and the end-of-epoch
    // audit (the epoch runs two).
    double b = mono_s();
    span = spans.begin("assignment.assign_sticky", e);
    const duet::Assignment next = assigner.assign_sticky(demands[e], before_epoch);
    spans.end(span);
    assign_ms.push_back((mono_s() - b) * 1e3);
    b = mono_s();
    span = spans.begin("audit.audit", e);
    const duet::audit::InvariantAuditor auditor;
    auto report = auditor.audit(duet::audit::SystemSnapshot::capture(store->controller()));
    report.merge(auditor.audit_journal(store->controller().journal()));
    spans.end(span);
    audit_ms.push_back((mono_s() - b) * 1e3);
    self_ms.push_back(epoch_ms.back() - assign_ms.back() - 2.0 * audit_ms.back());
  }
  const double hmux_frac = gauge(store->controller(), "duet.controller.hmux_fraction");
  const double smuxes = gauge(store->controller(), "duet.controller.smuxes_needed");

  // --- snapshot, churn, crash and recovery ---------------------------------------------
  double a = mono_s();
  span = spans.begin("persist.snapshot_now", 0);
  if (!store->snapshot_now()) result.fail_gate("snapshot_now failed");
  spans.end(span);
  const double snapshot_ms = (mono_s() - a) * 1e3;
  churn(kPairsPerEpoch);
  const auto before = duet::persist::encode_state(store->controller());
  std::error_code ec;
  const double journal_bytes =
      static_cast<double>(std::filesystem::file_size(store->oplog_path(), ec));
  add_violations(store->controller(), violations_by_invariant);
  store.reset();  // no shutdown snapshot: what kill -9 leaves behind
  std::vector<double> recover_ms;
  std::string snapshot_file;  // the final state's snapshot, for timing restore alone
  for (int i = 0; i < kRecoveries; ++i) {
    // Each open() recovers the same directory: its boot writes nothing the
    // next recovery would see differently.
    a = mono_s();
    span = spans.begin("persist.open", i);
    auto recovered = duet::persist::PersistentController::open(fabric, cfg, duet::FlowHasher{1},
                                                               1, so, &error);
    spans.end(span);
    recover_ms.push_back((mono_s() - a) * 1e3);
    ++ops_done;
    if (recovered == nullptr) {
      ++ops_failed;
      result.fail_gate("recovery refused: " + error);
      break;
    }
    if (duet::persist::encode_state(recovered->controller()) != before) {
      result.fail_gate("recovered state differs from the state before the crash");
    }
    add_violations(recovered->controller(), violations_by_invariant);
    if (i + 1 == kRecoveries) {
      if (!recovered->snapshot_now()) result.fail_gate("snapshot_now after recovery failed");
      snapshot_file = recovered->snapshot_path();
    }
  }
  const double recover_best = *std::min_element(recover_ms.begin(), recover_ms.end());

  // Restore alone: open() on a directory holding only a snapshot of the final
  // state, the state the full recovery rebuilds by replay.
  const std::string snap_dir = "ctl_snapshot_only";
  std::filesystem::remove_all(snap_dir);
  std::filesystem::create_directories(snap_dir);
  std::filesystem::copy_file(snapshot_file, snap_dir + "/snapshot.duet", ec);
  auto sso = so;
  sso.dir = snap_dir;
  std::vector<double> restore;
  for (int i = 0; i < kRecoveries; ++i) {
    a = mono_s();
    span = spans.begin("persist.open_snapshot_only", i);
    auto only =
        duet::persist::PersistentController::open(fabric, cfg, duet::FlowHasher{1}, 1, sso, &error);
    spans.end(span);
    restore.push_back((mono_s() - a) * 1e3);
    ++ops_done;
    if (only == nullptr) {
      ++ops_failed;
      result.fail_gate("snapshot-only open failed: " + error);
    } else {
      add_violations(only->controller(), violations_by_invariant);
    }
  }
  const double restore_ms = *std::min_element(restore.begin(), restore.end());
  std::filesystem::remove_all(snap_dir);
  // The journal append alone, with and without the per-record fsync.
  double append_us = 0.0, append_nofsync_us = 0.0;
  for (const auto policy :
       {duet::persist::FsyncPolicy::kEveryRecord, duet::persist::FsyncPolicy::kNone}) {
    const std::string path = dir + "/append_pricing.duet";
    std::filesystem::remove(path, ec);
    auto log = duet::persist::OpLog::open(path, policy, 1);
    std::vector<double> us;
    for (const Op& o : churn_ops) {
      const double b = mono_s();
      span = spans.begin("persist.append", us.size());
      if (!log || !log->append(o)) result.fail_gate("OpLog::append failed");
      spans.end(span);
      us.push_back((mono_s() - b) * 1e6);
    }
    (policy == duet::persist::FsyncPolicy::kNone ? append_nofsync_us : append_us) = median(us);
  }
  std::filesystem::remove_all(dir);

  // --- metrics -------------------------------------------------------------------
  const std::uint64_t violations = duet::audit::violation_count() - violations0;
  result.attempted += ops_done;
  result.failed += ops_failed + violations;
  std::uint64_t attributed = 0;
  for (const auto& [invariant, n] : violations_by_invariant) {
    attributed += n;
    if (std::find(kKnownDefects.begin(), kKnownDefects.end(), invariant) != kKnownDefects.end()) {
      std::printf("KNOWN DEFECT: %llu %s invariant violations (counted in failed; see "
                  "perfbench/README.md)\n",
                  static_cast<unsigned long long>(n), invariant.c_str());
    } else {
      result.fail_gate(std::to_string(n) + " " + invariant + " invariant violations");
    }
  }
  if (attributed != violations) {
    result.fail_gate(std::to_string(violations - attributed) +
                     " invariant violations raised with no controller registry bound");
  }
  const double apply_us = median(churn_us);
  result.set("controller.epoch_ms", median(epoch_ms), "ms");
  result.set("persist.apply_us", apply_us, "us");
  result.set("persist.recover_ms", recover_best, "ms");
  result.set("workload.trace_ms", trace_ms, "ms");
  result.set("workload.demands_ms", demands_ms, "ms");
  result.set("assignment.assign_sticky_ms", median(assign_ms), "ms");
  result.set("audit.audit_ms", median(audit_ms), "ms");
  result.set("audit.violations", static_cast<double>(violations), "count");
  result.set("controller.epoch_self_ms", median(self_ms), "ms");
  result.set("controller.smuxes_needed", smuxes, "count");
  result.set("controller.hmux_frac", hmux_frac, "ratio");
  result.set("persist.append_us", append_us, "us");
  result.set("persist.append_nofsync_us", append_nofsync_us, "us");
  result.set("persist.snapshot_ms", snapshot_ms, "ms");
  result.set("persist.restore_ms", restore_ms, "ms");
  result.set("persist.replay_ms", recover_best - restore_ms, "ms");
  result.set("persist.journal_bytes", journal_bytes, "bytes");

  std::printf("sticky epochs:");
  for (const double ms : epoch_ms) std::printf(" %.0f", ms);
  std::printf(" ms\n");
  std::printf("control plane: epoch_ms %.0f | apply_us %.0f | recover_ms %.0f | hmux_frac %.4f | "
              "assign_sticky %.0f ms | audit %.0f ms | epoch self %.0f ms | snapshot %.0f ms | "
              "restore %.0f ms | replay %.0f ms | append %.0f us (no fsync %.1f us)\n",
              median(epoch_ms), apply_us, recover_best, hmux_frac, median(assign_ms),
              median(audit_ms), median(self_ms), snapshot_ms, restore_ms,
              recover_best - restore_ms, append_us, append_nofsync_us);
  if (!args.spans_path.empty() && !spans.write_json(args.spans_path)) {
    result.fail_gate("could not write " + args.spans_path);
  }
}

}  // namespace perfbench
