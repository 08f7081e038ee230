// Serving workloads: the real duetd binary driven over loopback UDP and its
// ops socket.
//
//   serve_stateful   default stateful engine: every packet goes through
//                    Smux::process_batch and its flow table (256K pinned
//                    flows, several times the L2); the fast tier admits
//                    nothing, so it costs one missed probe per packet.
//   serve_fast_tier  --engine stateless: every VIP is admitted to the
//                    in-process fast tier, process_batch is bypassed and no
//                    per-flow state exists. Same client traffic, same I/O.
//   churn_live       the serve_fast_tier deployment with 1/8 of packets
//                    opening new flows, while a seeded stream of journaled
//                    ops (DIP replacement pairs, migrate, rebuild-fast-tier,
//                    snapshot) runs under fsync-every.
//
// Each run sets up kSetups times (launch, configure, warm up every flow) and
// reports the median set-up time; every deployment is then killed with
// SIGKILL and restarted on its data directory to time recovery, each restart
// paired with a start of the same binary that recovers nothing. The last
// deployment is measured: a fixed-rate phase (open loop, latency and CPU per
// packet) and a saturation phase (a closed loop with kWindow packets in
// flight, forwarding rate), each as windows that alternate between duetd and
// the reference relay (relay.h). The end-to-end figures are duetd's over
// the reference's, so that the shared machine's drift cancels.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <thread>

#include "client.h"
#include "duetd_proc.h"
#include "relay.h"
#include "replay.h"
#include "spans.h"
#include "util/mix.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kVips = 16;
constexpr std::size_t kDipsPerVip = 4;
constexpr std::size_t kFlows = 1u << 18;    // 256K pinned flows
constexpr std::size_t kNewFlows = 1u << 19;  // churn_live's pool of fresh flows
// A fifth of one worker's capacity (~230 Kpps per core here): at 100 Kpps,
// steal bursts on a shared 4-CPU machine pushed whole fixed-rate phases into
// backlog (p50 3.5-4.2 ms, packets lost).
constexpr double kFixedRate = 50e3;
constexpr std::size_t kWindow = 256;         // saturation: packets in flight
constexpr int kSetups = 3;
constexpr int kRecoveries = 10;  // per deployment
constexpr double kWindowSeconds = 0.5;  // measurement sub-phase
constexpr double kPairSeconds = 2 * kWindowSeconds;  // a duetd window and a relay window
constexpr std::size_t kCommitProbes = 32;  // per setup
constexpr std::size_t kCommitGroup = 16;   // op_commit_us: lowest group median
constexpr std::size_t kSockets = 2;
// churn_live's op stream: op slots per second, the share of slots that are
// DIP replacement pairs (6 of every 8, see the op loop), the VIPs whose pools
// churn (the other half stays in the fast tier), and a per-VIP cap on pairs
// that keeps each churned pool under the stateless engine's 16-version limit
// (past it the oldest version is force-retired, which remaps live flows).
//
// The rate is a stress rate set by sample count, not a production rate: it
// was the lowest that put at least 8 pairs (16 timed DIP ops) into the 6-s
// fixed-rate phase of the 10-s runs used then; the 10-s fixed-rate phase of
// a 20-s run gets 15. 1.5 pairs/s over the 32 churned DIPs
// replaces ~280% of the pool per minute, 28x the chaos suite's storm-grade
// 10%/min. Pairs go round-robin over the churned VIPs, so the cap binds only
// in a run longer than kMaxChurnSeconds (60 s, the longest a run is asked
// for, plus slack for the phase boundaries).
constexpr double kSlotsPerSecond = 2.0;
constexpr double kPairShare = 0.75;
constexpr std::size_t kChurnedVips = 8;
constexpr int kMaxPairsPerVip = 12;
constexpr double kMaxChurnSeconds = 64.0;
static_assert(kSlotsPerSecond * kPairShare * kMaxChurnSeconds <= kChurnedVips * kMaxPairsPerVip,
              "the per-VIP pair cap must not bind within kMaxChurnSeconds");

duet::Ipv4Address vip_addr(std::size_t v) {
  return duet::Ipv4Address{100, 64, static_cast<std::uint8_t>(v), 1};
}
duet::Ipv4Address dip_addr(std::size_t v, std::size_t j) {
  return duet::Ipv4Address{172, static_cast<std::uint8_t>(16 + j / 250),
                           static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(j % 250 + 1)};
}
duet::Ipv4Address probe_vip(std::size_t v, std::size_t j) {
  return duet::Ipv4Address{100, 65, static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(j + 1)};
}

struct Deployment {
  DuetdProcess proc;
  std::string dir;
  std::vector<std::string> args;
};

struct Samples {
  std::vector<double> setup_s, recover_ms;
  std::vector<double> start_floor_ms;  // paired with recover_ms (see crash_and_recover)
  std::vector<double> commit_us;  // the op_commit_us sample (see run_serving)
  std::vector<double> churn_us;   // churn_live's DIP ops at the fixed rate
  std::uint64_t ops = 0, op_failures = 0;
  std::uint64_t packets = 0, answered = 0, pcc = 0, misroutes = 0, unexpected = 0,
                integrity = 0, legal_remaps = 0, removed_dip_replies = 0;
};

// One ops-socket mutation; its round trip joins the op_commit_us sample when
// `timed`, and churn_us when `churn`.
bool op(const Deployment& d, const std::vector<std::string>& argv, Samples& s,
        bool timed = false, bool churn = false) {
  double us = 0.0;
  const auto r = d.proc.request(argv, &us);
  ++s.ops;
  if (!r.has_value() || !r->ok()) {
    ++s.op_failures;
    std::printf("op failed: %s -> %s\n", argv[0].c_str(),
                r.has_value() ? r->text.c_str() : "(no reply)");
    return false;
  }
  if (timed) s.commit_us.push_back(us);
  if (churn) s.churn_us.push_back(us);
  return true;
}

std::optional<DuetdStats> stats_of(const Deployment& d) {
  const auto r = d.proc.request({"stats"});
  if (!r.has_value() || !r->ok()) return std::nullopt;
  return parse_stats(r->text);
}

void add_client_totals(const Client& c, Samples& s) {
  s.packets += c.sent_total();
  s.answered += c.answered_total();
  const ReplyTotals& t = c.totals();
  s.pcc += t.pcc_violations;
  s.misroutes += t.misroutes;
  s.unexpected += t.unexpected_dips;
  s.integrity += t.integrity_failures;
  s.legal_remaps += t.legal_remaps;
  s.removed_dip_replies += t.removed_dip_replies;
}

// kill -9 and restart on the same directory kRecoveries times, timing spawn
// -> serving and checking the recovered VIP count; then stop.
void crash_and_recover(Deployment& d, const std::string& duetd, Samples& s, Result& result) {
  for (int i = 0; i < kRecoveries; ++i) {
    s.start_floor_ms.push_back(DuetdProcess::start_floor_s(duetd, cpu_plan().rest) * 1e3);
    d.proc.kill9();
    std::string error;
    if (!d.proc.launch(duetd, d.dir, d.args, cpu_plan().rest, &error)) {
      result.fail_gate("recovery after kill -9 failed: " + error);
      return;
    }
    s.recover_ms.push_back(d.proc.ready_s() * 1e3);
    const auto st = stats_of(d);
    const std::size_t vips = st ? st->vips : 0;
    if (vips != kVips) {
      result.fail_gate("recovered deployment serves " + std::to_string(vips) + " VIPs, not " +
                       std::to_string(kVips));
    }
  }
  d.proc.stop();
}

// One report for a phase's duetd windows: counts summed, samples joined. Its
// wall time is the windows' own, summed: relay windows sit between them.
PhaseReport merged(const std::vector<PhaseReport>& parts) {
  PhaseReport all;
  all.start_ns = parts.front().start_ns;
  all.end_ns = all.start_ns;
  for (const PhaseReport& p : parts) {
    all.end_ns += p.end_ns - p.start_ns;
    all.sent += p.sent;
    all.send_refused += p.send_refused;
    all.sender_cpu_s += p.sender_cpu_s;
    all.replies += p.replies;
    all.gaps_1ms += p.gaps_1ms;
    all.late_us.insert(all.late_us.end(), p.late_us.begin(), p.late_us.end());
    all.rtt_us.insert(all.rtt_us.end(), p.rtt_us.begin(), p.rtt_us.end());
  }
  return all;
}

}  // namespace

void run_serving(const RunArgs& args, Result& result) {
  const bool stateful = args.workload == "serve_stateful";
  const bool churn = args.workload == "churn_live";
  const double fixed_s = 0.5 * args.seconds;
  const double sat_s = 0.5 * args.seconds;

  // --- inputs, all from the seed ---------------------------------------------
  duet::Rng rng(args.seed);
  const std::uint32_t src_base = 0x0a000001u + static_cast<std::uint32_t>(rng.uniform(1u << 21));
  std::vector<std::uint32_t> order(kFlows);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = kFlows - 1; i > 0; --i) std::swap(order[i], order[rng.uniform(i + 1)]);

  std::vector<duet::Ipv4Address> vips;
  for (std::size_t v = 0; v < kVips; ++v) vips.push_back(vip_addr(v));
  std::vector<std::uint16_t> dst;
  for (std::size_t f = 0; f < kFlows; ++f) dst.push_back(static_cast<std::uint16_t>(f % kVips));
  const std::size_t new_base = dst.size();
  if (churn) {
    for (std::size_t f = 0; f < kNewFlows; ++f) {
      dst.push_back(static_cast<std::uint16_t>(f % kVips));
    }
  }
  const std::size_t probe_base = dst.size();
  if (churn) {  // one probe VIP per DIP: learns each DIP's echo port
    for (std::size_t v = 0; v < kVips; ++v) {
      for (std::size_t j = 0; j < kDipsPerVip; ++j) {
        dst.push_back(static_cast<std::uint16_t>(vips.size()));
        vips.push_back(probe_vip(v, j));
      }
    }
  }
  const std::uint64_t new_flow_salt = rng();
  // Flow of the k-th packet of a measured phase: a seeded permutation of the
  // pinned flows; in churn_live every packet whose hash is 0 mod 8 opens a
  // fresh flow.
  std::uint64_t next_new = 0;
  const auto measured_flow = [&](std::uint64_t k) -> std::uint32_t {
    if (churn && (duet::mix64(new_flow_salt ^ k) & 7) == 0) {
      return static_cast<std::uint32_t>(new_base + (next_new++ % kNewFlows));
    }
    return order[k % kFlows];
  };

  std::vector<std::string> duetd_args{"--workers", "1", "--seed", "1", "--engine",
                                      stateful ? "stateful" : "stateless"};
  std::printf("workload %s: %zu VIPs x %zu DIPs, %zu pinned flows, %.0f pps fixed rate for "
              "%.1f s, window %zu for %.1f s\n",
              args.workload.c_str(), kVips, kDipsPerVip, kFlows, kFixedRate, fixed_s, kWindow,
              sat_s);

  // This thread sends every set-up and warm-up packet and starts the measured
  // phases' sender, which inherits its CPU (see CpuPlan).
  const CpuPlan& plan = cpu_plan();
  pin_to(plan.sender);

  Samples s;
  std::vector<std::unique_ptr<Deployment>> deps;
  // One client and one set of templates for every deployment: building them
  // is the client's work, not the system's set-up.
  Client client(0, kSockets);
  if (!client.init()) {
    result.fail_gate("client sockets");
    return;
  }
  const FlowSet flow_set(vips, dst, client.ports(), src_base);
  client.set_flows(&flow_set);

  for (int k = 0; k < kSetups; ++k) {
    auto d = std::make_unique<Deployment>();
    d->dir = "d" + std::to_string(k);
    d->args = duetd_args;
    std::filesystem::remove_all(d->dir);
    const double t0 = mono_s();
    std::string error;
    if (!d->proc.launch(args.duetd, d->dir, d->args, plan.rest, &error)) {
      result.fail_gate("duetd launch: " + error);
      return;
    }
    for (std::size_t v = 0; v < kVips; ++v) {
      std::vector<std::string> argv{"add-vip", vips[v].to_string()};
      for (std::size_t j = 0; j < kDipsPerVip; ++j) argv.push_back(dip_addr(v, j).to_string());
      if (!op(*d, argv, s)) {
        result.fail_gate("add-vip refused during set-up");
        return;
      }
    }
    client.reset(d->proc.port());

    if (churn) {
      for (std::size_t v = 0; v < kVips; ++v) {
        for (std::size_t j = 0; j < kDipsPerVip; ++j) {
          op(*d, {"add-vip", probe_vip(v, j).to_string(), dip_addr(v, j).to_string()}, s);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));  // > 2 serving ticks
    if (churn) {
      client.start_receiver(plan.receiver);
      PhaseSpec probe;
      probe.open_loop = false;
      probe.window = 16;
      probe.max_packets = kVips * kDipsPerVip;
      probe.flow_of = [&](std::uint64_t i) { return static_cast<std::uint32_t>(probe_base + i); };
      PhaseReport rep = client.run_phase(probe);
      PhaseReport* reps[] = {&rep};
      client.settle(reps);
      for (std::size_t v = 0; v < kVips; ++v) {
        for (std::size_t j = 0; j < kDipsPerVip; ++j) {
          const std::uint16_t port = client.first_port(probe_base + v * kDipsPerVip + j);
          if (port == 0) result.fail_gate("probe of DIP " + dip_addr(v, j).to_string() + " lost");
          client.learn_dip(static_cast<std::uint16_t>(v), dip_addr(v, j), port);
          op(*d, {"remove-vip", probe_vip(v, j).to_string()}, s);
        }
      }
      client.set_learning(false);
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }

    // op_commit_us: the mutation path with the serving path idle. Journaled
    // engine overrides that the live workers never see (duetd does not push
    // them), so the round trip is socket + WAL append + fsync + controller
    // apply. (churn_live's own ops, timed under load, are a per-layer
    // metric: with every core busy, their wait for one dominates.)
    for (std::size_t i = 0; i < kCommitProbes; ++i) {
      op(*d, {"set-engine", vips[i % kVips].to_string(), "clear"}, s, /*timed=*/true);
    }

    // Warm-up: every pinned flow once, closed loop, so the stateful engine
    // pins all of them before anything is measured.
    client.start_receiver(plan.receiver);
    PhaseSpec warm;
    warm.open_loop = false;
    warm.window = kWindow;
    warm.max_packets = kFlows;
    warm.flow_of = [](std::uint64_t i) { return static_cast<std::uint32_t>(i); };
    PhaseReport wrep = client.run_phase(warm);
    PhaseReport* wreps[] = {&wrep};
    client.settle(wreps);
    client.set_learning(false);
    s.setup_s.push_back(mono_s() - t0);
    std::printf("setup %d: %.3f s (duetd up in %.1f ms, warm-up %llu/%llu answered)\n", k,
                s.setup_s.back(), d->proc.ready_s() * 1e3,
                static_cast<unsigned long long>(wrep.replies),
                static_cast<unsigned long long>(wrep.sent));
    if (k + 1 < kSetups) {
      add_client_totals(client, s);
      crash_and_recover(*d, args.duetd, s, result);
    }
    deps.push_back(std::move(d));
  }
  Deployment& dep = *deps.back();
  const int pid = dep.proc.pid();
  if (plan.pinned) {
    // duetd's two busiest threads over set-up and warm-up are the mux worker
    // and the echo pool: one CPU each, as the relay's hops get (CpuPlan).
    std::vector<std::pair<std::uint64_t, int>> by_cpu;
    for (const auto& [tid, ns] : thread_cpu_ns_of(pid)) by_cpu.emplace_back(ns, tid);
    std::sort(by_cpu.rbegin(), by_cpu.rend());
    std::printf("duetd threads (tid: CPU ms so far):");
    for (std::size_t i = 0; i < by_cpu.size(); ++i) {
      std::printf(" %d: %.1f", by_cpu[i].second, static_cast<double>(by_cpu[i].first) * 1e-6);
      if (i < 2) {
        const std::vector<int>& cpus = i == 0 ? plan.hop1 : plan.hop2;
        if (pin_thread_to(by_cpu[i].second, cpus)) {
          std::printf(" -> cpu %d", cpus[0]);
        } else {
          std::printf(" -> not pinned");
        }
      }
    }
    std::printf("\n");
  }

  // --- measured phases ---------------------------------------------------------
  // Both phases run as back-to-back half-second sub-phases, each with its own
  // CPU readings, so a burst of steal on a shared machine spoils one window,
  // not the run. Each duetd window is followed by a window of the same
  // traffic through the reference relay (relay.h); the end-to-end figures
  // are medians over these pairs of duetd's figure over the relay's.
  Relay relay;
  if (!relay.start(plan.hop1, plan.hop2)) {
    result.fail_gate("reference relay sockets");
    return;
  }
  client.set_reference_port(relay.reply_port());
  const int n_fixed = std::max(1, static_cast<int>(std::lround(fixed_s / kPairSeconds)));
  const int n_sat = std::max(1, static_cast<int>(std::lround(sat_s / kPairSeconds)));
  std::vector<PhaseReport> fixed(static_cast<std::size_t>(n_fixed)), fixed_ref(fixed.size());
  std::vector<PhaseReport> sat(static_cast<std::size_t>(n_sat)), sat_ref(sat.size());
  std::vector<double> fixed_cpu_s(fixed.size()), fixed_ref_cpu_s(fixed.size()),
      sat_busiest_cpu_s(sat.size()), sat_busiest_frac(sat.size()), sat_ref_busiest_cpu_s(sat.size());
  std::map<int, std::string> task_names;
  std::optional<DuetdStats> st0, st_mid, st1;
  std::atomic<bool> sender_done{false};
  std::atomic<bool> in_fixed{true};

  client.start_receiver(plan.receiver);
  std::thread sender([&] {
    st0 = stats_of(dep);
    std::uint64_t k0 = 0;  // packets of the measured schedule sent so far
    for (std::size_t i = 0; i < fixed.size(); ++i) {
      PhaseSpec a;
      a.open_loop = true;
      a.rate_pps = kFixedRate;
      a.seconds = kWindowSeconds;
      a.record_rtt = true;
      a.flow_of = [&, base = k0](std::uint64_t k) { return measured_flow(base + k); };
      const std::uint64_t cpu0 = process_cpu_ns(pid);
      fixed[i] = client.run_phase(a);
      fixed_cpu_s[i] = static_cast<double>(process_cpu_ns(pid) - cpu0) * 1e-9;
      k0 += fixed[i].sent;

      a.target_port = relay.port();
      a.flow_of = [&, base = k0](std::uint64_t k) { return measured_flow(base + k); };
      const auto ref0 = relay.thread_cpu_ns();
      fixed_ref[i] = client.run_phase(a);
      const auto ref1 = relay.thread_cpu_ns();
      fixed_ref_cpu_s[i] = static_cast<double>((ref1[0] - ref0[0]) + (ref1[1] - ref0[1])) * 1e-9;
      k0 += fixed_ref[i].sent;
    }
    in_fixed.store(false);
    st_mid = stats_of(dep);
    for (std::size_t i = 0; i < sat.size(); ++i) {
      PhaseSpec b;
      b.open_loop = false;
      b.window = kWindow;
      b.seconds = kWindowSeconds;
      b.flow_of = [&, base = k0](std::uint64_t k) { return measured_flow(base + k); };
      const auto tasks0 = thread_cpu_ns_of(pid);
      sat[i] = client.run_phase(b);
      k0 += sat[i].sent;
      const auto tasks1 = thread_cpu_ns_of(pid);
      for (const auto& [tid, ns] : tasks1) {
        const auto before = tasks0.find(tid);
        const double cpu_s =
            static_cast<double>(ns - (before != tasks0.end() ? before->second : 0)) * 1e-9;
        if (cpu_s > sat_busiest_cpu_s[i]) {
          sat_busiest_cpu_s[i] = cpu_s;
          sat_busiest_frac[i] = cpu_s / sat[i].wall_s();
        }
        if (i + 1 == sat.size() && cpu_s / sat[i].wall_s() >= 0.05) {
          task_names[tid] = thread_name(pid, tid);
        }
      }

      b.target_port = relay.port();
      b.flow_of = [&, base = k0](std::uint64_t k) { return measured_flow(base + k); };
      const auto ref0 = relay.thread_cpu_ns();
      sat_ref[i] = client.run_phase(b);
      const auto ref1 = relay.thread_cpu_ns();
      sat_ref_busiest_cpu_s[i] =
          static_cast<double>(std::max(ref1[0] - ref0[0], ref1[1] - ref0[1])) * 1e-9;
      k0 += sat_ref[i].sent;
    }
    sender_done.store(true);
  });

  // churn_live: the ops stream, on this thread, at kSlotsPerSecond. It
  // leaves the sender's CPU to the sender.
  pin_to(plan.receiver);
  std::vector<double> add_ack_ns;
  std::uint64_t snapshots = 0, pairs = 0, capped = 0;
  if (churn) {
    duet::Rng ops_rng(rng());
    std::vector<std::vector<duet::Ipv4Address>> pool(kVips);
    for (std::size_t v = 0; v < kVips; ++v) {
      for (std::size_t j = 0; j < kDipsPerVip; ++j) pool[v].push_back(dip_addr(v, j));
    }
    std::vector<std::size_t> churn_order(kChurnedVips);  // seeded round-robin order
    std::iota(churn_order.begin(), churn_order.end(), 0u);
    for (std::size_t i = kChurnedVips - 1; i > 0; --i) {
      std::swap(churn_order[i], churn_order[ops_rng.uniform(i + 1)]);
    }
    std::vector<int> pairs_of(kVips, 0);
    std::vector<std::size_t> next_dip(kVips, kDipsPerVip);
    const double t0 = mono_s();
    for (std::uint64_t slot = 0; !sender_done.load(); ++slot) {
      const double due = t0 + static_cast<double>(slot) / kSlotsPerSecond;
      while (mono_s() < due && !sender_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (sender_done.load()) break;
      const std::size_t v = churn_order[pairs % kChurnedVips];
      if (slot % 16 == 15) {
        op(dep, {"snapshot"}, s);
        ++snapshots;
      } else if (slot % 8 == 3) {
        const char* target = (slot / 8) % 2 == 0 ? "smux" : "1";
        const auto r =
            dep.proc.request({"migrate", vips[ops_rng.uniform(kVips)].to_string(), target});
        ++s.ops;
        // A switch that cannot take the VIP leaves it on the SMux backstop
        // (status 1): that is the migrate contract, not a failed op.
        if (!r.has_value() || r->status > 1) ++s.op_failures;
      } else if (slot % 8 == 7) {
        op(dep, {"rebuild-fast-tier"}, s);
      } else if (pairs_of[v] < kMaxPairsPerVip) {
        // Replace the pool's oldest DIP by a fresh one, add before remove. A
        // stateless pool keeps its busy buckets on their version until they
        // idle, so the new DIP takes traffic once the removal recolors the
        // retired DIP's buckets.
        const duet::Ipv4Address fresh = dip_addr(v, next_dip[v]++);
        const duet::Ipv4Address old = pool[v].front();
        const std::size_t event = add_ack_ns.size();
        client.expect_new_dip(static_cast<std::uint16_t>(v), fresh, event);
        const bool timed = in_fixed.load();  // fixed-rate phase only
        if (!op(dep, {"add-dip", vips[v].to_string(), fresh.to_string()}, s, false, timed)) {
          continue;
        }
        add_ack_ns.push_back(static_cast<double>(mono_ns()));
        pool[v].push_back(fresh);
        client.retire_dip(static_cast<std::uint16_t>(v), old);
        if (op(dep, {"remove-dip", vips[v].to_string(), old.to_string()}, s, false, timed)) {
          pool[v].erase(pool[v].begin());
        }
        ++pairs_of[v];
        ++pairs;
      } else {
        ++capped;
      }
    }
  }
  sender.join();
  pin_to(plan.all);
  st1 = stats_of(dep);
  std::vector<PhaseReport*> reps;
  for (auto* set : {&fixed, &fixed_ref, &sat, &sat_ref}) {
    for (auto& r : *set) reps.push_back(&r);
  }
  client.settle(reps);
  relay.stop();
  const double end_ns = static_cast<double>(mono_ns());
  const PhaseReport fixed_all = merged(fixed);
  const PhaseReport sat_all = merged(sat);
  const double rss = peak_rss_mib(pid);
  add_client_totals(client, s);

  // Convergence of every add-dip: ack -> first reply from the new DIP. An
  // add whose DIP never answered counts as the time left in the run, a lower
  // bound, so no convergence reads as slow, never as 0.
  std::vector<double> converge_ms;
  std::size_t converged = 0;
  for (std::size_t e = 0; e < add_ack_ns.size(); ++e) {
    const std::uint64_t first = client.first_reply_ns(e);
    converged += first != 0 ? 1 : 0;
    const double reply_ns = first != 0 ? static_cast<double>(first) : end_ns;
    converge_ms.push_back(std::max(0.0, (reply_ns - add_ack_ns[e]) * 1e-6));
  }
  crash_and_recover(dep, args.duetd, s, result);

  // --- metrics -------------------------------------------------------------------
  // Per window pair: duetd's figure, the relay's, and their ratio.
  std::vector<double> cpu_ns_windows, core_pps_windows, p50_windows;
  std::vector<double> ref_cpu_ns_windows, ref_core_pps_windows, ref_p50_windows;
  std::vector<double> rtt_rel, cpu_rel, core_rel;
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    if (fixed[i].replies == 0 || fixed_ref[i].replies == 0) continue;
    cpu_ns_windows.push_back(fixed_cpu_s[i] * 1e9 / static_cast<double>(fixed[i].replies));
    ref_cpu_ns_windows.push_back(fixed_ref_cpu_s[i] * 1e9 /
                                 static_cast<double>(fixed_ref[i].replies));
    if (ref_cpu_ns_windows.back() > 0) {
      cpu_rel.push_back(cpu_ns_windows.back() / ref_cpu_ns_windows.back());
    }
    if (fixed[i].rtt_us.size() < 1000 || fixed_ref[i].rtt_us.size() < 1000) continue;
    p50_windows.push_back(percentile(fixed[i].rtt_us, 50));
    ref_p50_windows.push_back(percentile(fixed_ref[i].rtt_us, 50));
    rtt_rel.push_back(p50_windows.back() / ref_p50_windows.back());
  }
  for (std::size_t i = 0; i < sat.size(); ++i) {
    if (sat_busiest_cpu_s[i] <= 0 || sat_ref_busiest_cpu_s[i] <= 0) continue;
    core_pps_windows.push_back(static_cast<double>(sat[i].replies) / sat_busiest_cpu_s[i]);
    ref_core_pps_windows.push_back(static_cast<double>(sat_ref[i].replies) /
                                   sat_ref_busiest_cpu_s[i]);
    core_rel.push_back(core_pps_windows.back() / ref_core_pps_windows.back());
  }
  const double cpu_ns_per_pkt = median(cpu_ns_windows);
  const double fwd_pps = static_cast<double>(sat_all.replies) / sat_all.wall_s();
  const double rtt_p50 = median(p50_windows);
  // Forwarding capacity of one core: replies per CPU-second of duetd's
  // busiest thread while saturated. Wall-clock fwd_pps moves with the CPU
  // the hypervisor steals on a shared machine; this does not.
  const double core_pps = median(core_pps_windows);
  std::printf("windows (duetd/relay): core_pps");
  for (std::size_t i = 0; i < core_rel.size(); ++i) {
    std::printf(" %.0f/%.0f", core_pps_windows[i], ref_core_pps_windows[i]);
  }
  std::printf(" | p50");
  for (std::size_t i = 0; i < rtt_rel.size(); ++i) {
    std::printf(" %.1f/%.1f", p50_windows[i], ref_p50_windows[i]);
  }
  std::printf(" | cpu_ns");
  for (std::size_t i = 0; i < cpu_rel.size(); ++i) {
    std::printf(" %.0f/%.0f", cpu_ns_windows[i], ref_cpu_ns_windows[i]);
  }
  std::printf("\n");
  const double busiest = median(sat_busiest_frac);
  std::string busy_threads;
  for (const auto& [tid, name] : task_names) busy_threads += " " + name + "/" + std::to_string(tid);
  double hit_ratio = 0.0, rebuilds = 0.0, flow_entries = 0.0;
  if (st0 && st1 && st_mid) {
    const double hits = static_cast<double>(st1->fast_hits - st0->fast_hits);
    const double misses = static_cast<double>(st1->fast_misses - st0->fast_misses);
    hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    rebuilds = static_cast<double>(st1->fast_rebuilds - st0->fast_rebuilds);
    flow_entries = static_cast<double>(st_mid->flows);
    if (stateful && hits > 0) result.fail_gate("serve_stateful: the fast tier answered packets");
    if (!stateful && !churn && hit_ratio < 0.99) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "serve_fast_tier: fast-tier hit ratio %.4f < 0.99",
                    hit_ratio);
      result.fail_gate(buf);
    }
  } else {
    result.fail_gate("duetd stats unreadable");
  }
  std::uint64_t new_flows_a = 0;
  if (churn) {
    for (std::uint64_t k = 0; k < fixed_all.sent; ++k) {
      new_flows_a += (duet::mix64(new_flow_salt ^ k) & 7) == 0 ? 1 : 0;
    }
  }

  // Correctness gates.
  if (s.integrity > 0) result.fail_gate(std::to_string(s.integrity) + " corrupt/duplicate replies");
  if (s.pcc > 0) result.fail_gate(std::to_string(s.pcc) + " PCC violations (illegal remaps)");
  if (s.misroutes > 0) result.fail_gate(std::to_string(s.misroutes) + " misrouted replies");
  if (s.unexpected > 0) result.fail_gate(std::to_string(s.unexpected) + " replies from unknown DIPs");
  if (fixed_all.replies == 0 || sat_all.replies == 0) result.fail_gate("a measured phase got no replies");

  result.attempted = s.packets + s.ops;
  result.failed = (s.packets - std::min(s.packets, s.answered)) + s.pcc + s.misroutes +
                  s.unexpected + s.op_failures;

  const double op_commit = min_group_median(s.commit_us, kCommitGroup);
  result.set("setup_s", median(s.setup_s), "s");
  if (!rtt_rel.empty()) {
    result.set("rtt_p50_vs_relay", median(rtt_rel), "ratio");
    result.set("serve.rtt_p50_us", rtt_p50, "us");
    result.set("bench.relay_rtt_p50_us", median(ref_p50_windows), "us");
  }
  if (!cpu_rel.empty()) {
    result.set("cpu_per_pkt_vs_relay", median(cpu_rel), "ratio");
    result.set("serve.cpu_ns_per_pkt", cpu_ns_per_pkt, "ns");
    result.set("bench.relay_cpu_ns_per_pkt", median(ref_cpu_ns_windows), "ns");
  }
  if (!core_rel.empty()) {
    result.set("fwd_per_core_vs_relay", median(core_rel), "ratio");
    result.set("serve.fwd_pps_per_core", core_pps, "1/s");
    result.set("bench.relay_pps_per_core", median(ref_core_pps_windows), "1/s");
  }
  result.set("persist.op_commit_us", op_commit, "us");
  // Recovery: each kill -9 restart over the start of the same binary just
  // before it, which recovers nothing; the median of these ratios. (The
  // quickest restart is the per-layer figure: noise only lengthens it.)
  std::vector<double> recover_ratios;
  for (std::size_t i = 0; i < s.recover_ms.size(); ++i) {
    if (s.start_floor_ms[i] > 0) recover_ratios.push_back(s.recover_ms[i] / s.start_floor_ms[i]);
  }
  const double recover_ms =
      s.recover_ms.empty() ? 0.0 : *std::min_element(s.recover_ms.begin(), s.recover_ms.end());
  if (!recover_ratios.empty()) {
    result.set("recover_vs_start", median(recover_ratios), "ratio");
    result.set("serve.recover_ms", recover_ms, "ms");
    result.set("bench.start_floor_ms", median(s.start_floor_ms), "ms");
  }
  result.set("rss_mb", rss, "MiB");

  result.set("runtime.busiest_thread_frac", busiest, "ratio");
  result.set("fast_tier.hit_ratio", hit_ratio, "ratio");
  result.set("fast_tier.rebuilds", rebuilds, "count");
  result.set("smux.first_packet_frac",
             fixed_all.sent > 0 ? static_cast<double>(new_flows_a) / static_cast<double>(fixed_all.sent)
                            : 0.0,
             "ratio");
  result.set("smux.flow_entries", flow_entries, "count");
  result.set("bench.sender_late_us_p99", percentile(fixed_all.late_us, 99), "us");
  result.set("bench.sender_busy_frac", fixed_all.sender_cpu_s / fixed_all.wall_s(), "ratio");
  result.set("serve.rtt_p99_us", percentile(fixed_all.rtt_us, 99), "us");
  result.set("serve.rtt_p999_us", percentile(fixed_all.rtt_us, 99.9), "us");
  result.set("serve.gaps_1ms", static_cast<double>(fixed_all.gaps_1ms), "count");
  if (!converge_ms.empty()) {
    result.set("serve.converge_ms", median(converge_ms), "ms");
    result.set("serve.converged_frac",
               static_cast<double>(converged) / static_cast<double>(converge_ms.size()), "ratio");
  }
  if (!s.churn_us.empty()) result.set("serve.churn_op_us", median(s.churn_us), "us");
  result.set("serve.removed_dip_frac",
             static_cast<double>(s.removed_dip_replies) /
                 static_cast<double>(std::max<std::uint64_t>(1, fixed_all.replies + sat_all.replies)),
             "ratio");

  const double fail_frac =
      static_cast<double>(result.failed) / static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
  std::printf("fixed rate: %llu sent, %llu answered, %.1f s, sender late p99 %.1f us, sender "
              "busy %.2f\n",
              static_cast<unsigned long long>(fixed_all.sent),
              static_cast<unsigned long long>(fixed_all.replies), fixed_all.wall_s(),
              percentile(fixed_all.late_us, 99), fixed_all.sender_cpu_s / fixed_all.wall_s());
  std::printf("saturation: %llu sent, %llu answered, %.1f s, sender busy %.2f; duetd threads "
              "(CPU / wall):%s\n",
              static_cast<unsigned long long>(sat_all.sent),
              static_cast<unsigned long long>(sat_all.replies), sat_all.wall_s(),
              sat_all.sender_cpu_s / sat_all.wall_s(), busy_threads.c_str());
  std::printf("saturation windows: busiest duetd thread at %.2f of wall (median)\n", busiest);
  std::printf("end-to-end: setup_s %.3f | fwd_pps %.0f (per busiest-thread CPU-second %.0f) | "
              "cpu_ns_per_pkt %.0f | rtt_p50_us %.1f | "
              "fail_frac %.3g | rss_mb %.1f | op_commit_us %.0f | recover_ms %.1f",
              median(s.setup_s), fwd_pps, core_pps, cpu_ns_per_pkt, rtt_p50, fail_frac, rss, op_commit,
              recover_ms);
  std::printf("\n");
  if (churn) {
    std::printf("churn: %zu of %zu added DIPs took traffic (converge_ms p50 %.1f, the rest "
                "counted to the end of the run); %llu pair slots over the per-VIP cap; %llu "
                "replies came from DIPs removed more than %llu ms earlier\n",
                converged, converge_ms.size(), median(converge_ms),
                static_cast<unsigned long long>(capped),
                static_cast<unsigned long long>(s.removed_dip_replies),
                static_cast<unsigned long long>(kRemovalGraceMs));
  }
  std::printf("tail (not gated): rtt p99 %.0f us | p99.9 %.0f us | %llu reply gaps >= 1 ms\n",
              percentile(fixed_all.rtt_us, 99), percentile(fixed_all.rtt_us, 99.9),
              static_cast<unsigned long long>(fixed_all.gaps_1ms));
  std::printf("fast tier: hit ratio %.4f, %.0f rebuilds | flows %.0f | ops %llu (%llu failed, "
              "%llu pairs, %llu snapshots) | legal remaps %llu\n",
              hit_ratio, rebuilds, flow_entries, static_cast<unsigned long long>(s.ops),
              static_cast<unsigned long long>(s.op_failures),
              static_cast<unsigned long long>(pairs), static_cast<unsigned long long>(snapshots),
              static_cast<unsigned long long>(s.legal_remaps));

  if (args.trace) {
    // In-process replay of this workload's datagrams through each layer's
    // public calls, at the same fixed rate.
    ReplayInputs in;
    in.stateless = !stateful;
    for (std::size_t v = 0; v < kVips; ++v) {
      std::vector<duet::Ipv4Address> d;
      for (std::size_t j = 0; j < kDipsPerVip; ++j) d.push_back(dip_addr(v, j));
      in.pools.emplace_back(vips[v], std::move(d));
    }
    in.flows = &dst;
    in.vips = &vips;
    in.src_base = src_base;
    in.pinned = kFlows;
    in.rate_pps = kFixedRate;
    in.seconds = std::min(3.0, fixed_s);
    next_new = 0;
    in.flow_of = measured_flow;
    SpanRecorder rec(true);
    const ReplayReport rr = replay_serving(in, rec);
    if (!rr.error.empty()) result.fail_gate("replay: " + rr.error);
    const double stages = rr.recv_ns + rr.parse_ns + rr.fast_ns + rr.smux_ns + rr.encap_ns +
                          rr.send_ns;
    result.set("runtime.recv_batch_ns_per_pkt", rr.recv_ns, "ns");
    result.set("runtime.send_batch_ns_per_pkt", rr.send_ns, "ns");
    result.set("runtime.batch_fill", rr.batch_fill, "count");
    if (cpu_ns_per_pkt > 0) result.set("runtime.coverage", stages / cpu_ns_per_pkt, "ratio");
    result.set("runtime.tracing_overhead", rr.overhead_frac, "ratio");
    result.set("net.parse_ns_per_pkt", rr.parse_ns, "ns");
    result.set("net.encap_ns_per_pkt", rr.encap_ns, "ns");
    result.set("fast_tier.lookup_ns_per_pkt", rr.fast_ns, "ns");
    result.set("fast_tier.rebuild_us", rr.rebuild_us, "us");
    result.set("smux.process_batch_ns_per_pkt", rr.smux_ns, "ns");
    std::printf("traced replay (%llu pkts, %.1f per batch): recv %.0f | parse %.0f | fast tier "
                "%.0f | process_batch %.0f | encap %.0f | send %.0f | batch glue %.0f ns/pkt\n",
                static_cast<unsigned long long>(rr.packets), rr.batch_fill, rr.recv_ns,
                rr.parse_ns, rr.fast_ns, rr.smux_ns, rr.encap_ns, rr.send_ns, rr.glue_ns);
    std::printf("coverage: serving stages %.0f ns/pkt of duetd's %.0f ns/pkt = %.2f (the rest: "
                "echo DIPs, epoll, ticks); tracing overhead %.1f%%\n",
                stages, cpu_ns_per_pkt, cpu_ns_per_pkt > 0 ? stages / cpu_ns_per_pkt : 0.0,
                rr.overhead_frac * 100.0);
    if (!args.spans_path.empty() && !rec.write_json(args.spans_path)) {
      result.fail_gate("could not write " + args.spans_path);
    }
  }
  for (auto& d : deps) std::filesystem::remove_all(d->dir);
}

}  // namespace perfbench
