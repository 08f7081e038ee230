// Self-tests of the benchmark's own accounting, against an in-process echo
// server standing in for duetd: due-time latency under a sender stall, lost
// packets counting as failed, the legal-remap PCC oracle, and span self-time
// arithmetic.
//
//   perfbench_selftest      (exit 0 = all pass)
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "client.h"
#include "common.h"
#include "relay.h"
#include "runtime/stamp.h"
#include "spans.h"

using namespace perfbench;

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                        \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::printf("  FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);         \
      ++g_failures;                                                         \
    }                                                                       \
  } while (0)

int bound_socket(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a));
  socklen_t len = sizeof(a);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len);
  *port = ntohs(a.sin_port);
  return fd;
}

// Receives on one socket and echoes each datagram, unchanged, to the port in
// its port stub — from DIP socket `dip` (0 or 1), or not at all when `drop`
// says so. The stand-in for mux + DSR echo DIP.
class EchoServer {
 public:
  EchoServer() {
    in_fd_ = bound_socket(&port_);
    for (int i = 0; i < 2; ++i) dip_fd_[i] = bound_socket(&dip_port_[i]);
    thread_ = std::thread([this] { loop(); });
  }
  ~EchoServer() {
    stop_.store(true);
    thread_.join();
    ::close(in_fd_);
    for (const int fd : dip_fd_) ::close(fd);
  }
  std::uint16_t port() const { return port_; }
  std::uint16_t dip_port(int i) const { return dip_port_[i]; }

  std::atomic<int> dip{0};
  std::atomic<int> drop_every{0};  // drop packet n when n % drop_every == 0
  std::atomic<std::uint64_t> dropped{0};

 private:
  void loop() {
    std::uint8_t buf[256];
    std::uint64_t n = 0;
    while (!stop_.load()) {
      pollfd p{in_fd_, POLLIN, 0};
      if (::poll(&p, 1, 5) <= 0) continue;
      for (;;) {  // drain: a burst must not queue behind one poll per datagram
      const ssize_t len = ::recv(in_fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (len < 0) break;
      if (len < 24) continue;
      ++n;
      const int every = drop_every.load();
      if (every > 0 && n % static_cast<std::uint64_t>(every) == 0) {
        dropped.fetch_add(1);
        continue;
      }
      sockaddr_in to{};
      to.sin_family = AF_INET;
      to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      to.sin_port = htons(static_cast<std::uint16_t>(buf[20] << 8 | buf[21]));
      ::sendto(dip_fd_[dip.load()], buf, static_cast<std::size_t>(len), 0,
               reinterpret_cast<sockaddr*>(&to), sizeof(to));
      }
    }
  }

  int in_fd_ = -1;
  int dip_fd_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::uint16_t dip_port_[2] = {0, 0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

const duet::Ipv4Address kVip{100, 64, 0, 1};

FlowSet one_vip_flows(const Client& c, std::size_t n) {
  return FlowSet({kVip}, std::vector<std::uint16_t>(n, 0), c.ports(), 0x0a000001u);
}

// A sender stall of 5 ms must show as latency: every datagram carries its
// due time (t0 + index / rate), not the time it finally left, and the reply
// is timed from it.
void due_time_latency() {
  std::printf("due-time latency on a delayed stream\n");
  constexpr double kRate = 10000;
  constexpr std::uint64_t kStallAt = 1000;
  const auto stalled_schedule = [](std::uint64_t k) {
    if (k == kStallAt) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return static_cast<std::uint32_t>(k % 64);
  };

  // 1. The stamps themselves, read raw at a sink: spaced exactly one period
  //    apart, straight through the stall.
  {
    std::uint16_t sink_port = 0;
    const int sink = bound_socket(&sink_port);
    const int buf = 4 << 20;
    ::setsockopt(sink, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
    Client c(sink_port, 1);
    EXPECT(c.init());
    const FlowSet flows = one_vip_flows(c, 64);
    c.set_flows(&flows);
    PhaseSpec spec;
    spec.rate_pps = kRate;
    spec.seconds = 0.3;
    spec.flow_of = stalled_schedule;
    const PhaseReport rep = c.run_phase(spec);
    std::uint8_t dgram[64];
    std::uint64_t first_due = 0, checked = 0, off_schedule = 0;
    for (;;) {
      const ssize_t len = ::recv(sink, dgram, sizeof(dgram), MSG_DONTWAIT);
      if (len <= 0) break;
      const auto stamp = duet::runtime::read_stamp(
          std::span<const std::uint8_t>(dgram, static_cast<std::size_t>(len)));
      if (!stamp) continue;
      const std::uint64_t k = seq_index(stamp->seq);
      if (k == 0) first_due = stamp->send_ns;
      const double want = static_cast<double>(first_due) + static_cast<double>(k) * 1e9 / kRate;
      if (std::abs(static_cast<double>(stamp->send_ns) - want) > 1.0) ++off_schedule;
      ++checked;
    }
    ::close(sink);
    const double max_late = *std::max_element(rep.late_us.begin(), rep.late_us.end());
    std::printf("  %llu stamps, %llu off the due schedule, max lateness %.0f us\n",
                static_cast<unsigned long long>(checked),
                static_cast<unsigned long long>(off_schedule), max_late);
    EXPECT(checked == rep.sent);
    EXPECT(off_schedule == 0);
    EXPECT(max_late >= 4500);  // the stall is reported as sender lateness
  }

  // 2. Through an echo: the packet due when the stall began answers at
  //    least the stall later.
  EchoServer echo;
  Client c(echo.port(), 1);
  EXPECT(c.init());
  const FlowSet flows = one_vip_flows(c, 64);
  c.set_flows(&flows);
  c.start_receiver();
  PhaseSpec spec;
  spec.rate_pps = kRate;
  spec.seconds = 0.3;
  spec.record_rtt = true;
  spec.flow_of = stalled_schedule;
  PhaseReport rep = c.run_phase(spec);
  PhaseReport* reps[] = {&rep};
  c.settle(reps);
  const double max_rtt = *std::max_element(rep.rtt_us.begin(), rep.rtt_us.end());
  std::printf("  echo: max rtt %.0f us, p50 rtt %.0f us\n", max_rtt, percentile(rep.rtt_us, 50));
  EXPECT(max_rtt >= 4500);
  EXPECT(percentile(rep.rtt_us, 50) < 2000);
}

// Every packet without a valid reply is failed: sent - answered == dropped.
void lost_packets_fail() {
  std::printf("lost packets count as failed\n");
  EchoServer echo;
  echo.drop_every.store(10);
  Client c(echo.port(), 2);
  EXPECT(c.init());
  const FlowSet flows = one_vip_flows(c, 256);
  c.set_flows(&flows);
  c.start_receiver();
  PhaseSpec spec;
  spec.open_loop = false;
  spec.window = 32;
  spec.max_packets = 5000;
  spec.flow_of = [](std::uint64_t k) { return static_cast<std::uint32_t>(k % 256); };
  PhaseReport rep = c.run_phase(spec);
  PhaseReport* reps[] = {&rep};
  c.settle(reps);
  std::printf("  sent %llu, answered %llu, dropped %llu\n",
              static_cast<unsigned long long>(c.sent_total()),
              static_cast<unsigned long long>(c.answered_total()),
              static_cast<unsigned long long>(echo.dropped.load()));
  EXPECT(c.sent_total() == 5000);
  EXPECT(c.sent_total() - c.answered_total() == echo.dropped.load());
  EXPECT(echo.dropped.load() == 500);
}

// A flow answered by a second DIP is a PCC violation unless its first DIP
// left the pool.
void pcc_oracle() {
  std::printf("PCC oracle: illegal vs legal remap\n");
  const duet::Ipv4Address dip_a{172, 16, 0, 1};
  const auto run = [&](bool retire_first) {
    EchoServer echo;
    Client c(echo.port(), 1);
    EXPECT(c.init());
    const FlowSet flows = one_vip_flows(c, 100);
    c.set_flows(&flows);
    c.learn_dip(0, dip_a, echo.dip_port(0));
    c.set_learning(false);
    c.start_receiver();
    PhaseSpec spec;
    spec.open_loop = false;
    spec.window = 16;
    spec.max_packets = 100;
    spec.flow_of = [](std::uint64_t k) { return static_cast<std::uint32_t>(k); };
    PhaseReport first = c.run_phase(spec);
    PhaseReport* first_reps[] = {&first};
    c.settle(first_reps);
    // The pool changes: DIP B (announced) takes over.
    echo.dip.store(1);
    if (retire_first) c.retire_dip(0, dip_a);
    c.expect_new_dip(0, duet::Ipv4Address{172, 16, 0, 2}, 0);
    c.start_receiver();
    PhaseReport second = c.run_phase(spec);
    PhaseReport* reps[] = {&second};
    c.settle(reps);
    return c.totals();
  };
  const ReplyTotals illegal = run(false);
  std::printf("  without removal: %llu violations, %llu legal\n",
              static_cast<unsigned long long>(illegal.pcc_violations),
              static_cast<unsigned long long>(illegal.legal_remaps));
  EXPECT(illegal.pcc_violations == 100);
  EXPECT(illegal.legal_remaps == 0);
  const ReplyTotals legal = run(true);
  std::printf("  first DIP removed: %llu violations, %llu legal\n",
              static_cast<unsigned long long>(legal.pcc_violations),
              static_cast<unsigned long long>(legal.legal_remaps));
  EXPECT(legal.pcc_violations == 0);
  EXPECT(legal.legal_remaps == 100);
  EXPECT(legal.unexpected_dips == 0);
}

// The reference relay answers every datagram byte for byte, and its
// replies are counted without touching DIP attribution or the PCC oracle,
// even for flows a DIP answered before.
void relay_replies() {
  std::printf("reference relay: replies counted, no DIP attribution\n");
  EchoServer echo;
  Relay relay;
  EXPECT(relay.start({}, {}));
  Client c(echo.port(), 2);
  EXPECT(c.init());
  const FlowSet flows = one_vip_flows(c, 100);
  c.set_flows(&flows);
  c.set_reference_port(relay.reply_port());
  c.learn_dip(0, duet::Ipv4Address{172, 16, 0, 1}, echo.dip_port(0));
  c.set_learning(false);
  c.start_receiver();
  PhaseSpec spec;
  spec.open_loop = false;
  spec.window = 16;
  spec.max_packets = 1000;
  spec.flow_of = [](std::uint64_t k) { return static_cast<std::uint32_t>(k % 100); };
  PhaseReport to_dip = c.run_phase(spec);
  spec.target_port = relay.port();
  PhaseReport to_relay = c.run_phase(spec);
  PhaseReport* reps[] = {&to_dip, &to_relay};
  c.settle(reps);
  relay.stop();
  const ReplyTotals& t = c.totals();
  std::printf("  %llu + %llu answered of %llu sent; %llu unexpected DIPs, %llu PCC violations, "
              "%llu corrupt\n",
              static_cast<unsigned long long>(to_dip.replies),
              static_cast<unsigned long long>(to_relay.replies),
              static_cast<unsigned long long>(c.sent_total()),
              static_cast<unsigned long long>(t.unexpected_dips),
              static_cast<unsigned long long>(t.pcc_violations),
              static_cast<unsigned long long>(t.integrity_failures));
  EXPECT(to_dip.replies == 1000);
  EXPECT(to_relay.replies == 1000);
  EXPECT(c.answered_total() == 2000);
  EXPECT(t.unexpected_dips == 0);
  EXPECT(t.pcc_violations == 0);
  EXPECT(t.misroutes == 0);
  EXPECT(t.integrity_failures == 0);
}

void span_self_time() {
  std::printf("span self-time arithmetic\n");
  EXPECT(uncovered_ns(100, 200, {}) == 100);
  EXPECT(uncovered_ns(100, 200, {{110, 120}, {150, 170}}) == 70);
  EXPECT(uncovered_ns(100, 200, {{110, 150}, {140, 160}}) == 50);  // overlap counted once
  EXPECT(uncovered_ns(100, 200, {{50, 120}, {190, 260}}) == 70);   // clipped to the parent
  EXPECT(uncovered_ns(100, 200, {{0, 300}}) == 0);

  SpanRecorder rec(true);
  const int root = rec.add("batch", 0, 1000, -1, 7);
  const int a = rec.add("parse", 100, 300, root, 7);
  rec.add("inner", 150, 250, a, 7);
  rec.add("send", 600, 900, root, 7);
  const auto self = rec.self_ns_by_name();
  EXPECT(self.at("batch") == 500);
  EXPECT(self.at("parse") == 100);
  EXPECT(self.at("inner") == 100);
  EXPECT(self.at("send") == 300);
}

}  // namespace

int main() {
  due_time_latency();
  lost_packets_fail();
  pcc_oracle();
  relay_replies();
  span_self_time();
  std::printf("%s (%d failures)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
