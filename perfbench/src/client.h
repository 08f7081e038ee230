// The benchmark's own traffic client: an open-loop (or windowed closed-loop)
// UDP sender plus a receiver thread that checks every reply.
//
// It depends only on POSIX sockets and the wire/stamp helpers
// (net/wire.h serialize_packet, runtime/stamp.h), never on the repository's
// load generator or batch I/O, so a change to either cannot move the ruler.
//
// Every datagram is a serialized 40-byte packet (20-byte IPv4 header, port
// stub, 16-byte stamp). The stamp carries (flow << 40 | packet index) and the
// time the packet was DUE: t0 + index / rate in open loop. Round-trip times
// are taken from the due time, so a stall also charges the wait it imposes
// on every later packet, and the sender's own lateness is reported apart.
//
// Replies come back (DSR) from the echo DIP that served the flow, so the
// reply's source port names the DIP. The receiver checks each reply byte for
// byte against the flow's template, maps it to its flow and DIP, and applies
// the PCC oracle: a flow answered by two DIPs is a violation unless its first
// DIP was removed from the pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "net/ip.h"

namespace perfbench {

inline constexpr std::size_t kDatagramBytes = 40;  // runtime::min_stamped_bytes()
inline constexpr int kMaxPhases = 512;

inline std::uint64_t pack_seq(std::uint64_t flow, std::uint64_t index) {
  return flow << 40 | (index & ((1ull << 40) - 1));
}
inline std::uint64_t seq_flow(std::uint64_t seq) { return seq >> 40; }
inline std::uint64_t seq_index(std::uint64_t seq) { return seq & ((1ull << 40) - 1); }

// The datagram templates of every flow a run can send. Flow f goes to
// vips[dst[f]] from source address src_base + f, with the source port of
// client socket (f % ports.size()).
class FlowSet {
 public:
  FlowSet(std::vector<duet::Ipv4Address> vips, std::vector<std::uint16_t> dst,
          std::vector<std::uint16_t> src_ports, std::uint32_t src_base);

  std::size_t size() const noexcept { return dst_.size(); }
  std::size_t vip_count() const noexcept { return vips_.size(); }
  std::uint16_t vip_index(std::size_t flow) const { return dst_[flow]; }
  std::size_t socket_index(std::size_t flow) const { return flow % ports_; }
  std::span<const std::uint8_t> bytes(std::size_t flow) const {
    return {templates_.data() + flow * kDatagramBytes, kDatagramBytes};
  }

 private:
  std::vector<duet::Ipv4Address> vips_;
  std::vector<std::uint16_t> dst_;
  std::size_t ports_;
  std::vector<std::uint8_t> templates_;
};

struct PhaseSpec {
  bool open_loop = true;
  double rate_pps = 0.0;      // open loop
  std::size_t window = 256;   // closed loop: replies outstanding at most
  double seconds = 0.0;       // 0 = until max_packets
  std::uint64_t max_packets = 0;  // 0 = until seconds
  bool record_rtt = false;
  // Where this phase sends; 0: the client's target (see Client::reset).
  std::uint16_t target_port = 0;
  // Flow of the phase's k-th packet.
  std::function<std::uint32_t(std::uint64_t)> flow_of;
};

struct PhaseReport {
  std::uint64_t first_index = 0;
  std::uint64_t sent = 0;
  std::uint64_t send_refused = 0;  // the kernel refused the datagram
  std::uint64_t start_ns = 0, end_ns = 0;
  double sender_cpu_s = 0.0;
  std::vector<double> late_us;  // open loop: send time minus due time
  // Filled by Client::settle() once the receiver has stopped.
  std::uint64_t replies = 0;
  std::vector<double> rtt_us;
  std::uint64_t gaps_1ms = 0;

  double wall_s() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

// Counters over the client's whole life.
struct ReplyTotals {
  std::uint64_t replies = 0;
  std::uint64_t integrity_failures = 0;  // wrong length/bytes, unknown flow, duplicate
  std::uint64_t pcc_violations = 0;      // flow remapped while its first DIP stayed
  std::uint64_t misroutes = 0;           // a DIP answering for two VIPs
  std::uint64_t unexpected_dips = 0;     // an unannounced DIP answered a VIP
  std::uint64_t legal_remaps = 0;
  // Replies from a DIP more than kRemovalGraceMs after its removal was
  // acknowledged: traffic the serving path still sends to a removed DIP.
  std::uint64_t removed_dip_replies = 0;
};

// How long after a removal's acknowledgement the serving path may still use
// the DIP (duetd applies pool changes on its next event-loop tick).
inline constexpr std::uint64_t kRemovalGraceMs = 200;

class Client {
 public:
  Client(std::uint16_t target_port, std::size_t sockets);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Binds the source sockets. False on failure.
  bool init();
  std::vector<std::uint16_t> ports() const;
  // Must be called before start(); the set must outlive the client.
  void set_flows(const FlowSet* flows);
  // Points the client at a new target and forgets every packet, reply, DIP
  // and phase. The receiver must be stopped.
  void reset(std::uint16_t target_port);

  // The receiver thread runs on `receiver_cpus` (empty: anywhere).
  void start_receiver(std::vector<int> receiver_cpus = {});
  void stop_receiver();

  // Runs one phase on the calling thread. The receiver must be running.
  PhaseReport run_phase(const PhaseSpec& spec);
  // Waits until replies stop arriving (or `max_ms`), then stops the
  // receiver and fills each report's reply-side fields.
  void settle(std::span<PhaseReport*> reports, int quiet_ms = 100, int max_ms = 2000);

  // Announcements from the ops thread, posted BEFORE the request goes out
  // so the receiver can never see the effect first. `event` is the caller's
  // id; first_reply_ns() reports when the new DIP first answered it.
  void expect_new_dip(std::uint16_t vip, duet::Ipv4Address dip, std::size_t event);
  void retire_dip(std::uint16_t vip, duet::Ipv4Address dip);
  // While on, a VIP's first replies from unknown echo ports name its initial
  // pool; after warm-up every new DIP must have been announced.
  void set_learning(bool on) { learning_.store(on, std::memory_order_relaxed); }
  // Binds known DIP addresses to their echo ports (from probes).
  void learn_dip(std::uint16_t vip, duet::Ipv4Address dip, std::uint16_t port);
  // Replies from `port` come from the reference relay (relay.h), not a DIP:
  // they are checked byte for byte and counted, but take no part in DIP
  // attribution or the PCC oracle. Set before the receiver starts.
  void set_reference_port(std::uint16_t port) { reference_port_ = port; }

  // After the receiver stopped:
  const ReplyTotals& totals() const noexcept { return totals_; }
  std::uint16_t first_port(std::size_t flow) const { return flow_port_[flow]; }
  std::uint64_t first_reply_ns(std::size_t event) const {
    return event < event_first_ns_.size() ? event_first_ns_[event] : 0;
  }
  // Packets sent over the client's life, and how many got a valid reply.
  std::uint64_t sent_total() const noexcept { return next_index_; }
  std::uint64_t answered_total() const;

 private:
  struct Source;
  struct Event {
    enum Kind { kExpect, kRetire, kLearn } kind;
    std::uint16_t vip;
    duet::Ipv4Address dip;
    std::uint16_t port;
    std::size_t event;
  };

  void receive_loop();
  void drain_events();
  void on_reply(const std::uint8_t* data, std::size_t len, std::uint16_t from_port,
                std::uint64_t now_ns);
  int phase_of(std::uint64_t index) const;

  std::uint16_t target_port_;
  std::size_t socket_count_;
  std::vector<std::unique_ptr<Source>> sources_;
  const FlowSet* flows_ = nullptr;

  // Packet index space, shared by all phases of this client.
  std::uint64_t next_index_ = 0;
  struct PhaseRange {
    std::atomic<std::uint64_t> begin{0};
    std::atomic<bool> record_rtt{false};
    std::atomic<bool> sending{false};
    std::atomic<std::uint64_t> replies{0};
    std::atomic<std::uint64_t> start_ns{0};
  };
  PhaseRange phases_[kMaxPhases];
  // Published (release) only after the new phase's `begin` is set, so the
  // receiver never attributes a reply to a phase that has no range yet.
  std::atomic<int> phase_count_{0};

  std::thread receiver_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> learning_{true};

  std::mutex events_mu_;
  std::vector<Event> events_;
  std::atomic<bool> events_pending_{false};

  // Receiver-owned state.
  ReplyTotals totals_;
  std::vector<std::uint64_t> seen_;        // bitmap by packet index
  std::vector<std::uint16_t> flow_port_;   // first DIP port per flow (0 = none)
  std::vector<std::int16_t> port_vip_;     // VIP owning each echo port (-1 = none)
  std::vector<std::uint64_t> retired_at_ns_;  // by echo port; 0 = in a pool
  struct VipExpect {
    bool pending = false;
    duet::Ipv4Address dip;
    std::size_t event = 0;
  };
  std::vector<VipExpect> expect_;
  std::vector<std::pair<duet::Ipv4Address, std::uint16_t>> addr_port_;  // learned
  std::vector<std::pair<std::uint16_t, duet::Ipv4Address>> retired_unseen_;  // (vip, dip)
  std::vector<std::uint64_t> event_first_ns_;
  std::vector<std::vector<double>> rtt_by_phase_;
  std::vector<std::uint64_t> gaps_by_phase_;
  std::uint64_t last_reply_ns_ = 0;
  std::uint16_t reference_port_ = 0;
};

}  // namespace perfbench
