#include "client.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common.h"
#include "net/wire.h"
#include "runtime/stamp.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kMaxPackets = 1ull << 26;  // index space of one client
constexpr std::size_t kRecvBatch = 64;
constexpr std::size_t kSendBatch = 32;
constexpr std::size_t kRxBufBytes = 128;  // > kDatagramBytes: oversize replies show as such

static_assert(kDatagramBytes == duet::runtime::min_stamped_bytes());

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = htons(port);
  return a;
}

}  // namespace

FlowSet::FlowSet(std::vector<duet::Ipv4Address> vips, std::vector<std::uint16_t> dst,
                 std::vector<std::uint16_t> src_ports, std::uint32_t src_base)
    : vips_(std::move(vips)), dst_(std::move(dst)), ports_(src_ports.size()) {
  templates_.resize(dst_.size() * kDatagramBytes);
  for (std::size_t f = 0; f < dst_.size(); ++f) {
    duet::FiveTuple t;
    t.src = duet::Ipv4Address{src_base + static_cast<std::uint32_t>(f)};
    t.dst = vips_[dst_[f]];
    t.src_port = src_ports[f % ports_];
    t.dst_port = 80;
    t.proto = duet::IpProto::kUdp;
    const auto bytes =
        duet::serialize_packet(duet::Packet{t, static_cast<std::uint32_t>(kDatagramBytes)});
    std::memcpy(templates_.data() + f * kDatagramBytes, bytes.data(), kDatagramBytes);
  }
}

struct Client::Source {
  int fd = -1;
  std::uint16_t port = 0;
  ~Source() {
    if (fd >= 0) ::close(fd);
  }
};

Client::Client(std::uint16_t target_port, std::size_t sockets)
    : target_port_(target_port), socket_count_(sockets == 0 ? 1 : sockets) {}

Client::~Client() { stop_receiver(); }

bool Client::init() {
  for (std::size_t i = 0; i < socket_count_; ++i) {
    auto src = std::make_unique<Source>();
    src->fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (src->fd < 0) return false;
    const int buf = 4 << 20;  // replies must not be dropped on OUR side
    ::setsockopt(src->fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
    ::setsockopt(src->fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
    sockaddr_in a = loopback(0);
    if (::bind(src->fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) return false;
    socklen_t len = sizeof(a);
    if (::getsockname(src->fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) return false;
    src->port = ntohs(a.sin_port);
    sources_.push_back(std::move(src));
  }
  seen_.assign(kMaxPackets / 64, 0);
  port_vip_.assign(65536, -1);
  retired_at_ns_.assign(65536, 0);
  return true;
}

std::vector<std::uint16_t> Client::ports() const {
  std::vector<std::uint16_t> out;
  for (const auto& s : sources_) out.push_back(s->port);
  return out;
}

void Client::set_flows(const FlowSet* flows) {
  flows_ = flows;
  flow_port_.assign(flows->size(), 0);
  expect_.assign(flows->vip_count(), VipExpect{});
}

void Client::reset(std::uint16_t target_port) {
  target_port_ = target_port;
  next_index_ = 0;
  for (PhaseRange& p : phases_) {
    p.begin.store(0);
    p.record_rtt.store(false);
    p.sending.store(false);
    p.replies.store(0);
    p.start_ns.store(0);
  }
  phase_count_.store(0);
  learning_.store(true);
  totals_ = ReplyTotals{};
  std::fill(seen_.begin(), seen_.end(), 0);
  std::fill(port_vip_.begin(), port_vip_.end(), -1);
  std::fill(retired_at_ns_.begin(), retired_at_ns_.end(), 0);
  if (flows_ != nullptr) set_flows(flows_);
  addr_port_.clear();
  retired_unseen_.clear();
  event_first_ns_.clear();
  rtt_by_phase_.clear();
  gaps_by_phase_.clear();
  last_reply_ns_ = 0;
}

void Client::start_receiver(std::vector<int> receiver_cpus) {
  if (receiver_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  receiver_ = std::thread([this, cpus = std::move(receiver_cpus)] {
    pin_to(cpus);
    receive_loop();
  });
}

void Client::stop_receiver() {
  stop_.store(true, std::memory_order_release);
  if (receiver_.joinable()) receiver_.join();
  drain_events();
}

void Client::expect_new_dip(std::uint16_t vip, duet::Ipv4Address dip, std::size_t event) {
  std::lock_guard<std::mutex> lock(events_mu_);
  events_.push_back(Event{Event::kExpect, vip, dip, 0, event});
  events_pending_.store(true, std::memory_order_release);
}

void Client::retire_dip(std::uint16_t vip, duet::Ipv4Address dip) {
  std::lock_guard<std::mutex> lock(events_mu_);
  events_.push_back(Event{Event::kRetire, vip, dip, 0, 0});
  events_pending_.store(true, std::memory_order_release);
}

void Client::learn_dip(std::uint16_t vip, duet::Ipv4Address dip, std::uint16_t port) {
  std::lock_guard<std::mutex> lock(events_mu_);
  events_.push_back(Event{Event::kLearn, vip, dip, port, 0});
  events_pending_.store(true, std::memory_order_release);
}

void Client::drain_events() {
  std::vector<Event> batch;
  {
    std::lock_guard<std::mutex> lock(events_mu_);
    batch.swap(events_);
    events_pending_.store(false, std::memory_order_release);
  }
  for (const Event& e : batch) {
    switch (e.kind) {
      case Event::kExpect:
        expect_[e.vip] = VipExpect{true, e.dip, e.event};
        break;
      case Event::kLearn:
        addr_port_.emplace_back(e.dip, e.port);
        port_vip_[e.port] = static_cast<std::int16_t>(e.vip);
        break;
      case Event::kRetire: {
        const auto it = std::find_if(addr_port_.begin(), addr_port_.end(),
                                     [&](const auto& ap) { return ap.first == e.dip; });
        if (it != addr_port_.end()) {
          retired_at_ns_[it->second] = mono_ns();
        } else {
          retired_unseen_.emplace_back(e.vip, e.dip);
        }
        if (expect_[e.vip].pending && expect_[e.vip].dip == e.dip) expect_[e.vip].pending = false;
        break;
      }
    }
  }
}

int Client::phase_of(std::uint64_t index) const {
  for (int p = phase_count_.load(std::memory_order_acquire) - 1; p >= 0; --p) {
    if (index >= phases_[p].begin.load(std::memory_order_acquire)) return p;
  }
  return -1;
}

std::uint64_t Client::answered_total() const {
  std::uint64_t n = 0;
  for (const std::uint64_t w : seen_) n += static_cast<std::uint64_t>(__builtin_popcountll(w));
  return n;
}

void Client::on_reply(const std::uint8_t* data, std::size_t len, std::uint16_t from_port,
                      std::uint64_t now_ns) {
  const auto stamp =
      duet::runtime::read_stamp(std::span<const std::uint8_t>(data, len));
  if (len != kDatagramBytes || !stamp.has_value()) {
    ++totals_.integrity_failures;
    return;
  }
  const std::uint64_t flow = seq_flow(stamp->seq);
  const std::uint64_t index = seq_index(stamp->seq);
  if (flow >= flows_->size() || index >= kMaxPackets) {
    ++totals_.integrity_failures;
    return;
  }
  // The echo path never rewrites payload bytes: outside the stamp the reply
  // is the flow's template verbatim.
  const auto tmpl = flows_->bytes(flow);
  const std::size_t at = duet::runtime::stamp_offset();
  if (std::memcmp(data, tmpl.data(), at) != 0 ||
      std::memcmp(data + at + duet::runtime::kStampBytes,
                  tmpl.data() + at + duet::runtime::kStampBytes,
                  kDatagramBytes - at - duet::runtime::kStampBytes) != 0) {
    ++totals_.integrity_failures;
    return;
  }
  std::uint64_t& word = seen_[index / 64];
  const std::uint64_t bit = 1ull << (index % 64);
  if ((word & bit) != 0) {  // a second reply to one packet
    ++totals_.integrity_failures;
    return;
  }

  // DIP attribution and the PCC oracle; the reference relay has no DIP.
  const std::uint16_t vip = flows_->vip_index(flow);
  const bool reference = reference_port_ != 0 && from_port == reference_port_;
  if (!reference) {
    if (port_vip_[from_port] < 0) {
      VipExpect& ex = expect_[vip];
      bool explained = false;
      if (ex.pending) {
        addr_port_.emplace_back(ex.dip, from_port);
        if (ex.event >= event_first_ns_.size()) event_first_ns_.resize(ex.event + 1, 0);
        event_first_ns_[ex.event] = now_ns;
        ex.pending = false;
        explained = true;
      } else {
        // A DIP removed before it ever answered may still serve until the
        // mux applies the removal.
        const auto it = std::find_if(retired_unseen_.begin(), retired_unseen_.end(),
                                     [&](const auto& r) { return r.first == vip; });
        if (it != retired_unseen_.end()) {
          addr_port_.emplace_back(it->second, from_port);
          retired_at_ns_[from_port] = now_ns;
          retired_unseen_.erase(it);
          explained = true;
        } else if (learning_.load(std::memory_order_relaxed)) {
          explained = true;  // warm-up learns the initial pools
        }
      }
      if (!explained) ++totals_.unexpected_dips;
      port_vip_[from_port] = static_cast<std::int16_t>(vip);
    } else if (port_vip_[from_port] != static_cast<std::int16_t>(vip)) {
      ++totals_.misroutes;
    }
    const std::uint64_t retired_at = retired_at_ns_[from_port];
    if (retired_at != 0 && now_ns > retired_at + kRemovalGraceMs * 1'000'000ull) {
      ++totals_.removed_dip_replies;
    }
    std::uint16_t& first = flow_port_[flow];
    if (first == 0) {
      first = from_port;
    } else if (first != from_port) {
      if (retired_at_ns_[first] != 0) {
        ++totals_.legal_remaps;
        first = from_port;
      } else {
        ++totals_.pcc_violations;
      }
    }
  }

  word |= bit;
  ++totals_.replies;
  const int p = phase_of(index);
  if (p < 0) return;
  PhaseRange& ph = phases_[p];
  ph.replies.fetch_add(1, std::memory_order_relaxed);
  if (ph.sending.load(std::memory_order_relaxed) && last_reply_ns_ != 0 &&
      last_reply_ns_ >= ph.start_ns.load(std::memory_order_relaxed) &&
      now_ns - last_reply_ns_ >= 1'000'000) {
    ++gaps_by_phase_[static_cast<std::size_t>(p)];
  }
  last_reply_ns_ = now_ns;
  if (ph.record_rtt.load(std::memory_order_relaxed) && now_ns > stamp->send_ns) {
    rtt_by_phase_[static_cast<std::size_t>(p)].push_back(
        static_cast<double>(now_ns - stamp->send_ns) * 1e-3);
  }
}

void Client::receive_loop() {
  rtt_by_phase_.resize(kMaxPhases);
  gaps_by_phase_.resize(kMaxPhases, 0);
  std::vector<std::uint8_t> pool(kRecvBatch * kRxBufBytes);
  std::vector<iovec> iov(kRecvBatch);
  std::vector<sockaddr_in> from(kRecvBatch);
  std::vector<mmsghdr> msgs(kRecvBatch);
  std::vector<pollfd> fds;
  for (const auto& s : sources_) fds.push_back(pollfd{s->fd, POLLIN, 0});

  while (!stop_.load(std::memory_order_acquire)) {
    if (events_pending_.load(std::memory_order_acquire)) drain_events();
    if (::poll(fds.data(), fds.size(), 1) <= 0) continue;
    for (std::size_t s = 0; s < fds.size(); ++s) {
      if ((fds[s].revents & POLLIN) == 0) continue;
      for (;;) {
        for (std::size_t i = 0; i < kRecvBatch; ++i) {
          iov[i] = iovec{pool.data() + i * kRxBufBytes, kRxBufBytes};
          msgs[i] = mmsghdr{};
          msgs[i].msg_hdr.msg_iov = &iov[i];
          msgs[i].msg_hdr.msg_iovlen = 1;
          msgs[i].msg_hdr.msg_name = &from[i];
          msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        }
        const int n = ::recvmmsg(fds[s].fd, msgs.data(), kRecvBatch, MSG_DONTWAIT, nullptr);
        if (n <= 0) break;
        const std::uint64_t now = mono_ns();  // one clock read per batch
        if (events_pending_.load(std::memory_order_acquire)) drain_events();
        for (int i = 0; i < n; ++i) {
          const bool truncated = (msgs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0;
          on_reply(pool.data() + static_cast<std::size_t>(i) * kRxBufBytes,
                   truncated ? kRxBufBytes + 1 : msgs[i].msg_len, ntohs(from[i].sin_port), now);
        }
        if (static_cast<std::size_t>(n) < kRecvBatch) break;
      }
    }
  }
}

PhaseReport Client::run_phase(const PhaseSpec& spec) {
  PhaseReport rep;
  const int p = phase_count_.load(std::memory_order_relaxed);
  if (p >= kMaxPhases || flows_ == nullptr) return rep;
  PhaseRange& ph = phases_[p];
  rep.first_index = next_index_;
  ph.record_rtt.store(spec.record_rtt, std::memory_order_relaxed);
  ph.replies.store(0, std::memory_order_relaxed);
  ph.begin.store(next_index_, std::memory_order_relaxed);
  phase_count_.store(p + 1, std::memory_order_release);

  std::vector<std::uint8_t> out(kSendBatch * kDatagramBytes);
  std::vector<std::size_t> out_src(kSendBatch);
  std::vector<iovec> iov(kSendBatch);
  std::vector<mmsghdr> msgs(kSendBatch);
  sockaddr_in to = loopback(spec.target_port != 0 ? spec.target_port : target_port_);

  const double period_ns = spec.open_loop ? 1e9 / spec.rate_pps : 0.0;
  ::prctl(PR_SET_TIMERSLACK, 1000);  // 1 us: the closed loop's naps stay short
  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint64_t t0 = mono_ns();
  const std::uint64_t deadline =
      spec.seconds > 0 ? t0 + static_cast<std::uint64_t>(spec.seconds * 1e9) : ~0ull;
  rep.start_ns = t0;
  ph.start_ns.store(t0, std::memory_order_relaxed);
  ph.sending.store(true, std::memory_order_release);
  if (spec.open_loop) {
    rep.late_us.reserve(static_cast<std::size_t>(spec.rate_pps * spec.seconds) + 16);
  }

  std::uint64_t k = 0;  // packets of this phase queued so far
  std::uint64_t presumed_lost = 0;
  std::uint64_t stalled_since = 0;
  const auto limit_reached = [&] { return spec.max_packets != 0 && k >= spec.max_packets; };

  for (;;) {
    const std::uint64_t now = mono_ns();
    if (now >= deadline || limit_reached()) break;
    std::size_t n = 0;
    if (spec.open_loop) {
      while (n < kSendBatch && !limit_reached()) {
        const auto due = t0 + static_cast<std::uint64_t>(static_cast<double>(k) * period_ns);
        if (due > now || due >= deadline) break;
        const std::uint32_t flow = spec.flow_of(k);
        std::uint8_t* dst = out.data() + n * kDatagramBytes;
        std::memcpy(dst, flows_->bytes(flow).data(), kDatagramBytes);
        duet::runtime::write_stamp(std::span<std::uint8_t>(dst, kDatagramBytes),
                                   duet::runtime::Stamp{pack_seq(flow, next_index_ + k), due});
        rep.late_us.push_back(static_cast<double>(now - due) * 1e-3);
        out_src[n++] = flows_->socket_index(flow);
        ++k;
      }
    } else {
      const std::uint64_t answered = ph.replies.load(std::memory_order_acquire);
      const std::uint64_t inflight = k - std::min(k, answered + presumed_lost);
      if (inflight >= spec.window) {
        // No reply progress for 20 ms: the window's stragglers are lost.
        if (stalled_since == 0) stalled_since = now;
        if (now - stalled_since > 20'000'000) {
          presumed_lost += inflight;
          stalled_since = 0;
        }
        // Sleep rather than spin: the client shares the machine with duetd.
        const timespec nap{0, 20'000};
        ::nanosleep(&nap, nullptr);
        continue;
      }
      stalled_since = 0;
      const std::uint64_t room = std::min<std::uint64_t>(spec.window - inflight, kSendBatch);
      while (n < room && !limit_reached()) {
        const std::uint32_t flow = spec.flow_of(k);
        std::uint8_t* dst = out.data() + n * kDatagramBytes;
        std::memcpy(dst, flows_->bytes(flow).data(), kDatagramBytes);
        duet::runtime::write_stamp(std::span<std::uint8_t>(dst, kDatagramBytes),
                                   duet::runtime::Stamp{pack_seq(flow, next_index_ + k), now});
        out_src[n++] = flows_->socket_index(flow);
        ++k;
      }
    }
    if (n == 0) continue;
    // One sendmmsg per source socket in the batch.
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      std::size_t m = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (out_src[i] != s) continue;
        iov[m] = iovec{out.data() + i * kDatagramBytes, kDatagramBytes};
        msgs[m] = mmsghdr{};
        msgs[m].msg_hdr.msg_iov = &iov[m];
        msgs[m].msg_hdr.msg_iovlen = 1;
        msgs[m].msg_hdr.msg_name = &to;
        msgs[m].msg_hdr.msg_namelen = sizeof(to);
        ++m;
      }
      std::size_t done = 0;
      while (done < m) {
        const int r = ::sendmmsg(sources_[s]->fd, msgs.data() + done,
                                 static_cast<unsigned>(m - done), 0);
        if (r <= 0) {
          if (r < 0 && errno == EINTR) continue;
          rep.send_refused += m - done;  // EAGAIN/ENOBUFS: counted, never retried
          break;
        }
        done += static_cast<std::size_t>(r);
      }
    }
  }
  rep.end_ns = mono_ns();
  ph.sending.store(false, std::memory_order_release);
  rep.sender_cpu_s = static_cast<double>(thread_cpu_ns() - cpu0) * 1e-9;
  rep.sent = k;
  next_index_ += k;
  return rep;
}

void Client::settle(std::span<PhaseReport*> reports, int quiet_ms, int max_ms) {
  const std::uint64_t t0 = mono_ns();
  std::uint64_t last_total = ~0ull;
  std::uint64_t last_change = t0;
  for (;;) {
    std::uint64_t total = 0;
    for (int p = 0; p < phase_count_.load(); ++p) total += phases_[p].replies.load();
    const std::uint64_t now = mono_ns();
    if (total != last_total) {
      last_total = total;
      last_change = now;
    }
    if (now - last_change >= static_cast<std::uint64_t>(quiet_ms) * 1'000'000ull ||
        now - t0 >= static_cast<std::uint64_t>(max_ms) * 1'000'000ull) {
      break;
    }
    ::usleep(5000);
  }
  stop_receiver();
  for (PhaseReport* r : reports) {
    for (int p = 0; p < phase_count_.load(); ++p) {
      if (phases_[p].begin.load() != r->first_index) continue;
      r->replies = phases_[p].replies.load();
      r->rtt_us = std::move(rtt_by_phase_[static_cast<std::size_t>(p)]);
      r->gaps_1ms = gaps_by_phase_[static_cast<std::size_t>(p)];
    }
  }
}

}  // namespace perfbench
