#include "runtime/fake_dip.h"

#include <algorithm>

#include "net/wire.h"

namespace duet::runtime {

namespace {
// The pool thread's loop only waits for the ingress and for wake(); the
// tick bounds shutdown latency should a wake be lost.
constexpr int kTickMs = 100;
}  // namespace

struct FakeDipPool::Dip {
  Ipv4Address dip;
  UdpSocket sock;  // answers only; nothing reads it
  std::atomic<std::uint64_t> packets{0};
};

FakeDipPool::FakeDipPool(Options options)
    : opts_(options), io_(options.batch), rx_(options.batch), reply_(options.batch) {
  // Fixed-size arena: pump never grows any array.
  order_.reserve(options.batch);
  tx_.reserve(options.batch);
  if (auto sock = UdpSocket::bind(Endpoint{opts_.bind_addr, 0})) ingress_ = std::move(*sock);
}

FakeDipPool::~FakeDipPool() {
  shutdown();
  join();
}

Endpoint FakeDipPool::ingress() const { return ingress_.valid() ? ingress_.local() : Endpoint{}; }

std::optional<Endpoint> FakeDipPool::add_dip(Ipv4Address dip) {
  auto sock = UdpSocket::bind(Endpoint{opts_.bind_addr, 0});
  if (!sock) return std::nullopt;
  const Endpoint at = sock->local();
  std::lock_guard<std::mutex> lock(mu_);
  added_.push_back(std::make_unique<Dip>(dip, std::move(*sock)));
  has_added_.store(true, std::memory_order_release);
  return at;
}

void FakeDipPool::adopt_added() {
  std::lock_guard<std::mutex> lock(mu_);
  has_added_.store(false, std::memory_order_relaxed);
  for (auto& d : added_) {
    index_.insert(d->dip, static_cast<std::uint32_t>(dips_.size()));
    dips_.push_back(std::move(d));
  }
  added_.clear();
}

bool FakeDipPool::start() {
  if (thread_.joinable() || !loop_.ok() || !ingress_.valid()) return false;
  adopt_added();
  if (!loop_.add(ingress_.fd(), [this] { pump(); })) return false;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] {
    name_this_thread("duet-echo");
    loop_.run(stop_, kTickMs);
  });
  return true;
}

void FakeDipPool::shutdown() {
  stop_.store(true, std::memory_order_release);
  loop_.wake();
}

void FakeDipPool::join() {
  if (thread_.joinable()) thread_.join();
}

std::uint64_t FakeDipPool::packets_at(Ipv4Address dip) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& d : dips_) {
    if (d->dip == dip) return d->packets.load(std::memory_order_relaxed);
  }
  return 0;
}

std::uint64_t FakeDipPool::total_packets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& d : dips_) total += d->packets.load(std::memory_order_relaxed);
  return total;
}

void FakeDipPool::pump() {
  for (;;) {
    const std::size_t n = io_.recv_batch(ingress_.fd(), rx_);
    if (n == 0) break;
    // A DIP added before a mux could forward to it is adopted before this
    // batch is dispatched (add_dip's contract).
    if (has_added_.load(std::memory_order_acquire)) adopt_added();

    // Only properly encapsulated datagrams naming an added DIP echo;
    // anything else (stray traffic, un-tunneled packets) is rejected, so a
    // mux bug that skips encap shows up as rejects, not silent success.
    order_.clear();
    std::uint64_t rejects = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<std::uint8_t> bytes = rx_[i].bytes;
      const auto peek = peek_encap(bytes);
      const std::uint32_t* slot = peek.has_value() ? index_.find(peek->outer_dst) : nullptr;
      if (slot == nullptr) {
        ++rejects;
        continue;
      }
      const auto inner = bytes.subspan(kIpv4HeaderBytes);  // decap: drop the outer header
      reply_[i] = TxPacket{inner.data(), inner.size(),
                           Endpoint{opts_.reply_addr, peek->inner_src_port}};
      order_.push_back((std::uint64_t{*slot} << 32) | i);
    }
    if (rejects > 0) rejects_.fetch_add(rejects, std::memory_order_relaxed);

    // Group per DIP, keeping arrival order within each DIP: the keys are
    // unique, so sorting them is stable by construction.
    std::sort(order_.begin(), order_.end());
    for (std::size_t k = 0; k < order_.size();) {
      const auto slot = static_cast<std::uint32_t>(order_[k] >> 32);
      tx_.clear();
      for (; k < order_.size() && (order_[k] >> 32) == slot; ++k) {
        tx_.push_back(reply_[order_[k] & 0xffffffffu]);
      }
      Dip& d = *dips_[slot];
      d.packets.fetch_add(tx_.size(), std::memory_order_relaxed);
      io_.send_batch(d.sock.fd(), tx_, 5);
    }
    if (n < io_.batch()) break;
  }
}

}  // namespace duet::runtime
