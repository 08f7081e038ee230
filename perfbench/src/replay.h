// Traced replay of a serving workload: the workload's exact datagrams, sent
// at its fixed rate over loopback, pass through the same public calls duetd's
// worker makes per batch — BatchIo::recv_batch, parse_packet, the FastTier
// probe, Smux::process_batch, encapsulate_on_wire, BatchIo::send_batch — in
// duet's batch size, each wrapped in a span from this file.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/ip.h"
#include "spans.h"

namespace perfbench {

struct ReplayInputs {
  bool stateless = false;
  std::vector<std::pair<duet::Ipv4Address, std::vector<duet::Ipv4Address>>> pools;
  // The FlowSet description: destination VIP index per flow, the VIP table,
  // and the first source address.
  const std::vector<std::uint16_t>* flows = nullptr;
  const std::vector<duet::Ipv4Address>* vips = nullptr;
  std::uint32_t src_base = 0;
  std::size_t pinned = 0;  // flows [0, pinned) are warmed before timing
  double rate_pps = 0.0;
  double seconds = 0.0;
  std::function<std::uint32_t(std::uint64_t)> flow_of;
};

// Self nanoseconds per packet of each stage, from the traced pass.
struct ReplayReport {
  double recv_ns = 0, parse_ns = 0, fast_ns = 0, smux_ns = 0, encap_ns = 0, send_ns = 0,
         glue_ns = 0;
  double batch_fill = 0;      // datagrams per non-empty recv_batch
  double overhead_frac = 0;   // replay CPU/pkt traced vs untraced, minus 1
  double rebuild_us = 0;      // median FastTier::rebuild on the replica
  std::uint64_t packets = 0;  // in the traced pass
  std::string error;
};

ReplayReport replay_serving(const ReplayInputs& in, SpanRecorder& spans);

}  // namespace perfbench
