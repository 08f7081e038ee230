// Hop-by-hop packet forwarder driven by per-switch state.
//
// The flow/probe simulators answer "where does traffic go" from a global
// view. This forwarder instead walks a packet switch by switch, consulting
// at each hop exactly what that switch knows:
//   * its RIB view (routing/bgp.h — possibly stale mid-convergence),
//   * its mux tables (dataplane/pipeline.h — VIP hit => encapsulate),
//   * ECMP next-hop choice by flow hash.
// It therefore reproduces the *emergent* behaviours the paper's design
// leans on — transient blackholes while a withdrawn /32 lingers in remote
// RIBs, the mid-migration detour through the old HMux, TIP double bounces —
// and detects the pathologies (loops, dead ends) as explicit outcomes
// rather than CHECK failures.
//
// Only forwarder_test drives it today: no example, bench or other simulator
// uses it, and the probe simulator keeps its faster closed-form path model.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/id_set.h"


#include "dataplane/pipeline.h"
#include "net/packet.h"
#include "routing/bgp.h"
#include "topo/paths.h"
#include "topo/topology.h"

namespace duet {

enum class ForwardOutcome : std::uint8_t {
  kDeliveredToHost,  // reached the server (outer dst attached to final ToR)
  kDeliveredToSmux,  // reached a ToR hosting an SMux that owns the route
  kBlackholed,       // a switch had no route / route pointed at a dead switch
  kDropped,          // data-plane drop (e.g. double-encap)
  kLooped,           // TTL exhausted — forwarding loop
};

std::string to_string(ForwardOutcome outcome);

struct HopTrace {
  SwitchId sw = kInvalidSwitch;
  bool mux_processed = false;  // this switch encapsulated (HMux/TIP action)
};

struct ForwardResult {
  ForwardOutcome outcome = ForwardOutcome::kBlackholed;
  std::vector<HopTrace> path;
  // Where the packet ended up (server IP or SMux ToR), when delivered.
  Ipv4Address final_destination;
  SwitchId final_switch = kInvalidSwitch;
};

class HopByHopForwarder {
 public:
  // `views` must have one RIB per switch. `dataplanes` maps a switch id to
  // its mux tables (switches without load-balancer state may be absent).
  // `smux_tors` flags ToRs hosting SMux servers (aggregate-route endpoints).
  HopByHopForwarder(const Topology& topo, const RoutingFabric& views,
                    std::unordered_map<SwitchId, SwitchDataPlane*> dataplanes,
                    std::unordered_set<SwitchId> smux_tors,
                    util::IdSet<SwitchId> failed_switches = {});

  // Injects the packet at `ingress` and walks it to an outcome. The packet
  // is modified in place (encap headers added by muxes along the way).
  ForwardResult forward(Packet& packet, SwitchId ingress) const;

  void set_failed(util::IdSet<SwitchId> failed);

 private:
  // Picks the ECMP next hop toward `target` from `sw`, or kInvalidSwitch.
  SwitchId next_hop(SwitchId sw, SwitchId target, const Packet& packet) const;

  const Topology* topo_;
  const RoutingFabric* views_;
  std::unordered_map<SwitchId, SwitchDataPlane*> dataplanes_;
  std::unordered_set<SwitchId> smux_tors_;
  util::IdSet<SwitchId> failed_;
  std::unique_ptr<EcmpRouting> routing_;
  FlowHasher path_hasher_{0x9a7Eull};
};

}  // namespace duet
