// DagFabric construction, validation, routing, and small end-to-end runs:
// the deterministic (fast-suite) half of the DAG test layer. The stochastic
// sweeps live in test_dag_properties.cpp under the slow label.
#include "rxl/transport/dag_fabric.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rxl/link/credit.hpp"
#include "rxl/sim/trial_runner.hpp"

namespace rxl::transport {
namespace {

DagEdge plain_edge(std::uint16_t src, std::uint16_t dst) {
  DagEdge edge;
  edge.src = src;
  edge.dst = dst;
  return edge;
}

DagConfig base_config_from(const DagScenarioSpec& spec) {
  DagConfig config;
  config.protocol = spec.protocol;
  config.seed = spec.seed;
  config.horizon = spec.horizon;
  return config;
}

/// plan_dag must throw std::invalid_argument naming `what`.
void expect_rejection(const DagConfig& config, const std::string& what) {
  try {
    (void)plan_dag(config);
    ADD_FAILURE() << "plan_dag accepted a config that should fail on " << what;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(what), std::string::npos)
        << "message: " << error.what();
  }
}

DagScenarioSpec base_spec() {
  DagScenarioSpec spec;
  spec.protocol.protocol = Protocol::kRxl;
  spec.protocol.coalesce_factor = 8;
  spec.flits_per_flow = 600;
  spec.seed = 11;
  spec.horizon = 60'000'000;  // 60 us
  return spec;
}

// --------------------------------------------------------------------------
// Validation
// --------------------------------------------------------------------------

TEST(DagFabric, RejectsCyclicSwitchingCore) {
  DagConfig config = make_chain_dag(base_spec(), 2);
  // relay2 -> relay1 closes a cycle among the relays.
  config.edges.push_back(plain_edge(2, 1));
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
}

TEST(DagFabric, AllowsTerminalRelayBackEdge) {
  // A reverse edge relay -> terminal is not a routable cycle (traffic
  // cannot transit a terminal), so the plan accepts it; it only becomes a
  // paired bidirectional domain when a flow actually uses it.
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.edges.push_back(plain_edge(1, 0));  // relay1 -> src
  const DagPlan plan = plan_dag(config);
  EXPECT_EQ(plan.flow_paths[0].size(), 2u);
}

TEST(DagFabric, BidirectionalRelayChainPairsDomainsAndPiggybacks) {
  // A <-> R <-> B with flows both ways: each hop pairs into one
  // bidirectional domain, the relay's two ports carry data in both
  // directions, and ACKs piggyback on reverse data as in the legacy
  // point-to-point fabrics.
  DagScenarioSpec spec = base_spec();
  spec.burst_injection_rate = 1e-3;
  spec.flits_per_flow = 800;
  DagConfig config = base_config_from(spec);
  config.nodes.push_back(DagNode{"a", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"r", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"b", DagNodeKind::kTerminal, {}});
  config.edges.push_back(plain_edge(0, 1));
  config.edges.push_back(plain_edge(1, 2));
  config.edges.push_back(plain_edge(2, 1));
  config.edges.push_back(plain_edge(1, 0));
  for (DagEdge& edge : config.edges) {
    edge.burst_injection_rate = spec.burst_injection_rate;
    edge.latency = spec.latency;
  }
  config.flows.push_back(DagFlow{0, 2, spec.flits_per_flow, 0x51});
  config.flows.push_back(DagFlow{2, 0, spec.flits_per_flow, 0x52});
  const DagPlan plan = plan_dag(config);
  ASSERT_EQ(plan.segments.size(), 4u);
  for (const DagPlan::Segment& segment : plan.segments)
    EXPECT_TRUE(segment.mate.has_value());
  const DagReport report = run_dag_fabric(config);
  for (const DagFlowReport& flow : report.flows) {
    EXPECT_EQ(flow.scoreboard.in_order, 800u);
    EXPECT_EQ(flow.scoreboard.order_violations, 0u);
    EXPECT_EQ(flow.scoreboard.duplicates, 0u);
    EXPECT_EQ(flow.scoreboard.missing, 0u);
  }
  // Both domains really ran full duplex: each side of each hop both sent
  // and delivered data flits, and at least one ACK piggybacked.
  std::uint64_t piggybacked = 0;
  for (const DagLinkStats& hop : report.hops) {
    EXPECT_TRUE(hop.paired);
    EXPECT_GT(hop.a.data_flits_sent, 0u);
    EXPECT_GT(hop.b.data_flits_sent, 0u);
    piggybacked += hop.a.acks_piggybacked + hop.b.acks_piggybacked;
  }
  EXPECT_GT(piggybacked, 0u);
}

TEST(DagFabric, RejectsDuplicateAndSelfEdges) {
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.edges.push_back(config.edges.front());
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
  config = make_chain_dag(base_spec(), 1);
  config.edges.push_back(plain_edge(1, 1));
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
}

TEST(DagFabric, RejectsMultiHomedTerminals) {
  DagConfig config = make_chain_dag(base_spec(), 2);
  config.edges.push_back(plain_edge(0, 2));  // second uplink out of src
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
}

TEST(DagFabric, RejectsUnreachableFlow) {
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.nodes.push_back(DagNode{"island", DagNodeKind::kTerminal, {}});
  config.flows.push_back(
      DagFlow{0, static_cast<std::uint16_t>(config.nodes.size() - 1), 100, 1});
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
}

TEST(DagFabric, RejectsTwoFlowsFromOneTerminal) {
  DagConfig config = make_butterfly_dag(base_spec());
  config.flows.push_back(DagFlow{0, 9, 100, 1});  // s0 already originates one
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
}

TEST(DagFabric, RejectsFanOutBeyondPortLimit) {
  DagConfig config = make_fat_tree_dag(base_spec());
  config.max_ports = 2;  // the spine has 4 incident edges
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
}

TEST(DagFabric, RejectsDomainsMultiplexedOnOneHubEgress) {
  // Two sources share one hub egress edge: an implicit-sequence receiver
  // cannot demultiplex two ISN domains, so the plan must refuse.
  DagConfig config;
  config.nodes.push_back(DagNode{"s0", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"s1", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"hub", DagNodeKind::kHub, {}});
  config.nodes.push_back(DagNode{"d", DagNodeKind::kTerminal, {}});
  config.edges.push_back(plain_edge(0, 2));
  config.edges.push_back(plain_edge(1, 2));
  config.edges.push_back(plain_edge(2, 3));
  config.flows.push_back(DagFlow{0, 3, 10, 1});
  config.flows.push_back(DagFlow{1, 3, 10, 2});
  config.horizon = 1'000'000;
  expect_rejection(config, "multiplexed");
}

/// s -> h1 -> ... -> hN -> d, where every hub also has a decoy egress edge
/// to an idle terminal: declared before the chain edge at even k (the chain
/// leaves on port 1) and after it at odd k (port 0), so consecutive stages
/// route on different tags. Node ids: s 0, d 1, hub k at 2 + 2k, its decoy
/// sink at 3 + 2k; hub k's egress edges are 1 + 2k and 2 + 2k.
DagConfig hub_chain_config(std::size_t hubs) {
  DagConfig config = base_config_from(base_spec());
  config.nodes.push_back(DagNode{"s", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"d", DagNodeKind::kTerminal, {}});
  auto hub_id = [](std::size_t k) {
    return static_cast<std::uint16_t>(2 + 2 * k);
  };
  for (std::size_t k = 0; k < hubs; ++k) {
    std::string name = "h";
    name += std::to_string(k + 1);
    config.nodes.push_back(DagNode{std::move(name), DagNodeKind::kHub, {}});
    std::string decoy = "idle";
    decoy += std::to_string(k + 1);
    config.nodes.push_back(
        DagNode{std::move(decoy), DagNodeKind::kTerminal, {}});
  }
  config.edges.push_back(plain_edge(0, hub_id(0)));
  for (std::size_t k = 0; k < hubs; ++k) {
    const DagEdge decoy =
        plain_edge(hub_id(k), static_cast<std::uint16_t>(hub_id(k) + 1));
    const DagEdge chain =
        plain_edge(hub_id(k), k + 1 < hubs ? hub_id(k + 1) : std::uint16_t{1});
    config.edges.push_back(k % 2 == 0 ? decoy : chain);
    config.edges.push_back(k % 2 == 0 ? chain : decoy);
  }
  config.flows.push_back(DagFlow{0, 1, 500, 0x4C});
  return config;
}

TEST(DagFabric, PlansHubChainsWithPerStagePorts) {
  for (const std::size_t hubs : {2u, 3u}) {
    SCOPED_TRACE(hubs);
    const DagConfig config = hub_chain_config(hubs);
    const DagPlan plan = plan_dag(config);
    ASSERT_EQ(plan.segments.size(), 1u);  // one ISN domain end to end
    const DagPlan::Segment& segment = plan.segments.front();
    EXPECT_EQ(segment.origin, 0u);
    EXPECT_EQ(segment.peer, 1u);
    EXPECT_EQ(segment.egress_edge, 0u);
    ASSERT_EQ(segment.hubs.size(), hubs);
    for (std::size_t k = 0; k < hubs; ++k) {
      EXPECT_EQ(segment.hubs[k].hub, 2 + 2 * k);
      EXPECT_EQ(segment.hubs[k].port, k % 2 == 0 ? 1u : 0u);
      EXPECT_EQ(segment.hubs[k].edge, k % 2 == 0 ? 2 + 2 * k : 1 + 2 * k);
    }
    EXPECT_EQ(segment.ingress_edge, segment.hubs.back().edge);
    EXPECT_FALSE(segment.mate.has_value());

    // The tags route every flit down the chain and never into a decoy.
    const DagReport report = run_dag_fabric(config);
    EXPECT_EQ(report.flows.front().scoreboard.in_order, 500u);
    EXPECT_EQ(report.misrouted, 0u);
    ASSERT_EQ(report.hubs.size(), hubs);
    for (const DagHubReport& hub : report.hubs) {
      EXPECT_EQ(hub.stats.dropped_no_route, 0u);
      EXPECT_GE(hub.stats.flits_forwarded, 500u);
      EXPECT_EQ(hub.stats.flits_forwarded, hub.stats.flits_in);
    }
    ASSERT_EQ(report.edges.size(), config.edges.size());
    for (std::size_t k = 0; k < hubs; ++k)  // decoys stay idle
      EXPECT_EQ(report.edges[k % 2 == 0 ? 1 + 2 * k : 2 + 2 * k].flits_carried,
                0u);
  }
}

TEST(DagFabric, RejectsDomainsMultiplexedOnAnEdgeBetweenHubs) {
  // A second source joins at h1 and leaves h2 for its own sink: both ISN
  // domains would cross the h1 -> h2 edge into one hub port.
  DagConfig config = hub_chain_config(2);  // s, d, h1 2, idle1, h2 4, idle2
  config.nodes.push_back(DagNode{"s2", DagNodeKind::kTerminal, {}});  // 6
  config.nodes.push_back(DagNode{"d2", DagNodeKind::kTerminal, {}});  // 7
  config.edges.push_back(plain_edge(6, 2));
  config.edges.push_back(plain_edge(4, 7));
  config.flows.push_back(DagFlow{6, 7, 10, 0x4D});
  expect_rejection(config, "multiplexed onto the edge into h2");
}

TEST(DagFabric, PairsMatesAcrossSeparateHubStacks) {
  // The switch-level trial's downstream and upstream directions cross
  // disjoint hub stacks yet form one bidirectional domain: mates pair by
  // swapped origin and peer, not by shared hubs.
  FabricConfig levels;
  levels.switch_levels = 3;
  levels.horizon = 1'000'000;
  const DagPlan plan = plan_dag(make_switch_levels_dag(levels));
  ASSERT_EQ(plan.segments.size(), 2u);
  const std::uint16_t first_hub[] = {2, 5};  // down1..3, then up1..3
  for (std::size_t i = 0; i < 2; ++i) {
    const DagPlan::Segment& segment = plan.segments[i];
    EXPECT_EQ(segment.mate, std::optional<std::uint32_t>(1 - i));
    ASSERT_EQ(segment.hubs.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(segment.hubs[k].hub, first_hub[i] + k);
      EXPECT_EQ(segment.hubs[k].port, 0u);  // one-port switch stages
    }
  }
  // A reverse candidate is unique by construction: between two relays the
  // return path would close a cycle in the switching core, and a terminal's
  // single uplink and downlink each carry one domain direction.
  DagConfig config = base_config_from(base_spec());
  config.nodes.push_back(DagNode{"a", DagNodeKind::kTerminal, {}});  // 0
  config.nodes.push_back(DagNode{"r0", DagNodeKind::kRelay, {}});    // 1
  config.nodes.push_back(DagNode{"hub", DagNodeKind::kHub, {}});     // 2
  config.nodes.push_back(DagNode{"r1", DagNodeKind::kRelay, {}});    // 3
  config.nodes.push_back(DagNode{"b", DagNodeKind::kTerminal, {}});  // 4
  for (const auto& [src, dst] :
       {std::pair{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 3}, {3, 2}, {2, 1},
        {1, 0}})
    config.edges.push_back(plain_edge(static_cast<std::uint16_t>(src),
                                      static_cast<std::uint16_t>(dst)));
  config.flows.push_back(DagFlow{0, 4, 10, 0x51});
  config.flows.push_back(DagFlow{4, 0, 10, 0x52});
  expect_rejection(config, "cycle");
}

/// The full what() of plan_dag's rejection, or "<accepted>".
std::string rejection_message(const DagConfig& config) {
  try {
    (void)plan_dag(config);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "<accepted>";
}

/// Two host/device pairs around one transparent hub (node "hub" is id 4).
DagConfig two_pair_star(Protocol protocol) {
  StarConfig star;
  star.protocol.protocol = protocol;
  star.pairs = 2;
  star.flits_per_direction = 10;
  star.horizon = 1'000'000;
  return make_star_dag(star);
}

TEST(DagFabric, RejectsMalformedFieldsByName) {
  // One minimal mutation per rejection site in plan_dag, each pinned by its
  // full message: a config must fail on the check it breaks, not on some
  // earlier one that happens to share a word with it. Every mutation starts
  // from make_chain_dag(base_spec(), 1): src 0 -> relay1 1 -> dst 2 over
  // edges 0 and 1, one flow src -> dst.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* message;
    std::function<void(DagConfig&)> mutate;
  };
  const Case cases[] = {
      // Fabric-wide fields.
      {"DAG topology has no nodes", [](DagConfig& c) { c.nodes.clear(); }},
      {"DAG topology exceeds the 16-bit id space",
       [](DagConfig& c) { c.flows.resize(0xFFFF, c.flows.front()); }},
      {"slot must be > 0 (it divides the horizon)",
       [](DagConfig& c) { c.slot = 0; }},
      {"horizon must be > 0", [](DagConfig& c) { c.horizon = 0; }},
      {"hub_internal_error_rate must be a probability in [0, 1], got 1.500000",
       [](DagConfig& c) { c.hub_internal_error_rate = 1.5; }},
      {"hub_internal_error_rate must be a probability in [0, 1], got "
       "-0.100000",
       [](DagConfig& c) { c.hub_internal_error_rate = -0.1; }},
      {"hub_internal_error_rate must be a probability in [0, 1], got nan",
       [nan](DagConfig& c) { c.hub_internal_error_rate = nan; }},
      // Edges.
      {"edge 1 references a node out of range",
       [](DagConfig& c) { c.edges[1].dst = 7; }},
      {"self-edge at relay1", [](DagConfig& c) { c.edges[1].dst = 1; }},
      {"edge 1 ber must be a probability in [0, 1], got 1.500000",
       [](DagConfig& c) { c.edges[1].ber = 1.5; }},
      {"edge 1 ber must be a probability in [0, 1], got -1.000000",
       [](DagConfig& c) { c.edges[1].ber = -1.0; }},
      {"edge 0 ber must be a probability in [0, 1], got nan",
       [nan](DagConfig& c) { c.edges[0].ber = nan; }},
      {"edge 1 burst_injection_rate must be a probability in [0, 1], got "
       "2.000000",
       [](DagConfig& c) { c.edges[1].burst_injection_rate = 2.0; }},
      {"edge 0 burst_injection_rate must be a probability in [0, 1], got nan",
       [nan](DagConfig& c) { c.edges[0].burst_injection_rate = nan; }},
      {"edge 1 into dst declares a zero-credit buffer (the hop could never "
       "transmit); use at least one credit, or leave the edge at the "
       "DagConfig default",
       [](DagConfig& c) { c.edges[1].credits = 0; }},
      {"edge 0 credit window exceeds link::kMaxCreditWindow",
       [](DagConfig& c) { c.edges[0].credits = link::kMaxCreditWindow + 1; }},
      {"edge 0 enters hub hub, which does not terminate the hop; set credits "
       "on the hub's egress edge (into the receiving termination)",
       [](DagConfig& c) {
         c = two_pair_star(Protocol::kRxl);
         c.edges[0].credits = 4;
       }},
      {"hop_credits exceeds link::kMaxCreditWindow",
       [](DagConfig& c) { c.hop_credits = link::kMaxCreditWindow + 1; }},
      // Fault plan.
      {"fault plan addresses more edges than the topology declares",
       [](DagConfig& c) { (void)c.faults.edge(2); }},
      {"fault window on edge 1 ends at or before it starts",
       [](DagConfig& c) { c.faults.edge(1).add_window(20'000, 10'000); }},
      {"relay fail-stop event at node 0 does not name a relay",
       [](DagConfig& c) { c.faults.relay_failures.push_back({0, 1'000}); }},
      {"relay fail-stop event at node 9 does not name a relay",
       [](DagConfig& c) { c.faults.relay_failures.push_back({9, 1'000}); }},
      {"duplicate edge src -> relay1",
       [](DagConfig& c) { c.edges.push_back(c.edges.front()); }},
      // Per-node-kind limits.
      {"relay1 exceeds the fan-out limit (2 incident edges, max_ports=1)",
       [](DagConfig& c) { c.max_ports = 1; }},
      {"terminal src has more than one uplink edge",
       [](DagConfig& c) { c.edges.push_back(plain_edge(0, 2)); }},
      {"terminal dst has more than one downlink edge",
       [](DagConfig& c) {
         c.nodes.push_back(DagNode{"side", DagNodeKind::kTerminal, {}});
         c.edges.push_back(plain_edge(3, 2));
       }},
      {"hub node#3 needs at least one ingress and one egress edge",
       [](DagConfig& c) {
         c.nodes.push_back(DagNode{"", DagNodeKind::kHub, {}});
       }},
      // Core acyclicity.
      {"the switching core contains a cycle through relay1",
       [](DagConfig& c) {
         c = make_chain_dag(base_spec(), 2);
         c.edges.push_back(plain_edge(2, 1));
       }},
      // Flow routing.
      {"flow 0 references a node out of range",
       [](DagConfig& c) { c.flows[0].dst = 9; }},
      {"flow 0 endpoints must be terminals",
       [](DagConfig& c) { c.flows[0].dst = 1; }},
      {"flow 0 sends to its own source",
       [](DagConfig& c) { c.flows[0].dst = 0; }},
      {"terminal src originates more than one flow",
       [](DagConfig& c) { c.flows.push_back(c.flows.front()); }},
      {"flow 0 rides VC 8, beyond link::kMaxVcs",
       [](DagConfig& c) { c.flows[0].vc = link::kMaxVcs; }},
      {"flow src -> island is unreachable",
       [](DagConfig& c) {
         c.nodes.push_back(DagNode{"island", DagNodeKind::kTerminal, {}});
         c.flows[0].dst = 3;
       }},
      // QoS and arrival specs.
      {"flow 1 declares weight 2 for VC 0, but an earlier flow on the same VC "
       "declared 1",
       [](DagConfig& c) {
         c = make_trunk_dag(base_spec(), 2);
         c.flows[1].weight = 2;
       }},
      {"flow 0 (greedy arrivals) sets interval; pick a rate-shaped arrival "
       "kind",
       [](DagConfig& c) { c.flows[0].interval = 2'000; }},
      {"flow 0 (paced arrivals) needs interval > 0",
       [](DagConfig& c) { c.flows[0].arrival = ArrivalKind::kPaced; }},
      {"flow 0 (poisson arrivals) needs interval > 0",
       [](DagConfig& c) { c.flows[0].arrival = ArrivalKind::kPoisson; }},
      {"flow 0 (onoff arrivals) needs interval > 0 (burst spacing)",
       [](DagConfig& c) { c.flows[0].arrival = ArrivalKind::kOnOff; }},
      {"flow 0 (onoff arrivals) needs off_mean > 0",
       [](DagConfig& c) {
         c.flows[0].arrival = ArrivalKind::kOnOff;
         c.flows[0].interval = 2'000;
       }},
      {"flow 0 (onoff arrivals) needs on_mean_flits >= 1",
       [](DagConfig& c) {
         c.flows[0].arrival = ArrivalKind::kOnOff;
         c.flows[0].interval = 2'000;
         c.flows[0].off_mean = 100'000;
         c.flows[0].on_mean_flits = 0.5;
       }},
      {"flow 0 (closed arrivals) needs window >= 1",
       [](DagConfig& c) { c.flows[0].arrival = ArrivalKind::kClosedLoop; }},
      {"flow 0 (closed arrivals) takes no interval",
       [](DagConfig& c) {
         c.flows[0].arrival = ArrivalKind::kClosedLoop;
         c.flows[0].window = 4;
         c.flows[0].interval = 2'000;
       }},
      {"flow 0 (greedy arrivals) sets window; only closed-loop flows take one",
       [](DagConfig& c) { c.flows[0].window = 4; }},
      {"flow 0 (greedy arrivals) sets think; only closed-loop flows take one",
       [](DagConfig& c) { c.flows[0].think = 1'000; }},
      {"ecn_threshold set with credit flow control off everywhere; ECN early "
       "backpressure needs hop_credits or per-edge credits",
       [](DagConfig& c) { c.ecn_threshold = 4; }},
      // Segment extraction.
      {"ISN domain leaving r fans out through hub hub (one TX termination "
       "cannot feed two receivers)",
       [](DagConfig& c) {
         // s0 0 and s1 1 -> r 2 -> hub 3 -> d0 4 and d1 5.
         c = base_config_from(base_spec());
         for (const char* name : {"s0", "s1"})
           c.nodes.push_back(DagNode{name, DagNodeKind::kTerminal, {}});
         c.nodes.push_back(DagNode{"r", DagNodeKind::kRelay, {}});
         c.nodes.push_back(DagNode{"hub", DagNodeKind::kHub, {}});
         for (const char* name : {"d0", "d1"})
           c.nodes.push_back(DagNode{name, DagNodeKind::kTerminal, {}});
         for (const auto& [src, dst] :
              {std::pair{0, 2}, {1, 2}, {2, 3}, {3, 4}, {3, 5}})
           c.edges.push_back(plain_edge(static_cast<std::uint16_t>(src),
                                        static_cast<std::uint16_t>(dst)));
         c.flows.push_back(DagFlow{0, 4, 10, 1});
         c.flows.push_back(DagFlow{1, 5, 10, 2});
       }},
      {"two ISN domains are multiplexed onto the edge into d (an "
       "implicit-sequence receiver cannot demux them)",
       [](DagConfig& c) {
         c = base_config_from(base_spec());
         for (const char* name : {"s0", "s1"})
           c.nodes.push_back(DagNode{name, DagNodeKind::kTerminal, {}});
         c.nodes.push_back(DagNode{"hub", DagNodeKind::kHub, {}});
         c.nodes.push_back(DagNode{"d", DagNodeKind::kTerminal, {}});
         c.edges = {plain_edge(0, 2), plain_edge(1, 2), plain_edge(2, 3)};
         c.flows.push_back(DagFlow{0, 3, 10, 1});
         c.flows.push_back(DagFlow{1, 3, 10, 2});
       }},
      // The CXL-through-hub credit rule.
      {"credit flow control on the CXL domain through hub hub would leak "
       "credits on silently dropped flits (§4.1 losses are invisible to the "
       "cumulative return count); use RXL, terminate the hop at a relay, or "
       "disable credits on this edge",
       [](DagConfig& c) {
         c = two_pair_star(Protocol::kCxl);
         c.hop_credits = 4;
       }},
  };
  for (const Case& c : cases) {
    DagConfig config = make_chain_dag(base_spec(), 1);
    c.mutate(config);
    EXPECT_EQ(rejection_message(config), c.message);
  }
  // run_dag_fabric plans first, so a Release build cannot silently run a
  // zero-horizon fabric either.
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.horizon = 0;
  EXPECT_THROW((void)run_dag_fabric(config), std::invalid_argument);
  // The closed interval's ends are legal.
  config = make_chain_dag(base_spec(), 1);
  config.edges[0].ber = 1.0;
  config.edges[1].burst_injection_rate = 0.0;
  config.hub_internal_error_rate = 1.0;
  EXPECT_NO_THROW((void)plan_dag(config));
}

TEST(DagFabric, RejectsZeroCreditEdge) {
  // Deadlock safety: a zero-credit hop could never transmit; with the
  // acyclic core, >= 1 credit per hop guarantees progress, so the plan
  // refuses the one configuration that breaks the induction.
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.edges[1].credits = 0;
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
  config.edges[1].credits = 1;  // the minimum is accepted
  EXPECT_NO_THROW(plan_dag(config));
}

TEST(DagFabric, RejectsCreditsOnHubIngressEdges) {
  // A hop's buffer lives at its terminating end, so the per-edge override
  // belongs on the edge INTO the receiving termination. On an edge
  // entering a hub it would be silently inert; the plan refuses it.
  StarConfig star;
  star.pairs = 2;
  star.flits_per_direction = 10;
  star.horizon = 1'000'000;
  DagConfig config = make_star_dag(star);
  config.edges[0].credits = 4;  // host0's uplink INTO the hub
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
  config.edges[0].credits.reset();
  config.edges[1].credits = 4;  // the hub's egress into dev0: meaningful
  EXPECT_NO_THROW(plan_dag(config));
}

TEST(DagFabric, RejectsCxlCreditsAcrossTransparentHubs) {
  // Credit accounting assumes exactly-once delivery; a CXL domain through
  // a hub loses flits silently (§4.1), which would leak window slots
  // forever. The plan refuses the combination; the same topology is fine
  // under RXL, with credits off, or with the hub-crossing edge exempted.
  StarConfig star;
  star.pairs = 2;
  star.flits_per_direction = 10;
  star.horizon = 1'000'000;
  star.protocol.protocol = Protocol::kCxl;
  DagConfig config = make_star_dag(star);
  config.hop_credits = 4;
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
  config.protocol.protocol = Protocol::kRxl;
  EXPECT_NO_THROW(plan_dag(config));
  config.protocol.protocol = Protocol::kCxl;
  config.hop_credits = 0;
  EXPECT_NO_THROW(plan_dag(config));
  // CXL credits on relay-terminated hops stay legal: every hop detects
  // its own drops, so the exactly-once assumption holds.
  DagConfig chain = make_chain_dag(base_spec(), 2);
  chain.protocol.protocol = Protocol::kCxl;
  chain.hop_credits = 4;
  EXPECT_NO_THROW(plan_dag(chain));
}

TEST(DagFabric, RejectsOversizedCreditWindows) {
  // Cumulative credit returns travel in a 16-bit word; windows beyond half
  // the count space would make grants ambiguous.
  DagConfig config = make_chain_dag(base_spec(), 1);
  config.edges[0].credits = link::kMaxCreditWindow + 1;
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
  config.edges[0].credits.reset();
  config.hop_credits = link::kMaxCreditWindow + 1;
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Routing plans
// --------------------------------------------------------------------------

TEST(DagFabric, ChainPlanIsOneDomainPerHop) {
  const DagConfig config = make_chain_dag(base_spec(), 3);
  const DagPlan plan = plan_dag(config);
  ASSERT_EQ(plan.segments.size(), 4u);  // src-r1, r1-r2, r2-r3, r3-dst
  for (const DagPlan::Segment& segment : plan.segments) {
    EXPECT_TRUE(segment.hubs.empty());
    EXPECT_FALSE(segment.mate.has_value());
    EXPECT_EQ(segment.egress_edge, segment.ingress_edge);
  }
  ASSERT_EQ(plan.flow_segments[0].size(), 4u);
}

TEST(DagFabric, ButterflyPlanUsesAllMiddleEdges) {
  const DagConfig config = make_butterfly_dag(base_spec());
  const DagPlan plan = plan_dag(config);
  // 4 ingress hops + 4 middle hops + 4 egress hops, all unidirectional.
  EXPECT_EQ(plan.segments.size(), 12u);
  bool middle_edge_used[4] = {false, false, false, false};
  for (const auto& path : plan.flow_paths) {
    ASSERT_EQ(path.size(), 3u);
    const std::uint16_t middle = path[1];
    ASSERT_GE(middle, 4u);
    ASSERT_LT(middle, 8u);
    middle_edge_used[middle - 4] = true;
  }
  for (const bool used : middle_edge_used) EXPECT_TRUE(used);
}

TEST(DagFabric, StarPlanPairsEveryDomainThroughTheHub) {
  StarConfig star;
  star.pairs = 3;
  star.flits_per_direction = 10;
  star.horizon = 1'000'000;
  const DagConfig config = make_star_dag(star);
  const DagPlan plan = plan_dag(config);
  ASSERT_EQ(plan.segments.size(), 6u);  // one per direction per pair
  for (const DagPlan::Segment& segment : plan.segments) {
    EXPECT_EQ(segment.hubs.size(), 1u);
    EXPECT_TRUE(segment.mate.has_value());
  }
}

// --------------------------------------------------------------------------
// End-to-end runs
// --------------------------------------------------------------------------

TEST(DagFabric, CleanChainDeliversEverythingExactlyOnce) {
  const auto reports = sim::run_trials(2, [](std::size_t trial) {
    DagScenarioSpec spec = base_spec();
    spec.protocol.protocol = trial == 0 ? Protocol::kCxl : Protocol::kRxl;
    return run_dag_fabric(make_chain_dag(spec, 3));
  });
  for (const DagReport& report : reports) {
    ASSERT_EQ(report.flows.size(), 1u);
    EXPECT_EQ(report.flows[0].offered, 600u);
    EXPECT_EQ(report.flows[0].scoreboard.in_order, 600u);
    EXPECT_EQ(report.total_order_failures(), 0u);
    EXPECT_EQ(report.total_missing(), 0u);
    EXPECT_EQ(report.total_hop_retransmissions(), 0u);
    EXPECT_EQ(report.misrouted, 0u);
    EXPECT_EQ(report.total_relay_no_route_drops(), 0u);
  }
}

TEST(DagFabric, NoisyChainStaysExactlyOnceInOrder) {
  DagScenarioSpec spec = base_spec();
  spec.burst_injection_rate = 2e-3;
  spec.flits_per_flow = 1'000;
  const DagReport report = run_dag_fabric(make_chain_dag(spec, 3));
  EXPECT_GT(report.total_hop_retransmissions(), 0u);  // hops really retried
  EXPECT_EQ(report.flows[0].scoreboard.in_order, 1'000u);
  EXPECT_EQ(report.flows[0].scoreboard.duplicates, 0u);
  EXPECT_EQ(report.flows[0].scoreboard.order_violations, 0u);
  EXPECT_EQ(report.flows[0].scoreboard.data_corruptions, 0u);
  EXPECT_EQ(report.flows[0].scoreboard.missing, 0u);
}

TEST(DagFabric, ButterflyCrossTrafficCompletes) {
  DagScenarioSpec spec = base_spec();
  spec.burst_injection_rate = 1e-3;
  const DagReport report = run_dag_fabric(make_butterfly_dag(spec));
  ASSERT_EQ(report.flows.size(), 4u);
  for (const DagFlowReport& flow : report.flows) {
    EXPECT_EQ(flow.scoreboard.in_order, 600u);
    EXPECT_EQ(flow.scoreboard.order_violations, 0u);
    EXPECT_EQ(flow.scoreboard.duplicates, 0u);
    EXPECT_EQ(flow.scoreboard.missing, 0u);
  }
  EXPECT_EQ(report.misrouted, 0u);
}

TEST(DagFabric, AsymmetricFlowsShareTheTrunkHop) {
  DagScenarioSpec spec = base_spec();
  const DagReport report = run_dag_fabric(make_asymmetric_dag(spec));
  ASSERT_EQ(report.flows.size(), 2u);
  for (const DagFlowReport& flow : report.flows)
    EXPECT_EQ(flow.scoreboard.in_order, 600u);
  EXPECT_EQ(report.flows[0].path_edges.size(), 4u);
  EXPECT_EQ(report.flows[1].path_edges.size(), 3u);
  // The r1 -> r2 trunk domain carried both flows' payloads.
  bool trunk_found = false;
  for (const DagLinkStats& hop : report.hops) {
    if (hop.forward_edge == 3) {  // r1 -> r2 in make_asymmetric_dag
      trunk_found = true;
      EXPECT_EQ(hop.b.flits_delivered, 1'200u);
    }
  }
  EXPECT_TRUE(trunk_found);
}

TEST(DagFabric, RelayReportExposesPortWiring) {
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 50;
  const DagReport report = run_dag_fabric(make_chain_dag(spec, 2));
  ASSERT_EQ(report.relays.size(), 2u);
  const DagRelayReport& relay1 = report.relays[0];
  ASSERT_EQ(relay1.ports.size(), 2u);
  // Port 0 terminates the upstream hop (receives on edge 0, no data TX);
  // port 1 originates the downstream hop (transmits on edge 1).
  EXPECT_EQ(relay1.ports[0].rx_edge, 0u);
  EXPECT_EQ(relay1.ports[0].tx_edge, DagRelayPort::kNoEdge);
  EXPECT_EQ(relay1.ports[1].tx_edge, 1u);
  EXPECT_EQ(relay1.ports[0].stats.relayed_in, 50u);
  EXPECT_EQ(relay1.ports[1].stats.relayed_out, 50u);
  EXPECT_GT(relay1.ports[1].stats.max_queue_depth, 0u);
}

TEST(DagFabric, RelayPortEdgesMatchTheSegmentsTheyTerminate) {
  // Every canned topology, plus a relay whose two domains are both paired
  // (one of them spliced through a hub in each direction): each relay port
  // must report the edges of the plan segments it terminates. Ports are
  // numbered in domain order (a segment and its mate form one domain, taken
  // at the lower segment index), one per relay end of each domain.
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 20;
  StarConfig star;
  star.pairs = 2;
  star.flits_per_direction = 20;
  star.horizon = spec.horizon;
  FabricConfig levels;
  levels.switch_levels = 2;
  levels.downstream_flits = 20;
  levels.upstream_flits = 20;
  levels.horizon = spec.horizon;
  DagConfig faulted = make_diamond_dag(spec, 2, 3);
  faulted.faults.edge(2).add_window(10'000'000, 0);  // backups ride M_1
  DagConfig paired = base_config_from(spec);
  paired.nodes.push_back(DagNode{"a", DagNodeKind::kTerminal, {}});   // 0
  paired.nodes.push_back(DagNode{"up", DagNodeKind::kHub, {}});       // 1
  paired.nodes.push_back(DagNode{"r", DagNodeKind::kRelay, {}});      // 2
  paired.nodes.push_back(DagNode{"down", DagNodeKind::kHub, {}});     // 3
  paired.nodes.push_back(DagNode{"b", DagNodeKind::kTerminal, {}});   // 4
  paired.edges.push_back(plain_edge(0, 1));
  paired.edges.push_back(plain_edge(1, 2));
  paired.edges.push_back(plain_edge(2, 4));
  paired.edges.push_back(plain_edge(4, 2));
  paired.edges.push_back(plain_edge(2, 3));
  paired.edges.push_back(plain_edge(3, 0));
  paired.flows.push_back(DagFlow{0, 4, 20, 0x61});
  paired.flows.push_back(DagFlow{4, 0, 20, 0x62});

  const std::vector<std::pair<std::string, DagConfig>> topologies = {
      {"chain", make_chain_dag(spec, 3)},
      {"butterfly", make_butterfly_dag(spec)},
      {"fat_tree", make_fat_tree_dag(spec)},
      {"asymmetric", make_asymmetric_dag(spec)},
      {"incast", make_incast_dag(spec, 3)},
      {"hotspot", make_hotspot_dag(spec, 3)},
      {"diamond", make_diamond_dag(spec, 2, 2)},
      {"diamond_faulted", faulted},
      {"trunk", make_trunk_dag(spec, 3)},
      {"star", make_star_dag(star)},
      {"switch_levels", make_switch_levels_dag(levels)},
      {"paired_relay", paired},
  };
  for (const auto& [name, config] : topologies) {
    SCOPED_TRACE(name);
    const DagPlan plan = plan_dag(config);
    std::vector<std::vector<std::pair<std::uint16_t, std::uint16_t>>>
        expected(config.nodes.size());  // (rx_edge, tx_edge) per port
    bool any_paired_relay_port = false;
    for (std::size_t si = 0; si < plan.segments.size(); ++si) {
      const DagPlan::Segment& segment = plan.segments[si];
      if (segment.mate.has_value() && *segment.mate < si) continue;
      const DagPlan::Segment* mate =
          segment.mate.has_value() ? &plan.segments[*segment.mate] : nullptr;
      if (config.nodes[segment.origin].kind == DagNodeKind::kRelay) {
        expected[segment.origin].emplace_back(
            mate != nullptr ? mate->ingress_edge : DagRelayPort::kNoEdge,
            segment.egress_edge);
        any_paired_relay_port |= mate != nullptr;
      }
      if (config.nodes[segment.peer].kind == DagNodeKind::kRelay) {
        expected[segment.peer].emplace_back(
            segment.ingress_edge,
            mate != nullptr ? mate->egress_edge : DagRelayPort::kNoEdge);
        any_paired_relay_port |= mate != nullptr;
      }
    }
    if (name == "paired_relay") {
      EXPECT_TRUE(any_paired_relay_port);
    }

    const DagReport report = run_dag_fabric(config);
    std::size_t relay_nodes = 0;
    for (const DagNode& node : config.nodes)
      relay_nodes += node.kind == DagNodeKind::kRelay ? 1 : 0;
    ASSERT_EQ(report.relays.size(), relay_nodes);
    for (const DagRelayReport& relay : report.relays) {
      SCOPED_TRACE(config.nodes[relay.node].name);
      ASSERT_EQ(config.nodes[relay.node].kind, DagNodeKind::kRelay);
      const auto& ports = expected[relay.node];
      ASSERT_EQ(relay.ports.size(), ports.size());
      for (std::size_t p = 0; p < ports.size(); ++p) {
        EXPECT_EQ(relay.ports[p].rx_edge, ports[p].first) << "port " << p;
        EXPECT_EQ(relay.ports[p].tx_edge, ports[p].second) << "port " << p;
      }
    }
    EXPECT_EQ(report.total_relay_no_route_drops(), 0u);
  }
}

TEST(DagFabric, RelayWithoutRouteCountsDropsNotCrashes) {
  // Direct RelaySwitch harness: a source feeds port 0 but no flow route is
  // installed, so every accepted payload is counted dropped_no_route.
  sim::EventQueue queue;
  ProtocolConfig protocol;
  protocol.ack_policy = link::AckPolicy::kStandalone;
  Endpoint tx(queue, protocol, "tx");
  switchdev::RelaySwitch relay(queue, "r");
  relay.add_port(protocol);
  relay.add_port(protocol);
  sim::LinkChannel uplink(queue, std::make_unique<phy::NoErrors>(), 1, 2'000,
                          2'000);
  sim::LinkChannel control(queue, std::make_unique<phy::NoErrors>(), 2, 2'000,
                           2'000);
  tx.set_output(&uplink);
  uplink.set_receiver([&relay](sim::FlitEnvelope&& envelope) {
    relay.port(0).on_flit(std::move(envelope));
  });
  relay.port(0).set_output(&control);
  control.set_receiver(
      [&tx](sim::FlitEnvelope&& envelope) { tx.on_flit(std::move(envelope)); });
  tx.set_source([index = std::uint64_t{0}]() mutable -> Endpoint::TxPull {
    if (index >= 3) return {};
    return {Endpoint::TxItem{std::vector<std::uint8_t>(kPayloadBytes, 0x5A),
                             index++, 7}};
  });
  tx.kick();
  queue.run_until(1'000'000);
  EXPECT_EQ(relay.port_stats(0).relayed_in, 3u);
  EXPECT_EQ(relay.port_stats(0).dropped_no_route, 3u);
  EXPECT_EQ(relay.port_stats(1).relayed_out, 0u);
}

TEST(DagFabric, ConservationEveryDeliveryIsClassified) {
  DagScenarioSpec spec = base_spec();
  spec.protocol.protocol = Protocol::kCxl;  // per-hop CXL can lose flits
  spec.burst_injection_rate = 2e-3;
  spec.flits_per_flow = 1'000;
  const DagReport report = run_dag_fabric(make_fat_tree_dag(spec));
  for (const DagFlowReport& flow : report.flows) {
    const auto& board = flow.scoreboard;
    EXPECT_EQ(board.delivered,
              board.in_order + board.order_violations + board.late_deliveries +
                  board.duplicates + board.untracked);
    EXPECT_EQ(board.untracked, 0u);
    EXPECT_LE(board.in_order + board.late_deliveries, flow.offered);
  }
}

// --------------------------------------------------------------------------
// Hop-domain isolation
// --------------------------------------------------------------------------

TEST(DagFabric, RetryStormOnOneHopLeavesNeighborsUntouched) {
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 800;
  DagConfig config = make_chain_dag(spec, 3);
  // Force a retry storm on the r1 -> r2 hop only.
  config.edges[1].burst_injection_rate = 2e-2;
  const DagReport report = run_dag_fabric(config);
  ASSERT_EQ(report.hops.size(), 4u);
  const DagLinkStats* storm = nullptr;
  for (const DagLinkStats& hop : report.hops) {
    if (hop.forward_edge == 1) storm = &hop;
  }
  ASSERT_NE(storm, nullptr);
  EXPECT_GT(storm->a.data_flits_retransmitted, 0u);
  EXPECT_GT(storm->b.nacks_sent + storm->a.retry_rounds, 0u);
  for (const DagLinkStats& hop : report.hops) {
    if (hop.forward_edge == 1) continue;
    // Neighboring hops' sequence/retry state never moved: no NACKs, no
    // replays, no discards — their domains are fully isolated.
    EXPECT_EQ(hop.a.data_flits_retransmitted, 0u)
        << "edge " << hop.forward_edge;
    EXPECT_EQ(hop.b.nacks_sent, 0u) << "edge " << hop.forward_edge;
    EXPECT_EQ(hop.a.retry_rounds, 0u) << "edge " << hop.forward_edge;
    EXPECT_EQ(hop.b.flits_discarded_crc + hop.b.flits_discarded_fec, 0u)
        << "edge " << hop.forward_edge;
  }
  // And the flow still arrives exactly once, in order.
  EXPECT_EQ(report.flows[0].scoreboard.in_order, 800u);
  EXPECT_EQ(report.total_order_failures(), 0u);
  EXPECT_EQ(report.total_missing(), 0u);
}

// --------------------------------------------------------------------------
// Star fabric re-expressed as a one-hub DAG
// --------------------------------------------------------------------------

TEST(DagFabric, StarViaDagMatchesRecordedLegacyStarExactly) {
  // The hard-coded star builder is gone; these constants were recorded from
  // the last build that still carried it, on a run the live legacy-vs-DAG
  // equivalence test had pinned field-for-field (burst drops included, so
  // the match is a stochastic-trajectory reproduction, not a triviality).
  // Any drift in the replayed seed-draw order, the endpoint protocol, or
  // the channel error streams lands here.
  StarConfig config;
  config.protocol.protocol = Protocol::kRxl;
  config.protocol.coalesce_factor = 10;
  config.pairs = 3;
  config.seed = 77;
  config.burst_injection_rate = 2e-3;
  config.flits_per_direction = 1'500;
  config.horizon = 60'000'000;
  const DagReport dag = run_dag_fabric(make_star_dag(config));
  // Flow i is pair i downstream, flow 3+i pair i upstream.
  ASSERT_EQ(dag.flows.size(), 6u);
  for (std::size_t f = 0; f < dag.flows.size(); ++f) {
    const txn::StreamScoreboard::Stats& s = dag.flows[f].scoreboard;
    EXPECT_EQ(s.delivered, 1'500u) << "flow " << f;
    EXPECT_EQ(s.in_order, 1'500u) << "flow " << f;
    EXPECT_EQ(s.order_violations, 0u) << "flow " << f;
    EXPECT_EQ(s.duplicates, 0u) << "flow " << f;
    EXPECT_EQ(s.late_deliveries, 0u) << "flow " << f;
    EXPECT_EQ(s.data_corruptions, 0u) << "flow " << f;
    EXPECT_EQ(s.missing, 0u) << "flow " << f;
  }
  // The single hub aggregates what the legacy build split across its two
  // per-direction switch instances (recorded sums: 5285+4926 in, 10 + 3
  // FEC drops).
  ASSERT_EQ(dag.hubs.size(), 1u);
  const switchdev::PortSwitchStats& hub = dag.hubs.front().stats;
  EXPECT_EQ(hub.flits_in, 10'211u);
  EXPECT_EQ(hub.flits_forwarded, 10'198u);
  EXPECT_EQ(hub.dropped_fec, 13u);
  EXPECT_EQ(hub.dropped_no_route, 0u);
}

TEST(DagFabric, StarViaDagMatchesRecordedLegacyUnderCxlFailures) {
  // Recorded from the same last-legacy build: a CXL star whose §4.1
  // failures (order violations, duplicates, losses) the DAG wiring must
  // keep reproducing event-for-event.
  StarConfig config;
  config.protocol.protocol = Protocol::kCxl;
  config.pairs = 2;
  config.seed = 31337;
  config.burst_injection_rate = 4e-3;
  config.flits_per_direction = 1'500;
  config.horizon = 60'000'000;
  const DagReport dag = run_dag_fabric(make_star_dag(config));
  EXPECT_EQ(dag.total_order_failures(), 5u);
  EXPECT_EQ(dag.total_missing(), 46u);
  EXPECT_EQ(dag.total_in_order(), 5'950u);
  // Flows 0-1 are pairs 0-1 downstream, flows 2-3 the same pairs upstream.
  ASSERT_EQ(dag.flows.size(), 4u);
  const txn::StreamScoreboard::Stats& up0 = dag.flows[2].scoreboard;
  const txn::StreamScoreboard::Stats& down1 = dag.flows[1].scoreboard;
  const txn::StreamScoreboard::Stats& up1 = dag.flows[3].scoreboard;
  EXPECT_EQ(up0.delivered, 1'480u);
  EXPECT_EQ(up0.in_order, 1'479u);
  EXPECT_EQ(up0.order_violations, 1u);
  EXPECT_EQ(up0.missing, 20u);
  EXPECT_EQ(down1.delivered, 1'475u);
  EXPECT_EQ(down1.in_order, 1'471u);
  EXPECT_EQ(down1.duplicates, 1u);
  EXPECT_EQ(down1.late_deliveries, 1u);
  EXPECT_EQ(down1.missing, 26u);
  EXPECT_EQ(up1.delivered, 1'501u);
  EXPECT_EQ(up1.duplicates, 1u);
  ASSERT_EQ(dag.hubs.size(), 1u);
  EXPECT_EQ(dag.hubs.front().stats.flits_in, 8'308u);
  EXPECT_EQ(dag.hubs.front().stats.dropped_fec, 27u);
}

TEST(DagFabric, DeterministicAcrossRunsAndWorkerCounts) {
  auto trial = [](std::size_t) {
    DagScenarioSpec spec = base_spec();
    spec.burst_injection_rate = 2e-3;
    spec.flits_per_flow = 400;
    return run_dag_fabric(make_butterfly_dag(spec));
  };
  const auto serial = sim::run_trials(2, trial, /*workers=*/1);
  const auto sharded = sim::run_trials(2, trial, /*workers=*/2);
  for (const auto* reports : {&serial, &sharded}) {
    EXPECT_EQ((*reports)[0].total_in_order(), (*reports)[1].total_in_order());
    EXPECT_EQ((*reports)[0].total_hop_retransmissions(),
              (*reports)[1].total_hop_retransmissions());
  }
  EXPECT_EQ(serial[0].total_in_order(), sharded[0].total_in_order());
  EXPECT_EQ(serial[0].total_hop_retransmissions(),
            sharded[0].total_hop_retransmissions());
}

// --------------------------------------------------------------------------
// Traffic generators and latency sampling
// --------------------------------------------------------------------------

TEST(DagFabric, PacedSourceRearmsItsWakeupAcrossIdleGaps) {
  // A sparsely paced flow goes completely idle between flits: nothing else
  // in the fabric generates events, so delivery of every flit depends on
  // the source re-arming its own wake-up kick after each pace interval.
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 5;
  spec.horizon = 60'000'000;
  DagConfig config = make_chain_dag(spec, 1);
  config.flows[0].arrival = ArrivalKind::kPaced;
  config.flows[0].interval = 2'000'000;  // one flit per 2 us, path ~20 ns
  config.sample_latency = true;
  const DagReport report = run_dag_fabric(config);
  EXPECT_EQ(report.flows[0].offered, 5u);
  EXPECT_EQ(report.flows[0].scoreboard.in_order, 5u);
  EXPECT_EQ(report.flows[0].latency.count(), 5u);
  EXPECT_EQ(report.flows[0].latency_sample_misses, 0u);
  // Arrival-based latency: each flit was pulled at its due instant, so the
  // recorded latency is pure path transit, well under one pace interval.
  EXPECT_LT(report.flows[0].latency.max(), 1'000'000u);
}

TEST(DagFabric, PoissonIncastSamplesEveryDeliveryDeterministically) {
  auto run = [] {
    DagScenarioSpec spec = base_spec();
    spec.flits_per_flow = 2'000;
    spec.hop_credits = 16;
    spec.sample_latency = true;
    DagConfig config = make_incast_dag(spec, 4);
    for (DagFlow& flow : config.flows) {
      flow.arrival = ArrivalKind::kPoisson;
      flow.interval = 10'000;
    }
    return run_dag_fabric(config);
  };
  const DagReport first = run();
  const DagReport second = run();
  std::uint64_t sampled = 0;
  for (std::size_t f = 0; f < first.flows.size(); ++f) {
    // Identical reruns: same seeds -> bit-identical histograms.
    EXPECT_TRUE(first.flows[f].latency == second.flows[f].latency);
    EXPECT_EQ(first.flows[f].offered, second.flows[f].offered);
    // Every in-order delivery produced a sample; none fell out of the ring
    // on this credited fabric (the deterministic-suite pin for misses).
    EXPECT_EQ(first.flows[f].latency.count(),
              first.flows[f].scoreboard.in_order);
    EXPECT_EQ(first.flows[f].latency_sample_misses, 0u);
    // Raw samples stay behind the debug opt-in even with sampling on.
    EXPECT_TRUE(first.flows[f].latency_samples.empty());
    sampled += first.flows[f].latency.count();
  }
  EXPECT_GT(sampled, 0u);
  EXPECT_EQ(first.total_latency_sample_misses(), 0u);
  EXPECT_EQ(first.merged_latency().count(), sampled);
}

TEST(DagFabric, DebugOptInKeepsRawSamplesMatchingTheHistogram) {
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 500;
  DagConfig config = make_chain_dag(spec, 1);
  config.debug_latency_samples = true;  // implies sample_latency
  const DagReport report = run_dag_fabric(config);
  const DagFlowReport& flow = report.flows[0];
  EXPECT_EQ(flow.latency_samples.size(), flow.latency.count());
  EXPECT_EQ(flow.latency_samples.size(), 500u);
  stats::LatencyHistogram rebuilt;
  for (const TimePs sample : flow.latency_samples) rebuilt.add(sample);
  EXPECT_TRUE(rebuilt == flow.latency);
}

TEST(DagFabric, ClosedLoopWindowBoundsOutstandingPulls) {
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 50'000;  // budget never the limit
  spec.hop_credits = 16;
  spec.sample_latency = true;
  DagConfig config = make_chain_dag(spec, 1);
  config.flows[0].arrival = ArrivalKind::kClosedLoop;
  config.flows[0].window = 4;
  config.flows[0].think = 100'000;  // 0.1 us think per completion
  const DagReport report = run_dag_fabric(config);
  const DagFlowReport& flow = report.flows[0];
  // The think time throttles the flow far below wire speed (~4 flits per
  // 0.1 us round = ~40% load), and the window bound holds at quiescence:
  // offered never runs more than `window` ahead of completions.
  EXPECT_GT(flow.scoreboard.in_order, 1'000u);
  EXPECT_LT(flow.offered, 45'000u);
  EXPECT_LE(flow.offered - flow.scoreboard.in_order, 4u);
  EXPECT_EQ(flow.latency_sample_misses, 0u);
}

TEST(DagFabric, RingOverrunCountsMissesInsteadOfSilentlySkipping) {
  // Credits off: the relay queue is unbounded, so four greedy sources
  // pushing at wire speed into one sink hop build a per-flow backlog far
  // beyond kLatencyRingSlots. Deliveries whose inject timestamp was
  // overwritten must be COUNTED as misses, and every delivery must land in
  // exactly one of {sampled, missed} — the undercount-without-a-signal bug
  // this field exists to close.
  DagScenarioSpec spec = base_spec();
  spec.flits_per_flow = 20'000;
  spec.hop_credits = 0;
  spec.horizon = 60'000'000;
  spec.sample_latency = true;
  const DagReport report = run_dag_fabric(make_incast_dag(spec, 4));
  EXPECT_GT(report.total_latency_sample_misses(), 0u);
  for (const DagFlowReport& flow : report.flows)
    EXPECT_EQ(flow.latency.count() + flow.latency_sample_misses,
              flow.scoreboard.in_order);
}

}  // namespace
}  // namespace rxl::transport
