#include "rxl/transport/dag_fabric.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

#include "rxl/link/credit.hpp"
#include "rxl/link/sequence.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/transport/traffic.hpp"

namespace rxl::transport {
namespace {

[[noreturn]] void invalid(std::string message) {
  throw std::invalid_argument(std::move(message));
}

/// Throws unless `value` is a probability in [0, 1] (NaN fails too).
/// `edge` names the offending edge; the default marks a fabric-wide field.
void require_probability(double value, const char* field,
                         std::size_t edge = SIZE_MAX) {
  if (value >= 0.0 && value <= 1.0) return;
  std::string message;
  if (edge != SIZE_MAX) {
    message += "edge ";
    message += std::to_string(edge);
    message += " ";
  }
  message += field;
  message += " must be a probability in [0, 1], got ";
  message += std::to_string(value);
  invalid(std::move(message));
}

std::string node_label(const DagConfig& config, std::size_t node) {
  if (node < config.nodes.size() && !config.nodes[node].name.empty())
    return config.nodes[node].name;
  std::string label = "node#";
  label += std::to_string(node);
  return label;
}

/// Breadth-first shortest path from `from` to `to`, ties broken by lowest
/// edge id (out-edge lists are in declaration order, so first-reached
/// wins). Traffic cannot transit a terminal, so the search never expands
/// one past `from`. Edges flagged in `excluded` (when given) are skipped.
/// Returns the edge ids in path order, or nullopt when `to` is unreachable.
std::optional<std::vector<std::uint16_t>> shortest_path(
    const DagConfig& config,
    const std::vector<std::vector<std::uint16_t>>& out_edges,
    std::uint16_t from, std::uint16_t to,
    const std::vector<std::uint8_t>* excluded) {
  const std::size_t n = config.nodes.size();
  std::vector<std::int32_t> parent_edge(n, -1);
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<std::uint16_t> frontier{from};
  visited[from] = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::uint16_t u = frontier[head];
    if (u != from && config.nodes[u].kind == DagNodeKind::kTerminal) continue;
    for (const std::uint16_t e : out_edges[u]) {
      if (excluded != nullptr && (*excluded)[e] != 0) continue;
      const std::uint16_t w = config.edges[e].dst;
      if (visited[w]) continue;
      visited[w] = 1;
      parent_edge[w] = static_cast<std::int32_t>(e);
      frontier.push_back(w);
    }
  }
  if (!visited[to]) return std::nullopt;
  std::vector<std::uint16_t> path;
  for (std::uint16_t v = to; v != from;) {
    const std::int32_t e = parent_edge[v];
    assert(e >= 0);
    path.push_back(static_cast<std::uint16_t>(e));
    v = config.edges[static_cast<std::size_t>(e)].src;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

// ---------------------------------------------------------------------------
// Validation + routing plan
// ---------------------------------------------------------------------------

DagPlan plan_dag(const DagConfig& config) {
  const std::size_t n = config.nodes.size();
  if (n == 0) invalid("DAG topology has no nodes");
  if (n >= 0xFFFF || config.edges.size() >= 0xFFF0 ||
      config.flows.size() >= 0xFFFF)
    invalid("DAG topology exceeds the 16-bit id space");

  auto kind = [&](std::size_t node) { return config.nodes[node].kind; };
  auto label = [&](std::size_t node) { return node_label(config, node); };
  if (config.slot == 0) invalid("slot must be > 0 (it divides the horizon)");
  if (config.horizon == 0) invalid("horizon must be > 0");
  require_probability(config.hub_internal_error_rate,
                      "hub_internal_error_rate");

  // Edge sanity + adjacency (out/in lists stay in edge-id order).
  std::vector<std::vector<std::uint16_t>> out_edges(n);
  std::vector<std::vector<std::uint16_t>> in_edges(n);
  for (std::size_t e = 0; e < config.edges.size(); ++e) {
    const DagEdge& edge = config.edges[e];
    if (edge.src >= n || edge.dst >= n) {
      std::string message = "edge ";
      message += std::to_string(e);
      message += " references a node out of range";
      invalid(std::move(message));
    }
    if (edge.src == edge.dst) {
      std::string message = "self-edge at ";
      message += label(edge.src);
      invalid(std::move(message));
    }
    require_probability(edge.ber, "ber", e);
    require_probability(edge.burst_injection_rate, "burst_injection_rate", e);
    if (edge.credits.has_value()) {
      // Deadlock safety: the acyclicity check below guarantees progress
      // only if every flow-controlled hop can hold at least one flit
      // (sinks drain unconditionally, so one credit per hop suffices for
      // induction along the acyclic downstream order). A zero-credit hop
      // could never transmit at all.
      if (*edge.credits == 0) {
        std::string message = "edge ";
        message += std::to_string(e);
        message += " into ";
        message += label(edge.dst);
        message += " declares a zero-credit buffer (the hop could never "
                   "transmit); use at least one credit, or leave the edge "
                   "at the DagConfig default";
        invalid(std::move(message));
      }
      if (*edge.credits > link::kMaxCreditWindow) {
        std::string message = "edge ";
        message += std::to_string(e);
        message += " credit window exceeds link::kMaxCreditWindow";
        invalid(std::move(message));
      }
      // A hop's buffer lives at its terminating end, so credits are
      // resolved from the edge INTO the receiving termination. An edge
      // entering a hub never terminates a hop — credits set there would
      // be silently inert, so refuse them instead.
      if (kind(edge.dst) == DagNodeKind::kHub) {
        std::string message = "edge ";
        message += std::to_string(e);
        message += " enters hub ";
        message += label(edge.dst);
        message += ", which does not terminate the hop; set credits on "
                   "the hub's egress edge (into the receiving termination)";
        invalid(std::move(message));
      }
    }
    out_edges[edge.src].push_back(static_cast<std::uint16_t>(e));
    in_edges[edge.dst].push_back(static_cast<std::uint16_t>(e));
  }
  if (config.hop_credits > link::kMaxCreditWindow)
    invalid("hop_credits exceeds link::kMaxCreditWindow");

  // Fault-plan sanity: the plan may address fewer edges than the topology
  // declares (missing tail entries mean "no faults") but never more,
  // fail-stop events must name relay nodes, and every finite down window
  // must have positive length.
  if (config.faults.edges.size() > config.edges.size())
    invalid("fault plan addresses more edges than the topology declares");
  for (std::size_t e = 0; e < config.faults.edges.size(); ++e) {
    for (const sim::FaultWindow& window : config.faults.edges[e].windows()) {
      if (window.up_at != 0 && window.up_at <= window.down_at) {
        std::string message = "fault window on edge ";
        message += std::to_string(e);
        message += " ends at or before it starts";
        invalid(std::move(message));
      }
    }
  }
  for (const sim::RelayFailStop& failure : config.faults.relay_failures) {
    if (failure.node >= n || kind(failure.node) != DagNodeKind::kRelay) {
      std::string message = "relay fail-stop event at node ";
      message += std::to_string(failure.node);
      message += " does not name a relay";
      invalid(std::move(message));
    }
  }
  {
    std::vector<std::pair<std::uint16_t, std::uint16_t>> pairs;
    pairs.reserve(config.edges.size());
    for (const DagEdge& edge : config.edges)
      pairs.emplace_back(edge.src, edge.dst);
    std::sort(pairs.begin(), pairs.end());
    const auto dup = std::adjacent_find(pairs.begin(), pairs.end());
    if (dup != pairs.end()) {
      std::string message = "duplicate edge ";
      message += label(dup->first);
      message += " -> ";
      message += label(dup->second);
      invalid(std::move(message));
    }
  }

  // Per-node-kind constraints.
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t fanout = out_edges[v].size() + in_edges[v].size();
    if (fanout > config.max_ports) {
      std::string message = label(v);
      message += " exceeds the fan-out limit (";
      message += std::to_string(fanout);
      message += " incident edges, max_ports=";
      message += std::to_string(config.max_ports);
      message += ")";
      invalid(std::move(message));
    }
    switch (kind(v)) {
      case DagNodeKind::kTerminal:
        if (out_edges[v].size() > 1) {
          std::string message = "terminal ";
          message += label(v);
          message += " has more than one uplink edge";
          invalid(std::move(message));
        }
        if (in_edges[v].size() > 1) {
          std::string message = "terminal ";
          message += label(v);
          message += " has more than one downlink edge";
          invalid(std::move(message));
        }
        break;
      case DagNodeKind::kHub:
        if (out_edges[v].empty() || in_edges[v].empty()) {
          std::string message = "hub ";
          message += label(v);
          message += " needs at least one ingress and one egress edge";
          invalid(std::move(message));
        }
        break;
      case DagNodeKind::kRelay:
        break;
    }
  }

  // Acyclicity of the switching core. Traffic cannot transit a terminal
  // (flows only originate/terminate there), so the only cycles reachable by
  // routed flits are cycles among relays/hubs: DFS with colors over edges
  // whose endpoints are both non-terminal.
  {
    std::vector<std::uint8_t> color(n, 0);  // 0=white 1=grey 2=black
    struct Frame {
      std::uint16_t node;
      std::size_t next;
    };
    std::vector<Frame> stack;
    for (std::size_t start = 0; start < n; ++start) {
      if (kind(start) == DagNodeKind::kTerminal || color[start] != 0) continue;
      color[start] = 1;
      stack.push_back(Frame{static_cast<std::uint16_t>(start), 0});
      while (!stack.empty()) {
        Frame& frame = stack.back();
        if (frame.next < out_edges[frame.node].size()) {
          const std::uint16_t e = out_edges[frame.node][frame.next++];
          const std::uint16_t w = config.edges[e].dst;
          if (kind(w) == DagNodeKind::kTerminal) continue;
          if (color[w] == 1) {
            std::string message =
                "the switching core contains a cycle through ";
            message += label(w);
            invalid(std::move(message));
          }
          if (color[w] == 0) {
            color[w] = 1;
            stack.push_back(Frame{w, 0});
          }
        } else {
          color[frame.node] = 2;
          stack.pop_back();
        }
      }
    }
  }

  // Per-flow routing: BFS shortest path, ties broken by lowest edge id
  // (out-edge lists are in declaration order, so first-reached wins).
  DagPlan plan;
  plan.flow_paths.resize(config.flows.size());
  plan.flow_segments.resize(config.flows.size());
  std::vector<std::int32_t> origin_flow(n, -1);
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlow& flow = config.flows[f];
    if (flow.src >= n || flow.dst >= n) {
      std::string message = "flow ";
      message += std::to_string(f);
      message += " references a node out of range";
      invalid(std::move(message));
    }
    if (kind(flow.src) != DagNodeKind::kTerminal ||
        kind(flow.dst) != DagNodeKind::kTerminal) {
      std::string message = "flow ";
      message += std::to_string(f);
      message += " endpoints must be terminals";
      invalid(std::move(message));
    }
    if (flow.src == flow.dst) {
      std::string message = "flow ";
      message += std::to_string(f);
      message += " sends to its own source";
      invalid(std::move(message));
    }
    if (origin_flow[flow.src] >= 0) {
      std::string message = "terminal ";
      message += label(flow.src);
      message += " originates more than one flow";
      invalid(std::move(message));
    }
    origin_flow[flow.src] = static_cast<std::int32_t>(f);
    if (flow.vc >= link::kMaxVcs) {
      std::string message = "flow ";
      message += std::to_string(f);
      message += " rides VC ";
      message += std::to_string(flow.vc);
      message += ", beyond link::kMaxVcs";
      invalid(std::move(message));
    }

    std::optional<std::vector<std::uint16_t>> path =
        shortest_path(config, out_edges, flow.src, flow.dst, nullptr);
    if (!path.has_value()) {
      std::string message = "flow ";
      message += label(flow.src);
      message += " -> ";
      message += label(flow.dst);
      message += " is unreachable";
      invalid(std::move(message));
    }
    plan.flow_paths[f] = std::move(*path);
  }

  // QoS sanity. Relays schedule VCs, not flows, so every flow sharing a VC
  // must declare the same DRR weight — a mismatch would silently pick one.
  {
    std::array<std::int64_t, link::kMaxVcs> vc_weight;
    vc_weight.fill(-1);
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      const DagFlow& flow = config.flows[f];
      if (vc_weight[flow.vc] < 0) {
        vc_weight[flow.vc] = static_cast<std::int64_t>(flow.weight);
      } else if (vc_weight[flow.vc] != static_cast<std::int64_t>(flow.weight)) {
        std::string message = "flow ";
        message += std::to_string(f);
        message += " declares weight ";
        message += std::to_string(flow.weight);
        message += " for VC ";
        message += std::to_string(flow.vc);
        message += ", but an earlier flow on the same VC declared ";
        message += std::to_string(vc_weight[flow.vc]);
        invalid(std::move(message));
      }
    }
  }
  // Arrival-process sanity: each kind's shape parameters must be present,
  // and parameters of other kinds must be absent — a silently-ignored knob
  // would misstate the offered load.
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlow& flow = config.flows[f];
    auto flow_invalid = [&](const char* what) {
      std::string message = "flow ";
      message += std::to_string(f);
      message += " (";
      message += arrival_kind_name(flow.arrival);
      message += " arrivals) ";
      message += what;
      invalid(std::move(message));
    };
    switch (flow.arrival) {
      case ArrivalKind::kGreedy:
        if (flow.interval > 0)
          flow_invalid("sets interval; pick a rate-shaped arrival kind");
        break;
      case ArrivalKind::kPaced:
      case ArrivalKind::kPoisson:
        if (flow.interval == 0) flow_invalid("needs interval > 0");
        break;
      case ArrivalKind::kOnOff:
        if (flow.interval == 0)
          flow_invalid("needs interval > 0 (burst spacing)");
        if (flow.off_mean == 0) flow_invalid("needs off_mean > 0");
        if (!(flow.on_mean_flits >= 1.0))
          flow_invalid("needs on_mean_flits >= 1");
        break;
      case ArrivalKind::kClosedLoop:
        if (flow.window == 0) flow_invalid("needs window >= 1");
        if (flow.interval > 0) flow_invalid("takes no interval");
        break;
    }
    if (flow.window > 0 && flow.arrival != ArrivalKind::kClosedLoop)
      flow_invalid("sets window; only closed-loop flows take one");
    if (flow.think > 0 && flow.arrival != ArrivalKind::kClosedLoop)
      flow_invalid("sets think; only closed-loop flows take one");
  }

  // ECN marks ride on the credit machinery (they throttle a VC BEFORE its
  // window exhausts, and endpoints ignore the mark byte with credits off),
  // so a threshold with every hop unbounded could never fire.
  if (config.ecn_threshold > 0 && config.hop_credits == 0 &&
      std::none_of(config.edges.begin(), config.edges.end(),
                   [](const DagEdge& edge) { return edge.credits.has_value(); }))
    invalid(
        "ecn_threshold set with credit flow control off everywhere; ECN "
        "early backpressure needs hop_credits or per-edge credits");

  // Segment extraction: split each path at terminating nodes. A run between
  // terminations is one direct edge or a path through a chain of hubs.
  // Domains are exclusive per edge — an edge carries at most one domain
  // direction — so a receiver never has to demux two ISN streams, and each
  // hub egress port can hold the one next-stage tag its domain needs.
  auto hub_port_of = [&](std::uint16_t hub, std::uint16_t edge) {
    const std::vector<std::uint16_t>& outs = out_edges[hub];
    const auto it = std::find(outs.begin(), outs.end(), edge);
    assert(it != outs.end());
    return static_cast<std::uint16_t>(it - outs.begin());
  };
  std::vector<std::int32_t> segment_of_edge(config.edges.size(), -1);
  auto extract_segments = [&](const std::vector<std::uint16_t>& path,
                              std::vector<std::uint32_t>& into) {
    std::size_t i = 0;
    while (i < path.size()) {
      DagPlan::Segment segment;
      std::uint16_t edge = path[i++];
      segment.origin = config.edges[edge].src;
      segment.egress_edge = edge;
      while (kind(config.edges[edge].dst) == DagNodeKind::kHub) {
        assert(i < path.size());
        const std::uint16_t hub = config.edges[edge].dst;
        edge = path[i++];
        segment.hubs.push_back(
            DagPlan::HubStage{hub, hub_port_of(hub, edge), edge});
      }
      segment.ingress_edge = edge;
      segment.peer = config.edges[edge].dst;

      const std::int32_t existing = segment_of_edge[segment.egress_edge];
      if (existing >= 0) {
        const DagPlan::Segment& other =
            plan.segments[static_cast<std::size_t>(existing)];
        const auto same_stage = [](const DagPlan::HubStage& a,
                                   const DagPlan::HubStage& b) {
          return a.edge == b.edge;
        };
        if (!std::equal(other.hubs.begin(), other.hubs.end(),
                        segment.hubs.begin(), segment.hubs.end(),
                        same_stage)) {
          std::string message = "ISN domain leaving ";
          message += label(segment.origin);
          message += " fans out through hub ";
          message += label(segment.hubs.front().hub);
          message += " (one TX termination cannot feed two receivers)";
          invalid(std::move(message));
        }
        into.push_back(static_cast<std::uint32_t>(existing));
        continue;
      }
      const std::uint32_t index =
          static_cast<std::uint32_t>(plan.segments.size());
      auto claim = [&](std::uint16_t e) {
        if (segment_of_edge[e] >= 0) {
          std::string message =
              "two ISN domains are multiplexed onto the edge into ";
          message += label(config.edges[e].dst);
          message += " (an implicit-sequence receiver cannot demux them)";
          invalid(std::move(message));
        }
        segment_of_edge[e] = static_cast<std::int32_t>(index);
      };
      claim(segment.egress_edge);
      for (const DagPlan::HubStage& stage : segment.hubs) claim(stage.edge);
      plan.segments.push_back(std::move(segment));
      into.push_back(index);
    }
  };
  for (std::size_t f = 0; f < config.flows.size(); ++f)
    extract_segments(plan.flow_paths[f], plan.flow_segments[f]);

  // Backup routes for planned faults: for every (flow, primary segment)
  // whose forward edges are doomed — a permanent down window, or incidence
  // to a fail-stop relay — precompute a detour from the dead segment's
  // origin to the flow's destination over the surviving graph, with the
  // same BFS and lowest-edge-id tie-break as primaries. Backup segments go
  // through the same dedup maps BEFORE mate pairing below, so they pair
  // with reverse topology edges exactly like primary segments. Empty
  // backup_edges records "no surviving route": the reroute controller
  // reports the abandonment and the flow degrades.
  if (!config.faults.empty()) {
    std::vector<std::uint8_t> node_failed(n, 0);
    for (const sim::RelayFailStop& failure : config.faults.relay_failures)
      node_failed[failure.node] = 1;
    std::vector<std::uint8_t> edge_doomed(config.edges.size(), 0);
    for (std::size_t e = 0; e < config.edges.size(); ++e) {
      if (e < config.faults.edges.size() &&
          config.faults.edges[e].permanently_down())
        edge_doomed[e] = 1;
      if (node_failed[config.edges[e].src] != 0 ||
          node_failed[config.edges[e].dst] != 0)
        edge_doomed[e] = 1;
    }
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      const DagFlow& flow = config.flows[f];
      for (const std::uint32_t si : plan.flow_segments[f]) {
        const DagPlan::Segment& segment = plan.segments[si];
        if (edge_doomed[segment.egress_edge] == 0 &&
            edge_doomed[segment.ingress_edge] == 0)
          continue;
        // A fail-stop relay raises no usable HopDownEvent for its own
        // egress hops (its protocol state is lost with it); the upstream
        // segment INTO the failed relay owns the recovery instead.
        if (node_failed[segment.origin] != 0) continue;
        DagPlan::Reroute reroute;
        reroute.flow = static_cast<std::uint16_t>(f);
        reroute.dead_segment = si;
        std::optional<std::vector<std::uint16_t>> backup = shortest_path(
            config, out_edges, segment.origin, flow.dst, &edge_doomed);
        if (backup.has_value()) {
          reroute.backup_edges = std::move(*backup);
          extract_segments(reroute.backup_edges, reroute.backup_segments);
        }
        plan.reroutes.push_back(std::move(reroute));
      }
    }
  }

  // Credit accounting assumes exactly-once delivery within the domain: a
  // slot is charged per first transmission and freed per delivery. A CXL
  // domain spliced through a transparent hub breaks that — the hub drops
  // silently and a following ack-carrying flit masks the gap (§4.1), so a
  // lost flit leaks its credit forever (the cumulative-count healing cannot
  // recover a slot that will never be delivered) and a duplicate delivery
  // inflates the window past the advertised depth. Relay-terminated hops
  // and hubless CXL domains detect every drop at the receiving endpoint
  // and stay exactly-once, so only the hub-crossing CXL combination is
  // rejected.
  if (config.protocol.protocol == Protocol::kCxl) {
    for (const DagPlan::Segment& segment : plan.segments) {
      if (segment.hubs.empty()) continue;
      const std::size_t credits =
          config.edges[segment.ingress_edge].credits.value_or(
              config.hop_credits);
      if (credits > 0) {
        std::string message =
            "credit flow control on the CXL domain through hub ";
        message += label(segment.hubs.front().hub);
        message += " would leak credits on silently dropped flits (§4.1 "
                   "losses are invisible to the cumulative return count); "
                   "use RXL, terminate the hop at a relay, or disable "
                   "credits on this edge";
        invalid(std::move(message));
      }
    }
  }

  // Pair mutually reverse segments into bidirectional domains: the segment
  // from a peer back to its origin, through whichever hubs (the paper's
  // switch-level trial runs separate downstream and upstream switch stacks
  // as one domain). At most one candidate exists: between two relays a
  // return path would close a cycle in the switching core (rejected above),
  // and a terminal's single uplink and downlink edges each belong to one
  // domain direction. So a linear scan suffices.
  for (std::size_t i = 0; i < plan.segments.size(); ++i) {
    if (plan.segments[i].mate.has_value()) continue;
    for (std::size_t j = i + 1; j < plan.segments.size(); ++j) {
      if (plan.segments[j].origin == plan.segments[i].peer &&
          plan.segments[j].peer == plan.segments[i].origin) {
        plan.segments[i].mate = static_cast<std::uint32_t>(j);
        plan.segments[j].mate = static_cast<std::uint32_t>(i);
        break;
      }
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Fault management plane
// ---------------------------------------------------------------------------

namespace {

// Reroute controller: reacts to HopDownEvents raised by hop transmitters,
// reconciles the drained flits against the peer receiver's sequence state,
// quiesces the flow's old path suffix, and swaps flow tables onto the
// precomputed backup route (DagPlan::Reroute). Every decision is a pure
// function of simulation state and the deterministic poll timeline, so
// faulted runs replay bit-identically from their seed like clean ones.
class FaultController {
 public:
  struct Item {
    const DagPlan::Reroute* reroute = nullptr;
    /// RX side of the dead segment, read at detection time to reconcile
    /// which drained flits already got through (null when the peer relay
    /// fail-stopped and its sequence state is gone).
    Endpoint* peer_rx = nullptr;
    bool peer_failed = false;
    /// Switchover site: the dead segment's origin relay and its old/new
    /// egress ports (origin_relay stays null for a terminal origin, which
    /// can never have a backup — its single uplink is the dead hop).
    switchdev::RelaySwitch* origin_relay = nullptr;
    std::size_t old_port = 0;
    std::size_t new_port = 0;
    /// Flow-table writes that activate the backup path, in path order.
    std::vector<std::pair<switchdev::RelaySwitch*, std::size_t>>
        route_installs;
    /// Old-path-suffix probes the quiesce phase polls: transmitters whose
    /// replay buffers and relays whose egress queues must stop holding the
    /// flow before the backup may carry it (or re-injected flits could
    /// overtake older in-flight ones).
    std::vector<Endpoint*> suffix_tx;
    std::vector<switchdev::RelaySwitch*> suffix_relays;
    std::vector<Endpoint::TxItem> to_reinject;
    unsigned polls = 0;
    bool fired = false;
    bool resolved = false;
    DagRerouteReport report;
  };

  FaultController(sim::EventQueue& queue, TimePs poll_period,
                  unsigned poll_limit, std::size_t segment_count)
      : queue_(queue),
        poll_period_(poll_period),
        poll_limit_(poll_limit),
        items_of_segment_(segment_count) {}

  void add_item(Item item) {
    const std::size_t index = items_.size();
    items_of_segment_[item.reroute->dead_segment].push_back(index);
    items_.push_back(std::move(item));
  }

  [[nodiscard]] bool watches(std::uint32_t segment) const {
    return !items_of_segment_[segment].empty();
  }

  void on_hop_down(std::uint32_t segment, Endpoint::HopDownEvent&& event) {
    for (const std::size_t idx : items_of_segment_[segment]) {
      Item& item = items_[idx];
      if (item.fired) continue;
      item.fired = true;
      fired_order_.push_back(idx);
      item.report.flow = item.reroute->flow;
      item.report.segment = segment;
      item.report.detected_at = event.at;
      const std::uint16_t expected =
          item.peer_failed ? 0 : item.peer_rx->debug_expected_seq();
      for (Endpoint::HopDownEvent::DrainedFlit& drained : event.drained) {
        if (drained.item.flow_id != item.reroute->flow) continue;
        item.report.drained += 1;
        // Go-back-N acceptance is in-order and cumulative, so the peer's
        // delivered set is exactly the sequence prefix below its expected
        // number: a drained entry strictly behind it already got through
        // (only its acknowledgment was lost) and must not be re-sent.
        if (!item.peer_failed && link::seq_before(drained.seq, expected)) {
          item.report.reconciled += 1;
          continue;
        }
        item.to_reinject.push_back(std::move(drained.item));
      }
      if (item.reroute->backup_edges.empty()) {
        item.resolved = true;  // no surviving route: the flow degrades
        continue;
      }
      try_switchover(idx);
    }
  }

  [[nodiscard]] std::vector<DagRerouteReport> reports() const {
    std::vector<DagRerouteReport> out;
    out.reserve(fired_order_.size());
    for (const std::size_t idx : fired_order_)
      out.push_back(items_[idx].report);
    return out;
  }

  [[nodiscard]] bool flow_rerouted(std::size_t flow) const {
    for (const Item& item : items_)
      if (item.reroute->flow == flow && item.report.rerouted) return true;
    return false;
  }

  /// Attaches the controller to a flit-lifecycle trace sink: each executed
  /// switchover emits kRerouteDrain (flow tagged, arg = re-injected count).
  void set_trace(obs::TraceSink* sink, std::uint16_t component) noexcept {
    trace_ = sink;
    trace_component_ = component;
  }

 private:
  [[nodiscard]] bool quiet(const Item& item) const {
    const std::uint16_t flow = item.reroute->flow;
    for (switchdev::RelaySwitch* const relay : item.suffix_relays)
      if (relay->has_flow_queued(flow)) return false;
    for (Endpoint* const tx : item.suffix_tx)
      if (tx->tx_holds_flow(flow)) return false;
    return true;
  }

  void try_switchover(std::size_t idx) {
    Item& item = items_[idx];
    if (item.resolved) return;
    if (!quiet(item)) {
      if (item.polls >= poll_limit_) {
        item.resolved = true;  // abandoned: the old suffix never drained
        return;
      }
      item.polls += 1;
      queue_.schedule(poll_period_, [this, idx] { try_switchover(idx); });
      return;
    }
    const std::uint16_t flow = item.reroute->flow;
    for (const auto& [relay, port] : item.route_installs)
      relay->set_route(flow, port);
    if (item.origin_relay != nullptr) {
      // Drained flits precede anything parked in the old egress queue (the
      // replay buffer holds the oldest unacknowledged stream positions), so
      // inject them first, then rotate the parked tail across: per-flow
      // FIFO order survives the switchover end to end.
      for (Endpoint::TxItem& tx_item : item.to_reinject)
        item.origin_relay->inject(item.new_port, std::move(tx_item));
      item.report.reinjected = item.to_reinject.size();
      item.to_reinject.clear();
      item.origin_relay->migrate_pending(item.old_port, item.new_port, flow);
    }
    item.report.rerouted = true;
    item.report.switched_at = queue_.now();
    item.resolved = true;
    if (trace_ != nullptr) {
      obs::TraceEvent event;
      event.at = queue_.now();
      event.truth_index = 0;
      event.component = trace_component_;
      event.flow = flow;
      event.seq = 0;
      event.vc = 0;
      event.kind = obs::TraceEventKind::kRerouteDrain;
      event.arg = static_cast<std::uint32_t>(item.report.reinjected);
      trace_->record(trace_component_, event);
    }
  }

  sim::EventQueue& queue_;
  TimePs poll_period_;
  unsigned poll_limit_;
  std::vector<Item> items_;
  std::vector<std::vector<std::size_t>> items_of_segment_;
  std::vector<std::size_t> fired_order_;  ///< detection order, for reports
  obs::TraceSink* trace_ = nullptr;       ///< flit-lifecycle sink (null = off)
  std::uint16_t trace_component_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Instantiation + run
// ---------------------------------------------------------------------------

namespace {

/// The runtime ends of one plan segment (one ISN domain direction): the
/// endpoint whose data enters the segment at its origin, the endpoint that
/// receives it at its peer, and the relay port index at each end (read only
/// where that end is a relay). The two segments of a paired domain share
/// both endpoints with the roles swapped.
struct SegmentEnds {
  Endpoint* tx = nullptr;
  Endpoint* rx = nullptr;
  std::size_t tx_port = 0;
  std::size_t rx_port = 0;
};

/// Per-flow runtime state: the end-to-end scoreboard, the arrival process
/// (one armed wake-up per rate-shaped flow) or closed-loop window, and the
/// latency sampler. The sampling footprint is fixed per flow — a
/// log-bucketed histogram plus a kLatencyRingSlots timestamp ring keyed by
/// truth index — so memory does not grow with run length (raw samples only
/// under the debug opt-in).
struct FlowState {
  txn::StreamScoreboard board;
  std::uint64_t offered = 0;
  Endpoint* source = nullptr;
  std::optional<ArrivalProcess> arrivals;
  std::optional<ClosedLoopWindow> loop;
  bool pace_armed = false;
  stats::LatencyHistogram latency;
  std::vector<TimePs> ring_at;          // inject timestamp per ring slot
  std::vector<std::uint64_t> ring_tag;  // truth index stamped in the slot
  std::vector<TimePs> debug_samples;
  std::uint64_t sample_misses = 0;
};

/// One instantiated fabric: the constructor builds every component the plan
/// names, run() kicks the sources and runs to the horizon, and report()
/// reads the counters back. Callbacks capture `this`, so the object is
/// neither copied nor moved.
class DagFabric {
 public:
  DagFabric(const DagConfig& config, const DagPlan& plan)
      : config_(config),
        plan_(plan),
        sample_(config.sample_latency || config.debug_latency_samples),
        seeder_(config.seed) {
    // The sink exists only when tracing is enabled, so every emission site
    // in the built components stays a null-pointer no-op on untraced runs.
    // Creating it draws nothing from the fabric seeder — the channel/hub
    // seed sequence (and with it the wire trajectory) is byte-identical
    // with tracing on or off.
    if (config.trace.enabled)
      trace_ = std::make_unique<obs::TraceSink>(config.trace.ring_depth);
    build_fault_schedules();
    build_switches_and_channels();
    build_domains();
    install_routes();
    build_fault_controller();
    register_trace();
    build_flows();
  }
  DagFabric(const DagFabric&) = delete;
  DagFabric& operator=(const DagFabric&) = delete;

  void run() {
    if (trace_ != nullptr && config_.trace.sample_period > 0)
      queue_.schedule(config_.trace.sample_period, [this] { sample_tick(); });
    for (const FlowState& flow : flows_) flow.source->kick();
    queue_.run_until(config_.horizon);
  }

  [[nodiscard]] DagReport report() {
    DagReport report;
    report.slots = static_cast<std::uint64_t>(config_.horizon / config_.slot);
    report.misrouted = misrouted_;
    report.flows.resize(flows_.size());
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      DagFlowReport& out = report.flows[f];
      FlowState& flow = flows_[f];
      out.src = config_.flows[f].src;
      out.dst = config_.flows[f].dst;
      out.offered = flow.offered;
      out.scoreboard = flow.board.finalize();
      out.path_edges = plan_.flow_paths[f];
      out.rerouted = controller_ != nullptr && controller_->flow_rerouted(f);
      out.latency = flow.latency;
      out.latency_sample_misses = flow.sample_misses;
      out.latency_samples = std::move(flow.debug_samples);
    }
    if (controller_ != nullptr) report.reroutes = controller_->reports();

    // Relay port edges come from the segment table; hops follow domain
    // order, in which the unpaired domains also took their control wires.
    std::vector<std::vector<DagRelayPort>> ports(relays_.size());
    for (std::size_t v = 0; v < relays_.size(); ++v)
      if (relays_[v] != nullptr) ports[v].resize(relays_[v]->ports());
    std::size_t wire = 0;
    for (std::size_t si = 0; si < plan_.segments.size(); ++si) {
      const DagPlan::Segment& segment = plan_.segments[si];
      if (relays_[segment.origin] != nullptr)
        ports[segment.origin][ends_[si].tx_port].tx_edge = segment.egress_edge;
      if (relays_[segment.peer] != nullptr)
        ports[segment.peer][ends_[si].rx_port].rx_edge = segment.ingress_edge;
      if (segment.mate.has_value() && *segment.mate < si) continue;
      const sim::LinkChannel& reverse =
          segment.mate.has_value()
              ? *channels_[plan_.segments[*segment.mate].egress_edge]
              : *control_wires_[wire++];
      report.hops.push_back(hop_stats(si, reverse));
    }
    report.edges.reserve(channels_.size());
    for (const std::unique_ptr<sim::LinkChannel>& channel : channels_)
      report.edges.push_back(channel->snapshot());
    for (std::size_t v = 0; v < relays_.size(); ++v) {
      if (relays_[v] != nullptr) {
        for (std::size_t p = 0; p < ports[v].size(); ++p)
          ports[v][p].stats = relays_[v]->snapshot(p);
        report.relays.push_back(
            DagRelayReport{static_cast<std::uint16_t>(v), std::move(ports[v])});
      } else if (hubs_[v] != nullptr) {
        report.hubs.push_back(
            DagHubReport{static_cast<std::uint16_t>(v), hubs_[v]->stats()});
      }
    }
    if (trace_ != nullptr) {
      report.trace = trace_->capture();
      report.timeseries = std::move(timeseries_);
    }
    return report;
  }

 private:
  struct Terminal {
    std::uint16_t node = 0;
    std::unique_ptr<Endpoint> endpoint;
  };

  [[nodiscard]] bool faults_on() const { return !config_.faults.empty(); }

  /// Compiles the fault plan into one normalized schedule per edge: the
  /// configured per-edge windows, plus a permanent outage on every edge
  /// incident to a fail-stop relay from its failure instant. Channels hold
  /// pointers into the vector. With an empty plan nothing here runs and
  /// every channel keeps its null-schedule fast path (bit-identical to a
  /// build without fault support).
  void build_fault_schedules() {
    if (!faults_on()) return;
    fault_schedules_.resize(config_.edges.size());
    for (std::size_t e = 0; e < config_.faults.edges.size(); ++e)
      fault_schedules_[e] = config_.faults.edges[e];
    for (const sim::RelayFailStop& failure : config_.faults.relay_failures) {
      for (std::size_t e = 0; e < config_.edges.size(); ++e) {
        if (config_.edges[e].src == failure.node ||
            config_.edges[e].dst == failure.node)
          fault_schedules_[e].add_window(failure.at, 0);
      }
    }
    for (sim::LinkFaultSchedule& schedule : fault_schedules_)
      schedule.normalize();
  }

  /// Seed draw order is part of the determinism contract (and of the legacy
  /// star reproduction): hubs first in node order, then forward channels in
  /// edge order; build_domains draws the implicit control wires after
  /// these, in domain order.
  void build_switches_and_channels() {
    const std::size_t node_count = config_.nodes.size();
    hubs_.resize(node_count);
    relays_.resize(node_count);
    for (std::size_t v = 0; v < node_count; ++v) {
      const DagNode& node = config_.nodes[v];
      if (node.kind != DagNodeKind::kHub) continue;
      switchdev::PortSwitch::Config hub_config;
      hub_config.protocol = config_.protocol.protocol;
      hub_config.internal_error_rate = config_.hub_internal_error_rate;
      hub_config.forward_latency = config_.hub_latency;
      // One port per out-edge, in edge-id order (as in plan_dag).
      hub_config.ports = static_cast<std::size_t>(std::count_if(
          config_.edges.begin(), config_.edges.end(),
          [v](const DagEdge& edge) { return edge.src == v; }));
      hubs_[v] = std::make_unique<switchdev::PortSwitch>(
          queue_, hub_config, node.seed.has_value() ? *node.seed : seeder_());
    }
    for (std::size_t e = 0; e < config_.edges.size(); ++e) {
      const DagEdge& edge = config_.edges[e];
      channels_.push_back(std::make_unique<sim::LinkChannel>(
          queue_,
          make_error_model(edge.ber, edge.burst_injection_rate,
                           edge.burst_symbols),
          edge.seed.has_value() ? *edge.seed : seeder_(), config_.slot,
          edge.latency));
      if (faults_on()) channels_[e]->set_fault_schedule(&fault_schedules_[e]);
    }
    for (std::size_t v = 0; v < node_count; ++v) {
      if (config_.nodes[v].kind == DagNodeKind::kRelay)
        relays_[v] = std::make_unique<switchdev::RelaySwitch>(
            queue_, node_label(config_, v));
    }
  }

  /// Instantiates every ISN domain in domain order (a segment, plus its
  /// mate when paired, at the lower segment index): one endpoint at each
  /// termination — a new relay port, or a new terminal NIC — and the wires
  /// between them, filling both segments' ends. Unpaired domains carry
  /// acknowledgments standalone on an implicit reverse control wire (there
  /// is no reverse data to piggyback on); paired domains keep the
  /// configured policy. Every hop is provisioned with exactly the VCs the
  /// flows demand (1 + the largest VC in use — one VC when every flow rides
  /// VC 0, the legacy wire image) and the fabric-wide ECN threshold.
  void build_domains() {
    ProtocolConfig hop_protocol = config_.protocol;
    hop_protocol.num_vcs = 1;
    for (const DagFlow& flow : config_.flows)
      hop_protocol.num_vcs =
          std::max<std::size_t>(hop_protocol.num_vcs, flow.vc + 1u);
    hop_protocol.ecn_threshold = config_.ecn_threshold;
    // Credit flow control per domain direction: the window for data flowing
    // toward a termination equals the bounded-buffer depth configured on
    // the edge entering it (the relay's store-and-forward slots, or the
    // sink terminal's notional consume buffer).
    auto credits_into = [&](const DagPlan::Segment& segment) {
      return config_.edges[segment.ingress_edge].credits.value_or(
          config_.hop_credits);
    };

    ends_.resize(plan_.segments.size());
    for (std::size_t si = 0; si < plan_.segments.size(); ++si) {
      const DagPlan::Segment& segment = plan_.segments[si];
      if (segment.mate.has_value() && *segment.mate < si) continue;  // built
      const DagPlan::Segment* const mate =
          segment.mate.has_value() ? &plan_.segments[*segment.mate] : nullptr;
      ProtocolConfig protocol_a = hop_protocol;
      if (mate == nullptr) protocol_a.ack_policy = link::AckPolicy::kStandalone;
      ProtocolConfig protocol_b = protocol_a;
      protocol_a.tx_credits = credits_into(segment);
      protocol_b.rx_credits = protocol_a.tx_credits;
      if (mate != nullptr) {
        protocol_b.tx_credits = credits_into(*mate);
        protocol_a.rx_credits = protocol_b.tx_credits;
      }

      SegmentEnds& ends = ends_[si];
      ends.tx = add_termination(segment.origin, protocol_a, ends.tx_port);
      ends.rx = add_termination(segment.peer, protocol_b, ends.rx_port);
      ends.tx->set_output(channels_[segment.egress_edge].get());
      wire_segment(segment, ends.tx, ends.rx);
      if (mate != nullptr) {
        ends_[*segment.mate] =
            SegmentEnds{ends.rx, ends.tx, ends.rx_port, ends.tx_port};
        ends.rx->set_output(channels_[mate->egress_edge].get());
        wire_segment(*mate, ends.rx, ends.tx);
        continue;
      }
      const DagEdge& edge = config_.edges[segment.egress_edge];
      control_wires_.push_back(std::make_unique<sim::LinkChannel>(
          queue_,
          make_error_model(edge.ber, edge.burst_injection_rate,
                           edge.burst_symbols),
          seeder_(), config_.slot, edge.latency));
      sim::LinkChannel* const wire = control_wires_.back().get();
      // The implicit control wire shares the forward edge's physical link:
      // when that cable is down, acknowledgments die with the data (this is
      // what starves the TX into declaring the hop dead). Paired domains
      // route acks over the mate edge, which carries its own schedule —
      // fault plans for bidirectional hops must down both edges.
      if (faults_on())
        wire->set_fault_schedule(&fault_schedules_[segment.egress_edge]);
      ends.rx->set_output(wire);
      wire->set_receiver([tx = ends.tx](sim::FlitEnvelope&& envelope) {
        tx->on_flit(std::move(envelope));
      });
    }
    // Domains were built in ascending order, so ordering the NICs by node
    // (stably) gives the (node, domain) trace-registration order.
    std::stable_sort(terminals_.begin(), terminals_.end(),
                     [](const Terminal& a, const Terminal& b) {
                       return a.node < b.node;
                     });
  }

  /// A new termination at `node` for one domain: the relay's next port (its
  /// index stored in `port`), or a new terminal endpoint. Each domain
  /// terminates at two distinct nodes, so no endpoint is ever shared.
  Endpoint* add_termination(std::uint16_t node, const ProtocolConfig& protocol,
                            std::size_t& port) {
    if (relays_[node] != nullptr) {
      port = relays_[node]->add_port(protocol);
      return &relays_[node]->port(port);
    }
    terminals_.push_back(Terminal{
        node, std::make_unique<Endpoint>(queue_, protocol,
                                         node_label(config_, node))});
    return terminals_.back().endpoint.get();
  }

  /// Wires one domain direction: the TX stamps the first hub stage's port,
  /// each hub forwards on its stage's port and hands the next stage's port
  /// on as the tag, and the last edge delivers into the RX.
  void wire_segment(const DagPlan::Segment& segment, Endpoint* tx,
                    Endpoint* rx) {
    tx->set_dest_port(segment.hubs.empty() ? std::uint16_t{0}
                                           : segment.hubs.front().port);
    std::uint16_t into = segment.egress_edge;
    for (std::size_t k = 0; k < segment.hubs.size(); ++k) {
      const DagPlan::HubStage& stage = segment.hubs[k];
      switchdev::PortSwitch* const hub = hubs_[stage.hub].get();
      channels_[into]->set_receiver([hub](sim::FlitEnvelope&& envelope) {
        hub->on_flit(std::move(envelope));
      });
      const std::uint16_t next_tag = k + 1 < segment.hubs.size()
                                         ? segment.hubs[k + 1].port
                                         : std::uint16_t{0};
      hub->set_output(stage.port, channels_[stage.edge].get(), next_tag);
      into = stage.edge;
    }
    channels_[segment.ingress_edge]->set_receiver(
        [rx](sim::FlitEnvelope&& envelope) {
          rx->on_flit(std::move(envelope));
        });
  }

  /// Relay flow tables + QoS plumbing: every relay learns each flow's VC
  /// (flow ids are fabric-global, and an ingress relay accounts by VC even
  /// when only the egress relay routes the flow), the scheduling policy,
  /// and the per-VC DRR weights (plan_dag proved flows sharing a VC agree).
  void install_routes() {
    for (const std::unique_ptr<switchdev::RelaySwitch>& relay : relays_) {
      if (relay == nullptr) continue;
      relay->set_egress_policy(config_.egress_policy);
      for (std::size_t f = 0; f < config_.flows.size(); ++f) {
        const DagFlow& flow = config_.flows[f];
        if (flow.vc != 0)
          relay->set_flow_vc(static_cast<std::uint16_t>(f), flow.vc);
        relay->set_vc_weight(flow.vc, flow.weight);
      }
    }
    for (std::size_t f = 0; f < config_.flows.size(); ++f) {
      for (const std::uint32_t si : plan_.flow_segments[f]) {
        const std::uint16_t origin = plan_.segments[si].origin;
        if (relays_[origin] != nullptr)
          relays_[origin]->set_route(static_cast<std::uint16_t>(f),
                                     ends_[si].tx_port);
      }
    }
  }

  /// Fault management plane: resolves each planned reroute to its runtime
  /// endpoints and relay ports, and installs hop-down handlers on the
  /// transmitters of doomed segments. Endpoints on a fail-stop relay still
  /// simulate (their incident links just go dark), but their events carry
  /// no recoverable state, so the controller never watches them.
  void build_fault_controller() {
    if (!faults_on() || plan_.reroutes.empty()) return;
    std::vector<std::uint8_t> node_failed(config_.nodes.size(), 0);
    for (const sim::RelayFailStop& failure : config_.faults.relay_failures)
      node_failed[failure.node] = 1;
    controller_ = std::make_unique<FaultController>(
        queue_, config_.reroute_poll, config_.reroute_quiesce_limit,
        plan_.segments.size());
    for (const DagPlan::Reroute& reroute : plan_.reroutes) {
      const DagPlan::Segment& dead = plan_.segments[reroute.dead_segment];
      FaultController::Item item;
      item.reroute = &reroute;
      item.peer_failed = node_failed[dead.peer] != 0;
      if (!item.peer_failed) item.peer_rx = ends_[reroute.dead_segment].rx;
      if (relays_[dead.origin] != nullptr) {
        item.origin_relay = relays_[dead.origin].get();
        item.old_port = ends_[reroute.dead_segment].tx_port;
        if (!reroute.backup_segments.empty())
          item.new_port = ends_[reroute.backup_segments.front()].tx_port;
      }
      for (const std::uint32_t si : reroute.backup_segments) {
        const std::uint16_t origin = plan_.segments[si].origin;
        if (relays_[origin] != nullptr)
          item.route_installs.emplace_back(relays_[origin].get(),
                                           ends_[si].tx_port);
      }
      // Old-path suffix: every segment after the dead one still drains
      // in-flight flits toward the destination; the quiesce phase waits for
      // them so re-injected traffic cannot overtake. Probes on a fail-stop
      // relay are skipped — anything it holds is lost, and waiting on its
      // frozen queues would only burn the poll budget.
      const std::vector<std::uint32_t>& path =
          plan_.flow_segments[reroute.flow];
      auto it = std::find(path.begin(), path.end(), reroute.dead_segment);
      assert(it != path.end());
      for (++it; it != path.end(); ++it) {
        const std::uint16_t origin = plan_.segments[*it].origin;
        if (node_failed[origin] != 0) continue;
        if (relays_[origin] != nullptr)
          item.suffix_relays.push_back(relays_[origin].get());
        item.suffix_tx.push_back(ends_[*it].tx);
      }
      controller_->add_item(std::move(item));
    }
    FaultController* const controller = controller_.get();
    for (std::uint32_t si = 0; si < ends_.size(); ++si) {
      if (!controller->watches(si)) continue;
      ends_[si].tx->set_hop_down(
          [controller, si](Endpoint::HopDownEvent&& event) {
            controller->on_hop_down(si, std::move(event));
          });
    }
  }

  /// Trace-component registration, in a fixed deterministic order: terminal
  /// endpoints in (node, domain) order, then per relay its port endpoints
  /// and its routing fabric (".q"), then the forward channels, the implicit
  /// control wires, and the reroute controller. Component ids are the
  /// registration indices, so a capture is comparable across runs and
  /// worker counts.
  void register_trace() {
    obs::TraceSink* const sink = trace_.get();
    if (sink == nullptr) return;
    for (const Terminal& terminal : terminals_)
      terminal.endpoint->set_trace(
          sink, sink->add_component(terminal.endpoint->name()));
    for (const std::unique_ptr<switchdev::RelaySwitch>& relay : relays_) {
      if (relay == nullptr) continue;
      for (std::size_t p = 0; p < relay->ports(); ++p) {
        Endpoint& port = relay->port(p);
        port.set_trace(sink, sink->add_component(port.name()));
      }
      std::string fabric_name = relay->name();
      fabric_name += ".q";
      relay->set_trace(sink, sink->add_component(std::move(fabric_name)));
    }
    for (std::size_t e = 0; e < channels_.size(); ++e) {
      std::string wire_name = "wire.e";
      wire_name += std::to_string(e);
      channels_[e]->set_trace(sink, sink->add_component(std::move(wire_name)));
    }
    for (std::size_t w = 0; w < control_wires_.size(); ++w) {
      std::string wire_name = "ctrl.w";
      wire_name += std::to_string(w);
      control_wires_[w]->set_trace(sink,
                                   sink->add_component(std::move(wire_name)));
    }
    if (controller_ != nullptr)
      controller_->set_trace(sink, sink->add_component("reroute"));
  }

  /// Flow sources and sinks: every terminal delivers into deliver(), and
  /// every flow's first-hop endpoint pulls its payloads from pull().
  void build_flows() {
    for (const Terminal& terminal : terminals_) {
      terminal.endpoint->set_deliver(
          [this, node = terminal.node](std::span<const std::uint8_t> payload,
                                       const sim::FlitEnvelope& envelope) {
            deliver(node, payload, envelope);
          });
    }
    flows_.resize(config_.flows.size());
    for (std::size_t f = 0; f < config_.flows.size(); ++f) {
      const DagFlow& spec = config_.flows[f];
      FlowState& flow = flows_[f];
      flow.source = ends_[plan_.flow_segments[f].front()].tx;
      flow.source->set_flow_id(static_cast<std::uint16_t>(f));
      if (spec.vc != 0) {
        flow.source->set_tx_vc(spec.vc);
        ends_[plan_.flow_segments[f].back()].rx->set_rx_flow_vc(
            static_cast<std::uint16_t>(f), spec.vc);
      }
      if (spec.arrival == ArrivalKind::kPaced ||
          spec.arrival == ArrivalKind::kPoisson ||
          spec.arrival == ArrivalKind::kOnOff) {
        ArrivalSpec arrival;
        arrival.kind = spec.arrival;
        arrival.interval = spec.interval;
        arrival.on_mean_flits = spec.on_mean_flits;
        arrival.off_mean = spec.off_mean;
        // Private per-flow stream, NOT drawn from the fabric seeder: an
        // extra seeder draw here would shift every channel seed and change
        // the wire trajectory of flows that use no randomness at all.
        arrival.seed =
            config_.seed ^
            (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(f) + 1)) ^
            spec.arrival_seed;
        flow.arrivals.emplace(arrival);
      } else if (spec.arrival == ArrivalKind::kClosedLoop) {
        flow.loop.emplace(spec.window, spec.think);
      }
      if (sample_) {
        const std::size_t depth = static_cast<std::size_t>(
            std::min<std::uint64_t>(kLatencyRingSlots,
                                    std::max<std::uint64_t>(spec.flits, 1)));
        flow.ring_at.assign(depth, 0);
        flow.ring_tag.assign(depth, ~std::uint64_t{0});
      }
      flow.source->set_source(
          [this, f](std::uint64_t index) { return pull(f, index); });
    }
  }

  /// Terminal delivery at `node`: scoreboards the payload against its flow,
  /// samples its latency, and frees a closed-loop window slot. A flit whose
  /// flow tag names another destination counts as misrouted.
  void deliver(std::uint16_t node, std::span<const std::uint8_t> payload,
               const sim::FlitEnvelope& envelope) {
    const std::size_t f = envelope.flow_id;
    if (!envelope.has_truth || f >= flows_.size() ||
        config_.flows[f].dst != node) {
      misrouted_ += 1;
      return;
    }
    FlowState& flow = flows_[f];
    flow.board.on_deliver(payload, envelope);
    delivered_ += 1;
    if (sample_) {
      // The ring slot still carries this truth index unless the flow fell
      // more than kLatencyRingSlots behind its newest pull; an overwritten
      // slot is a MISS, counted instead of silently skipped (samples must
      // never undercount without a signal).
      const std::size_t slot = static_cast<std::size_t>(envelope.truth_index) %
                               flow.ring_tag.size();
      if (flow.ring_tag[slot] == envelope.truth_index) {
        const TimePs delay = queue_.now() - flow.ring_at[slot];
        flow.latency.add(delay);
        if (config_.debug_latency_samples) flow.debug_samples.push_back(delay);
      } else {
        flow.sample_misses += 1;
      }
    }
    if (flow.loop.has_value()) {
      // Closed loop: this completion frees a window slot after the think
      // time, then re-kicks the source.
      queue_.schedule(flow.loop->think(), [this, f] {
        flows_[f].loop->on_ready();
        flows_[f].source->kick();
      });
    }
  }

  /// Flow f's source: the payload for stream position `index`, or nullopt
  /// while the budget is spent or the arrival process or closed-loop window
  /// holds it back.
  std::optional<std::vector<std::uint8_t>> pull(std::size_t f,
                                                std::uint64_t index) {
    const DagFlow& spec = config_.flows[f];
    FlowState& flow = flows_[f];
    if (index >= spec.flits) return std::nullopt;
    TimePs inject_stamp = queue_.now();
    if (flow.arrivals.has_value()) {
      // Rate-shaped source: index i is offered no earlier than its arrival
      // due-time. A premature pull arms one wake-up kick at the due
      // instant, so the flow needs no external traffic to resume (and arms
      // at most one timer however often the endpoint polls meanwhile).
      const TimePs due = flow.arrivals->due(index);
      if (inject_stamp < due) {
        if (!flow.pace_armed) {
          flow.pace_armed = true;
          queue_.schedule(due - inject_stamp, [this, f] {
            flows_[f].pace_armed = false;
            flows_[f].source->kick();
          });
        }
        return std::nullopt;
      }
      // Latency is measured from the ARRIVAL, not the pull: under overload
      // the source-side backlog is part of the delay, which is what makes a
      // load-latency curve inflect past saturation.
      inject_stamp = due;
    } else if (flow.loop.has_value()) {
      if (!flow.loop->may_offer()) return std::nullopt;
      flow.loop->on_offer();
    }
    if (sample_) {
      const std::size_t slot =
          static_cast<std::size_t>(index) % flow.ring_tag.size();
      flow.ring_tag[slot] = index;
      flow.ring_at[slot] = inject_stamp;
    }
    if (trace_ != nullptr) {
      // Stamped with the arrival DUE time — the same origin the latency
      // ring stores — so a reconstructed journey's hop sums equal the
      // histogram-recorded end-to-end sample exactly.
      obs::TraceEvent event;
      event.at = inject_stamp;
      event.truth_index = index;
      event.component = flow.source->trace_component();
      event.flow = static_cast<std::uint16_t>(f);
      event.vc = spec.vc;
      event.kind = obs::TraceEventKind::kInject;
      trace_->record(event.component, event);
    }
    std::vector<std::uint8_t> payload = make_stream_payload(index, spec.salt);
    flow.board.register_sent(index, payload);
    flow.offered = index + 1;
    return payload;
  }

  /// Occupancy/goodput time-series sampler: a self-rescheduling observation
  /// event that only READS counters, so the trajectory is untouched (the
  /// traced-vs-untraced report-equality test pins this).
  void sample_tick() {
    std::uint64_t queued = 0;
    for (const std::unique_ptr<switchdev::RelaySwitch>& relay : relays_) {
      if (relay == nullptr) continue;
      for (std::size_t p = 0; p < relay->ports(); ++p)
        queued += relay->port_stats(p).queue_occupancy;
    }
    timeseries_.push_back(
        obs::TimeSeriesPoint{queue_.now(), delivered_, queued});
    queue_.schedule(config_.trace.sample_period, [this] { sample_tick(); });
  }

  /// One domain's counters: segment `si` is its forward direction, and
  /// `reverse` the mate edge or the implicit control wire.
  [[nodiscard]] DagLinkStats hop_stats(std::size_t si,
                                       const sim::LinkChannel& reverse) const {
    const DagPlan::Segment& segment = plan_.segments[si];
    const Endpoint& a = *ends_[si].tx;
    const Endpoint& b = *ends_[si].rx;
    DagLinkStats hop;
    hop.segment = static_cast<std::uint32_t>(si);
    hop.node_a = segment.origin;
    hop.node_b = segment.peer;
    hop.forward_edge = segment.egress_edge;
    hop.paired = segment.mate.has_value();
    hop.crosses_hub = !segment.hubs.empty();
    hop.a = a.snapshot().link;
    hop.b = b.snapshot().link;
    hop.a_extra = a.snapshot().extra;
    hop.b_extra = b.snapshot().extra;
    for (std::size_t v = 0; v < a.credit_windows().num_vcs(); ++v) {
      hop.a_vc_consumed[v] = a.credit_windows().vc(v).consumed();
      hop.b_vc_consumed[v] = b.credit_windows().vc(v).consumed();
      hop.a_vc_returned[v] = a.credit_ledgers().vc(v).returned();
      hop.b_vc_returned[v] = b.credit_ledgers().vc(v).returned();
    }
    hop.forward_channel = channels_[segment.egress_edge]->snapshot();
    hop.reverse_channel = reverse.snapshot();
    return hop;
  }

  const DagConfig& config_;
  const DagPlan& plan_;
  const bool sample_;  ///< latency sampling (histogram or debug samples)
  sim::EventQueue queue_;
  Xoshiro256 seeder_;
  std::unique_ptr<obs::TraceSink> trace_;  ///< null unless tracing is on
  std::vector<sim::LinkFaultSchedule> fault_schedules_;  ///< per edge
  std::vector<std::unique_ptr<switchdev::PortSwitch>> hubs_;      ///< by node
  std::vector<std::unique_ptr<sim::LinkChannel>> channels_;       ///< by edge
  std::vector<std::unique_ptr<switchdev::RelaySwitch>> relays_;   ///< by node
  std::vector<std::unique_ptr<sim::LinkChannel>> control_wires_;  ///< domains
  std::vector<Terminal> terminals_;  ///< in (node, domain) order
  std::vector<SegmentEnds> ends_;    ///< by plan segment
  std::unique_ptr<FaultController> controller_;
  std::vector<FlowState> flows_;
  std::uint64_t misrouted_ = 0;
  std::uint64_t delivered_ = 0;  ///< time-series goodput counter
  std::vector<obs::TimeSeriesPoint> timeseries_;
};

}  // namespace

DagReport run_dag_fabric(const DagConfig& config) {
  const DagPlan plan = plan_dag(config);
  DagFabric fabric(config, plan);
  fabric.run();
  return fabric.report();
}

// ---------------------------------------------------------------------------
// Report aggregates
// ---------------------------------------------------------------------------

std::uint64_t DagReport::total_offered() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows) total += flow.offered;
  return total;
}

std::uint64_t DagReport::total_in_order() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows) total += flow.scoreboard.in_order;
  return total;
}

std::uint64_t DagReport::total_order_failures() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows)
    total += flow.scoreboard.order_violations + flow.scoreboard.duplicates;
  return total;
}

std::uint64_t DagReport::total_missing() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows) total += flow.scoreboard.missing;
  return total;
}

std::uint64_t DagReport::total_data_corruptions() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows)
    total += flow.scoreboard.data_corruptions;
  return total;
}

std::uint64_t DagReport::total_hop_retransmissions() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a.data_flits_retransmitted + hop.b.data_flits_retransmitted;
  return total;
}

std::uint64_t DagReport::total_relay_no_route_drops() const {
  std::uint64_t total = 0;
  for (const DagRelayReport& relay : relays)
    for (const DagRelayPort& port : relay.ports)
      total += port.stats.dropped_no_route;
  return total;
}

std::uint64_t DagReport::total_credit_stalls() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.credit_stalls + hop.b_extra.credit_stalls;
  return total;
}

std::uint64_t DagReport::total_credits_consumed() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.credits_consumed + hop.b_extra.credits_consumed;
  return total;
}

std::uint64_t DagReport::total_credits_returned() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.credits_returned + hop.b_extra.credits_returned;
  return total;
}

std::uint64_t DagReport::total_credits_granted() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.credits_granted + hop.b_extra.credits_granted;
  return total;
}

std::uint64_t DagReport::max_ingress_occupancy() const {
  std::uint64_t highest = 0;
  for (const DagRelayReport& relay : relays)
    for (const DagRelayPort& port : relay.ports)
      if (port.stats.ingress_high_water > highest)
        highest = port.stats.ingress_high_water;
  return highest;
}

std::uint64_t DagReport::max_relay_queue_depth() const {
  std::uint64_t highest = 0;
  for (const DagRelayReport& relay : relays)
    for (const DagRelayPort& port : relay.ports)
      if (port.stats.max_queue_depth > highest)
        highest = port.stats.max_queue_depth;
  return highest;
}

std::uint64_t DagReport::total_ecn_mark_events() const {
  std::uint64_t total = 0;
  for (const DagRelayReport& relay : relays)
    for (const DagRelayPort& port : relay.ports)
      total += port.stats.ecn_mark_events;
  return total;
}

std::uint64_t DagReport::total_ecn_stalls() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.ecn_stalls + hop.b_extra.ecn_stalls;
  return total;
}

std::uint64_t DagReport::total_hops_declared_dead() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.hops_declared_dead + hop.b_extra.hops_declared_dead;
  return total;
}

std::uint64_t DagReport::total_dead_flits_drained() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.dead_flits_drained + hop.b_extra.dead_flits_drained;
  return total;
}

std::uint64_t DagReport::total_credits_refunded() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.credits_refunded + hop.b_extra.credits_refunded;
  return total;
}

std::uint64_t DagReport::total_flap_recoveries() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.a_extra.flap_recoveries + hop.b_extra.flap_recoveries;
  return total;
}

std::uint64_t DagReport::total_flits_blackholed() const {
  std::uint64_t total = 0;
  for (const DagLinkStats& hop : hops)
    total += hop.forward_channel.flits_blackholed +
             hop.reverse_channel.flits_blackholed;
  return total;
}

std::uint64_t DagReport::total_reroutes_executed() const {
  std::uint64_t total = 0;
  for (const DagRerouteReport& reroute : reroutes)
    if (reroute.rerouted) total += 1;
  return total;
}

stats::LatencyHistogram DagReport::merged_latency() const {
  stats::LatencyHistogram merged;
  for (const DagFlowReport& flow : flows) merged.merge(flow.latency);
  return merged;
}

std::uint64_t DagReport::total_latency_sample_misses() const {
  std::uint64_t total = 0;
  for (const DagFlowReport& flow : flows)
    total += flow.latency_sample_misses;
  return total;
}

// ---------------------------------------------------------------------------
// Canned topologies
// ---------------------------------------------------------------------------

namespace {

DagConfig base_scenario_config(const DagScenarioSpec& spec) {
  DagConfig config;
  config.protocol = spec.protocol;
  config.seed = spec.seed;
  config.horizon = spec.horizon;
  config.hop_credits = spec.hop_credits;
  config.egress_policy = spec.egress_policy;
  config.ecn_threshold = spec.ecn_threshold;
  config.sample_latency = spec.sample_latency;
  return config;
}

/// Applies per-flow QoS classes cyclically (flow i wears class i mod n);
/// an empty list leaves the unweighted builder output untouched.
void apply_flow_classes(DagConfig& config,
                        std::span<const DagFlowClass> classes) {
  if (classes.empty()) return;
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlowClass& klass = classes[f % classes.size()];
    DagFlow& flow = config.flows[f];
    flow.vc = klass.vc;
    flow.weight = klass.weight;
    if (klass.pace > 0) {
      flow.arrival = ArrivalKind::kPaced;
      flow.interval = klass.pace;
    }
    if (klass.flits > 0) flow.flits = klass.flits;
  }
}

DagEdge scenario_edge(const DagScenarioSpec& spec, std::uint16_t src,
                      std::uint16_t dst) {
  DagEdge edge;
  edge.src = src;
  edge.dst = dst;
  edge.ber = spec.ber;
  edge.burst_injection_rate = spec.burst_injection_rate;
  edge.burst_symbols = spec.burst_symbols;
  edge.latency = spec.latency;
  return edge;
}

}  // namespace

DagConfig make_chain_dag(const DagScenarioSpec& spec, std::size_t relays) {
  DagConfig config = base_scenario_config(spec);
  config.nodes.push_back(DagNode{"src", DagNodeKind::kTerminal, {}});
  for (std::size_t r = 0; r < relays; ++r) {
    std::string name = "relay";
    name += std::to_string(r + 1);
    config.nodes.push_back(DagNode{std::move(name), DagNodeKind::kRelay, {}});
  }
  config.nodes.push_back(DagNode{"dst", DagNodeKind::kTerminal, {}});
  const std::uint16_t last = static_cast<std::uint16_t>(relays + 1);
  for (std::uint16_t v = 0; v < last; ++v)
    config.edges.push_back(
        scenario_edge(spec, v, static_cast<std::uint16_t>(v + 1)));
  config.flows.push_back(DagFlow{0, last, spec.flits_per_flow, 0xA000});
  return config;
}

DagConfig make_butterfly_dag(const DagScenarioSpec& spec) {
  DagConfig config = base_scenario_config(spec);
  for (int i = 0; i < 4; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  config.nodes.push_back(DagNode{"r10", DagNodeKind::kRelay, {}});  // id 4
  config.nodes.push_back(DagNode{"r11", DagNodeKind::kRelay, {}});  // id 5
  config.nodes.push_back(DagNode{"r20", DagNodeKind::kRelay, {}});  // id 6
  config.nodes.push_back(DagNode{"r21", DagNodeKind::kRelay, {}});  // id 7
  for (int i = 0; i < 4; ++i) {
    std::string name = "d";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }  // ids 8..11
  config.edges.push_back(scenario_edge(spec, 0, 4));
  config.edges.push_back(scenario_edge(spec, 1, 4));
  config.edges.push_back(scenario_edge(spec, 2, 5));
  config.edges.push_back(scenario_edge(spec, 3, 5));
  config.edges.push_back(scenario_edge(spec, 4, 6));
  config.edges.push_back(scenario_edge(spec, 4, 7));
  config.edges.push_back(scenario_edge(spec, 5, 6));
  config.edges.push_back(scenario_edge(spec, 5, 7));
  config.edges.push_back(scenario_edge(spec, 6, 8));
  config.edges.push_back(scenario_edge(spec, 6, 9));
  config.edges.push_back(scenario_edge(spec, 7, 10));
  config.edges.push_back(scenario_edge(spec, 7, 11));
  // s0 and s2 land under r20, s1 and s3 under r21: every stage-1 relay
  // splits its two flows across both stage-2 relays, so all four middle
  // edges carry traffic and every stage-2 relay sees fan-in from both
  // stage-1 relays.
  config.flows.push_back(DagFlow{0, 8, spec.flits_per_flow, 0xC000});
  config.flows.push_back(DagFlow{1, 10, spec.flits_per_flow, 0xC001});
  config.flows.push_back(DagFlow{2, 9, spec.flits_per_flow, 0xC002});
  config.flows.push_back(DagFlow{3, 11, spec.flits_per_flow, 0xC003});
  return config;
}

DagConfig make_fat_tree_dag(const DagScenarioSpec& spec) {
  DagConfig config = base_scenario_config(spec);
  for (int i = 0; i < 4; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  config.nodes.push_back(DagNode{"up0", DagNodeKind::kRelay, {}});    // id 4
  config.nodes.push_back(DagNode{"up1", DagNodeKind::kRelay, {}});    // id 5
  config.nodes.push_back(DagNode{"spine", DagNodeKind::kRelay, {}});  // id 6
  config.nodes.push_back(DagNode{"down0", DagNodeKind::kRelay, {}});  // id 7
  config.nodes.push_back(DagNode{"down1", DagNodeKind::kRelay, {}});  // id 8
  for (int i = 0; i < 4; ++i) {
    std::string name = "d";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }  // ids 9..12
  config.edges.push_back(scenario_edge(spec, 0, 4));
  config.edges.push_back(scenario_edge(spec, 1, 4));
  config.edges.push_back(scenario_edge(spec, 2, 5));
  config.edges.push_back(scenario_edge(spec, 3, 5));
  config.edges.push_back(scenario_edge(spec, 4, 6));
  config.edges.push_back(scenario_edge(spec, 5, 6));
  config.edges.push_back(scenario_edge(spec, 6, 7));
  config.edges.push_back(scenario_edge(spec, 6, 8));
  config.edges.push_back(scenario_edge(spec, 7, 9));
  config.edges.push_back(scenario_edge(spec, 7, 10));
  config.edges.push_back(scenario_edge(spec, 8, 11));
  config.edges.push_back(scenario_edge(spec, 8, 12));
  // Cross traffic: every flow climbs to the spine and descends the other
  // side, so the two trunk hops each multiplex two flows.
  for (std::uint16_t i = 0; i < 4; ++i)
    config.flows.push_back(DagFlow{i, static_cast<std::uint16_t>(12 - i),
                                   spec.flits_per_flow, 0xF000u + i});
  return config;
}

DagConfig make_asymmetric_dag(const DagScenarioSpec& spec) {
  DagConfig config = base_scenario_config(spec);
  config.nodes.push_back(DagNode{"a", DagNodeKind::kTerminal, {}});   // 0
  config.nodes.push_back(DagNode{"c", DagNodeKind::kTerminal, {}});   // 1
  config.nodes.push_back(DagNode{"r0", DagNodeKind::kRelay, {}});     // 2
  config.nodes.push_back(DagNode{"r1", DagNodeKind::kRelay, {}});     // 3
  config.nodes.push_back(DagNode{"r2", DagNodeKind::kRelay, {}});     // 4
  config.nodes.push_back(DagNode{"b", DagNodeKind::kTerminal, {}});   // 5
  config.nodes.push_back(DagNode{"d", DagNodeKind::kTerminal, {}});   // 6
  config.edges.push_back(scenario_edge(spec, 0, 2));
  config.edges.push_back(scenario_edge(spec, 2, 3));
  config.edges.push_back(scenario_edge(spec, 1, 3));
  config.edges.push_back(scenario_edge(spec, 3, 4));
  config.edges.push_back(scenario_edge(spec, 4, 5));
  config.edges.push_back(scenario_edge(spec, 4, 6));
  // a -> b rides four hops, c -> d three; both share the r1 -> r2 trunk.
  config.flows.push_back(DagFlow{0, 5, spec.flits_per_flow, 0xE000});
  config.flows.push_back(DagFlow{1, 6, spec.flits_per_flow, 0xE001});
  return config;
}

DagConfig make_incast_dag(const DagScenarioSpec& spec, std::size_t sources) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "src";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t relay = static_cast<std::uint16_t>(sources);
  const std::uint16_t sink = static_cast<std::uint16_t>(sources + 1);
  config.nodes.push_back(DagNode{"relay", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"sink", DagNodeKind::kTerminal, {}});
  config.max_ports = std::max(config.max_ports, sources + 1);
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(
        scenario_edge(spec, static_cast<std::uint16_t>(i), relay));
  config.edges.push_back(scenario_edge(spec, relay, sink));
  for (std::size_t i = 0; i < sources; ++i) {
    DagFlow flow;
    flow.src = static_cast<std::uint16_t>(i);
    flow.dst = sink;
    flow.flits = spec.flits_per_flow;
    flow.salt = 0x1CA0 + i;
    config.flows.push_back(flow);
  }
  return config;
}

DagConfig make_incast_dag(const DagScenarioSpec& spec, std::size_t sources,
                          std::span<const DagFlowClass> classes) {
  DagConfig config = make_incast_dag(spec, sources);
  apply_flow_classes(config, classes);
  return config;
}

DagConfig make_hotspot_dag(const DagScenarioSpec& spec, std::size_t sources) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "src";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t relay = static_cast<std::uint16_t>(sources);
  const std::uint16_t hot = static_cast<std::uint16_t>(sources + 1);
  const std::uint16_t cold = static_cast<std::uint16_t>(sources + 2);
  config.nodes.push_back(DagNode{"relay", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"hot", DagNodeKind::kTerminal, {}});
  config.nodes.push_back(DagNode{"cold", DagNodeKind::kTerminal, {}});
  config.max_ports = std::max(config.max_ports, sources + 2);
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(
        scenario_edge(spec, static_cast<std::uint16_t>(i), relay));
  config.edges.push_back(scenario_edge(spec, relay, hot));
  config.edges.push_back(scenario_edge(spec, relay, cold));
  // Flows 0..sources-2 pile onto the hot sink; the last flow has the cold
  // egress hop to itself and must keep moving under the others' backlog.
  for (std::size_t i = 0; i + 1 < sources; ++i)
    config.flows.push_back(DagFlow{static_cast<std::uint16_t>(i), hot,
                                   spec.flits_per_flow, 0x407u + i});
  config.flows.push_back(DagFlow{static_cast<std::uint16_t>(sources - 1),
                                 cold, spec.flits_per_flow, 0xC07D});
  return config;
}

DagConfig make_hotspot_dag(const DagScenarioSpec& spec, std::size_t sources,
                           std::span<const DagFlowClass> classes) {
  DagConfig config = make_hotspot_dag(spec, sources);
  apply_flow_classes(config, classes);
  return config;
}

DagConfig make_diamond_dag(const DagScenarioSpec& spec, std::size_t sources,
                           std::size_t branches) {
  assert(sources >= 1 && branches >= 1);
  DagConfig config = base_scenario_config(spec);
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "src";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t r0 = static_cast<std::uint16_t>(sources);
  config.nodes.push_back(DagNode{"r0", DagNodeKind::kRelay, {}});
  for (std::size_t j = 0; j < branches; ++j) {
    std::string name = "m";
    name += std::to_string(j);
    config.nodes.push_back(DagNode{std::move(name), DagNodeKind::kRelay, {}});
  }
  const std::uint16_t r1 = static_cast<std::uint16_t>(sources + branches + 1);
  config.nodes.push_back(DagNode{"r1", DagNodeKind::kRelay, {}});
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "dst";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  config.max_ports = std::max(config.max_ports, sources + branches);
  // Edge-id layout documented in the header: source uplinks first, then the
  // branch edge pairs interleaved (R0 -> M_j at sources + 2j, M_j -> R1 at
  // sources + 2j + 1), then the sink downlinks. BFS ties break on the
  // lowest edge id, so every primary path rides M_0.
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(
        scenario_edge(spec, static_cast<std::uint16_t>(i), r0));
  for (std::size_t j = 0; j < branches; ++j) {
    const std::uint16_t mid = static_cast<std::uint16_t>(sources + 1 + j);
    config.edges.push_back(scenario_edge(spec, r0, mid));
    config.edges.push_back(scenario_edge(spec, mid, r1));
  }
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(scenario_edge(
        spec, r1, static_cast<std::uint16_t>(sources + branches + 2 + i)));
  for (std::size_t i = 0; i < sources; ++i)
    config.flows.push_back(
        DagFlow{static_cast<std::uint16_t>(i),
                static_cast<std::uint16_t>(sources + branches + 2 + i),
                spec.flits_per_flow, 0xD1A0u + i});
  return config;
}

DagConfig make_trunk_dag(const DagScenarioSpec& spec, std::size_t sources) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "src";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t r1 = static_cast<std::uint16_t>(sources);
  const std::uint16_t r2 = static_cast<std::uint16_t>(sources + 1);
  config.nodes.push_back(DagNode{"r1", DagNodeKind::kRelay, {}});
  config.nodes.push_back(DagNode{"r2", DagNodeKind::kRelay, {}});
  for (std::size_t i = 0; i < sources; ++i) {
    std::string name = "dst";
    name += std::to_string(i);
    config.nodes.push_back(
        DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  config.max_ports = std::max(config.max_ports, sources + 1);
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(
        scenario_edge(spec, static_cast<std::uint16_t>(i), r1));
  config.edges.push_back(scenario_edge(spec, r1, r2));
  for (std::size_t i = 0; i < sources; ++i)
    config.edges.push_back(scenario_edge(
        spec, r2, static_cast<std::uint16_t>(sources + 2 + i)));
  for (std::size_t i = 0; i < sources; ++i)
    config.flows.push_back(
        DagFlow{static_cast<std::uint16_t>(i),
                static_cast<std::uint16_t>(sources + 2 + i),
                spec.flits_per_flow, 0x7A00u + i});
  return config;
}

DagConfig make_trunk_dag(const DagScenarioSpec& spec, std::size_t sources,
                         std::span<const DagFlowClass> classes) {
  DagConfig config = make_trunk_dag(spec, sources);
  apply_flow_classes(config, classes);
  return config;
}

// ---------------------------------------------------------------------------
// The legacy star fabric as a one-hub DAG
// ---------------------------------------------------------------------------

DagConfig make_star_dag(const StarConfig& config) {
  DagConfig dag;
  dag.protocol = config.protocol;
  dag.slot = config.slot;
  dag.hub_latency = config.switch_latency;
  dag.hub_internal_error_rate = config.switch_internal_error_rate;
  dag.seed = config.seed;
  dag.horizon = config.horizon;

  const std::size_t n = config.pairs;
  // Legacy seed draw order: down switch, up switch, then per pair the four
  // channels (host uplink, device downlink, device uplink, host downlink).
  // Replaying those draws as explicit seeds keeps a clean-hub run
  // trajectory-identical to the deleted hard-coded star builder (pinned by
  // the recorded-counter equivalence tests).
  Xoshiro256 seeder(config.seed);
  const std::uint64_t hub_seed = seeder();
  (void)seeder();  // the legacy up-switch stream; the single hub has one

  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "host";
    name += std::to_string(i);
    dag.nodes.push_back(DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "dev";
    name += std::to_string(i);
    dag.nodes.push_back(DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t hub = static_cast<std::uint16_t>(2 * n);
  dag.nodes.push_back(DagNode{"hub", DagNodeKind::kHub, hub_seed});
  // 2N terminals + the hub: keep validation permissive for large stars.
  dag.max_ports = std::max<std::size_t>(dag.max_ports, 4 * n);

  auto star_edge = [&](std::uint16_t src, std::uint16_t dst) {
    DagEdge edge;
    edge.src = src;
    edge.dst = dst;
    edge.ber = config.ber;
    edge.burst_injection_rate = config.burst_injection_rate;
    edge.burst_symbols = config.burst_symbols;
    edge.latency = config.propagation_latency;
    edge.seed = seeder();
    return edge;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t host = static_cast<std::uint16_t>(i);
    const std::uint16_t device = static_cast<std::uint16_t>(n + i);
    dag.edges.push_back(star_edge(host, hub));    // host uplink
    dag.edges.push_back(star_edge(hub, device));  // device downlink
    dag.edges.push_back(star_edge(device, hub));  // device uplink
    dag.edges.push_back(star_edge(hub, host));    // host downlink
  }
  for (std::size_t i = 0; i < n; ++i)
    dag.flows.push_back(DagFlow{static_cast<std::uint16_t>(i),
                                static_cast<std::uint16_t>(n + i),
                                config.flits_per_direction, 0xD000 + i});
  for (std::size_t i = 0; i < n; ++i)
    dag.flows.push_back(DagFlow{static_cast<std::uint16_t>(n + i),
                                static_cast<std::uint16_t>(i),
                                config.flits_per_direction, 0xB000 + i});
  return dag;
}

// ---------------------------------------------------------------------------
// The paper's multi-level switch trial as hub chains
// ---------------------------------------------------------------------------

DagConfig make_switch_levels_dag(const FabricConfig& config) {
  DagConfig dag;
  dag.protocol = config.protocol;
  dag.slot = config.slot;
  dag.hub_latency = config.switch_latency;
  dag.hub_internal_error_rate = config.switch_internal_error_rate;
  dag.seed = config.seed;
  dag.horizon = config.horizon;
  // The protocol's credit window bounds both directions of the one domain.
  dag.hop_credits = config.protocol.tx_credits;

  const unsigned levels = config.switch_levels;
  const std::uint16_t host = 0;
  const std::uint16_t device = 1;
  dag.nodes.push_back(DagNode{"host", DagNodeKind::kTerminal, {}});
  dag.nodes.push_back(DagNode{"device", DagNodeKind::kTerminal, {}});
  // Replayed seed draws: per direction, downstream first, the L+1 channels
  // and then the L switches, so every channel error stream and every
  // switch's internal-corruption stream matches the historical harness.
  Xoshiro256 seeder(config.seed);
  auto add_direction = [&](std::uint16_t from, std::uint16_t to,
                           const char* stage_name) {
    const std::size_t first_hub = dag.nodes.size();
    auto hub = [&](unsigned level) {
      return static_cast<std::uint16_t>(first_hub + level);
    };
    for (unsigned hop = 0; hop <= levels; ++hop) {
      DagEdge edge;
      edge.src = hop == 0 ? from : hub(hop - 1);
      edge.dst = hop == levels ? to : hub(hop);
      edge.ber = config.ber;
      edge.burst_injection_rate = config.burst_injection_rate;
      edge.burst_symbols = config.burst_symbols;
      edge.latency = config.propagation_latency;
      edge.seed = seeder();
      dag.edges.push_back(edge);
    }
    for (unsigned level = 0; level < levels; ++level) {
      std::string name = stage_name;
      name += std::to_string(level + 1);
      dag.nodes.push_back(
          DagNode{std::move(name), DagNodeKind::kHub, seeder()});
    }
  };
  add_direction(host, device, "down");
  add_direction(device, host, "up");
  dag.flows.push_back(DagFlow{host, device, config.downstream_flits, 0x00D0});
  dag.flows.push_back(DagFlow{device, host, config.upstream_flits, 0x0B0B});
  return dag;
}

}  // namespace rxl::transport
