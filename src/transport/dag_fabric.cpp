#include "rxl/transport/dag_fabric.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "rxl/link/credit.hpp"
#include "rxl/link/sequence.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/transport/traffic.hpp"

namespace rxl::transport {
namespace {

// ---------------------------------------------------------------------------
// Validation + routing plan
// ---------------------------------------------------------------------------

void append(std::string& out, const char* text) { out += text; }
void append(std::string& out, const std::string& text) { out += text; }
template <class Number>
  requires std::is_arithmetic_v<Number>
void append(std::string& out, Number value) {
  out += std::to_string(value);
}

/// Throws std::invalid_argument whose message is `parts` concatenated
/// (numbers through std::to_string). Appends with += rather than operator+
/// chains, which trip GCC 12's -Wrestrict false positive at -O2. Callers
/// build labels only inside the failing branch, so a valid config formats
/// nothing.
template <class... Parts>
[[noreturn]] void invalid(const Parts&... parts) {
  std::string message;
  (append(message, parts), ...);
  throw std::invalid_argument(std::move(message));
}

/// True when `value` is a probability in [0, 1] (NaN fails).
bool is_probability(double value) { return value >= 0.0 && value <= 1.0; }
constexpr const char* kNotProbability =
    " must be a probability in [0, 1], got ";

std::string node_label(const DagConfig& config, std::size_t node) {
  if (node < config.nodes.size() && !config.nodes[node].name.empty())
    return config.nodes[node].name;
  std::string label = "node#";
  label += std::to_string(node);
  return label;
}

DagNodeKind kind_of(const DagConfig& config, std::size_t node) {
  return config.nodes[node].kind;
}

/// Incident edge ids per node, each list in edge-id order.
struct Adjacency {
  std::vector<std::vector<std::uint16_t>> out;
  std::vector<std::vector<std::uint16_t>> in;
};

/// Breadth-first shortest path from `from` to `to`, ties broken by lowest
/// edge id (out-edge lists are in declaration order, so first-reached
/// wins). Traffic cannot transit a terminal, so the search never expands
/// one past `from`. Edges flagged in `excluded` (when given) are skipped.
/// Returns the edge ids in path order, or nullopt when `to` is unreachable.
std::optional<std::vector<std::uint16_t>> shortest_path(
    const DagConfig& config, const Adjacency& adjacency, std::uint16_t from,
    std::uint16_t to, const std::vector<std::uint8_t>* excluded) {
  const std::size_t n = config.nodes.size();
  std::vector<std::int32_t> parent_edge(n, -1);
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<std::uint16_t> frontier{from};
  visited[from] = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::uint16_t u = frontier[head];
    if (u != from && kind_of(config, u) == DagNodeKind::kTerminal) continue;
    for (const std::uint16_t e : adjacency.out[u]) {
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

/// Pass 1: fields that apply to the whole fabric.
void check_fabric_fields(const DagConfig& config) {
  if (config.nodes.empty()) invalid("DAG topology has no nodes");
  if (config.nodes.size() >= 0xFFFF || config.edges.size() >= 0xFFF0 ||
      config.flows.size() >= 0xFFFF)
    invalid("DAG topology exceeds the 16-bit id space");
  if (config.slot == 0) invalid("slot must be > 0 (it divides the horizon)");
  if (config.horizon == 0) invalid("horizon must be > 0");
  if (!is_probability(config.hub_internal_error_rate))
    invalid("hub_internal_error_rate", kNotProbability,
            config.hub_internal_error_rate);
}

/// Pass 2: per-edge fields, then the adjacency every later pass walks.
Adjacency check_edges(const DagConfig& config) {
  const std::size_t n = config.nodes.size();
  Adjacency adjacency{std::vector<std::vector<std::uint16_t>>(n),
                      std::vector<std::vector<std::uint16_t>>(n)};
  for (std::size_t e = 0; e < config.edges.size(); ++e) {
    const DagEdge& edge = config.edges[e];
    if (edge.src >= n || edge.dst >= n)
      invalid("edge ", e, " references a node out of range");
    if (edge.src == edge.dst)
      invalid("self-edge at ", node_label(config, edge.src));
    if (!is_probability(edge.ber))
      invalid("edge ", e, " ber", kNotProbability, edge.ber);
    if (!is_probability(edge.burst_injection_rate))
      invalid("edge ", e, " burst_injection_rate", kNotProbability,
              edge.burst_injection_rate);
    if (edge.credits.has_value()) {
      // Deadlock safety: the core-acyclicity pass guarantees progress only
      // if every flow-controlled hop can hold at least one flit (sinks
      // drain unconditionally, so one credit per hop suffices for induction
      // along the acyclic downstream order). A zero-credit hop could never
      // transmit at all.
      if (*edge.credits == 0)
        invalid("edge ", e, " into ", node_label(config, edge.dst),
                " declares a zero-credit buffer (the hop could never "
                "transmit); use at least one credit, or leave the edge at "
                "the DagConfig default");
      if (*edge.credits > link::kMaxCreditWindow)
        invalid("edge ", e, " credit window exceeds link::kMaxCreditWindow");
      // A hop's buffer lives at its terminating end, so credits are
      // resolved from the edge INTO the receiving termination. An edge
      // entering a hub never terminates a hop — credits set there would
      // be silently inert, so refuse them instead.
      if (kind_of(config, edge.dst) == DagNodeKind::kHub)
        invalid("edge ", e, " enters hub ", node_label(config, edge.dst),
                ", which does not terminate the hop; set credits on the "
                "hub's egress edge (into the receiving termination)");
    }
    adjacency.out[edge.src].push_back(static_cast<std::uint16_t>(e));
    adjacency.in[edge.dst].push_back(static_cast<std::uint16_t>(e));
  }
  if (config.hop_credits > link::kMaxCreditWindow)
    invalid("hop_credits exceeds link::kMaxCreditWindow");
  return adjacency;
}

/// Pass 3: the fault plan may address fewer edges than the topology
/// declares (missing tail entries mean "no faults") but never more,
/// fail-stop events must name relay nodes, and every finite down window
/// must have positive length. Duplicate edges are refused after it.
void check_fault_plan(const DagConfig& config) {
  if (config.faults.edges.size() > config.edges.size())
    invalid("fault plan addresses more edges than the topology declares");
  for (std::size_t e = 0; e < config.faults.edges.size(); ++e)
    for (const sim::FaultWindow& window : config.faults.edges[e].windows())
      if (window.up_at != 0 && window.up_at <= window.down_at)
        invalid("fault window on edge ", e, " ends at or before it starts");
  for (const sim::RelayFailStop& failure : config.faults.relay_failures)
    if (failure.node >= config.nodes.size() ||
        kind_of(config, failure.node) != DagNodeKind::kRelay)
      invalid("relay fail-stop event at node ", failure.node,
              " does not name a relay");
}

/// Pass 3, continued: at most one edge per ordered node pair.
void check_no_duplicate_edges(const DagConfig& config) {
  std::vector<std::pair<std::uint16_t, std::uint16_t>> pairs;
  pairs.reserve(config.edges.size());
  for (const DagEdge& edge : config.edges)
    pairs.emplace_back(edge.src, edge.dst);
  std::sort(pairs.begin(), pairs.end());
  const auto dup = std::adjacent_find(pairs.begin(), pairs.end());
  if (dup != pairs.end())
    invalid("duplicate edge ", node_label(config, dup->first), " -> ",
            node_label(config, dup->second));
}

/// Pass 4: port fan-out, single-homed terminals, and hubs that both
/// receive and send.
void check_node_limits(const DagConfig& config, const Adjacency& adjacency) {
  for (std::size_t v = 0; v < config.nodes.size(); ++v) {
    const std::size_t fanout = adjacency.out[v].size() + adjacency.in[v].size();
    if (fanout > config.max_ports)
      invalid(node_label(config, v), " exceeds the fan-out limit (", fanout,
              " incident edges, max_ports=", config.max_ports, ")");
    switch (kind_of(config, v)) {
      case DagNodeKind::kTerminal:
        if (adjacency.out[v].size() > 1)
          invalid("terminal ", node_label(config, v),
                  " has more than one uplink edge");
        if (adjacency.in[v].size() > 1)
          invalid("terminal ", node_label(config, v),
                  " has more than one downlink edge");
        break;
      case DagNodeKind::kHub:
        if (adjacency.out[v].empty() || adjacency.in[v].empty())
          invalid("hub ", node_label(config, v),
                  " needs at least one ingress and one egress edge");
        break;
      case DagNodeKind::kRelay:
        break;
    }
  }
}

/// Pass 5: acyclicity of the switching core. Traffic cannot transit a
/// terminal (flows only originate/terminate there), so the only cycles
/// reachable by routed flits are cycles among relays/hubs: DFS with colors
/// over edges whose endpoints are both non-terminal.
void check_core_acyclic(const DagConfig& config, const Adjacency& adjacency) {
  const std::size_t n = config.nodes.size();
  std::vector<std::uint8_t> color(n, 0);  // 0=white 1=grey 2=black
  struct Frame {
    std::uint16_t node;
    std::size_t next;
  };
  std::vector<Frame> stack;
  for (std::size_t start = 0; start < n; ++start) {
    if (kind_of(config, start) == DagNodeKind::kTerminal || color[start] != 0)
      continue;
    color[start] = 1;
    stack.push_back(Frame{static_cast<std::uint16_t>(start), 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next < adjacency.out[frame.node].size()) {
        const std::uint16_t e = adjacency.out[frame.node][frame.next++];
        const std::uint16_t w = config.edges[e].dst;
        if (kind_of(config, w) == DagNodeKind::kTerminal) continue;
        if (color[w] == 1)
          invalid("the switching core contains a cycle through ",
                  node_label(config, w));
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

/// Pass 6: per-flow endpoint checks and primary routes (shortest_path).
DagPlan route_flows(const DagConfig& config, const Adjacency& adjacency) {
  const std::size_t n = config.nodes.size();
  DagPlan plan;
  plan.flow_paths.resize(config.flows.size());
  plan.flow_segments.resize(config.flows.size());
  std::vector<std::uint8_t> originates(n, 0);
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlow& flow = config.flows[f];
    if (flow.src >= n || flow.dst >= n)
      invalid("flow ", f, " references a node out of range");
    if (kind_of(config, flow.src) != DagNodeKind::kTerminal ||
        kind_of(config, flow.dst) != DagNodeKind::kTerminal)
      invalid("flow ", f, " endpoints must be terminals");
    if (flow.src == flow.dst) invalid("flow ", f, " sends to its own source");
    if (originates[flow.src] != 0)
      invalid("terminal ", node_label(config, flow.src),
              " originates more than one flow");
    originates[flow.src] = 1;
    if (flow.vc >= link::kMaxVcs)
      invalid("flow ", f, " rides VC ", flow.vc, ", beyond link::kMaxVcs");
    std::optional<std::vector<std::uint16_t>> path =
        shortest_path(config, adjacency, flow.src, flow.dst, nullptr);
    if (!path.has_value())
      invalid("flow ", node_label(config, flow.src), " -> ",
              node_label(config, flow.dst), " is unreachable");
    plan.flow_paths[f] = std::move(*path);
  }
  return plan;
}

/// The first thing wrong with `flow`'s arrival process, or null: each
/// kind's shape parameters must be present, and parameters of other kinds
/// must be absent — a silently-ignored knob would misstate the offered load.
const char* arrival_problem(const DagFlow& flow) {
  switch (flow.arrival) {
    case ArrivalKind::kGreedy:
      if (flow.interval > 0)
        return "sets interval; pick a rate-shaped arrival kind";
      break;
    case ArrivalKind::kPaced:
    case ArrivalKind::kPoisson:
      if (flow.interval == 0) return "needs interval > 0";
      break;
    case ArrivalKind::kOnOff:
      if (flow.interval == 0) return "needs interval > 0 (burst spacing)";
      if (flow.off_mean == 0) return "needs off_mean > 0";
      if (!(flow.on_mean_flits >= 1.0)) return "needs on_mean_flits >= 1";
      break;
    case ArrivalKind::kClosedLoop:
      if (flow.window == 0) return "needs window >= 1";
      if (flow.interval > 0) return "takes no interval";
      return nullptr;
  }
  if (flow.window > 0) return "sets window; only closed-loop flows take one";
  if (flow.think > 0) return "sets think; only closed-loop flows take one";
  return nullptr;
}

/// Pass 7: QoS and arrival specs. Relays schedule VCs, not flows, so every
/// flow sharing a VC must declare the same DRR weight — a mismatch would
/// silently pick one. ECN marks ride on the credit machinery (they throttle
/// a VC BEFORE its window exhausts, and endpoints ignore the mark byte with
/// credits off), so a threshold with every hop unbounded could never fire.
void check_flow_specs(const DagConfig& config) {
  std::array<std::int64_t, link::kMaxVcs> vc_weight;
  vc_weight.fill(-1);
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const DagFlow& flow = config.flows[f];
    const auto weight = static_cast<std::int64_t>(flow.weight);
    if (vc_weight[flow.vc] < 0) vc_weight[flow.vc] = weight;
    if (vc_weight[flow.vc] != weight)
      invalid("flow ", f, " declares weight ", flow.weight, " for VC ", flow.vc,
              ", but an earlier flow on the same VC declared ",
              vc_weight[flow.vc]);
  }
  for (std::size_t f = 0; f < config.flows.size(); ++f)
    if (const char* problem = arrival_problem(config.flows[f]))
      invalid("flow ", f, " (", arrival_kind_name(config.flows[f].arrival),
              " arrivals) ", problem);
  if (config.ecn_threshold > 0 && config.hop_credits == 0 &&
      std::none_of(config.edges.begin(), config.edges.end(),
                   [](const DagEdge& edge) { return edge.credits.has_value(); }))
    invalid(
        "ecn_threshold set with credit flow control off everywhere; ECN "
        "early backpressure needs hop_credits or per-edge credits");
}

/// Pass 8: splits routed paths into ISN-domain segments at terminating
/// nodes. A run between terminations is one direct edge or a path through a
/// chain of hubs. Domains are exclusive per edge — an edge carries at most
/// one domain direction — so a receiver never has to demux two ISN streams,
/// and each hub egress port can hold the one next-stage tag its domain
/// needs. A path re-walking an already planned segment reuses it.
class SegmentExtractor {
 public:
  SegmentExtractor(const DagConfig& config, const Adjacency& adjacency,
                   DagPlan& plan)
      : config_(config),
        adjacency_(adjacency),
        plan_(plan),
        segment_of_edge_(config.edges.size(), -1) {}

  /// Appends the plan segment index of every run along `path` to `into`.
  void extract(const std::vector<std::uint16_t>& path,
               std::vector<std::uint32_t>& into) {
    for (std::size_t i = 0; i < path.size();)
      into.push_back(add(next_segment(path, i)));
  }

 private:
  /// The run starting at path[i]; advances `i` past it.
  DagPlan::Segment next_segment(const std::vector<std::uint16_t>& path,
                                std::size_t& i) const {
    DagPlan::Segment segment;
    std::uint16_t edge = path[i++];
    segment.origin = config_.edges[edge].src;
    segment.egress_edge = edge;
    while (kind_of(config_, config_.edges[edge].dst) == DagNodeKind::kHub) {
      assert(i < path.size());
      const std::uint16_t hub = config_.edges[edge].dst;
      edge = path[i++];
      segment.hubs.push_back(DagPlan::HubStage{hub, hub_port(hub, edge), edge});
    }
    segment.ingress_edge = edge;
    segment.peer = config_.edges[edge].dst;
    return segment;
  }

  std::uint16_t hub_port(std::uint16_t hub, std::uint16_t edge) const {
    const std::vector<std::uint16_t>& outs = adjacency_.out[hub];
    const auto it = std::find(outs.begin(), outs.end(), edge);
    assert(it != outs.end());
    return static_cast<std::uint16_t>(it - outs.begin());
  }

  /// The plan index of `segment`: the existing one when its first edge is
  /// already claimed (it must then cross the same hub stages), else a new
  /// one claiming each of its edges.
  std::uint32_t add(DagPlan::Segment segment) {
    const std::int32_t existing = segment_of_edge_[segment.egress_edge];
    if (existing >= 0) {
      const DagPlan::Segment& other =
          plan_.segments[static_cast<std::size_t>(existing)];
      const auto same_stage = [](const DagPlan::HubStage& a,
                                 const DagPlan::HubStage& b) {
        return a.edge == b.edge;
      };
      if (!std::equal(other.hubs.begin(), other.hubs.end(),
                      segment.hubs.begin(), segment.hubs.end(), same_stage))
        invalid("ISN domain leaving ", node_label(config_, segment.origin),
                " fans out through hub ",
                node_label(config_, segment.hubs.front().hub),
                " (one TX termination cannot feed two receivers)");
      return static_cast<std::uint32_t>(existing);
    }
    const auto index = static_cast<std::uint32_t>(plan_.segments.size());
    claim(segment.egress_edge, index);
    for (const DagPlan::HubStage& stage : segment.hubs)
      claim(stage.edge, index);
    plan_.segments.push_back(std::move(segment));
    return index;
  }

  void claim(std::uint16_t edge, std::uint32_t index) {
    if (segment_of_edge_[edge] >= 0)
      invalid("two ISN domains are multiplexed onto the edge into ",
              node_label(config_, config_.edges[edge].dst),
              " (an implicit-sequence receiver cannot demux them)");
    segment_of_edge_[edge] = static_cast<std::int32_t>(index);
  }

  const DagConfig& config_;
  const Adjacency& adjacency_;
  DagPlan& plan_;
  std::vector<std::int32_t> segment_of_edge_;
};

/// Pass 9: backup routes for planned faults. For every (flow, primary
/// segment) whose forward edges are doomed — a permanent down window, or
/// incidence to a fail-stop relay — precompute a detour from the dead
/// segment's origin to the flow's destination over the surviving graph,
/// with the same BFS and lowest-edge-id tie-break as primaries. Backup
/// segments go through the same extractor BEFORE mate pairing, so they pair
/// with reverse topology edges exactly like primary segments. Empty
/// backup_edges records "no surviving route": the reroute controller
/// reports the abandonment and the flow degrades.
void plan_backup_routes(const DagConfig& config, const Adjacency& adjacency,
                        SegmentExtractor& extractor, DagPlan& plan) {
  if (config.faults.empty()) return;
  std::vector<std::uint8_t> node_failed(config.nodes.size(), 0);
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
    for (const std::uint32_t si : plan.flow_segments[f]) {
      const DagPlan::Segment& segment = plan.segments[si];
      if (edge_doomed[segment.egress_edge] == 0 &&
          edge_doomed[segment.ingress_edge] == 0)
        continue;
      // A fail-stop relay raises no usable HopDownEvent for its own egress
      // hops (its protocol state is lost with it); the upstream segment
      // INTO the failed relay owns the recovery instead.
      if (node_failed[segment.origin] != 0) continue;
      DagPlan::Reroute reroute;
      reroute.flow = static_cast<std::uint16_t>(f);
      reroute.dead_segment = si;
      std::optional<std::vector<std::uint16_t>> backup = shortest_path(
          config, adjacency, segment.origin, config.flows[f].dst, &edge_doomed);
      if (backup.has_value()) {
        reroute.backup_edges = std::move(*backup);
        extractor.extract(reroute.backup_edges, reroute.backup_segments);
      }
      plan.reroutes.push_back(std::move(reroute));
    }
  }
}

/// Pass 10: credit accounting assumes exactly-once delivery within the
/// domain: a slot is charged per first transmission and freed per
/// delivery. A CXL domain spliced through a transparent hub breaks that —
/// the hub drops silently and a following ack-carrying flit masks the gap
/// (§4.1), so a lost flit leaks its credit forever (the cumulative-count
/// healing cannot recover a slot that will never be delivered) and a
/// duplicate delivery inflates the window past the advertised depth.
/// Relay-terminated hops and hubless CXL domains detect every drop at the
/// receiving endpoint and stay exactly-once, so only the hub-crossing CXL
/// combination is rejected.
void check_cxl_hub_credits(const DagConfig& config, const DagPlan& plan) {
  if (config.protocol.protocol != Protocol::kCxl) return;
  for (const DagPlan::Segment& segment : plan.segments) {
    if (segment.hubs.empty()) continue;
    if (config.edges[segment.ingress_edge].credits.value_or(
            config.hop_credits) > 0)
      invalid("credit flow control on the CXL domain through hub ",
              node_label(config, segment.hubs.front().hub),
              " would leak credits on silently dropped flits (§4.1 losses "
              "are invisible to the cumulative return count); use RXL, "
              "terminate the hop at a relay, or disable credits on this "
              "edge");
  }
}

/// Pass 11: pairs mutually reverse segments into bidirectional domains: the
/// segment from a peer back to its origin, through whichever hubs (the
/// paper's switch-level trial runs separate downstream and upstream switch
/// stacks as one domain). At most one candidate exists: between two relays
/// a return path would close a cycle in the switching core (pass 5), and a
/// terminal's single uplink and downlink edges each belong to one domain
/// direction. So a linear scan suffices.
void pair_mates(DagPlan& plan) {
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
}

}  // namespace

DagPlan plan_dag(const DagConfig& config) {
  check_fabric_fields(config);
  const Adjacency adjacency = check_edges(config);
  check_fault_plan(config);
  check_no_duplicate_edges(config);
  check_node_limits(config, adjacency);
  check_core_acyclic(config, adjacency);
  DagPlan plan = route_flows(config, adjacency);
  check_flow_specs(config);
  SegmentExtractor extractor(config, adjacency, plan);
  for (std::size_t f = 0; f < config.flows.size(); ++f)
    extractor.extract(plan.flow_paths[f], plan.flow_segments[f]);
  plan_backup_routes(config, adjacency, extractor, plan);
  check_cxl_hub_credits(config, plan);
  pair_mates(plan);
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
      if (spec.vc != 0) {
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
      flow.source->set_source([this, f] { return pull(f); });
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

  /// Flow f's source: the first endpoint's gate verdict while the flow's VC
  /// is blocked, an empty pull while the budget is spent or the arrival
  /// process or closed-loop window holds the flow back, else the payload
  /// for the next stream position.
  Endpoint::TxPull pull(std::size_t f) {
    const DagFlow& spec = config_.flows[f];
    FlowState& flow = flows_[f];
    // The gate comes first, so an exhausted flow on an empty window still
    // records its end-of-stream stall (see EndpointExtraStats::
    // credit_stalls).
    Endpoint::TxPull result = flow.source->gate(spec.vc);
    if (result.blocked()) return result;
    const std::uint64_t index = flow.offered;
    if (index >= spec.flits) return result;
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
        return result;
      }
      // Latency is measured from the ARRIVAL, not the pull: under overload
      // the source-side backlog is part of the delay, which is what makes a
      // load-latency curve inflect past saturation.
      inject_stamp = due;
    } else if (flow.loop.has_value()) {
      if (!flow.loop->may_offer()) return result;
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
    result.item = Endpoint::TxItem{std::move(payload), index,
                                   static_cast<std::uint16_t>(f), spec.vc};
    return result;
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

namespace {

using Scoreboard = txn::StreamScoreboard::Stats;

/// Sums one counter over `rows`.
template <class Row>
std::uint64_t sum_of(const std::vector<Row>& rows, std::uint64_t Row::*field) {
  std::uint64_t total = 0;
  for (const Row& row : rows) total += row.*field;
  return total;
}

/// Sums one counter of each row's `stats` record over `rows`.
template <class Row, class Stats>
std::uint64_t sum_of(const std::vector<Row>& rows, Stats Row::*stats,
                     std::uint64_t Stats::*field) {
  std::uint64_t total = 0;
  for (const Row& row : rows) total += (row.*stats).*field;
  return total;
}

/// Sums one EndpointExtraStats counter over both terminations of every hop.
std::uint64_t sum_extras(const std::vector<DagLinkStats>& hops,
                         std::uint64_t EndpointExtraStats::*field) {
  return sum_of(hops, &DagLinkStats::a_extra, field) +
         sum_of(hops, &DagLinkStats::b_extra, field);
}

/// Folds one counter over every relay port: the sum, or the maximum when
/// `peak` is set.
std::uint64_t fold_relay_ports(const std::vector<DagRelayReport>& relays,
                               std::uint64_t switchdev::RelayPortStats::*field,
                               bool peak) {
  std::uint64_t folded = 0;
  for (const DagRelayReport& relay : relays)
    for (const DagRelayPort& port : relay.ports)
      folded = peak ? std::max(folded, port.stats.*field)
                    : folded + port.stats.*field;
  return folded;
}

}  // namespace

std::uint64_t DagReport::total_offered() const {
  return sum_of(flows, &DagFlowReport::offered);
}

std::uint64_t DagReport::total_in_order() const {
  return sum_of(flows, &DagFlowReport::scoreboard, &Scoreboard::in_order);
}

std::uint64_t DagReport::total_order_failures() const {
  return sum_of(flows, &DagFlowReport::scoreboard,
                &Scoreboard::order_violations) +
         sum_of(flows, &DagFlowReport::scoreboard, &Scoreboard::duplicates);
}

std::uint64_t DagReport::total_missing() const {
  return sum_of(flows, &DagFlowReport::scoreboard, &Scoreboard::missing);
}

std::uint64_t DagReport::total_data_corruptions() const {
  return sum_of(flows, &DagFlowReport::scoreboard,
                &Scoreboard::data_corruptions);
}

std::uint64_t DagReport::total_hop_retransmissions() const {
  return sum_of(hops, &DagLinkStats::a,
                &link::EndpointStats::data_flits_retransmitted) +
         sum_of(hops, &DagLinkStats::b,
                &link::EndpointStats::data_flits_retransmitted);
}

std::uint64_t DagReport::total_relay_no_route_drops() const {
  return fold_relay_ports(relays, &switchdev::RelayPortStats::dropped_no_route,
                          false);
}

std::uint64_t DagReport::total_credit_stalls() const {
  return sum_extras(hops, &EndpointExtraStats::credit_stalls);
}

std::uint64_t DagReport::total_credits_consumed() const {
  return sum_extras(hops, &EndpointExtraStats::credits_consumed);
}

std::uint64_t DagReport::total_credits_returned() const {
  return sum_extras(hops, &EndpointExtraStats::credits_returned);
}

std::uint64_t DagReport::total_credits_granted() const {
  return sum_extras(hops, &EndpointExtraStats::credits_granted);
}

std::uint64_t DagReport::max_ingress_occupancy() const {
  return fold_relay_ports(
      relays, &switchdev::RelayPortStats::ingress_high_water, true);
}

std::uint64_t DagReport::max_relay_queue_depth() const {
  return fold_relay_ports(relays, &switchdev::RelayPortStats::max_queue_depth,
                          true);
}

std::uint64_t DagReport::total_ecn_mark_events() const {
  return fold_relay_ports(relays, &switchdev::RelayPortStats::ecn_mark_events,
                          false);
}

std::uint64_t DagReport::total_ecn_stalls() const {
  return sum_extras(hops, &EndpointExtraStats::ecn_stalls);
}

std::uint64_t DagReport::total_hops_declared_dead() const {
  return sum_extras(hops, &EndpointExtraStats::hops_declared_dead);
}

std::uint64_t DagReport::total_dead_flits_drained() const {
  return sum_extras(hops, &EndpointExtraStats::dead_flits_drained);
}

std::uint64_t DagReport::total_credits_refunded() const {
  return sum_extras(hops, &EndpointExtraStats::credits_refunded);
}

std::uint64_t DagReport::total_flap_recoveries() const {
  return sum_extras(hops, &EndpointExtraStats::flap_recoveries);
}

std::uint64_t DagReport::total_flits_blackholed() const {
  return sum_of(hops, &DagLinkStats::forward_channel,
                &sim::ChannelStats::flits_blackholed) +
         sum_of(hops, &DagLinkStats::reverse_channel,
                &sim::ChannelStats::flits_blackholed);
}

std::uint64_t DagReport::total_reroutes_executed() const {
  return static_cast<std::uint64_t>(
      std::count_if(reroutes.begin(), reroutes.end(),
                    [](const DagRerouteReport& r) { return r.rerouted; }));
}

stats::LatencyHistogram DagReport::merged_latency() const {
  stats::LatencyHistogram merged;
  for (const DagFlowReport& flow : flows) merged.merge(flow.latency);
  return merged;
}

std::uint64_t DagReport::total_latency_sample_misses() const {
  return sum_of(flows, &DagFlowReport::latency_sample_misses);
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

/// Appends one node and returns its id.
std::uint16_t add_node(DagConfig& config, DagNodeKind kind, const char* name) {
  config.nodes.push_back(DagNode{name, kind, {}});
  return static_cast<std::uint16_t>(config.nodes.size() - 1);
}

/// Appends `count` nodes named <prefix><first>, <prefix><first + 1>, ...
/// and returns the id of the first.
std::uint16_t add_nodes(DagConfig& config, DagNodeKind kind, const char* prefix,
                        std::size_t count, std::size_t first = 0) {
  const auto id = static_cast<std::uint16_t>(config.nodes.size());
  for (std::size_t i = 0; i < count; ++i) {
    std::string name = prefix;
    name += std::to_string(first + i);
    config.nodes.push_back(DagNode{std::move(name), kind, {}});
  }
  return id;
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

using NodePair = std::pair<std::uint16_t, std::uint16_t>;

/// Appends one scenario edge per (src, dst) pair, in order.
void add_edges(DagConfig& config, const DagScenarioSpec& spec,
               std::initializer_list<NodePair> pairs) {
  for (const auto& [src, dst] : pairs)
    config.edges.push_back(scenario_edge(spec, src, dst));
}

/// Appends the edges first + i -> `to` for i in [0, count).
void add_fan_in(DagConfig& config, const DagScenarioSpec& spec,
                std::size_t first, std::size_t count, std::uint16_t to) {
  for (std::size_t i = 0; i < count; ++i)
    config.edges.push_back(
        scenario_edge(spec, static_cast<std::uint16_t>(first + i), to));
}

}  // namespace

DagConfig make_chain_dag(const DagScenarioSpec& spec, std::size_t relays) {
  DagConfig config = base_scenario_config(spec);
  add_node(config, DagNodeKind::kTerminal, "src");
  add_nodes(config, DagNodeKind::kRelay, "relay", relays, 1);
  const std::uint16_t last = add_node(config, DagNodeKind::kTerminal, "dst");
  for (std::uint16_t v = 0; v < last; ++v)
    config.edges.push_back(
        scenario_edge(spec, v, static_cast<std::uint16_t>(v + 1)));
  config.flows.push_back(DagFlow{0, last, spec.flits_per_flow, 0xA000});
  return config;
}

DagConfig make_butterfly_dag(const DagScenarioSpec& spec) {
  DagConfig config = base_scenario_config(spec);
  // Node ids: sources 0..3, relays 4..7, sinks 8..11.
  add_nodes(config, DagNodeKind::kTerminal, "s", 4);
  for (const char* name : {"r10", "r11", "r20", "r21"})
    add_node(config, DagNodeKind::kRelay, name);
  add_nodes(config, DagNodeKind::kTerminal, "d", 4);
  add_edges(config, spec,
            {{0, 4}, {1, 4}, {2, 5}, {3, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7},
             {6, 8}, {6, 9}, {7, 10}, {7, 11}});
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
  // Node ids: hosts 0..3, relays 4..8, sinks 9..12.
  add_nodes(config, DagNodeKind::kTerminal, "h", 4);
  for (const char* name : {"up0", "up1", "spine", "down0", "down1"})
    add_node(config, DagNodeKind::kRelay, name);
  add_nodes(config, DagNodeKind::kTerminal, "d", 4);
  add_edges(config, spec,
            {{0, 4}, {1, 4}, {2, 5}, {3, 5}, {4, 6}, {5, 6}, {6, 7}, {6, 8},
             {7, 9}, {7, 10}, {8, 11}, {8, 12}});
  // Cross traffic: every flow climbs to the spine and descends the other
  // side, so the two trunk hops each multiplex two flows.
  for (std::uint16_t i = 0; i < 4; ++i)
    config.flows.push_back(DagFlow{i, static_cast<std::uint16_t>(12 - i),
                                   spec.flits_per_flow, 0xF000u + i});
  return config;
}

DagConfig make_asymmetric_dag(const DagScenarioSpec& spec) {
  DagConfig config = base_scenario_config(spec);
  for (const char* name : {"a", "c"})  // ids 0, 1
    add_node(config, DagNodeKind::kTerminal, name);
  for (const char* name : {"r0", "r1", "r2"})  // ids 2..4
    add_node(config, DagNodeKind::kRelay, name);
  for (const char* name : {"b", "d"})  // ids 5, 6
    add_node(config, DagNodeKind::kTerminal, name);
  add_edges(config, spec, {{0, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 5}, {4, 6}});
  // a -> b rides four hops, c -> d three; both share the r1 -> r2 trunk.
  config.flows.push_back(DagFlow{0, 5, spec.flits_per_flow, 0xE000});
  config.flows.push_back(DagFlow{1, 6, spec.flits_per_flow, 0xE001});
  return config;
}

DagConfig make_incast_dag(const DagScenarioSpec& spec, std::size_t sources,
                          std::span<const DagFlowClass> classes) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  add_nodes(config, DagNodeKind::kTerminal, "src", sources);
  const std::uint16_t relay = add_node(config, DagNodeKind::kRelay, "relay");
  const std::uint16_t sink = add_node(config, DagNodeKind::kTerminal, "sink");
  config.max_ports = std::max(config.max_ports, sources + 1);
  add_fan_in(config, spec, 0, sources, relay);
  config.edges.push_back(scenario_edge(spec, relay, sink));
  for (std::size_t i = 0; i < sources; ++i)
    config.flows.push_back(DagFlow{static_cast<std::uint16_t>(i), sink,
                                   spec.flits_per_flow, 0x1CA0 + i});
  apply_flow_classes(config, classes);
  return config;
}

DagConfig make_hotspot_dag(const DagScenarioSpec& spec, std::size_t sources,
                           std::span<const DagFlowClass> classes) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  add_nodes(config, DagNodeKind::kTerminal, "src", sources);
  const std::uint16_t relay = add_node(config, DagNodeKind::kRelay, "relay");
  const std::uint16_t hot = add_node(config, DagNodeKind::kTerminal, "hot");
  const std::uint16_t cold = add_node(config, DagNodeKind::kTerminal, "cold");
  config.max_ports = std::max(config.max_ports, sources + 2);
  add_fan_in(config, spec, 0, sources, relay);
  add_edges(config, spec, {{relay, hot}, {relay, cold}});
  // Flows 0..sources-2 pile onto the hot sink; the last flow has the cold
  // egress hop to itself and must keep moving under the others' backlog.
  for (std::size_t i = 0; i + 1 < sources; ++i)
    config.flows.push_back(DagFlow{static_cast<std::uint16_t>(i), hot,
                                   spec.flits_per_flow, 0x407u + i});
  config.flows.push_back(DagFlow{static_cast<std::uint16_t>(sources - 1),
                                 cold, spec.flits_per_flow, 0xC07D});
  apply_flow_classes(config, classes);
  return config;
}

DagConfig make_diamond_dag(const DagScenarioSpec& spec, std::size_t sources,
                           std::size_t branches) {
  assert(sources >= 1 && branches >= 1);
  DagConfig config = base_scenario_config(spec);
  add_nodes(config, DagNodeKind::kTerminal, "src", sources);
  const std::uint16_t r0 = add_node(config, DagNodeKind::kRelay, "r0");
  add_nodes(config, DagNodeKind::kRelay, "m", branches);
  const std::uint16_t r1 = add_node(config, DagNodeKind::kRelay, "r1");
  const std::uint16_t sinks =
      add_nodes(config, DagNodeKind::kTerminal, "dst", sources);
  config.max_ports = std::max(config.max_ports, sources + branches);
  // Edge-id layout documented in the header: source uplinks first, then the
  // branch edge pairs interleaved (R0 -> M_j at sources + 2j, M_j -> R1 at
  // sources + 2j + 1), then the sink downlinks. BFS ties break on the
  // lowest edge id, so every primary path rides M_0.
  add_fan_in(config, spec, 0, sources, r0);
  for (std::size_t j = 0; j < branches; ++j) {
    const auto mid = static_cast<std::uint16_t>(r0 + 1 + j);
    add_edges(config, spec, {{r0, mid}, {mid, r1}});
  }
  for (std::size_t i = 0; i < sources; ++i) {
    const auto sink = static_cast<std::uint16_t>(sinks + i);
    config.edges.push_back(scenario_edge(spec, r1, sink));
    config.flows.push_back(DagFlow{static_cast<std::uint16_t>(i), sink,
                                   spec.flits_per_flow, 0xD1A0u + i});
  }
  return config;
}

DagConfig make_trunk_dag(const DagScenarioSpec& spec, std::size_t sources,
                         std::span<const DagFlowClass> classes) {
  assert(sources >= 2);
  DagConfig config = base_scenario_config(spec);
  add_nodes(config, DagNodeKind::kTerminal, "src", sources);
  const std::uint16_t r1 = add_node(config, DagNodeKind::kRelay, "r1");
  const std::uint16_t r2 = add_node(config, DagNodeKind::kRelay, "r2");
  const std::uint16_t sinks =
      add_nodes(config, DagNodeKind::kTerminal, "dst", sources);
  config.max_ports = std::max(config.max_ports, sources + 1);
  add_fan_in(config, spec, 0, sources, r1);
  config.edges.push_back(scenario_edge(spec, r1, r2));
  for (std::size_t i = 0; i < sources; ++i) {
    const auto sink = static_cast<std::uint16_t>(sinks + i);
    config.edges.push_back(scenario_edge(spec, r2, sink));
    config.flows.push_back(DagFlow{static_cast<std::uint16_t>(i), sink,
                                   spec.flits_per_flow, 0x7A00u + i});
  }
  apply_flow_classes(config, classes);
  return config;
}

// ---------------------------------------------------------------------------
// The legacy harnesses as DAGs
// ---------------------------------------------------------------------------

namespace {

/// The fabric-wide fields a legacy StarConfig or FabricConfig carries.
template <class Legacy>
DagConfig legacy_base_config(const Legacy& config) {
  DagConfig dag;
  dag.protocol = config.protocol;
  dag.slot = config.slot;
  dag.hub_latency = config.switch_latency;
  dag.hub_internal_error_rate = config.switch_internal_error_rate;
  dag.seed = config.seed;
  dag.horizon = config.horizon;
  return dag;
}

/// One legacy channel with its error-stream seed replayed from `seeder`.
template <class Legacy>
DagEdge legacy_edge(const Legacy& config, std::uint16_t src, std::uint16_t dst,
                    Xoshiro256& seeder) {
  DagEdge edge;
  edge.src = src;
  edge.dst = dst;
  edge.ber = config.ber;
  edge.burst_injection_rate = config.burst_injection_rate;
  edge.burst_symbols = config.burst_symbols;
  edge.latency = config.propagation_latency;
  edge.seed = seeder();
  return edge;
}

}  // namespace

DagConfig make_star_dag(const StarConfig& config) {
  DagConfig dag = legacy_base_config(config);
  const std::size_t n = config.pairs;
  // Legacy seed draw order: down switch, up switch, then per pair the four
  // channels (host uplink, device downlink, device uplink, host downlink).
  // Replaying those draws as explicit seeds keeps a clean-hub run
  // trajectory-identical to the deleted hard-coded star builder (pinned by
  // the recorded-counter equivalence tests).
  Xoshiro256 seeder(config.seed);
  const std::uint64_t hub_seed = seeder();
  (void)seeder();  // the legacy up-switch stream; the single hub has one

  add_nodes(dag, DagNodeKind::kTerminal, "host", n);
  add_nodes(dag, DagNodeKind::kTerminal, "dev", n);
  const std::uint16_t hub = static_cast<std::uint16_t>(2 * n);
  dag.nodes.push_back(DagNode{"hub", DagNodeKind::kHub, hub_seed});
  // 2N terminals + the hub: keep validation permissive for large stars.
  dag.max_ports = std::max<std::size_t>(dag.max_ports, 4 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t host = static_cast<std::uint16_t>(i);
    const std::uint16_t device = static_cast<std::uint16_t>(n + i);
    for (const auto& [src, dst] : {NodePair{host, hub}, {hub, device},
                                   {device, hub}, {hub, host}})
      dag.edges.push_back(legacy_edge(config, src, dst, seeder));
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

DagConfig make_switch_levels_dag(const FabricConfig& config) {
  DagConfig dag = legacy_base_config(config);
  // The protocol's credit window bounds both directions of the one domain.
  dag.hop_credits = config.protocol.tx_credits;

  const unsigned levels = config.switch_levels;
  const std::uint16_t host = add_node(dag, DagNodeKind::kTerminal, "host");
  const std::uint16_t device = add_node(dag, DagNodeKind::kTerminal, "device");
  // Replayed seed draws: per direction, downstream first, the L+1 channels
  // and then the L switches, so every channel error stream and every
  // switch's internal-corruption stream matches the historical harness.
  Xoshiro256 seeder(config.seed);
  auto add_direction = [&](std::uint16_t from, std::uint16_t to,
                           const char* stage_name) {
    const std::uint16_t first_hub =
        add_nodes(dag, DagNodeKind::kHub, stage_name, levels, 1);
    auto hub = [&](unsigned level) {
      return static_cast<std::uint16_t>(first_hub + level);
    };
    for (unsigned hop = 0; hop <= levels; ++hop)
      dag.edges.push_back(legacy_edge(config, hop == 0 ? from : hub(hop - 1),
                                      hop == levels ? to : hub(hop), seeder));
    for (unsigned level = 0; level < levels; ++level)
      dag.nodes[hub(level)].seed = seeder();
  };
  add_direction(host, device, "down");
  add_direction(device, host, "up");
  dag.flows.push_back(DagFlow{host, device, config.downstream_flits, 0x00D0});
  dag.flows.push_back(DagFlow{device, host, config.upstream_flits, 0x0B0B});
  return dag;
}

}  // namespace rxl::transport
