#include "rxl/transport/fabric.hpp"

#include "rxl/transport/dag_fabric.hpp"

namespace rxl::transport {
namespace {

/// One direction's counters, read off make_switch_levels_dag's layout: one
/// bidirectional domain (side a the host, side b the device), flow 0
/// downstream and flow 1 upstream, each direction's L hubs and L+1 edges
/// numbered consecutively, downstream first.
DirectionReport report_direction(const DagReport& dag, unsigned levels,
                                 bool downstream) {
  const DagLinkStats& hop = dag.hops.front();
  const std::size_t first_hub = downstream ? 2 : 2 + levels;
  const std::size_t first_edge = downstream ? 0 : levels + 1;
  DirectionReport report;
  report.tx = downstream ? hop.a : hop.b;
  report.rx = downstream ? hop.b : hop.a;
  report.tx_extra = downstream ? hop.a_extra : hop.b_extra;
  report.rx_extra = downstream ? hop.b_extra : hop.a_extra;
  report.scoreboard = dag.flows[downstream ? 0 : 1].scoreboard;
  for (const DagHubReport& hub : dag.hubs) {
    if (hub.node < first_hub || hub.node >= first_hub + levels) continue;
    report.switch_dropped_fec += hub.stats.dropped_fec;
    report.switch_dropped_crc += hub.stats.dropped_crc;
    report.switch_fec_corrected += hub.stats.fec_corrected;
    report.switch_internal_corruptions += hub.stats.internal_corruptions;
  }
  for (std::size_t e = first_edge; e <= first_edge + levels; ++e)
    report.channel_flits_corrupted += dag.edges[e].flits_corrupted;
  if (dag.slots > 0) {
    report.goodput = static_cast<double>(report.scoreboard.in_order) /
                     static_cast<double>(dag.slots);
    report.bandwidth_loss = 1.0 - report.goodput;
  }
  return report;
}

}  // namespace

FabricReport run_fabric(const FabricConfig& config) {
  const DagReport dag = run_dag_fabric(make_switch_levels_dag(config));
  FabricReport report;
  report.horizon = config.horizon;
  report.slots = dag.slots;
  report.downstream = report_direction(dag, config.switch_levels, true);
  report.upstream = report_direction(dag, config.switch_levels, false);
  return report;
}

}  // namespace rxl::transport
