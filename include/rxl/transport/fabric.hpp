// End-to-end fabric trial: host <-> (N switch levels) <-> device.
//
// The paper's evaluation configurations — direct connection (0 levels) up
// to multi-level switching — with bidirectional traffic for a fixed
// horizon, reporting the per-direction protocol statistics plus the
// application-level failure scoreboards (Fail_order / Fail_data).
//
// The topology is one canned DagFabric (make_switch_levels_dag in
// dag_fabric.hpp): per direction a chain of one-port transparent hubs,
// pinned to the counters of the retired hand-wired harness by the
// recorded-counter tests in test_fabric.cpp. Only the configuration and
// report types and the run_fabric() entry point live here.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rxl/link/link_layer.hpp"
#include "rxl/transport/config.hpp"
#include "rxl/transport/endpoint.hpp"
#include "rxl/txn/scoreboard.hpp"

namespace rxl::transport {

struct FabricConfig {
  ProtocolConfig protocol;
  /// Number of switching levels between host and device (0 = direct link).
  unsigned switch_levels = 1;
  /// Independent-bit-error rate per link.
  double ber = 0.0;
  /// Per-link, per-flit probability of a 4-symbol burst (FEC-uncorrectable
  /// with probability 2/3 at a switch). Used to pin the operating point to
  /// the paper's FER_UC regardless of the BER-to-burst conversion.
  double burst_injection_rate = 0.0;
  std::size_t burst_symbols = 4;
  /// Probability of internal corruption per flit transiting each switch.
  double switch_internal_error_rate = 0.0;
  TimePs slot = kFlitSlotPs;                 ///< serialisation per flit
  TimePs propagation_latency = 8'000;        ///< per link, ps
  TimePs switch_latency = 10'000;            ///< per switch, ps
  std::uint64_t seed = 1;
  /// Application flits to offer in each direction (saturating until
  /// exhausted). 0 disables that direction.
  std::uint64_t downstream_flits = 0;
  std::uint64_t upstream_flits = 0;
  /// Simulated duration.
  TimePs horizon = 0;
};

struct DirectionReport {
  link::EndpointStats tx;              ///< sender-side counters
  link::EndpointStats rx;              ///< receiver-side counters
  EndpointExtraStats tx_extra;
  EndpointExtraStats rx_extra;
  txn::StreamScoreboard::Stats scoreboard;
  std::uint64_t switch_dropped_fec = 0;
  std::uint64_t switch_dropped_crc = 0;
  std::uint64_t switch_fec_corrected = 0;
  std::uint64_t switch_internal_corruptions = 0;
  std::uint64_t channel_flits_corrupted = 0;
  /// Fraction of link capacity delivering unique in-order flits.
  double goodput = 0.0;
  /// 1 - goodput/offered: the paper's BW_loss when the source saturates.
  double bandwidth_loss = 0.0;
};

struct FabricReport {
  DirectionReport downstream;  ///< host -> device
  DirectionReport upstream;    ///< device -> host
  TimePs horizon = 0;
  std::uint64_t slots = 0;  ///< link slot capacity over the horizon
};

/// Runs make_switch_levels_dag(config) and repackages the DagReport per
/// direction. Throws std::invalid_argument on a malformed config (see
/// plan_dag).
[[nodiscard]] FabricReport run_fabric(const FabricConfig& config);

}  // namespace rxl::transport
