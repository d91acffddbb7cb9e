// Full-fabric integration: statistical validation of the paper's claims at
// inflated error rates (the benches sweep these; tests pin the qualitative
// results).
#include "rxl/transport/fabric.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>

#include "rxl/sim/trial_runner.hpp"

namespace rxl::transport {
namespace {

constexpr Protocol kProtocols[] = {Protocol::kCxl, Protocol::kRxl};

FabricConfig base_config(Protocol protocol) {
  FabricConfig config;
  config.protocol.protocol = protocol;
  config.protocol.coalesce_factor = 10;  // p_coalescing = 0.1
  config.switch_levels = 1;
  config.seed = 2024;
  config.downstream_flits = 30'000;
  config.upstream_flits = 30'000;
  config.horizon = 200'000'000;  // 200 us: 100k slots
  return config;
}

TEST(Fabric, CleanFabricDeliversEverything) {
  const auto reports = sim::run_trials(2, [](std::size_t trial) {
    FabricConfig config = base_config(kProtocols[trial]);
    config.downstream_flits = 5'000;
    config.upstream_flits = 5'000;
    return run_fabric(config);
  });
  for (const FabricReport& report : reports) {
    EXPECT_EQ(report.downstream.scoreboard.in_order, 5'000u);
    EXPECT_EQ(report.downstream.scoreboard.order_violations, 0u);
    EXPECT_EQ(report.upstream.scoreboard.in_order, 5'000u);
    EXPECT_EQ(report.downstream.scoreboard.data_corruptions, 0u);
  }
}

TEST(Fabric, SwitchedCxlSuffersOrderingFailuresUnderDrops) {
  // Paper §7.1.2: drops + ACK piggybacking => undetected ordering
  // violations. Inflated burst rate makes them frequent enough to count.
  FabricConfig config = base_config(Protocol::kCxl);
  config.burst_injection_rate = 1e-2;  // ~6.7e-3 drops/flit after FEC
  const FabricReport report = run_fabric(config);
  EXPECT_GT(report.downstream.switch_dropped_fec, 50u);
  EXPECT_GT(report.downstream.scoreboard.order_violations +
                report.downstream.scoreboard.duplicates,
            0u);
}

TEST(Fabric, SwitchedRxlHasZeroOrderingFailuresUnderSameDrops) {
  FabricConfig config = base_config(Protocol::kRxl);
  config.burst_injection_rate = 5e-3;
  const FabricReport report = run_fabric(config);
  EXPECT_GT(report.downstream.switch_dropped_fec, 50u);  // same physics
  EXPECT_EQ(report.downstream.scoreboard.order_violations, 0u);
  EXPECT_EQ(report.downstream.scoreboard.duplicates, 0u);
  EXPECT_EQ(report.downstream.scoreboard.data_corruptions, 0u);
  // And nothing is lost: drops are retried to completion.
  EXPECT_EQ(report.downstream.scoreboard.missing, 0u);
}

TEST(Fabric, SwitchInternalCorruptionEscapesCxlButNotRxl) {
  // §6.3: CXL switches regenerate the link CRC over internally corrupted
  // data; RXL's end-to-end ECRC catches it.
  const auto reports = sim::run_trials(2, [](std::size_t trial) {
    FabricConfig config = base_config(kProtocols[trial]);
    config.switch_internal_error_rate = 1e-3;
    config.downstream_flits = 20'000;
    config.upstream_flits = 20'000;
    return run_fabric(config);
  });
  const FabricReport& cxl_report = reports[0];
  EXPECT_GT(cxl_report.downstream.switch_internal_corruptions, 0u);
  EXPECT_GT(cxl_report.downstream.scoreboard.data_corruptions, 0u);

  const FabricReport& rxl_report = reports[1];
  EXPECT_GT(rxl_report.downstream.switch_internal_corruptions, 0u);
  EXPECT_EQ(rxl_report.downstream.scoreboard.data_corruptions, 0u);
  EXPECT_EQ(rxl_report.downstream.scoreboard.missing, 0u);
}

TEST(Fabric, MoreSwitchLevelsMeanMoreCxlFailures) {
  // The Fig. 8 shape: CXL ordering failures grow with switching depth.
  // The drop rate must stay low enough that the receiver is rarely in a
  // (self-aware) resync episode — the silent-drop hole only opens in the
  // clean state — so use a modest rate over a long run.
  const auto failures = sim::run_trials(2, [](std::size_t trial) {
    FabricConfig config = base_config(Protocol::kCxl);
    config.switch_levels = trial == 0 ? 1u : 4u;
    config.burst_injection_rate = 1e-3;
    config.downstream_flits = 150'000;
    config.upstream_flits = 150'000;
    config.horizon = 700'000'000;  // 700 us = 350k slots
    const FabricReport report = run_fabric(config);
    return report.downstream.scoreboard.order_violations +
           report.downstream.scoreboard.duplicates +
           report.upstream.scoreboard.order_violations +
           report.upstream.scoreboard.duplicates;
  });
  const std::uint64_t shallow = failures[0];
  const std::uint64_t deep = failures[1];
  EXPECT_GT(shallow, 0u);
  EXPECT_GT(deep, shallow);
}

TEST(Fabric, BerDrivenErrorsAreMostlyCorrected) {
  // At BER 1e-5, nearly every corrupted flit carries a single-bit error the
  // FEC fixes; goodput should stay near 1 with zero failures.
  FabricConfig config = base_config(Protocol::kRxl);
  config.ber = 1e-5;
  config.downstream_flits = 20'000;
  config.upstream_flits = 20'000;
  const FabricReport report = run_fabric(config);
  EXPECT_GT(report.downstream.channel_flits_corrupted, 100u);
  EXPECT_EQ(report.downstream.scoreboard.missing, 0u);
  const double corrected_share =
      static_cast<double>(report.downstream.switch_fec_corrected +
                          report.downstream.rx.fec_corrected_flits) /
      static_cast<double>(report.downstream.channel_flits_corrupted);
  EXPECT_GT(corrected_share, 0.95);
}

TEST(Fabric, ReportsChannelCapacity) {
  FabricConfig config = base_config(Protocol::kRxl);
  const FabricReport report = run_fabric(config);
  EXPECT_EQ(report.slots, config.horizon / config.slot);
  EXPECT_GT(report.downstream.goodput, 0.0);
  EXPECT_LE(report.downstream.goodput, 1.0);
}

TEST(Fabric, MalformedConfigFailsLoudly) {
  // plan_dag rejects what would divide by zero (slot), simulate nothing
  // (horizon) or is no probability (error rates outside [0, 1]).
  FabricConfig config = base_config(Protocol::kRxl);
  config.slot = 0;
  EXPECT_THROW((void)run_fabric(config), std::invalid_argument);
  config = base_config(Protocol::kRxl);
  config.horizon = 0;
  EXPECT_THROW((void)run_fabric(config), std::invalid_argument);
  config = base_config(Protocol::kRxl);
  config.burst_injection_rate = 2.0;
  EXPECT_THROW((void)run_fabric(config), std::invalid_argument);
  config = base_config(Protocol::kRxl);
  config.switch_internal_error_rate = -1.0;
  EXPECT_THROW((void)run_fabric(config), std::invalid_argument);
}

TEST(Fabric, DeterministicAcrossRunsAndWorkerCounts) {
  // The same config must reproduce exactly, whether the two trials run
  // serially or sharded across TrialRunner workers.
  // Half the old single-comparison traffic per trial: four sims run here
  // (serial pair + sharded pair), so this keeps the suite's wall-time flat
  // while still exercising thousands of flits per universe.
  auto trial = [](std::size_t) {
    FabricConfig config = base_config(Protocol::kCxl);
    config.burst_injection_rate = 2e-3;
    config.downstream_flits = 5'000;
    config.upstream_flits = 5'000;
    return run_fabric(config);
  };
  const auto serial = sim::run_trials(2, trial, /*workers=*/1);
  const auto sharded = sim::run_trials(2, trial, /*workers=*/2);
  for (const auto* reports : {&serial, &sharded}) {
    const FabricReport& first = (*reports)[0];
    const FabricReport& second = (*reports)[1];
    EXPECT_EQ(first.downstream.scoreboard.in_order,
              second.downstream.scoreboard.in_order);
    EXPECT_EQ(first.downstream.scoreboard.order_violations,
              second.downstream.scoreboard.order_violations);
    EXPECT_EQ(first.downstream.switch_dropped_fec,
              second.downstream.switch_dropped_fec);
  }
  EXPECT_EQ(serial[0].downstream.scoreboard.in_order,
            sharded[0].downstream.scoreboard.in_order);
  EXPECT_EQ(serial[0].downstream.switch_dropped_fec,
            sharded[0].downstream.switch_dropped_fec);
}

// --------------------------------------------------------------------------
// Recorded-counter equivalence: these constants were recorded from the last
// build whose run_fabric wired its switch chains by hand. Every case runs
// stochastic drops, so a match is a draw-for-draw reproduction of the
// legacy trajectory: any drift in the replayed seed order, the switch
// model, the endpoint protocol, or the channel error streams lands here.
// --------------------------------------------------------------------------

/// One direction's pinned counters, space-separated: the scoreboard's
/// delivered, in_order, order_violations, duplicates, late_deliveries,
/// data_corruptions and missing; the sender's retransmitted flits and retry
/// rounds; the switch drops (FEC, CRC), FEC corrections and internal
/// corruptions; and the channel corruptions.
std::string counters_of(const DirectionReport& d) {
  std::string row;
  auto put = [&row](std::uint64_t value) {
    if (!row.empty()) row += ' ';
    row += std::to_string(value);
  };
  put(d.scoreboard.delivered);
  put(d.scoreboard.in_order);
  put(d.scoreboard.order_violations);
  put(d.scoreboard.duplicates);
  put(d.scoreboard.late_deliveries);
  put(d.scoreboard.data_corruptions);
  put(d.scoreboard.missing);
  put(d.tx.data_flits_retransmitted);
  put(d.tx.retry_rounds);
  put(d.switch_dropped_fec);
  put(d.switch_dropped_crc);
  put(d.switch_fec_corrected);
  put(d.switch_internal_corruptions);
  put(d.channel_flits_corrupted);
  return row;
}

struct RecordedCase {
  const char* name;
  Protocol protocol;
  unsigned levels;
  double ber;
  double burst_rate;
  double internal_rate;
  RetryMode retry_mode;
  std::uint64_t upstream_flits;
  const char* downstream;
  const char* upstream;
};

FabricConfig recorded_config(const RecordedCase& c) {
  FabricConfig config;
  config.protocol.protocol = c.protocol;
  config.protocol.retry_mode = c.retry_mode;
  config.protocol.coalesce_factor = 10;
  config.switch_levels = c.levels;
  config.ber = c.ber;
  config.burst_injection_rate = c.burst_rate;
  config.switch_internal_error_rate = c.internal_rate;
  config.seed = 4242;
  config.downstream_flits = 3'000;
  config.upstream_flits = c.upstream_flits;
  config.horizon = 40'000'000;  // 40 us = 20k slots
  return config;
}

constexpr Protocol kC = Protocol::kCxl;
constexpr Protocol kR = Protocol::kRxl;
constexpr RetryMode kGbn = RetryMode::kGoBackN;
constexpr RetryMode kSr = RetryMode::kSelectiveRepeat;

const RecordedCase kRecordedCases[] = {
    {"cxl-L0", kC, 0, 0.0, 4e-3, 0.0, kGbn, 3'000,
     "3002 3000 0 2 0 0 0 112 11 0 0 0 0 11",
     "3002 3000 0 2 0 0 0 115 15 0 0 0 0 7"},
    {"cxl-L1", kC, 1, 0.0, 4e-3, 0.0, kGbn, 3'000,
     "3003 3000 0 3 0 0 0 556 26 8 5 5 0 22",
     "3000 3000 0 0 0 0 0 689 23 14 2 2 0 29"},
    {"cxl-L2", kC, 2, 0.0, 4e-3, 0.0, kGbn, 3'000,
     "3002 2998 1 2 1 0 0 1712 34 20 12 12 0 49",
     "3003 2996 2 3 2 0 0 1514 26 15 9 9 0 40"},
    {"cxl-L4", kC, 4, 0.0, 4e-3, 0.0, kGbn, 3'000,
     "3002 2996 2 2 2 0 0 5835 65 92 47 47 0 180",
     "2790 2789 1 0 0 0 210 6359 67 119 54 54 0 207"},
    {"rxl-L0", kR, 0, 0.0, 4e-3, 0.0, kGbn, 3'000,
     "3000 3000 0 0 0 0 0 110 11 0 0 0 0 11",
     "3000 3000 0 0 0 0 0 74 36 0 0 0 0 7"},
    {"rxl-L1", kR, 1, 0.0, 4e-3, 0.0, kGbn, 3'000,
     "3000 3000 0 0 0 0 0 575 20 8 0 5 0 22",
     "3000 3000 0 0 0 0 0 985 25 16 0 2 0 33"},
    {"rxl-L2", kR, 2, 0.0, 4e-3, 0.0, kGbn, 3'000,
     "3000 3000 0 0 0 0 0 1921 71 20 0 14 0 52",
     "3000 3000 0 0 0 0 0 1420 26 15 0 9 0 40"},
    {"rxl-L4", kR, 4, 0.0, 4e-3, 0.0, kGbn, 3'000,
     "3000 3000 0 0 0 0 0 6108 66 95 0 47 0 184",
     "3000 3000 0 0 0 0 0 6257 88 118 0 54 0 205"},
    {"cxl-L2-internal", kC, 2, 1e-5, 1e-3, 2e-3, kGbn, 3'000,
     "3001 3000 0 1 0 5 0 401 8 6 2 141 6 219",
     "3001 3000 0 1 0 14 0 318 13 2 2 139 16 214"},
    {"rxl-L2-internal", kR, 2, 1e-5, 1e-3, 2e-3, kGbn, 3'000,
     "3000 3000 0 0 0 0 0 703 15 6 0 155 6 244",
     "3000 3000 0 0 0 0 0 1421 51 2 0 197 24 298"},
    {"cxl-L1-selective", kC, 1, 0.0, 4e-3, 0.0, kSr, 3'000,
     "3001 3000 0 1 0 0 0 370 116 8 5 5 0 21",
     "3000 3000 0 0 0 0 0 86 86 11 2 2 0 25"},
    {"rxl-L2-asymmetric", kR, 2, 2e-5, 4e-3, 0.0, kGbn, 0,
     "3000 3000 0 0 0 0 0 2571 39 34 0 450 0 719",
     "0 0 0 0 0 0 0 0 0 1 0 6 0 8"},
};

TEST(Fabric, SwitchLevelsMatchRecordedLegacyCounters) {
  const auto reports =
      sim::run_trials(std::size(kRecordedCases), [](std::size_t trial) {
        return run_fabric(recorded_config(kRecordedCases[trial]));
      });
  for (std::size_t i = 0; i < std::size(kRecordedCases); ++i) {
    const RecordedCase& c = kRecordedCases[i];
    EXPECT_EQ(counters_of(reports[i].downstream), c.downstream) << c.name;
    EXPECT_EQ(counters_of(reports[i].upstream), c.upstream) << c.name;
  }
}

}  // namespace
}  // namespace rxl::transport
