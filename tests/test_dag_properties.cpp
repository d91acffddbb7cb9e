// Property-based invariant sweeps over randomized DAG topologies, error
// mixes, and seeds: whatever the (recoverable) channels and independent
// per-hop retry domains do, an RXL flow must arrive exactly once, in order,
// uncorrupted, and fully accounted for. Every trial derives from a single
// generator seed that is printed on failure, so any counterexample replays
// with one number.
#include <gtest/gtest.h>

#include <string>

#include "rxl/common/rng.hpp"
#include "rxl/sim/trial_runner.hpp"
#include "rxl/transport/dag_fabric.hpp"

namespace rxl::transport {
namespace {

struct Universe {
  DagConfig config;
  const char* family = "";
};

Universe random_universe(std::uint64_t gen_seed) {
  Xoshiro256 rng(gen_seed);
  DagScenarioSpec spec;
  spec.protocol.protocol = Protocol::kRxl;
  spec.protocol.coalesce_factor =
      static_cast<unsigned>(4 + rng.bounded(12));
  constexpr double kBurstRates[] = {0.0, 5e-4, 1e-3, 2e-3};
  constexpr double kBitErrorRates[] = {0.0, 1e-5, 2e-5};
  spec.burst_injection_rate = kBurstRates[rng.bounded(4)];
  spec.ber = kBitErrorRates[rng.bounded(3)];
  spec.flits_per_flow = 400 + rng.bounded(500);
  spec.seed = rng();
  spec.horizon = 200'000'000;  // 200 us: generous for every family below

  Universe universe;
  switch (rng.bounded(5)) {
    case 0: {
      const std::size_t relays = 1 + rng.bounded(6);
      universe.config = make_chain_dag(spec, relays);
      universe.family = "chain";
      break;
    }
    case 1:
      universe.config = make_butterfly_dag(spec);
      universe.family = "butterfly";
      break;
    case 2:
      universe.config = make_fat_tree_dag(spec);
      universe.family = "fat-tree";
      break;
    case 3:
      universe.config = make_asymmetric_dag(spec);
      universe.family = "asymmetric";
      break;
    default: {
      // Hub chains of 1-3 transparent switches per ISN domain: either a
      // relay chain whose run of consecutive interior nodes are hubs, or
      // the paper's bidirectional switch-level trial, whose directions
      // cross separate hub stacks and pair into one domain.
      const std::size_t hubs = 1 + rng.bounded(3);
      if (rng.bounded(2) == 0) {
        const std::size_t interior = hubs + rng.bounded(3);
        DagConfig& config = universe.config = make_chain_dag(spec, interior);
        const std::size_t first = 1 + rng.bounded(interior - hubs + 1);
        for (std::size_t v = first; v < first + hubs; ++v) {
          config.nodes[v].kind = DagNodeKind::kHub;
          config.nodes[v].name = "hub";
          config.nodes[v].name += std::to_string(v);
        }
      } else {
        FabricConfig levels;
        levels.protocol = spec.protocol;
        levels.switch_levels = static_cast<unsigned>(hubs);
        levels.ber = spec.ber;
        levels.burst_injection_rate = spec.burst_injection_rate;
        levels.seed = spec.seed;
        levels.downstream_flits = spec.flits_per_flow;
        levels.upstream_flits = spec.flits_per_flow;
        levels.horizon = spec.horizon;
        universe.config = make_switch_levels_dag(levels);
      }
      universe.family = "hub-chain";
      break;
    }
  }
  // A quarter of the universes get one extra-noisy edge: localized retry
  // storms must not break the end-to-end invariants either.
  if (rng.bounded(4) == 0) {
    const std::size_t edge = rng.bounded(universe.config.edges.size());
    universe.config.edges[edge].burst_injection_rate = 5e-3;
  }
  return universe;
}

/// Everything the main thread needs to assert (and to name the culprit).
struct TrialOutcome {
  std::uint64_t gen_seed = 0;
  const char* family = "";
  std::uint64_t budget_total = 0;  ///< sum of flow budgets
  std::uint64_t offered = 0;
  std::uint64_t in_order = 0;
  std::uint64_t order_failures = 0;
  std::uint64_t late = 0;
  std::uint64_t missing = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t misrouted = 0;
  std::uint64_t no_route_drops = 0;
  std::uint64_t hop_retransmissions = 0;
  bool partition_ok = true;  ///< delivered == in_order+skips+late+dups per flow
};

TrialOutcome run_property_trial(std::uint64_t gen_seed) {
  const Universe universe = random_universe(gen_seed);
  const DagReport report = run_dag_fabric(universe.config);
  TrialOutcome outcome;
  outcome.gen_seed = gen_seed;
  outcome.family = universe.family;
  for (const DagFlow& flow : universe.config.flows)
    outcome.budget_total += flow.flits;
  outcome.offered = report.total_offered();
  outcome.in_order = report.total_in_order();
  outcome.order_failures = report.total_order_failures();
  outcome.missing = report.total_missing();
  outcome.corruptions = report.total_data_corruptions();
  outcome.misrouted = report.misrouted;
  outcome.no_route_drops = report.total_relay_no_route_drops();
  outcome.hop_retransmissions = report.total_hop_retransmissions();
  for (const DagFlowReport& flow : report.flows) {
    const auto& board = flow.scoreboard;
    outcome.late += board.late_deliveries;
    if (board.delivered != board.in_order + board.order_violations +
                               board.late_deliveries + board.duplicates +
                               board.untracked ||
        board.untracked != 0)
      outcome.partition_ok = false;
  }
  return outcome;
}

void assert_rxl_invariants(const TrialOutcome& outcome) {
  SCOPED_TRACE(std::string("replay with generator seed ") +
               std::to_string(outcome.gen_seed) + " (family " +
               outcome.family + ")");
  // Exactly-once, in-order delivery per flow: the full budget arrives as a
  // clean prefix stream and nothing else.
  EXPECT_EQ(outcome.offered, outcome.budget_total);
  EXPECT_EQ(outcome.in_order, outcome.budget_total);
  EXPECT_EQ(outcome.order_failures, 0u);
  EXPECT_EQ(outcome.late, 0u);
  // Payload hashes match at every sink.
  EXPECT_EQ(outcome.corruptions, 0u);
  // Conservation: injected = delivered + dropped-and-reported. Under RXL
  // nothing may be dropped-and-reported, and every delivery is classified
  // into exactly one scoreboard bucket.
  EXPECT_EQ(outcome.missing, 0u);
  EXPECT_TRUE(outcome.partition_ok);
  // Routing is airtight: no flit surfaced at a wrong terminal or fell off
  // a relay's flow table.
  EXPECT_EQ(outcome.misrouted, 0u);
  EXPECT_EQ(outcome.no_route_drops, 0u);
}

/// 4 batches x 16 generator seeds = 64 randomized topology/error/seed
/// universes, sharded across workers by the TrialRunner.
class DagProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DagProperties, RxlExactlyOnceInOrderEverywhere) {
  const std::uint64_t base = GetParam();
  const auto outcomes = sim::run_trials(16, [base](std::size_t trial) {
    return run_property_trial(base + 0x1000 * trial);
  });
  std::uint64_t noisy_universes = 0;
  std::uint64_t hub_chain_universes = 0;
  for (const TrialOutcome& outcome : outcomes) {
    assert_rxl_invariants(outcome);
    if (outcome.hop_retransmissions > 0) noisy_universes += 1;
    if (std::string(outcome.family) == "hub-chain") hub_chain_universes += 1;
  }
  // Every batch covers transparent hub chains too.
  EXPECT_GT(hub_chain_universes, 0u);
  // The sweep must not silently degenerate to clean channels: most batches
  // draw error mixes that force real per-hop retries.
  EXPECT_GT(noisy_universes, 4u);
}

INSTANTIATE_TEST_SUITE_P(Batches, DagProperties,
                         ::testing::Values(0x0DA6'0001ull, 0x0DA6'0002ull,
                                           0x0DA6'0003ull, 0x0DA6'0004ull));

/// The sweeps themselves are sharded Monte Carlo runs; pin the PR 3 merge
/// determinism contract on the new trial family (1 worker vs 4 workers,
/// field-identical outcomes in trial order).
TEST(DagProperties, TrialRunnerShardingIsDeterministic) {
  auto trial = [](std::size_t i) {
    return run_property_trial(0x0DA6'0001ull + 0x1000 * i);
  };
  const auto serial = sim::run_trials(8, trial, /*workers=*/1);
  const auto sharded = sim::run_trials(8, trial, /*workers=*/4);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].offered, sharded[i].offered);
    EXPECT_EQ(serial[i].in_order, sharded[i].in_order);
    EXPECT_EQ(serial[i].hop_retransmissions, sharded[i].hop_retransmissions);
    EXPECT_EQ(serial[i].missing, sharded[i].missing);
  }
}

}  // namespace
}  // namespace rxl::transport
