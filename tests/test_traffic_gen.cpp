// Traffic generators and the latency-histogram stats layer: arrival-process
// shape and determinism, nearest-rank percentile helpers, fixed-footprint
// histogram semantics, and plan_dag's arrival validation. The randomized
// arrival x scenario sweeps live in test_traffic_properties.cpp under the
// slow label.
#include "rxl/transport/traffic_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "rxl/common/rng.hpp"
#include "rxl/stats/latency_histogram.hpp"
#include "rxl/transport/dag_fabric.hpp"

namespace rxl {
namespace {

using stats::LatencyHistogram;
using transport::ArrivalKind;
using transport::ArrivalProcess;
using transport::ArrivalSpec;
using transport::ClosedLoopWindow;

// --------------------------------------------------------------------------
// Nearest-rank percentile helpers
// --------------------------------------------------------------------------

TEST(NearestRank, CeilingRuleReadsTheTrueTail) {
  // The motivating bug: p99 of 50 samples must read the maximum (index 49);
  // the old floor((q * (n - 1)) / 100) read index 48.
  EXPECT_EQ(stats::nearest_rank_index(50, 99), 49u);
  EXPECT_EQ(stats::nearest_rank_index(100, 99), 98u);
  EXPECT_EQ(stats::nearest_rank_index(200, 99), 197u);
  EXPECT_EQ(stats::nearest_rank_index(1, 99), 0u);
  EXPECT_EQ(stats::nearest_rank_index(1, 50), 0u);
  EXPECT_EQ(stats::nearest_rank_index(4, 50), 1u);    // rank ceil(2) = 2
  EXPECT_EQ(stats::nearest_rank_index(5, 50), 2u);    // rank ceil(2.5) = 3
  EXPECT_EQ(stats::nearest_rank_index(10, 100), 9u);  // p100 = max
  EXPECT_EQ(stats::nearest_rank_index(1000, 999, 1000), 998u);
  EXPECT_EQ(stats::nearest_rank_index(10, 999, 1000), 9u);
}

TEST(NearestRank, PercentileSortedIndexesBySameRule) {
  std::vector<std::uint64_t> sorted(50);
  for (std::size_t i = 0; i < sorted.size(); ++i)
    sorted[i] = 100 * (i + 1);  // 100, 200, ..., 5000
  const std::span<const std::uint64_t> view(sorted);
  EXPECT_EQ(stats::percentile_sorted(view, 50), 2500u);
  EXPECT_EQ(stats::percentile_sorted(view, 99), 5000u);
  EXPECT_EQ(stats::percentile_sorted(view, 100), 5000u);
  EXPECT_EQ(stats::percentile_sorted(view, 1), 100u);
}

// --------------------------------------------------------------------------
// LatencyHistogram
// --------------------------------------------------------------------------

TEST(LatencyHistogram, FootprintIsFixedAndSmall) {
  // The whole point: recording cost is independent of sample count. The
  // bucket array plus exact count/min/max must stay under 8 KiB.
  static_assert(sizeof(LatencyHistogram) <=
                LatencyHistogram::kBuckets * sizeof(std::uint64_t) + 64);
  static_assert(sizeof(LatencyHistogram) <= 8192);
  static_assert(LatencyHistogram::kBuckets == 976);
  // The dag-fabric inject ring is likewise a fixed compile-time footprint.
  static_assert(transport::kLatencyRingSlots == 4096);
}

TEST(LatencyHistogram, BucketIndexIsMonotoneAndBoundsAreConsistent) {
  // Exhaustive over the first few octaves plus spot checks above: index
  // never decreases as the value grows, and every value lands inside
  // [lower, upper] of its own bucket.
  std::size_t previous = 0;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    EXPECT_GE(index, previous);
    EXPECT_LE(LatencyHistogram::bucket_lower(index), v);
    EXPECT_GE(LatencyHistogram::bucket_upper(index), v);
    previous = index;
  }
  for (const std::uint64_t v :
       {std::uint64_t{1} << 32, (std::uint64_t{1} << 40) + 12345,
        ~std::uint64_t{0}}) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    EXPECT_LT(index, LatencyHistogram::kBuckets);
    EXPECT_LE(LatencyHistogram::bucket_lower(index), v);
    EXPECT_GE(LatencyHistogram::bucket_upper(index), v);
  }
  // Values below kSubBuckets are exact (width-1 buckets), and the first
  // full octave is exact too (shift 0).
  for (std::uint64_t v = 0; v < 32; ++v) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    EXPECT_EQ(LatencyHistogram::bucket_lower(index), v);
    EXPECT_EQ(LatencyHistogram::bucket_upper(index), v);
  }
}

TEST(LatencyHistogram, TracksExactCountMinMax) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.min(), 0u);
  EXPECT_EQ(histogram.max(), 0u);
  EXPECT_EQ(histogram.percentile(99), 0u);
  histogram.add(1'000);
  histogram.add(17);
  histogram.add(123'456'789);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.min(), 17u);
  EXPECT_EQ(histogram.max(), 123'456'789u);
  // p100 is clamped to the exact max, not the bucket upper bound.
  EXPECT_EQ(histogram.percentile(100), 123'456'789u);
}

TEST(LatencyHistogram, PercentilesMatchExactSortedWithinOneBucketWidth) {
  // The acceptance criterion: for every quantile, the histogram answer is
  // >= the exact sorted-sample nearest-rank answer and within that
  // sample's bucket width of it (the two use the same rank rule, so the
  // rank-th sample's own bucket is the one reported).
  Xoshiro256 rng(2025);
  LatencyHistogram histogram;
  std::vector<std::uint64_t> samples;
  samples.reserve(10'000);
  for (int i = 0; i < 10'000; ++i) {
    // Mixed-scale values: uniform small, geometric-ish medium, rare huge.
    std::uint64_t value = rng.bounded(500);
    if (i % 3 == 0) value = 20'000 + rng.bounded(1'000'000);
    if (i % 97 == 0) value = rng.bounded(std::uint64_t{1} << 40);
    samples.push_back(value);
    histogram.add(value);
  }
  std::sort(samples.begin(), samples.end());
  const std::span<const std::uint64_t> sorted(samples);
  const std::pair<std::uint64_t, std::uint64_t> quantiles[] = {
      {1, 100},  {25, 100}, {50, 100},  {90, 100},
      {99, 100}, {999, 1000}, {100, 100}};
  for (const auto& [num, den] : quantiles) {
    const std::uint64_t exact = stats::percentile_sorted(sorted, num, den);
    const std::uint64_t approx = histogram.percentile(num, den);
    const std::size_t bucket = LatencyHistogram::bucket_index(exact);
    const std::uint64_t width = LatencyHistogram::bucket_upper(bucket) -
                                LatencyHistogram::bucket_lower(bucket) + 1;
    EXPECT_GE(approx, exact) << num << "/" << den;
    EXPECT_LT(approx - exact, width) << num << "/" << den;
  }
}

TEST(LatencyHistogram, MergeIsExactAndOrderIndependent) {
  // Sharded accumulation must be bit-identical to sequential accumulation
  // (operator== compares every bucket + count + min + max), and merge
  // order must not matter — that is what makes 1-vs-N-worker run_trials
  // reductions reproducible.
  Xoshiro256 rng(7);
  LatencyHistogram whole;
  LatencyHistogram shards[4];
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 5'000; ++i)
    values.push_back(rng.bounded(std::uint64_t{1} << 36));
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.add(values[i]);
    shards[i % 4].add(values[i]);
  }
  LatencyHistogram forward;
  for (int s = 0; s < 4; ++s) forward.merge(shards[s]);
  LatencyHistogram backward;
  for (int s = 3; s >= 0; --s) backward.merge(shards[s]);
  EXPECT_TRUE(forward == whole);
  EXPECT_TRUE(backward == whole);
  EXPECT_EQ(forward.p999(), whole.p999());
}

// --------------------------------------------------------------------------
// ArrivalProcess
// --------------------------------------------------------------------------

TEST(ArrivalProcess, PacedReproducesLegacyPaceArithmeticExactly) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPaced;
  spec.interval = 12'345;
  ArrivalProcess process(spec);
  for (std::uint64_t i = 0; i < 1'000; ++i)
    ASSERT_EQ(process.due(i), i * spec.interval);
  // No drift at large indices either (pure multiplication, no state).
  EXPECT_EQ(process.due(1'000'000), 1'000'000u * spec.interval);
}

TEST(ArrivalProcess, DuesAreDeterministicIdempotentAndMonotone) {
  for (const ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kOnOff}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.interval = 4'000;
    spec.off_mean = 200'000;
    spec.on_mean_flits = 8.0;
    spec.seed = 99;
    ArrivalProcess a(spec);
    ArrivalProcess b(spec);
    TimePs previous = 0;
    for (std::uint64_t i = 0; i < 5'000; ++i) {
      const TimePs due = a.due(i);
      // Same spec -> same sequence; re-querying the current index draws
      // nothing and returns the same instant (a blocked arrival's due time
      // must never drift while the endpoint polls).
      ASSERT_EQ(b.due(i), due);
      ASSERT_EQ(a.due(i), due);
      ASSERT_GE(due, previous);
      previous = due;
    }
    ArrivalSpec reseeded = spec;
    reseeded.seed = 100;
    ArrivalProcess c(reseeded);
    bool any_difference = false;
    ArrivalProcess d(spec);
    for (std::uint64_t i = 0; i < 100 && !any_difference; ++i)
      any_difference = c.due(i) != d.due(i);
    EXPECT_TRUE(any_difference) << arrival_kind_name(kind);
  }
}

TEST(ArrivalProcess, PoissonEmpiricalRateMatchesInterval) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.interval = 10'000;
  spec.seed = 31;
  ArrivalProcess process(spec);
  const std::uint64_t n = 50'000;
  const TimePs last = process.due(n);
  // Mean inter-arrival within 2% of the configured interval at this fixed
  // seed (law of large numbers, deterministic given the seed).
  const double mean = static_cast<double>(last) / static_cast<double>(n);
  EXPECT_NEAR(mean, 10'000.0, 200.0);
  // And genuinely stochastic: consecutive gaps are not all equal. Queries
  // are sequenced in index order (due() walks a cumulative sum forward).
  ArrivalProcess fresh(spec);
  const TimePs d0 = fresh.due(0);
  const TimePs d1 = fresh.due(1);
  const TimePs d2 = fresh.due(2);
  const TimePs d3 = fresh.due(3);
  const TimePs g1 = d1 - d0;
  const TimePs g2 = d2 - d1;
  const TimePs g3 = d3 - d2;
  EXPECT_TRUE(g1 != g2 || g2 != g3);
}

TEST(ArrivalProcess, OnOffAlternatesBurstsAndHeavyIdleGaps) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kOnOff;
  spec.interval = 2'000;
  spec.on_mean_flits = 16.0;
  spec.off_mean = 400'000;
  spec.seed = 5;
  ArrivalProcess process(spec);
  const std::uint64_t n = 20'000;
  std::uint64_t intra_burst = 0, idle = 0;
  TimePs previous = process.due(0);
  TimePs longest_idle = 0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    const TimePs due = process.due(i);
    const TimePs gap = due - previous;
    previous = due;
    if (gap == spec.interval) {
      intra_burst += 1;
    } else {
      idle += 1;
      longest_idle = std::max(longest_idle, gap);
    }
  }
  // Burstiness shape: most gaps are the intra-burst spacing (mean burst 16
  // -> ~15/16 of gaps), idle gaps are rare but HEAVY — the Pareto tail
  // must produce at least one idle far beyond its mean.
  EXPECT_GT(intra_burst, n * 8 / 10);
  EXPECT_GT(idle, n / 100);
  EXPECT_GT(longest_idle, 4 * spec.off_mean);
  // Empirical burst length near the configured mean (within 2x bands: the
  // capped Pareto skews the realized mean; the point is order-of-magnitude
  // fidelity, pinned exactly by the fixed seed).
  const double mean_burst =
      static_cast<double>(intra_burst + idle) / static_cast<double>(idle);
  EXPECT_GT(mean_burst, spec.on_mean_flits / 2.0);
  EXPECT_LT(mean_burst, spec.on_mean_flits * 2.0);
}

TEST(ClosedLoopWindowUnit, GatesOffersUntilCompletionsReady) {
  ClosedLoopWindow window(2, 1'000);
  EXPECT_TRUE(window.may_offer());
  window.on_offer();
  EXPECT_TRUE(window.may_offer());
  window.on_offer();
  EXPECT_FALSE(window.may_offer());  // window full
  window.on_ready();
  EXPECT_TRUE(window.may_offer());  // one slot freed
  window.on_offer();
  EXPECT_FALSE(window.may_offer());
  EXPECT_EQ(window.offered(), 3u);
  EXPECT_EQ(window.ready(), 1u);
  EXPECT_EQ(window.think(), 1'000u);
}

// --------------------------------------------------------------------------
// plan_dag arrival validation
// --------------------------------------------------------------------------

transport::DagConfig two_node_config() {
  transport::DagConfig config;
  config.nodes.push_back(
      transport::DagNode{"a", transport::DagNodeKind::kTerminal, {}});
  config.nodes.push_back(
      transport::DagNode{"b", transport::DagNodeKind::kTerminal, {}});
  transport::DagEdge edge;
  edge.src = 0;
  edge.dst = 1;
  config.edges.push_back(edge);
  config.flows.push_back(transport::DagFlow{0, 1, 100, 0x7});
  config.horizon = 1'000'000;
  return config;
}

TEST(DagArrivalValidation, AcceptsEachWellFormedKind) {
  transport::DagConfig config = two_node_config();
  EXPECT_NO_THROW(plan_dag(config));  // greedy default
  config.flows[0].arrival = ArrivalKind::kPaced;
  config.flows[0].interval = 5'000;
  EXPECT_NO_THROW(plan_dag(config));
  config.flows[0].arrival = ArrivalKind::kPoisson;
  EXPECT_NO_THROW(plan_dag(config));
  config.flows[0].arrival = ArrivalKind::kOnOff;
  config.flows[0].off_mean = 100'000;
  EXPECT_NO_THROW(plan_dag(config));
  config = two_node_config();
  config.flows[0].arrival = ArrivalKind::kClosedLoop;
  config.flows[0].window = 4;
  config.flows[0].think = 10'000;
  EXPECT_NO_THROW(plan_dag(config));
}

TEST(DagArrivalValidation, RejectsIllFormedArrivalSpecs) {
  // Rate-shaped kinds need a rate.
  transport::DagConfig config = two_node_config();
  config.flows[0].arrival = ArrivalKind::kPaced;
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
  config.flows[0].arrival = ArrivalKind::kPoisson;
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
  // ON/OFF needs its burst/idle shape.
  config = two_node_config();
  config.flows[0].arrival = ArrivalKind::kOnOff;
  config.flows[0].interval = 2'000;
  EXPECT_THROW(plan_dag(config), std::invalid_argument);  // off_mean == 0
  config.flows[0].off_mean = 100'000;
  config.flows[0].on_mean_flits = 0.5;
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
  // Greedy flows take no interval (that is what the kinds are for).
  config = two_node_config();
  config.flows[0].interval = 2'000;
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
  // Closed loop: window required, pace/interval/window cross-checks.
  config = two_node_config();
  config.flows[0].arrival = ArrivalKind::kClosedLoop;
  EXPECT_THROW(plan_dag(config), std::invalid_argument);  // window == 0
  config.flows[0].window = 4;
  config.flows[0].interval = 2'000;
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
  config = two_node_config();
  config.flows[0].window = 4;  // window without closed-loop arrivals
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
  config = two_node_config();
  config.flows[0].think = 1'000;  // think without closed-loop arrivals
  EXPECT_THROW(plan_dag(config), std::invalid_argument);
}

TEST(DagArrivalValidation, KindNamesAreStable) {
  EXPECT_STREQ(arrival_kind_name(ArrivalKind::kGreedy), "greedy");
  EXPECT_STREQ(arrival_kind_name(ArrivalKind::kPaced), "paced");
  EXPECT_STREQ(arrival_kind_name(ArrivalKind::kPoisson), "poisson");
  EXPECT_STREQ(arrival_kind_name(ArrivalKind::kOnOff), "onoff");
  EXPECT_STREQ(arrival_kind_name(ArrivalKind::kClosedLoop), "closed");
}

}  // namespace
}  // namespace rxl
