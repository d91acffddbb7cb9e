#include "workloads.hpp"

#include <array>

namespace perfbench {

namespace tp = rxl::transport;

namespace {

// Far beyond what any source can offer before the horizon: every greedy
// source stays saturated and every Poisson source stays open-loop.
constexpr std::uint64_t kUnlimitedFlits = std::uint64_t{1} << 40;

tp::DagScenarioSpec rxl_spec(std::uint64_t seed, rxl::TimePs horizon) {
  tp::DagScenarioSpec spec;
  spec.protocol.protocol = tp::Protocol::kRxl;
  spec.protocol.coalesce_factor = 10;
  spec.flits_per_flow = kUnlimitedFlits;
  spec.seed = seed;
  spec.horizon = horizon;
  return spec;
}

tp::DagConfig fat_tree_clean(std::uint64_t seed) {
  tp::DagScenarioSpec spec = rxl_spec(seed, 10'000'000);
  spec.burst_injection_rate = 1e-4;
  spec.hop_credits = 32;
  return tp::make_fat_tree_dag(spec);
}

tp::DagConfig star_noisy(std::uint64_t seed) {
  tp::StarConfig star;
  star.protocol.protocol = tp::Protocol::kRxl;
  star.protocol.coalesce_factor = 10;
  star.pairs = 4;
  star.ber = 2e-5;
  star.burst_injection_rate = 3e-3;
  star.burst_symbols = 4;
  star.seed = seed;
  star.flits_per_direction = kUnlimitedFlits;
  star.horizon = 10'000'000;
  return tp::make_star_dag(star);
}

tp::DagConfig incast_poisson(std::uint64_t seed) {
  tp::DagScenarioSpec spec = rxl_spec(seed, 50'000'000);
  spec.burst_injection_rate = 1e-3;
  spec.hop_credits = 32;
  spec.sample_latency = true;
  spec.egress_policy = rxl::switchdev::EgressPolicy::kDrr;
  const std::array<tp::DagFlowClass, 2> classes{
      tp::DagFlowClass{0, 2, 0, 0}, tp::DagFlowClass{1, 1, 0, 0}};
  tp::DagConfig config = tp::make_incast_dag(spec, 4, classes);
  // 95% of the sink wire's one-flit-per-slot capacity, split evenly.
  const std::uint64_t flows = config.flows.size();
  for (tp::DagFlow& flow : config.flows) {
    flow.arrival = tp::ArrivalKind::kPoisson;
    flow.interval = config.slot * flows * 100 / 95;
  }
  return config;
}

constexpr std::array<Workload, 3> kWorkloads{{
    {"fat_tree_clean", fat_tree_clean},
    {"star_noisy", star_noisy},
    {"incast_poisson", incast_poisson},
}};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads)
    if (workload.name == name) return &workload;
  return nullptr;
}

}  // namespace perfbench
