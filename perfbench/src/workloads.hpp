// The benchmark's three canonical fabrics. NOTES.md records why each was
// chosen and which layer each one is expected to move.
#pragma once

#include <cstdint>
#include <string_view>

#include "rxl/transport/dag_fabric.hpp"

namespace perfbench {

/// Trial seeds run from 0 to kTrialSeeds - 1. digests.txt pins a digest for
/// every one of them, so every trial of every run is checked against a pin.
inline constexpr std::uint64_t kTrialSeeds = 1024;

/// The seed of trial `index` in a run with base seed `base`: base plus index,
/// folded into the pinned range.
[[nodiscard]] constexpr std::uint64_t trial_seed(std::uint64_t base,
                                                 std::uint64_t index) {
  return (base % kTrialSeeds + index % kTrialSeeds) % kTrialSeeds;
}

struct Workload {
  std::string_view name;
  /// Builds the fabric for one trial; the same seed always yields the same
  /// config.
  rxl::transport::DagConfig (*make)(std::uint64_t seed);
};

/// nullptr when `name` names no workload.
[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace perfbench
