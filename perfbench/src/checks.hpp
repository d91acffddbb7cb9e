// The correctness gate behind trial_fail_frac: RXL invariants checkable on a
// report cut at the horizon, plus a digest of the full metrics registry
// compared against pinned values.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rxl/obs/metrics.hpp"
#include "rxl/transport/dag_fabric.hpp"

namespace perfbench {

/// FNV-1a 64 of obs::collect_metrics(report).to_csv().
[[nodiscard]] std::uint64_t report_digest(
    const rxl::obs::MetricsRegistry& metrics);

/// Invariant violations of one trial; empty when the trial is correct:
///  * order failures, data corruptions, misroutes or latency-sample misses;
///  * a hop direction whose outstanding credits (slots charged by its TX
///    minus slots freed by the peer RX, per VC) exceed config.hop_credits
///    or are negative.
[[nodiscard]] std::vector<std::string> invariant_failures(
    const rxl::transport::DagConfig& config,
    const rxl::transport::DagReport& report);

/// Pinned per-(workload, trial seed) digests, one "<workload> <seed> <hex>"
/// line each.
class PinnedDigests {
 public:
  /// Returns false when the file cannot be read or a line is malformed.
  bool load(const std::string& path);
  void pin(std::string workload, std::uint64_t seed, std::uint64_t digest);
  [[nodiscard]] std::optional<std::uint64_t> find(std::string_view workload,
                                                  std::uint64_t seed) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> digests_;
};

/// Everything that makes a trial fail: its invariant violations, plus a
/// digest that differs from the one pinned for its workload and seed, or no
/// pinned digest at all.
[[nodiscard]] std::vector<std::string> trial_failures(
    const rxl::transport::DagConfig& config,
    const rxl::transport::DagReport& report, std::uint64_t digest,
    std::optional<std::uint64_t> pinned);

/// Shows the gate counts what it must: a clean trial passes, and a missing or
/// tampered digest, an order failure and an over-window credit count each
/// fail.
/// Returns the process exit code.
int self_test();

}  // namespace perfbench
