#include "checks.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "rxl/common/bytes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace tp = rxl::transport;

std::uint64_t report_digest(const rxl::obs::MetricsRegistry& metrics) {
  const std::string csv = metrics.to_csv();
  return rxl::fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(csv.data()), csv.size()));
}

namespace {

void require_zero(std::vector<std::string>& failures, const char* what,
                  std::uint64_t value) {
  if (value == 0) return;
  std::string message = what;
  message += " = ";
  message += std::to_string(value);
  failures.push_back(std::move(message));
}

// Slots charged by one side's TX window minus slots its peer's RX freed.
void check_outstanding(std::vector<std::string>& failures,
                       const tp::DagLinkStats& hop, bool forward,
                       std::uint64_t window) {
  const auto& consumed = forward ? hop.a_vc_consumed : hop.b_vc_consumed;
  const auto& returned = forward ? hop.b_vc_returned : hop.a_vc_returned;
  for (std::size_t vc = 0; vc < consumed.size(); ++vc) {
    if (returned[vc] <= consumed[vc] && consumed[vc] - returned[vc] <= window)
      continue;
    std::string message = "hop s";
    message += std::to_string(hop.segment);
    message += forward ? " fwd" : " rev";
    message += " vc";
    message += std::to_string(vc);
    message += " outstanding credits outside [0, ";
    message += std::to_string(window);
    message += "]: consumed ";
    message += std::to_string(consumed[vc]);
    message += ", returned ";
    message += std::to_string(returned[vc]);
    failures.push_back(std::move(message));
  }
}

}  // namespace

std::vector<std::string> invariant_failures(const tp::DagConfig& config,
                                            const tp::DagReport& report) {
  std::vector<std::string> failures;
  require_zero(failures, "order failures", report.total_order_failures());
  require_zero(failures, "data corruptions", report.total_data_corruptions());
  require_zero(failures, "misrouted", report.misrouted);
  require_zero(failures, "latency-sample misses",
               report.total_latency_sample_misses());
  const std::uint64_t window = config.hop_credits;
  for (const tp::DagLinkStats& hop : report.hops) {
    check_outstanding(failures, hop, true, window);
    check_outstanding(failures, hop, false, window);
  }
  return failures;
}

bool PinnedDigests::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t seed = 0;
    std::string hex;
    if (!(fields >> workload >> seed >> hex)) return false;
    std::size_t used = 0;
    std::uint64_t digest = 0;
    try {
      digest = std::stoull(hex, &used, 16);
    } catch (const std::exception&) {
      return false;
    }
    if (used != hex.size()) return false;
    pin(std::move(workload), seed, digest);
  }
  return true;
}

void PinnedDigests::pin(std::string workload, std::uint64_t seed,
                        std::uint64_t digest) {
  digests_[{std::move(workload), seed}] = digest;
}

std::optional<std::uint64_t> PinnedDigests::find(std::string_view workload,
                                                 std::uint64_t seed) const {
  const auto it = digests_.find(std::make_pair(std::string(workload), seed));
  if (it == digests_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> trial_failures(const tp::DagConfig& config,
                                        const tp::DagReport& report,
                                        std::uint64_t digest,
                                        std::optional<std::uint64_t> pinned) {
  std::vector<std::string> failures = invariant_failures(config, report);
  if (!pinned.has_value()) {
    failures.emplace_back("no pinned digest for this workload and seed");
  } else if (*pinned != digest) {
    char message[96];
    std::snprintf(message, sizeof message,
                  "digest %016" PRIx64 " != pinned %016" PRIx64, digest,
                  *pinned);
    failures.emplace_back(message);
  }
  return failures;
}

int self_test() {
  int errors = 0;
  auto expect = [&errors](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) errors += 1;
  };

  tp::DagConfig config = find_workload("fat_tree_clean")->make(7);
  config.horizon = 1'000'000;
  const tp::DagReport report = tp::run_dag_fabric(config);
  const std::uint64_t digest = report_digest(rxl::obs::collect_metrics(report));

  expect(report.total_in_order() > 0, "trial delivers flits");
  expect(trial_failures(config, report, digest, digest).empty(),
         "clean trial with matching pinned digest passes");
  expect(!trial_failures(config, report, digest, std::nullopt).empty(),
         "trial without a pinned digest fails");
  expect(!trial_failures(config, report, digest, digest ^ 1).empty(),
         "tampered pinned digest fails");

  tp::DagReport reordered = report;
  reordered.flows.front().scoreboard.order_violations += 1;
  const std::uint64_t reordered_digest =
      report_digest(rxl::obs::collect_metrics(reordered));
  expect(!trial_failures(config, reordered, reordered_digest, reordered_digest)
              .empty(),
         "report with an order failure fails, even with a matching digest");

  tp::DagReport overdrawn = report;
  overdrawn.hops.front().a_vc_consumed[0] =
      overdrawn.hops.front().b_vc_returned[0] + config.hop_credits + 1;
  expect(!invariant_failures(config, overdrawn).empty(),
         "report with outstanding credits beyond the window fails");

  PinnedDigests pins;
  pins.pin("fat_tree_clean", 7, digest);
  expect(pins.find("fat_tree_clean", 7) == digest &&
             !pins.find("fat_tree_clean", 8).has_value(),
         "pinned digests are keyed by workload and seed");

  std::printf("self-test: %s\n", errors == 0 ? "passed" : "FAILED");
  return errors == 0 ? 0 : 1;
}

}  // namespace perfbench
