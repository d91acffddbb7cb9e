// rxl_perfbench: host time of the RXL simulator on three canonical fabrics.
//
// A run sets up several times (config generation, plan_dag, codec tables),
// discards one warm-up trial, then times run_dag_fabric trials on seeds
// base+1, base+2, ... (folded into the pinned range, workloads.hpp) for
// --seconds. Every trial is checked (checks.hpp). With --trace 1 the run
// also reruns every second trial with the simulator's flit-lifecycle tracing
// on, calibrates each layer's public function (layers.hpp) every sixteenth
// trial, and reports the per-layer split instead of the end-to-end metrics.
// The last stdout line is the JSON result.
//
//   rxl_perfbench --workload fat_tree_clean --seed 1 --seconds 30 --trace 0
//       --digests FILE [--spans-out FILE] [--git-describe S] [--git-dirty]
//       [--require-release]
//   rxl_perfbench --workload W --pin-digests   # print every trial seed's digest
//   rxl_perfbench --self-test
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "layers.hpp"
#include "manifest.hpp"
#include "rxl/crc/crc64.hpp"
#include "rxl/obs/metrics.hpp"
#include "rxl/stats/latency_histogram.hpp"
#include "rxl/transport/flit_codec.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

namespace tp = rxl::transport;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepsBeforeTrials = 21;
constexpr std::uint64_t kTrialsPerCalibration = 16;
constexpr std::uint64_t kTrialsPerTracedRerun = 4;
// Keeps the set-up work observable, so none of it is optimised away.
volatile std::uint64_t g_setup_sink = 0;

/// How a trial runs. Tracing at the simulator's default ring depth costs
/// what it costs a user, so obs.trace_overhead_pct is measured there. A
/// ring of 2^16 events retains a whole trial of any workload, so the
/// per-kind event counts are taken there (obs.events.overruns shows it).
enum class Tracing { kOff, kDefaultRing, kFullRing };
constexpr std::size_t kFullRingDepth = std::size_t{1} << 16;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool self_test = false;
  bool pin_digests = false;
  std::string digests;
  std::string spans_out;
  std::string git_describe = "unknown";
  bool git_dirty = false;
  bool require_release = false;
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "rxl_perfbench: %s\nusage: rxl_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --digests FILE "
               "[--spans-out FILE] [--git-describe S] [--git-dirty] "
               "[--require-release] | --workload NAME --pin-digests | "
               "--self-test\n",
               problem);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') usage("bad integer");
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = parse_u64(value());
    } else if (arg == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(value()));
    } else if (arg == "--trace") {
      const std::uint64_t trace = parse_u64(value());
      if (trace > 1) usage("--trace takes 0 or 1");
      options.trace = trace == 1;
    } else if (arg == "--digests") {
      options.digests = value();
    } else if (arg == "--spans-out") {
      options.spans_out = value();
    } else if (arg == "--git-describe") {
      options.git_describe = value();
    } else if (arg == "--git-dirty") {
      options.git_dirty = true;
    } else if (arg == "--require-release") {
      options.require_release = true;
    } else if (arg == "--pin-digests") {
      options.pin_digests = true;
    } else if (arg == "--self-test") {
      options.self_test = true;
    } else {
      usage("unknown argument");
    }
  }
  return options;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Ceiling nearest-rank percentile, the rule the simulator's own stats use.
double percentile(std::vector<double> values, std::uint64_t pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[rxl::stats::nearest_rank_index(values.size(), pct, 100)];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

/// What one checked trial contributes to the run's metrics. Compact, so the
/// process's memory does not grow with the number of trials.
struct TrialResult {
  std::uint64_t index = 0;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t flit_hops = 0;
  std::uint64_t in_order = 0;
  std::array<std::uint64_t, kLayerCount> layer_calls{};
  // Modelled-hardware counts.
  std::uint64_t retries = 0;
  std::uint64_t data_flits_sent = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t wire_busy_ps = 0;
  std::uint64_t wires = 0;
  std::uint64_t relay_queue_max = 0;
  std::uint64_t hub_fec_corrected = 0;
  // Traced trials only.
  std::array<std::uint64_t, rxl::obs::kTraceEventKindCount> trace_kinds{};
  std::uint64_t trace_overruns = 0;
};

void read_counts(const rxl::obs::MetricsRegistry& metrics,
                 const tp::DagConfig& config, TrialResult& result) {
  result.flit_hops = flit_hops(metrics);
  result.in_order = *metrics.find("fabric.in_order");
  for (std::size_t l = 0; l < kLayerCount; ++l)
    result.layer_calls[l] = layers()[l].calls(metrics, config);
  result.retries = sum_metrics(metrics, "endpoint.", ".retries");
  result.data_flits_sent =
      sum_metrics(metrics, "endpoint.", ".data_flits_sent");
  result.credit_stalls = *metrics.find("fabric.credit_stalls");
  result.wire_busy_ps = sum_metrics(metrics, "wire.", ".busy_time");
  for (const rxl::obs::Metric& metric : metrics.metrics()) {
    const std::string_view name = metric.name;
    if (name.starts_with("wire.") && name.ends_with(".busy_time"))
      result.wires += 1;
  }
  result.relay_queue_max = *metrics.find("fabric.max_relay_queue_depth");
  result.hub_fec_corrected = sum_metrics(metrics, "hub.", ".fec_corrected");
}

class Runner {
 public:
  Runner(const Workload& workload, const Options& options,
         const PinnedDigests& pins, SpanRecorder* spans, std::int64_t root)
      : workload_(workload),
        options_(options),
        pins_(pins),
        spans_(spans),
        root_(root) {}

  /// One trial on the seed of trial `index`. A traced rerun passes the
  /// digest of the untraced trial, which it must reproduce. A throw fails
  /// the trial.
  TrialResult trial(std::uint64_t index, Tracing tracing,
                    std::optional<std::uint64_t> untraced_digest = {}) {
    TrialResult result;
    result.index = index;
    const std::uint64_t seed = trial_seed(options_.seed, index);
    const bool traced = tracing != Tracing::kOff;
    ScopedSpan span(spans_, traced ? "traced_trial" : "trial", index, root_);
    std::vector<std::string> failures;
    try {
      tp::DagConfig config = workload_.make(seed);
      config.trace.enabled = traced;
      if (tracing == Tracing::kFullRing)
        config.trace.ring_depth = kFullRingDepth;
      tp::DagReport report;
      const Clock::time_point start = Clock::now();
      {
        ScopedSpan run(spans_, "run_dag_fabric", index, span.index());
        report = tp::run_dag_fabric(config);
      }
      result.wall_s = seconds_since(start);
      rxl::obs::MetricsRegistry metrics;
      {
        ScopedSpan collect(spans_, "collect_metrics", index, span.index());
        metrics = rxl::obs::collect_metrics(report);
      }
      result.digest = report_digest(metrics);
      read_counts(metrics, config, result);
      if (!traced) latency_.merge(report.merged_latency());
      for (const auto& component : report.trace.components) {
        result.trace_overruns += component.overruns;
        for (const rxl::obs::TraceEvent& event : component.events)
          result.trace_kinds[static_cast<std::size_t>(event.kind)] += 1;
      }
      failures = trial_failures(config, report, result.digest,
                                pins_.find(workload_.name, seed));
      if (untraced_digest.has_value() && *untraced_digest != result.digest)
        failures.push_back("traced digest differs from the untraced run");
    } catch (const std::exception& error) {
      failures.push_back(std::string("threw: ") + error.what());
    }
    attempted_ += 1;
    if (!failures.empty()) failed_ += 1;
    for (const std::string& failure : failures)
      std::printf("FAILED trial seed %" PRIu64 "%s: %s\n", seed,
                  traced ? " (traced)" : "", failure.c_str());
    return result;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// Simulated latency merged over every untraced trial.
  [[nodiscard]] const rxl::stats::LatencyHistogram& latency() const {
    return latency_;
  }

 private:
  const Workload& workload_;
  const Options& options_;
  const PinnedDigests& pins_;
  SpanRecorder* spans_;
  std::int64_t root_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  rxl::stats::LatencyHistogram latency_;
};

/// Set-up as a user of the simulator pays it: build the config, plan it, and
/// construct the codec tables (the shared CRC engine's first touch on the
/// first repetition, fresh CRC and FEC tables on every repetition). The
/// repetitions are spread over the run, one before each timed trial, so
/// their median sees the same machine as the trials do.
class SetupTimer {
 public:
  SetupTimer(const Workload& workload, std::uint64_t seed, SpanRecorder* spans,
             std::int64_t root)
      : workload_(workload), seed_(seed), spans_(spans), root_(root) {}

  void repeat() {
    ScopedSpan span(spans_, "setup", total_.size(), root_);
    const Clock::time_point start = Clock::now();
    const tp::DagConfig config = workload_.make(seed_);
    const Clock::time_point plan_start = Clock::now();
    {
      ScopedSpan plan_span(spans_, "plan_dag", total_.size(), span.index());
      sink_ += tp::plan_dag(config).segments.size();
    }
    plan_.push_back(seconds_since(plan_start));
    sink_ += rxl::crc::shared_crc64().compute({}) & 1;
    const rxl::crc::Crc64 crc;
    const tp::FlitCodec codec(config.protocol.protocol);
    sink_ += crc.compute({}) & 1;
    sink_ += static_cast<std::uint64_t>(codec.protocol());
    total_.push_back(seconds_since(start));
    g_setup_sink = sink_;
  }

  [[nodiscard]] double setup_s() const { return median(total_); }
  [[nodiscard]] double plan_s() const { return median(plan_); }
  [[nodiscard]] std::size_t repetitions() const { return total_.size(); }

 private:
  const Workload& workload_;
  std::uint64_t seed_;
  SpanRecorder* spans_;
  std::int64_t root_;
  std::vector<double> total_;
  std::vector<double> plan_;
  std::uint64_t sink_ = 0;
};

struct MetricLine {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_metric(const MetricLine& metric) {
  std::printf("  %-30s %20.6f %s\n", metric.name.c_str(), metric.value,
              metric.unit.c_str());
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricLine>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": ";
  out += std::to_string(attempted);
  out += ", \"failed\": ";
  out += std::to_string(failed);
  out += ", \"metrics\": {";
  char buffer[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += metrics[i].name;
    out += "\": {\"value\": ";
    std::snprintf(buffer, sizeof buffer, "%.17g", metrics[i].value);
    out += buffer;
    out += ", \"unit\": \"";
    out += metrics[i].unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Mean over trials of `value(trial)`.
template <typename Fn>
double mean_of(const std::vector<TrialResult>& trials, Fn&& value) {
  double total = 0.0;
  for (const TrialResult& trial : trials)
    total += static_cast<double>(value(trial));
  return trials.empty() ? 0.0 : total / static_cast<double>(trials.size());
}

/// Ratio of sums over trials (0 when the denominator is).
template <typename Num, typename Den>
double ratio_of(const std::vector<TrialResult>& trials, Num&& num, Den&& den) {
  const double d = mean_of(trials, den);
  return d == 0.0 ? 0.0 : mean_of(trials, num) / d;
}

/// Wall times of the trials that ran to completion (a trial that threw has
/// none).
std::vector<double> trial_ms(const std::vector<TrialResult>& timed) {
  std::vector<double> walls;
  for (const TrialResult& trial : timed)
    if (trial.wall_s > 0) walls.push_back(trial.wall_s * 1e3);
  return walls;
}

std::vector<MetricLine> end_to_end_metrics(
    const std::vector<TrialResult>& timed, const SetupTimer& setup) {
  std::vector<double> hop_rates;
  std::vector<double> delivery_rates;
  for (const TrialResult& trial : timed) {
    if (trial.wall_s <= 0) continue;
    hop_rates.push_back(static_cast<double>(trial.flit_hops) / trial.wall_s);
    delivery_rates.push_back(static_cast<double>(trial.in_order) /
                             trial.wall_s);
  }
  // The bounded metrics sit at the slow end of the trials: the rate 90% of
  // trials sustain, and p90 time. On a shared host a trial runs at one of two
  // speeds, ~1.5x apart, as other tenants come and go, and the share of fast
  // trials changes from run to run; the slow end barely moves with it, while
  // the median jumps between the two.
  return {
      {"flit_hops_per_s", percentile(hop_rates, 10), "1/s"},
      {"delivered_flits_per_s", percentile(delivery_rates, 10), "1/s"},
      {"trial_ms_p90", percentile(trial_ms(timed), 90), "ms"},
      {"setup_s", setup.setup_s(), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Calibrated ns per call of every layer, one sample per burst. The bursts
/// are spread over the timed trials, one every kTrialsPerCalibration, so the
/// median sample sees the same machine as the median trial does.
class Calibrator {
 public:
  Calibrator(tp::DagConfig config, SpanRecorder* spans, std::int64_t root)
      : config_(std::move(config)), spans_(spans), root_(root) {}

  void burst() {
    ScopedSpan span(spans_, "calibrate", bursts_, root_);
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      std::string name = "calibrate.";
      name += layers()[l].name;
      ScopedSpan loop(spans_, std::move(name), bursts_, span.index());
      samples_[l].push_back(layers()[l].ns_per_call(config_));
    }
    bursts_ += 1;
  }

  [[nodiscard]] double ns_per_call(std::size_t layer) const {
    return median(samples_[layer]);
  }
  [[nodiscard]] std::uint64_t bursts() const { return bursts_; }

 private:
  tp::DagConfig config_;
  SpanRecorder* spans_;
  std::int64_t root_;
  std::array<std::vector<double>, kLayerCount> samples_;
  std::uint64_t bursts_ = 0;
};

/// Splits the median trial into layer shares plus the residual. Prints the
/// split.
std::vector<MetricLine> layer_metrics(const std::vector<TrialResult>& timed,
                                      const Calibrator& calibrator,
                                      double p50_ms) {
  std::vector<MetricLine> out;
  std::printf("per-layer split (calls per trial x calibrated ns, median of %"
              PRIu64 " calibrations, as a share of trial_ms_p50):\n",
              calibrator.bursts());
  double explained_pct = 0.0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const Layer& layer = layers()[l];
    const std::string name(layer.name);
    const double ns = calibrator.ns_per_call(l);
    const double calls =
        mean_of(timed, [l](const TrialResult& t) { return t.layer_calls[l]; });
    const double share = calls * ns / (p50_ms * 1e6) * 100.0;
    explained_pct += share;
    out.push_back({name + ".calls", calls, "count"});
    out.push_back({name + ".ns_per_call", ns, "ns"});
    out.push_back({name + ".share", share, "%"});
    std::printf("  %-22s %10.1f calls x %8.2f ns = %6.2f%%\n"
                "      calls = %.*s\n      call  = %.*s\n",
                name.c_str(), calls, ns, share,
                static_cast<int>(layer.formula.size()), layer.formula.data(),
                static_cast<int>(layer.call.size()), layer.call.data());
  }
  const double residual_pct = 100.0 - explained_pct;
  out.push_back({"residual.share", residual_pct, "%"});
  std::printf("  layer shares %.2f%% + residual.share %.2f%% = 100%% of "
              "trial_ms_p50 %.4f ms\n",
              explained_pct, residual_pct, p50_ms);
  if (residual_pct < 0)
    std::printf("WARNING: the calibrated layers claim %.2f%% of "
                "trial_ms_p50, more than the trial takes; their "
                "ns_per_call overstates the in-trial cost\n",
                explained_pct);
  return out;
}

/// Simulated-network counts: deterministic per seed, averaged per trial.
std::vector<MetricLine> hardware_metrics(
    const std::vector<TrialResult>& timed, const tp::DagConfig& config,
    const rxl::stats::LatencyHistogram& latency) {
  const auto horizon_ps = static_cast<double>(config.horizon);
  return {
      {"link.retransmit_frac",
       ratio_of(timed, [](const TrialResult& t) { return t.retries; },
                [](const TrialResult& t) { return t.data_flits_sent; }),
       "frac"},
      {"link.credit_stalls",
       mean_of(timed, [](const TrialResult& t) { return t.credit_stalls; }),
       "count"},
      {"link.goodput_frac",
       ratio_of(timed, [](const TrialResult& t) { return t.in_order; },
                [](const TrialResult& t) { return t.flit_hops; }),
       "frac"},
      {"sim.wire_util",
       ratio_of(timed, [](const TrialResult& t) { return t.wire_busy_ps; },
                [](const TrialResult& t) { return t.wires; }) /
           horizon_ps,
       "frac"},
      {"switchdev.relay_queue_max",
       mean_of(timed, [](const TrialResult& t) { return t.relay_queue_max; }),
       "count"},
      {"switchdev.hub_fec_corrected",
       mean_of(timed, [](const TrialResult& t) { return t.hub_fec_corrected; }),
       "count"},
      {"stats.latency_p50_ns", static_cast<double>(latency.p50()) / 1e3, "ns"},
      {"stats.latency_p99_ns", static_cast<double>(latency.p99()) / 1e3, "ns"},
  };
}

/// Per-kind trace events per trial, from the full-ring reruns, and what
/// tracing costs at the default ring depth.
std::vector<MetricLine> trace_metrics(
    const std::vector<TrialResult>& timed,
    const std::vector<TrialResult>& default_ring,
    const std::vector<TrialResult>& full_ring) {
  using rxl::obs::TraceEventKind;
  constexpr std::array<std::pair<const char*, TraceEventKind>, 6> kKinds{{
      {"obs.events.tx", TraceEventKind::kTx},
      {"obs.events.retry", TraceEventKind::kRetry},
      {"obs.events.nack", TraceEventKind::kNack},
      {"obs.events.credit_stall", TraceEventKind::kCreditStall},
      {"obs.events.deliver", TraceEventKind::kDeliver},
      {"obs.events.drop", TraceEventKind::kDrop},
  }};
  std::vector<MetricLine> out;
  for (const auto& [name, kind] : kKinds) {
    const auto k = static_cast<std::size_t>(kind);
    out.push_back({name,
                   mean_of(full_ring, [k](const TrialResult& t) {
                     return t.trace_kinds[k];
                   }),
                   "count"});
  }
  out.push_back({"obs.events.overruns",
                 mean_of(full_ring,
                         [](const TrialResult& t) { return t.trace_overruns; }),
                 "count"});
  // Each traced trial ran right after its untraced twin, so the pair saw
  // the same machine.
  std::vector<double> overhead_pct;
  for (const TrialResult& trial : default_ring) {
    const double untraced = timed[trial.index - 1].wall_s;
    if (trial.wall_s > 0 && untraced > 0)
      overhead_pct.push_back((trial.wall_s / untraced - 1.0) * 100.0);
  }
  out.push_back({"obs.trace_overhead_pct", median(overhead_pct), "%"});
  return out;
}

/// Prints the digest of every trial seed of the workload.
int pin_digests(const Workload& workload) {
  int status = 0;
  for (std::uint64_t seed = 0; seed < kTrialSeeds; ++seed) {
    const tp::DagConfig config = workload.make(seed);
    const tp::DagReport report = tp::run_dag_fabric(config);
    const std::uint64_t digest =
        report_digest(rxl::obs::collect_metrics(report));
    for (const std::string& failure : invariant_failures(config, report)) {
      std::fprintf(stderr, "seed %" PRIu64 ": %s\n", seed, failure.c_str());
      status = 1;
    }
    std::printf("%.*s %" PRIu64 " %016" PRIx64 "\n",
                static_cast<int>(workload.name.size()), workload.name.data(),
                seed, digest);
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (options.self_test) return self_test();
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) usage("unknown --workload");
  if (options.pin_digests) return pin_digests(*workload);
  if (options.digests.empty()) usage("--digests is required");

  const Manifest manifest =
      make_manifest(options.git_describe, options.git_dirty, options.seed);
  std::printf("manifest %s\n", manifest_json(manifest).c_str());
  if (options.require_release && !is_release_build(manifest)) {
    std::fprintf(stderr, "rxl_perfbench: refusing: build type is '%s', not "
                         "Release\n", manifest.build_type.c_str());
    return 3;
  }
  PinnedDigests pins;
  if (!pins.load(options.digests)) {
    std::fprintf(stderr, "rxl_perfbench: cannot read digests '%s'\n",
                 options.digests.c_str());
    return 2;
  }

  SpanRecorder recorder;
  SpanRecorder* spans = options.trace ? &recorder : nullptr;
  const std::int64_t root = spans != nullptr
                                ? spans->begin("run", options.seed)
                                : SpanRecorder::kNoParent;
  Runner runner(*workload, options, pins, spans, root);
  SetupTimer setup(*workload, trial_seed(options.seed, 0), spans, root);
  for (int rep = 0; rep < kSetupRepsBeforeTrials; ++rep) setup.repeat();
  // Calibrate on the config of the first timed trial.
  std::optional<Calibrator> calibrator;
  if (options.trace)
    calibrator.emplace(workload->make(trial_seed(options.seed, 1)), spans,
                       root);
  (void)runner.trial(0, Tracing::kOff);  // warm-up, checked but not timed
  std::vector<TrialResult> timed;
  std::vector<TrialResult> default_ring;
  std::vector<TrialResult> full_ring;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 1; seconds_since(start) < options.seconds; ++i) {
    setup.repeat();
    if (calibrator.has_value() && (i - 1) % kTrialsPerCalibration == 0)
      calibrator->burst();
    timed.push_back(runner.trial(i, Tracing::kOff));
    if (!options.trace) continue;
    // Each rerun follows its untraced twin, so the pair sees one machine.
    if (i % kTrialsPerTracedRerun == 0)
      default_ring.push_back(
          runner.trial(i, Tracing::kDefaultRing, timed.back().digest));
    else if (i % kTrialsPerTracedRerun == kTrialsPerTracedRerun / 2)
      full_ring.push_back(
          runner.trial(i, Tracing::kFullRing, timed.back().digest));
  }

  const std::vector<MetricLine> end_to_end = end_to_end_metrics(timed, setup);
  const std::vector<double> walls = trial_ms(timed);
  const double p50_ms = percentile(walls, 50);
  const auto beyond_p90 = std::count_if(
      walls.begin(), walls.end(),
      [p90 = percentile(walls, 90)](double wall) { return wall > p90; });
  const MetricLine p50_line{"trial_ms_p50", p50_ms, "ms"};
  const MetricLine fail_line{
      "trial_fail_frac",
      static_cast<double>(runner.failed()) /
          static_cast<double>(std::max<std::uint64_t>(runner.attempted(), 1)),
      "frac"};
  std::printf("workload %.*s: %zu timed trials (+1 warm-up, %zu traced), "
              "%td beyond p90; %zu set-up repetitions; %" PRIu64 " of %" PRIu64
              " trials failed, each checked against its pinned digest\n",
              static_cast<int>(workload->name.size()), workload->name.data(),
              timed.size(), default_ring.size() + full_ring.size(), beyond_p90,
              setup.repetitions(), runner.failed(), runner.attempted());
  std::printf("end-to-end (host time, untraced):\n");
  for (const MetricLine& metric : end_to_end) print_metric(metric);
  std::printf("end-to-end, reported but not bounded:\n");
  print_metric(p50_line);
  print_metric(fail_line);
  if (!options.trace) {
    std::printf("%s\n", result_json(runner.failed() == 0, runner.attempted(),
                                    runner.failed(), end_to_end)
                            .c_str());
    return 0;
  }

  const tp::DagConfig config = workload->make(trial_seed(options.seed, 1));
  std::vector<MetricLine> per_layer = layer_metrics(timed, *calibrator, p50_ms);
  std::vector<MetricLine> more{p50_line,
                               {"transport.plan_s", setup.plan_s(), "s"}};
  for (MetricLine& line : hardware_metrics(timed, config, runner.latency()))
    more.push_back(std::move(line));
  for (MetricLine& line : trace_metrics(timed, default_ring, full_ring))
    more.push_back(std::move(line));
  more.push_back(fail_line);
  std::printf("median trial, set-up, modelled hardware and the traced rerun "
              "(traced digests must equal untraced):\n");
  for (MetricLine& line : more) {
    print_metric(line);
    per_layer.push_back(std::move(line));
  }

  recorder.end(root);
  if (!options.spans_out.empty()) {
    std::ofstream out(options.spans_out);
    out << recorder.chrome_json();
    if (!out) {
      std::fprintf(stderr, "rxl_perfbench: cannot write '%s'\n",
                   options.spans_out.c_str());
      return 2;
    }
    std::printf("spans: %zu written to %s\n", recorder.size(),
                options.spans_out.c_str());
  }
  std::printf("%s\n", result_json(runner.failed() == 0, runner.attempted(),
                                  runner.failed(), per_layer)
                          .c_str());
  return 0;
}
