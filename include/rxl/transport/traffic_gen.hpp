// Open- and closed-loop traffic generators for fabric workloads.
//
// Fixed per-flow flit counts pulled at wire speed (the only workload shape
// before this header) measure a fabric that is always saturated. Real load
// studies need an *offered load*: an arrival process that decides when the
// next payload becomes available, independent of when the transport manages
// to send it. ArrivalProcess models the open-loop kinds — deterministic
// rate, Poisson, and heavy-tailed ON/OFF bursts — and ClosedLoopWindow
// models the closed-loop kind (a fixed number of outstanding requests with
// think time, the SRP-style harness shape). DagFlow carries an ArrivalSpec
// so every canned scenario can be driven at a chosen load; kPaced is the
// deterministic-rate case.
//
// Determinism: all randomness comes from the seeded Xoshiro256 stream in
// the spec (never wall clock, lint R2), and due-times are generated by a
// cumulative walk queried with nondecreasing indices, so the same spec
// always yields the same arrival sequence — including across reruns and
// sim::run_trials worker counts.
#pragma once

#include <cstdint>

#include "rxl/common/rng.hpp"
#include "rxl/common/types.hpp"

namespace rxl::transport {

enum class ArrivalKind : std::uint8_t {
  /// Pull-limited: every payload is available immediately (legacy default).
  kGreedy = 0,
  /// Deterministic rate: arrival i is due at exactly i * interval.
  kPaced,
  /// Poisson process: i.i.d. exponential inter-arrivals with mean interval.
  kPoisson,
  /// Heavy-tailed ON/OFF: bursts of back-to-back arrivals spaced `interval`
  /// apart, separated by Pareto-distributed idle gaps; burst lengths are
  /// Pareto-ish too, so a few huge bursts dominate (self-similar traffic).
  kOnOff,
  /// Closed loop: a fixed window of outstanding requests with think time;
  /// arrivals have no due-times, completions release the next request.
  kClosedLoop,
};

[[nodiscard]] const char* arrival_kind_name(ArrivalKind kind) noexcept;

/// Shape parameters for an open-loop arrival process.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kGreedy;
  /// Mean inter-arrival time (kPaced/kPoisson) or intra-burst spacing
  /// (kOnOff). The offered rate of kPaced/kPoisson is 1/interval.
  TimePs interval = 0;
  /// kOnOff: mean burst length in flits (Pareto-ish, minimum 1).
  double on_mean_flits = 16.0;
  /// kOnOff: mean idle gap between bursts (Pareto, alpha = 1.5).
  TimePs off_mean = 0;
  /// Seed for the process's private Xoshiro256 stream.
  std::uint64_t seed = 1;
};

/// Generates the due-time of each arrival index for an open-loop spec.
///
/// due(i) is the earliest instant arrival i may be offered to the
/// transport. Queries must use nondecreasing indices (the endpoint pull
/// model guarantees this: index i is re-polled until it yields a payload,
/// then i+1 begins); repeated queries of the current index are free and
/// draw nothing, so the due-time of a blocked arrival never drifts.
/// kPaced draws nothing at all: due(i) is exactly i * interval.
class ArrivalProcess {
 public:
  explicit ArrivalProcess(const ArrivalSpec& spec) noexcept;

  [[nodiscard]] TimePs due(std::uint64_t index) noexcept;

  [[nodiscard]] const ArrivalSpec& spec() const noexcept { return spec_; }

 private:
  /// Draws the gap between consecutive arrivals (stochastic kinds only).
  [[nodiscard]] TimePs next_gap() noexcept;

  ArrivalSpec spec_;
  Xoshiro256 rng_;
  std::uint64_t current_index_ = 0;
  TimePs current_due_ = 0;
  std::uint64_t burst_remaining_ = 0;
};

/// Closed-loop offer gate: at most `window` requests outstanding, and each
/// completion frees its slot only after `think` has elapsed (the caller
/// schedules that delay and then calls on_ready). may_offer() is the
/// source-side gate; offered - completed never exceeds the window.
class ClosedLoopWindow {
 public:
  ClosedLoopWindow(std::uint32_t window, TimePs think) noexcept
      : window_(window), think_(think) {}

  [[nodiscard]] bool may_offer() const noexcept {
    return offered_ - ready_ < window_;
  }
  void on_offer() noexcept { offered_ += 1; }
  /// Call once per completion, after the think delay has elapsed.
  void on_ready() noexcept { ready_ += 1; }

  [[nodiscard]] TimePs think() const noexcept { return think_; }
  [[nodiscard]] std::uint64_t offered() const noexcept { return offered_; }
  [[nodiscard]] std::uint64_t ready() const noexcept { return ready_; }

 private:
  std::uint64_t window_;
  TimePs think_;
  std::uint64_t offered_ = 0;
  std::uint64_t ready_ = 0;
};

}  // namespace rxl::transport
