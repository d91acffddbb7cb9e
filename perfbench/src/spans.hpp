// The benchmark's own host-time spans around its calls into the simulator
// (plan_dag, run_dag_fabric, collect_metrics, each calibration loop). Kept
// in memory and written once, as Chrome-trace JSON, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::int64_t kNoParent = -1;

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its index; `id` groups the spans of one trial
  /// (the trial index), `parent` is the index of the enclosing span.
  std::int64_t begin(std::string name, std::uint64_t id,
                     std::int64_t parent = kNoParent);
  void end(std::int64_t span);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Chrome-trace ("Trace Event Format") JSON: one complete ("X") event per
  /// span, microsecond timestamps, span index and parent index in `args`.
  [[nodiscard]] std::string chrome_json() const;

 private:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::int64_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
  };
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Closes its span on scope exit, exceptions included.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t id,
             std::int64_t parent = SpanRecorder::kNoParent)
      : recorder_(recorder),
        index_(recorder == nullptr
                   ? SpanRecorder::kNoParent
                   : recorder->begin(std::move(name), id, parent)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t index() const noexcept { return index_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t index_;
};

}  // namespace perfbench
