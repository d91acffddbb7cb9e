#include "spans.hpp"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int64_t SpanRecorder::begin(std::string name, std::uint64_t id,
                                 std::int64_t parent) {
  spans_.push_back(Span{std::move(name), id, parent, now_ns(), -1});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::end(std::int64_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

std::string SpanRecorder::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buffer[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    out += span.name;
    out += "\",\"cat\":\"perfbench\",\"pid\":1,\"tid\":1";
    // A span still open is written as a bare begin ("B") event, so a loader
    // sees that it was never closed.
    if (span.end_ns < 0) {
      std::snprintf(buffer, sizeof buffer, ",\"ph\":\"B\",\"ts\":%.3f",
                    static_cast<double>(span.start_ns) / 1000.0);
    } else {
      std::snprintf(buffer, sizeof buffer,
                    ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f",
                    static_cast<double>(span.start_ns) / 1000.0,
                    static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    }
    out += buffer;
    std::snprintf(buffer, sizeof buffer,
                  ",\"args\":{\"span\":%zu,\"parent\":%" PRId64
                  ",\"id\":%" PRIu64 "}}",
                  i, span.parent, span.id);
    out += buffer;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
