// Outside-in layer split. Each layer's work count per trial is read from the
// trial's metrics registry by a stated formula; its cost per call is timed
// in this process by calling the layer's public function on the workload's
// own inputs. calls x ns over the median trial time is the layer's share.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "rxl/obs/metrics.hpp"
#include "rxl/transport/dag_fabric.hpp"

namespace perfbench {

struct Layer {
  std::string_view name;     ///< module name, e.g. "rs.encode"
  std::string_view call;     ///< the public function a call times
  std::string_view formula;  ///< how calls are read from the registry
  std::uint64_t (*calls)(const rxl::obs::MetricsRegistry& metrics,
                         const rxl::transport::DagConfig& config);
  /// Median ns per call over several timed blocks, after warm-up.
  double (*ns_per_call)(const rxl::transport::DagConfig& config);
};

inline constexpr std::size_t kLayerCount = 11;
[[nodiscard]] std::span<const Layer, kLayerCount> layers();

/// Sum of every metric named "<prefix>...<suffix>".
[[nodiscard]] std::uint64_t sum_metrics(
    const rxl::obs::MetricsRegistry& metrics, std::string_view prefix,
    std::string_view suffix);

/// Channel transits: every wire.* channel plus the hubs' egress legs, which
/// the registry records only as hub.*.flits_forwarded.
[[nodiscard]] std::uint64_t flit_hops(const rxl::obs::MetricsRegistry& metrics);

}  // namespace perfbench
