// Run manifest: enough to trace any printed number back to its build, its
// machine, its seed and its worker count.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Manifest {
  std::string git_describe;  ///< supplied by the caller (run.py)
  bool git_dirty = false;
  std::string compiler;
  std::string cxx_flags;
  std::string build_type;
  std::string cpu_model;
  bool pclmulqdq = false;
  bool avx2 = false;
  bool gfni = false;
  std::uint64_t base_seed = 0;
  /// Always 1: trials run back to back on the calling thread, so the
  /// RXL_TRIAL_WORKERS override of sim::run_trials never applies.
  unsigned workers = 1;
  std::string rxl_trial_workers_env;  ///< recorded, ignored ("" when unset)
};

[[nodiscard]] Manifest make_manifest(std::string git_describe, bool git_dirty,
                                     std::uint64_t base_seed);
[[nodiscard]] bool is_release_build(const Manifest& manifest);
/// One-line JSON object.
[[nodiscard]] std::string manifest_json(const Manifest& manifest);

}  // namespace perfbench
