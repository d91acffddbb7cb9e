#include "manifest.hpp"

#include <cpuid.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

// CPU identity straight from CPUID, so the manifest reads nothing outside
// the process.
void read_cpu(Manifest& manifest) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d))
    manifest.pclmulqdq = (c & bit_PCLMUL) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    manifest.avx2 = (b & bit_AVX2) != 0;
    manifest.gfni = (c & (1u << 8)) != 0;  // CPUID.(7,0):ECX.GFNI[bit 8]
  }
  char brand[49] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      unsigned regs[4] = {};
      __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * leaf, regs, sizeof regs);
    }
  }
  std::string model = brand;
  const auto first = model.find_first_not_of(' ');
  manifest.cpu_model =
      first == std::string::npos ? "unknown" : model.substr(first);
}

void append_json_string(std::string& out, const std::string& value) {
  out += '"';
  for (const char ch : value) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  out += '"';
}

}  // namespace

Manifest make_manifest(std::string git_describe, bool git_dirty,
                       std::uint64_t base_seed) {
  Manifest manifest;
  manifest.git_describe = std::move(git_describe);
  manifest.git_dirty = git_dirty;
  manifest.compiler = PERFBENCH_COMPILER;
  manifest.cxx_flags = PERFBENCH_CXX_FLAGS;
  manifest.build_type = PERFBENCH_BUILD_TYPE;
  read_cpu(manifest);
  manifest.base_seed = base_seed;
  if (const char* env = std::getenv("RXL_TRIAL_WORKERS")) {
    manifest.rxl_trial_workers_env = env;
  }
  return manifest;
}

bool is_release_build(const Manifest& manifest) {
  return manifest.build_type == "Release";
}

std::string manifest_json(const Manifest& manifest) {
  std::string out = "{\"git_describe\":";
  append_json_string(out, manifest.git_describe);
  out += ",\"git_dirty\":";
  out += manifest.git_dirty ? "true" : "false";
  out += ",\"compiler\":";
  append_json_string(out, manifest.compiler);
  out += ",\"cxx_flags\":";
  append_json_string(out, manifest.cxx_flags);
  out += ",\"build_type\":";
  append_json_string(out, manifest.build_type);
  out += ",\"cpu_model\":";
  append_json_string(out, manifest.cpu_model);
  out += ",\"cpu_pclmulqdq\":";
  out += manifest.pclmulqdq ? "true" : "false";
  out += ",\"cpu_avx2\":";
  out += manifest.avx2 ? "true" : "false";
  out += ",\"cpu_gfni\":";
  out += manifest.gfni ? "true" : "false";
  out += ",\"base_seed\":";
  out += std::to_string(manifest.base_seed);
  out += ",\"workers\":";
  out += std::to_string(manifest.workers);
  out += ",\"rxl_trial_workers_env_ignored\":";
  append_json_string(out, manifest.rxl_trial_workers_env);
  out += '}';
  return out;
}

}  // namespace perfbench
