// provenance.hpp — where and how a result was measured.
#pragma once

#include <cstdint>
#include <string>

namespace lobbench {

struct Provenance {
  std::string compiler;    ///< id and version the harness was built with
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  bool optimized = false;  ///< false for a Debug or -O0 build: not comparable
  std::string cpu_model;   ///< /proc/cpuinfo "model name"
  unsigned nproc = 0;
  /// `git describe` of the measured tree, passed in by run.py through
  /// LOBBENCH_GIT_DESCRIBE ("unknown" outside a git checkout).
  std::string git_describe;
  std::uint64_t seed = 0;
};

Provenance provenance(std::uint64_t seed);

/// One JSON object.
std::string to_json(const Provenance& p);

}  // namespace lobbench
