// args.hpp — strict command-line parsing for the benchmark harness.
//
//   lobbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// Every value must parse whole (util::require_int); an unknown flag, an
// unknown workload or a malformed number throws std::invalid_argument
// naming the flag and the offending token.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fingerprint.hpp"
#include "workloads.hpp"

namespace lobbench {

struct Options {
  Workload workload = Workload::DataStream;
  std::uint64_t seed = kDefaultSeed;
  /// Host seconds the run measures for.
  int seconds = 10;
  /// 0: end-to-end metrics; 1: the layer run (per-layer metrics).
  bool trace = false;
};

/// `args` excludes the program name.
Options parse_args(const std::vector<std::string>& args);

}  // namespace lobbench
