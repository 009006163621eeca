// workloads.hpp — the four benchmark workloads and the unit of work they
// run.
//
// A *unit* is one fixed-work batch run a user of the simulator would
// launch: construct the Engine(s), run them to completion, fold the report
// (Monitor breakdown and timelines) and, for the traced workload, read the
// trace back.  A benchmark run executes units with successive sub-seeds
// derived from --seed until its time is up, so every unit is fixed work and
// a run averages over many simulated realisations (the simulated work of a
// single seed varies a lot; see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fingerprint.hpp"
#include "lobsim/campaign.hpp"
#include "lobsim/dispatch_policy.hpp"
#include "util/trace.hpp"

namespace lobbench {

class HostTrace;

enum class Workload { DataStream, McStageout, DataStreamTraced, PolicySweep };

/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
const char* to_string(Workload w);
/// Strict: an unknown name throws std::invalid_argument naming it.
Workload parse_workload(const std::string& name);

/// The scenario parameters a workload runs at, and what the layer probes
/// are sized from.
struct WorkloadShape {
  /// One RunSpec per Engine of a unit (one, or the policy-sweep grid).
  /// Their seed fields are unused: every unit supplies its own.
  std::vector<lobster::lobsim::RunSpec> specs;
  bool traced = false;
  /// Campaign width, at most nproc (policy-sweep only; 0 = the Engine is
  /// driven directly).
  std::size_t jobs = 0;

  // Probe sizing.
  std::size_t slots = 0;            ///< cluster cores = concurrent slots
  double uplink_rate = 0.0;         ///< campus uplink, bytes/s
  double per_stream_rate = 0.0;     ///< per-flow cap, bytes/s
  double stream_bytes = 0.0;        ///< bytes one task streams
  std::vector<lobster::lobsim::DispatchMode> dispatch_modes;
};
WorkloadShape workload_shape(Workload w);

/// Unit i of a run seeded `seed`.  Sub-seed 0 is the seed itself, so the
/// default seed's first unit is the paper scenario's own seed.
std::uint64_t sub_seed(std::uint64_t seed, std::size_t i);

/// Host seconds spent in each phase of one unit.
struct UnitTimes {
  double setup_s = 0.0;     ///< Engine construction
  double run_s = 0.0;       ///< Engine::run / Campaign::run
  double report_s = 0.0;    ///< Monitor breakdown, timelines, diagnosis
  double replay_s = 0.0;    ///< trace read + validate + replay (traced only)
  double teardown_s = 0.0;  ///< Engine destructor
  double wall_s = 0.0;      ///< the whole unit as a user launches it
};

struct UnitResult {
  std::uint64_t seed = 0;
  Fingerprint fingerprint;
  UnitTimes times;
  /// Empty when every correctness check passed.
  std::string error;
  /// Counter plane after the run (summed over a grid's Engines), filled
  /// when counters were requested.
  std::vector<lobster::util::CounterRegistry::Sample> counters;
  /// The written trace (traced workload only).
  std::uint64_t trace_records = 0;
  std::uint64_t trace_bytes = 0;
  /// Policy-sweep layer run: host seconds of the grid run serially.
  double serial_s = 0.0;
};

/// Where runs write their files (trace, results, host trace), relative to
/// the checkout root the benchmark runs from.
inline constexpr const char* kOutDir = ".bench_out";

struct UnitOptions {
  /// Read the counter plane.  The policy-sweep then runs its grid serially
  /// through Engines the benchmark owns (Campaign does not expose them),
  /// which is also where the kernel event count comes from.
  bool counters = false;
  /// Host-time spans around each phase; may be null.
  HostTrace* host_trace = nullptr;
};

/// Run one unit and check its simulated results (see fingerprint.hpp).
UnitResult run_unit(Workload w, std::uint64_t seed, const UnitOptions& opt);

}  // namespace lobbench
