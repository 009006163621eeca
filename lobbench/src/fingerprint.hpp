// fingerprint.hpp — the simulated results a benchmark run must reproduce.
//
// A simulator speed-up must leave every simulated statistic identical, so
// each unit's fingerprint is checked: for any seed the workflow must
// complete with every tasklet processed, and for the default seed the
// fingerprints are pinned (the first unit field by field, the first
// kPinnedUnits units as one digest).  A unit that fails a check counts as a
// failed operation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lobbench {

/// The seed a run uses unless --seed says otherwise; the pins below hold
/// for it.
inline constexpr std::uint64_t kDefaultSeed = 2015;
/// Units of a default-seed run covered by the pinned digest (every run
/// executes at least this many).
inline constexpr std::size_t kPinnedUnits = 4;

struct Fingerprint {
  /// Kernel events executed.  Campaign runs do not expose their kernels, so
  /// the policy-sweep knows it only in the layer run (see has_events).
  std::uint64_t events = 0;
  bool has_events = true;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t tasks_evicted = 0;
  std::uint64_t tasklets_processed = 0;
  std::uint64_t tasklets_retried = 0;
  double makespan = 0.0;
  double bytes_streamed = 0.0;
  double bytes_staged_out = 0.0;
  /// Every Engine of the unit finished its workflow (no time-cap cut).
  bool completed = false;
  /// The fixed work the unit was given (sum over a grid's Engines).
  std::uint64_t num_tasklets = 0;
};

/// Field-by-field comparison; "" when equal, else the first difference.
/// Events are compared only when both sides know them.
std::string diff_fingerprint(const Fingerprint& expected,
                             const Fingerprint& got);

/// The checks every seed must pass: completed, and tasklets_processed ==
/// num_tasklets.  "" when they hold.
std::string check_complete(const Fingerprint& fp);

/// FNV-1a over the fields diff_fingerprint compares (events excluded, so
/// the Campaign and layer paths of the policy-sweep share one digest).
std::uint64_t digest(const std::vector<Fingerprint>& fps);

/// Pinned default-seed results of a workload (by name; the traced workload
/// pins the untraced data-stream values, because tracing must not change
/// the simulation).
struct Pin {
  Fingerprint first;          ///< unit 0 (seed kDefaultSeed itself)
  std::uint64_t digest = 0;   ///< digest() of units 0..kPinnedUnits-1
};
/// Null for an unknown name.
const Pin* pinned(const std::string& workload);

/// The pinned checks that apply to the last of `units` (the fingerprints of
/// units 0..i of one run, in order): unit 0 against the pin, and units
/// 0..kPinnedUnits-1 against the pinned digest.  Only a default-seed run is
/// pinned.  "" when the checks hold or none applies.
std::string check_pinned(const std::string& workload, std::uint64_t run_seed,
                         const std::vector<Fingerprint>& units);

/// One line of C++ initialiser for `fp` (used to regenerate the pins).
std::string to_initializer(const Fingerprint& fp);

}  // namespace lobbench
