// lobbench_test — the benchmark's own checks: strict argument parsing, the
// fingerprint gate catching a perturbed result, and every probe reporting a
// non-zero call count.  Plain checks, no test framework:
//
//   ctest --test-dir .bench_build/lobbench
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "args.hpp"
#include "fingerprint.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

using namespace lobbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// parse_args must throw std::invalid_argument whose message names every
/// string in `mentions`.
void expect_rejected(const std::vector<std::string>& args,
                     const std::vector<std::string>& mentions) {
  std::string joined;
  for (const auto& a : args) joined += a + " ";
  try {
    (void)parse_args(args);
    check(false, "accepted: " + joined);
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const auto& m : mentions)
      check(msg.find(m) != std::string::npos,
            "error for '" + joined + "' does not name '" + m + "': " + msg);
  }
}

void test_parse_args() {
  const Options o = parse_args({"--workload", "policy-sweep", "--seed", "7",
                                "--seconds", "12", "--trace", "1"});
  check(o.workload == Workload::PolicySweep, "workload parsed");
  check(o.seed == 7 && o.seconds == 12 && o.trace, "values parsed");
  const Options d = parse_args({"--workload", "data-stream"});
  check(d.seed == kDefaultSeed && !d.trace, "defaults");
  for (const auto& name : workload_names())
    check(to_string(parse_workload(name)) == name, "round trip " + name);

  expect_rejected({"--workload", "data-streem"}, {"--workload", "data-streem"});
  expect_rejected({"--workload", "data-stream", "--seed", "12x"},
                  {"--seed", "12x"});
  expect_rejected({"--workload", "data-stream", "--seed", "-3"},
                  {"--seed", "-3"});
  expect_rejected({"--workload", "data-stream", "--seed", ""}, {"--seed"});
  expect_rejected({"--workload", "data-stream", "--seconds", "0"},
                  {"--seconds", "0"});
  expect_rejected({"--workload", "data-stream", "--trace", "2"},
                  {"--trace", "2"});
  expect_rejected({"--workload", "data-stream", "--seeds", "3"}, {"--seeds"});
  expect_rejected({"--workload", "data-stream", "--seed"}, {"--seed"});
  expect_rejected({"--seed", "3"}, {"--workload"});
}

/// Every field of a pinned fingerprint, perturbed one at a time, must make
/// the pinned check fail — which the harness counts as a failed operation.
void test_perturbed_fingerprint() {
  for (const std::string workload :
       {"data-stream", "mc-stageout", "data-stream-traced", "policy-sweep"}) {
    const Pin* pin = pinned(workload);
    check(pin != nullptr, workload + " is pinned");
    if (!pin) continue;
    const Fingerprint good = pin->first;
    check(check_pinned(workload, kDefaultSeed, {good}).empty(),
          workload + ": the pin passes itself");
    check(check_complete(good).empty(), workload + ": the pin is complete");

    const std::vector<std::function<void(Fingerprint&)>> perturb = {
        [](Fingerprint& f) { ++f.events; },
        [](Fingerprint& f) { ++f.tasks_completed; },
        [](Fingerprint& f) { ++f.tasks_failed; },
        [](Fingerprint& f) { ++f.tasks_evicted; },
        [](Fingerprint& f) { --f.tasklets_processed; },
        [](Fingerprint& f) { ++f.tasklets_retried; },
        [](Fingerprint& f) { f.makespan = std::nextafter(f.makespan, 0.0); },
        [](Fingerprint& f) { f.bytes_streamed += 1.0; },
        [](Fingerprint& f) { f.bytes_staged_out *= 2.0; },
        [](Fingerprint& f) { f.completed = false; },
    };
    for (std::size_t i = 0; i < perturb.size(); ++i) {
      Fingerprint bad = good;
      perturb[i](bad);
      check(!check_pinned(workload, kDefaultSeed, {bad}).empty(),
            workload + ": perturbation " + std::to_string(i) + " detected");
      // The digest over the first units catches it in any later unit too.
      std::vector<Fingerprint> units(kPinnedUnits, good);
      std::vector<Fingerprint> moved = units;
      perturb[i](moved.back());
      if (i != 0)  // events are outside the digest, see fingerprint.hpp
        check(digest(moved) != digest(units),
              workload + ": digest moves with perturbation " +
                  std::to_string(i));
    }
    // Seeds other than the default are not pinned, only checked complete.
    check(check_pinned(workload, kDefaultSeed + 1, {Fingerprint{}}).empty(),
          workload + ": other seeds are not pinned");
    Fingerprint short_run = good;
    --short_run.tasklets_processed;
    check(!check_complete(short_run).empty(),
          workload + ": a missing tasklet fails any seed");
  }
}

void test_probes_call_counts() {
  for (const auto& name : workload_names()) {
    const Workload w = parse_workload(name);
    const WorkloadShape shape = workload_shape(w);
    const double budget = 0.005;
    const ProbeResult results[] = {
        probe_queue_hold(shape.slots, false, budget),
        probe_queue_hold(shape.slots, true, budget),
        probe_link(shape, budget),
        probe_availability(shape, kDefaultSeed, budget),
        probe_dispatch(shape, budget),
        probe_trace_span(budget),
    };
    for (std::size_t i = 0; i < std::size(results); ++i) {
      check(results[i].calls > 0,
            name + ": probe " + std::to_string(i) + " made no calls");
      check(results[i].ns_per_op > 0.0,
            name + ": probe " + std::to_string(i) + " timed nothing");
    }
  }
}

}  // namespace

int main() {
  test_parse_args();
  test_perturbed_fingerprint();
  test_probes_call_counts();
  if (g_failures == 0) std::puts("lobbench_test: all checks passed");
  return g_failures == 0 ? 0 : 1;
}
