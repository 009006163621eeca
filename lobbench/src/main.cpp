// lobbench — the simulator's benchmark harness.
//
//   lobbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// Runs fixed-work units of the workload (sub-seeds derived from --seed)
// until --seconds have passed, checks every unit's simulated results, and
// prints as its last stdout line one JSON object: correct / attempted /
// failed and the metrics.  --trace 0 reports the end-to-end metrics (no
// host-time spans); --trace 1 is the layer run: the counter plane, the
// layer probes, and a Chrome trace of host-time spans written to
// .bench_out/<workload>.host-trace.json.  Exit code 0 only when a result
// was printed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "args.hpp"
#include "fingerprint.hpp"
#include "host_trace.hpp"
#include "probes.hpp"
#include "provenance.hpp"
#include "workloads.hpp"

namespace {

using namespace lobbench;
using clock_type = std::chrono::steady_clock;

double since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

/// Units run so far; `failed` counts units whose checks did not hold.
struct RunLog {
  std::vector<UnitResult> units;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Peak resident memory of the process during each unit.
  std::vector<double> unit_peak_rss_mb;
  /// One JSON row per unit for the results file.
  std::string unit_rows;
};

struct Result {
  RunLog log;
  Metrics metrics;
};

UnitResult attempt(Workload w, std::uint64_t seed, const UnitOptions& opt) {
  try {
    return run_unit(w, seed, opt);
  } catch (const std::exception& e) {
    UnitResult r;
    r.seed = seed;
    r.error = std::string("threw: ") + e.what();
    return r;
  }
}

void record(RunLog& log, UnitResult r, std::size_t index) {
  ++log.attempted;
  char row[256];
  std::snprintf(row, sizeof row,
                "%s{\"seed\": %llu, \"setup_s\": %.9g, \"run_s\": %.9g, "
                "\"wall_s\": %.9g, \"events\": %llu, \"ok\": %s}",
                log.unit_rows.empty() ? "" : ", ",
                static_cast<unsigned long long>(r.seed), r.times.setup_s,
                r.times.run_s, r.times.wall_s,
                static_cast<unsigned long long>(r.fingerprint.events),
                r.error.empty() ? "true" : "false");
  log.unit_rows += row;
  if (!r.error.empty()) {
    ++log.failed;
    std::fprintf(stderr, "lobbench: unit %zu (seed %llu) FAILED: %s\n", index,
                 static_cast<unsigned long long>(r.seed), r.error.c_str());
  }
  log.units.push_back(std::move(r));
}

/// The pinned-fingerprint checks of a default-seed run, on the last unit.
void check_pins(const Options& o, RunLog& log) {
  std::vector<Fingerprint> fps;
  for (const auto& u : log.units) fps.push_back(u.fingerprint);
  const std::string problem =
      check_pinned(to_string(o.workload), o.seed, fps);
  if (problem.empty()) return;
  // What a deliberate re-pin would need.
  std::fprintf(stderr, "lobbench: unit 0 fingerprint %s; digest %lluULL\n",
               to_initializer(fps.front()).c_str(),
               static_cast<unsigned long long>(digest(fps)));
  UnitResult& last = log.units.back();
  if (last.error.empty()) ++log.failed;
  last.error = problem;
}

/// Restart VmHWM at the current RSS (Linux >= 4.0), so the next
/// peak_rss_mb() reads the peak of what ran in between.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out)
    throw std::runtime_error(
        "cannot reset the peak RSS (/proc/self/clear_refs)");
}

/// VmHWM of this process image.  getrusage's ru_maxrss is not used: Linux
/// carries it across execve, so it would report the launching process's
/// peak (run.py's Python interpreter) whenever that was larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Run units until `budget_s` has passed and at least `min_units` ran.
RunLog run_units(const Options& o, double budget_s, std::size_t min_units,
                 const UnitOptions& opt) {
  RunLog log;
  std::optional<Fingerprint> reference;
  if (o.workload == Workload::DataStreamTraced) {
    // Tracing must not change the simulation: the untraced run of the first
    // sub-seed is the reference the traced unit 0 must reproduce.
    UnitOptions plain = opt;
    plain.host_trace = nullptr;
    plain.counters = false;
    const UnitResult r =
        attempt(Workload::DataStream, sub_seed(o.seed, 0), plain);
    ++log.attempted;
    if (r.error.empty())
      reference = r.fingerprint;
    else
      ++log.failed;
  }
  const auto t0 = clock_type::now();
  for (std::size_t i = 0; i < min_units || since(t0) < budget_s; ++i) {
    reset_peak_rss();
    UnitResult r = attempt(o.workload, sub_seed(o.seed, i), opt);
    log.unit_peak_rss_mb.push_back(peak_rss_mb());
    if (i == 0 && reference && r.error.empty()) {
      const std::string d = diff_fingerprint(*reference, r.fingerprint);
      if (!d.empty()) r.error = "traced run differs from untraced: " + d;
    }
    record(log, std::move(r), i);
    check_pins(o, log);
  }
  return log;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename Field>
double mean_of(const RunLog& log, Field f) {
  double sum = 0.0;
  for (const auto& u : log.units) sum += f(u);
  return log.units.empty() ? 0.0 : sum / static_cast<double>(log.units.size());
}

Result end_to_end(const Options& o) {
  Result res{run_units(o, o.seconds, kPinnedUnits, UnitOptions{}), {}};
  const RunLog& log = res.log;
  double tasklets = 0.0, run = 0.0;
  std::vector<double> setups;
  for (const auto& u : log.units) {
    tasklets += static_cast<double>(u.fingerprint.num_tasklets);
    run += u.times.run_s;
    setups.push_back(u.times.setup_s);
  }
  // Every unit is the same fixed work, so means are totals over the run;
  // set-up time and memory are medians, as they are not additive work.
  Metrics& m = res.metrics;
  m["wall_s"] = {mean_of(log, [](const auto& u) { return u.times.wall_s; }),
                 "s"};
  m["setup_s"] = {median(setups), "s"};
  m["run_s"] = {run / static_cast<double>(log.units.size()), "s"};
  m["tasklets_per_s"] = {tasklets / run, "1/s"};
  m["peak_rss_mb"] = {median(log.unit_peak_rss_mb), "MB"};
  return res;
}

double counter(const UnitResult& u, const std::string& name) {
  for (const auto& s : u.counters)
    if (s.name == name) return s.value;
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Result layer(const Options& o) {
  HostTrace ht;
  UnitOptions opt;
  opt.counters = true;
  opt.host_trace = &ht;
  const WorkloadShape shape = workload_shape(o.workload);
  const auto t0 = clock_type::now();
  Result res;
  {
    HostTrace::Scope s(&ht, "bench", "units");
    res.log = run_units(o, 0.5 * o.seconds, 1, opt);
  }
  const RunLog& log = res.log;
  const UnitResult& first = log.units.front();
  Metrics& m = res.metrics;
  const double events = static_cast<double>(first.fingerprint.events);
  m["des.events"] = {events, "count"};
  // Host time of the kernels' serial runs (the policy-sweep's serial pass;
  // its Campaign run is parallel) over all units.
  double serial_s = 0.0, all_events = 0.0;
  for (const auto& u : log.units) {
    serial_s +=
        o.workload == Workload::PolicySweep ? u.serial_s : u.times.run_s;
    all_events += static_cast<double>(u.fingerprint.events);
  }
  m["des.ns_per_event"] = {ratio(serial_s * 1e9, all_events), "ns"};
  const double dispatched = counter(first, "lobsim.engine.tasks_dispatched");
  m["lobsim.dispatch.tasks"] = {dispatched, "count"};
  m["lobsim.dispatch.useful_frac"] = {
      ratio(counter(first, "lobsim.engine.tasks_completed"), dispatched),
      "ratio"};
  m["lobsim.engine.tasklets_retried"] = {
      counter(first, "lobsim.engine.tasklets_retried"), "count"};
  m["lobsim.engine.teardown_s"] = {
      mean_of(log, [](const auto& u) { return u.times.teardown_s; }), "s"};
  m["lobsim.campaign.parallel_eff"] = {
      o.workload == Workload::PolicySweep
          ? ratio(first.serial_s,
                  static_cast<double>(shape.jobs) * first.times.run_s)
          : 0.0,
      "ratio"};
  m["xrootd.streams"] = {counter(first, "xrootd.federation.streams"), "count"};
  m["xrootd.failed_opens"] = {counter(first, "xrootd.federation.failed_opens"),
                              "count"};
  m["xrootd.bytes_streamed"] = {
      counter(first, "xrootd.federation.bytes_streamed"), "B"};
  const double requests = counter(first, "cvmfs.squid.requests");
  m["cvmfs.squid.requests"] = {requests, "count"};
  m["cvmfs.squid.hit_frac"] = {
      ratio(counter(first, "cvmfs.squid.hits"), requests), "ratio"};
  m["cvmfs.squid.timeouts"] = {counter(first, "cvmfs.squid.timeouts"),
                               "count"};
  m["chirp.puts"] = {counter(first, "chirp.sim.puts"), "count"};
  m["chirp.bytes_in"] = {counter(first, "chirp.sim.bytes_in"), "B"};
  m["core.monitor.report_s"] = {
      mean_of(log, [](const auto& u) { return u.times.report_s; }), "s"};
  m["core.replay_s"] = {
      mean_of(log, [](const auto& u) { return u.times.replay_s; }), "s"};
  m["util.trace.records"] = {static_cast<double>(first.trace_records),
                             "count"};
  m["util.trace.bytes"] = {static_cast<double>(first.trace_bytes), "B"};

  // The probes share what is left of the run's time.
  const bool traced = o.workload == Workload::DataStreamTraced;
  const int probes = traced ? 6 : 5;
  const double budget =
      std::max(0.2, (o.seconds - since(t0)) / static_cast<double>(probes));
  auto put = [&m](const std::string& base, const char* ns_name,
                  const char* calls_name, const ProbeResult& r) {
    m[base + "." + ns_name] = {r.ns_per_op, "ns"};
    m[base + "." + calls_name] = {static_cast<double>(r.calls), "count"};
  };
  ProbeResult near, far;
  {
    HostTrace::Scope s(&ht, "probe", "des.queue.hold");
    near = probe_queue_hold(shape.slots, false, budget);
  }
  {
    HostTrace::Scope s(&ht, "probe", "des.queue.hold_far");
    far = probe_queue_hold(shape.slots, true, budget);
  }
  put("des.queue", "hold_ns", "hold_calls", near);
  put("des.queue", "hold_far_ns", "hold_far_calls", far);
  m["des.queue.far_penalty"] = {ratio(far.ns_per_op, near.ns_per_op),
                                "ratio"};
  {
    HostTrace::Scope s(&ht, "probe", "des.link.flow");
    put("des.link", "flow_ns", "flow_calls", probe_link(shape, budget));
  }
  {
    HostTrace::Scope s(&ht, "probe", "lobsim.availability.query");
    put("lobsim.availability", "query_ns", "query_calls",
        probe_availability(shape, sub_seed(o.seed, 0), budget));
  }
  {
    HostTrace::Scope s(&ht, "probe", "lobsim.dispatch.next");
    put("lobsim.dispatch", "next_ns", "next_calls",
        probe_dispatch(shape, budget));
  }
  ProbeResult span;
  if (traced) {
    HostTrace::Scope s(&ht, "probe", "util.trace.span");
    span = probe_trace_span(budget);
  }
  put("util.trace", "span_ns", "span_calls", span);

  const std::string path = std::string(kOutDir) + "/" +
                           to_string(o.workload) + ".host-trace.json";
  if (!ht.write_chrome(path))
    throw std::runtime_error("cannot write host trace " + path);
  return res;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The result line: correct / attempted / failed and every metric.
std::string result_json(const Result& r) {
  std::string out = std::string("{\"correct\": ") +
                    (r.log.failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.log.attempted) +
                    ", \"failed\": " + std::to_string(r.log.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
           number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_args(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lobbench: error: %s\n", e.what());
    return 2;
  }
  const Provenance prov = provenance(o.seed);
  if (!prov.optimized)
    std::fprintf(stderr,
                 "lobbench: WARNING: unoptimised %s build; its timings are "
                 "not comparable\n",
                 prov.build_type.c_str());
  try {
    std::filesystem::create_directories(kOutDir);
    const Result r = o.trace ? layer(o) : end_to_end(o);
    const std::string result = result_json(r);
    const std::string path = std::string(kOutDir) + "/" +
                             to_string(o.workload) + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0") + ".json";
    std::ofstream(path) << "{\"provenance\": " << to_json(prov)
                        << ", \"units\": [" << r.log.unit_rows
                        << "], \"result\": " << result << "}\n";
    std::printf("provenance: %s\n%s\n", to_json(prov).c_str(), result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lobbench: error: %s\n", e.what());
    return 1;
  }
}
