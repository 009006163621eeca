#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "host_trace.hpp"
#include "core/trace_replay.hpp"
#include "lobsim/scenarios.hpp"

namespace lobbench {

namespace lobsim = lobster::lobsim;
namespace core = lobster::core;
namespace util = lobster::util;

namespace {

// Scale of each workload.  The paper runs (10k and 20k cores) take minutes
// per Engine at the commit that introduced the benchmark; these sizes keep
// one unit near a second there, so a run averages over many seeds, while
// the shared bottlenecks scale with the core count exactly as
// `fig10 --cores` / `fig11 --cores` scale them, so the same physics binds.
constexpr std::size_t kDataCores = 128;
constexpr std::uint64_t kDataTasklets = 6000;
constexpr std::size_t kMcCores = 64;
constexpr std::uint64_t kMcTasklets = 3000;
// The fig03_dispatch_policies grid as the figure runs it.
constexpr std::size_t kSweepCores = 256;
constexpr std::uint64_t kSweepTasklets = 3000;
constexpr std::size_t kSweepJobs = 4;

const std::vector<std::string> kNames = {"data-stream", "mc-stageout",
                                         "data-stream-traced", "policy-sweep"};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

lobsim::RunSpec data_stream_spec() {
  auto s = lobsim::data_processing_scenario();
  const double f = static_cast<double>(kDataCores) /
                   static_cast<double>(s.cluster.target_cores);
  s.cluster.target_cores = kDataCores;
  s.cluster.federation.campus_uplink_rate *= f;
  s.cluster.squid.max_connections = std::max<std::int64_t>(
      64, static_cast<std::int64_t>(
              static_cast<double>(s.cluster.squid.max_connections) * f));
  s.workload.num_tasklets = kDataTasklets;
  lobsim::RunSpec spec;
  spec.label = "data-stream";
  spec.cluster = s.cluster;
  spec.workload = s.workload;
  spec.outage_start = s.outage_start;
  spec.outage_duration = s.outage_duration;
  spec.time_cap = 10.0 * 86400.0;  // what fig10 runs with
  return spec;
}

lobsim::RunSpec mc_stageout_spec() {
  auto s = lobsim::simulation_run_scenario();
  const double f = static_cast<double>(kMcCores) /
                   static_cast<double>(s.cluster.target_cores);
  s.cluster.target_cores = kMcCores;
  s.cluster.federation.campus_uplink_rate *= f;
  s.cluster.squid.service_rate *= f;
  s.cluster.squid.upstream_rate *= f;
  s.cluster.squid.max_connections = std::max<std::int64_t>(
      32, static_cast<std::int64_t>(
              static_cast<double>(s.cluster.squid.max_connections) * f));
  s.cluster.chirp.nic_rate *= f;
  s.workload.num_tasklets = kMcTasklets;
  lobsim::RunSpec spec;
  spec.label = "mc-stageout";
  spec.cluster = s.cluster;
  spec.workload = s.workload;
  spec.time_cap = 10.0 * 86400.0;  // what fig11 runs with
  return spec;
}

const std::vector<lobsim::DispatchMode> kSweepModes = {
    lobsim::DispatchMode::Fifo, lobsim::DispatchMode::TailShrink,
    lobsim::DispatchMode::SiteAware, lobsim::DispatchMode::Lifetime};

/// The fig03_dispatch_policies grid: dispatch policy x availability
/// climate, climates outer as the figure submits them.
std::vector<lobsim::RunSpec> policy_sweep_specs() {
  lobsim::RunSpec base;
  base.cluster.target_cores = kSweepCores;
  base.cluster.cores_per_worker = 8;
  base.cluster.ramp_seconds = 900.0;
  base.cluster.evictions = true;
  base.workload.num_tasklets = kSweepTasklets;
  base.workload.tasklets_per_task = 6;
  base.workload.tasklet_cpu_mean = 600.0;
  base.workload.tasklet_cpu_sigma = 300.0;
  base.workload.tasklet_input_bytes = 100e6;
  base.workload.tasklet_output_bytes = 15e6;
  base.workload.merge_mode = core::MergeMode::Interleaved;
  base.workload.merge_policy.target_bytes = 3.5e9;
  base.time_cap = 30.0 * 86400.0;

  lobsim::AvailabilityConfig weibull;
  lobsim::AvailabilityConfig diurnal;
  diurnal.kind = lobsim::AvailabilityKind::Diurnal;
  diurnal.diurnal_amplitude = 0.7;
  diurnal.diurnal_peak_hour = 14.0;
  lobsim::AvailabilityConfig burst;
  burst.kind = lobsim::AvailabilityKind::AdversarialBurst;
  burst.burst_period_hours = 2.0;
  burst.burst_fraction = 0.7;
  const std::pair<const char*, lobsim::AvailabilityConfig> climates[] = {
      {"weibull", weibull}, {"diurnal", diurnal}, {"adversarial-burst", burst}};

  std::vector<lobsim::RunSpec> specs;
  for (const auto& [name, config] : climates)
    for (const auto mode : kSweepModes) {
      lobsim::RunSpec spec = base;
      spec.cluster.availability = config;
      spec.workload.dispatch = mode;
      spec.label = std::string(name) + "/" + lobsim::to_string(mode);
      specs.push_back(std::move(spec));
    }
  return specs;
}

Fingerprint fingerprint_of(const lobsim::EngineMetrics& m,
                           std::uint64_t events, std::uint64_t num_tasklets) {
  Fingerprint fp;
  fp.events = events;
  fp.tasks_completed = m.tasks_completed;
  fp.tasks_failed = m.tasks_failed;
  fp.tasks_evicted = m.tasks_evicted;
  fp.tasklets_processed = m.tasklets_processed;
  fp.tasklets_retried = m.tasklets_retried;
  fp.makespan = m.makespan;
  fp.bytes_streamed = m.bytes_streamed;
  fp.bytes_staged_out = m.bytes_staged_out;
  fp.completed = m.completed;
  fp.num_tasklets = num_tasklets;
  return fp;
}

Fingerprint fingerprint_of(const lobsim::RunStats& s,
                           std::uint64_t num_tasklets) {
  Fingerprint fp;
  fp.has_events = false;
  fp.tasks_completed = s.tasks_completed;
  fp.tasks_failed = s.tasks_failed;
  fp.tasks_evicted = s.tasks_evicted;
  fp.tasklets_processed = s.tasklets_processed;
  fp.tasklets_retried = s.tasklets_retried;
  fp.makespan = s.makespan;
  fp.bytes_streamed = s.bytes_streamed;
  fp.bytes_staged_out = s.bytes_staged_out;
  fp.completed = s.completed;
  fp.num_tasklets = num_tasklets;
  return fp;
}

/// Fold one Engine's fingerprint into a grid's, in submission order.  A
/// grid's fold starts from a fingerprint with `completed` set.
void accumulate(Fingerprint& acc, const Fingerprint& one) {
  acc.has_events = acc.has_events && one.has_events;
  acc.events += one.events;
  acc.tasks_completed += one.tasks_completed;
  acc.tasks_failed += one.tasks_failed;
  acc.tasks_evicted += one.tasks_evicted;
  acc.tasklets_processed += one.tasklets_processed;
  acc.tasklets_retried += one.tasklets_retried;
  acc.makespan += one.makespan;
  acc.bytes_streamed += one.bytes_streamed;
  acc.bytes_staged_out += one.bytes_staged_out;
  acc.completed = acc.completed && one.completed;
  acc.num_tasklets += one.num_tasklets;
}

void add_counters(std::vector<util::CounterRegistry::Sample>& acc,
                  const std::vector<util::CounterRegistry::Sample>& more) {
  for (const auto& s : more) {
    auto it = std::find_if(acc.begin(), acc.end(),
                           [&](const auto& a) { return a.name == s.name; });
    if (it == acc.end())
      acc.push_back(s);
    else
      it->value += s.value;
  }
}

/// What a user reads after a run: the Figure 8 breakdown, the Figure 10/11
/// timelines and the §5 diagnosis.  Returns a value derived from all of it
/// so the fold cannot be optimised away.
double report_fold(const core::Monitor& mon) {
  const core::RuntimeBreakdown b = mon.breakdown();
  double acc = b.total();
  for (double v : mon.efficiency_timeline()) acc += v;
  for (double v : mon.setup_time_timeline()) acc += v;
  for (double v : mon.stageout_time_timeline()) acc += v;
  for (std::size_t i = 0; i < mon.running_timeline().nbins(); ++i)
    acc += mon.running_timeline().mean_level(i);
  acc += static_cast<double>(mon.diagnose().size());
  return acc;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Replayed Figure 8 breakdown against the live one, bit for bit.
std::string diff_breakdown(const core::RuntimeBreakdown& live,
                           const core::RuntimeBreakdown& replayed) {
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"cpu", {live.cpu, replayed.cpu}},
      {"io", {live.io, replayed.io}},
      {"failed", {live.failed, replayed.failed}},
      {"hard_failed", {live.hard_failed, replayed.hard_failed}},
      {"stage_in", {live.stage_in, replayed.stage_in}},
      {"stage_out", {live.stage_out, replayed.stage_out}},
      {"other", {live.other, replayed.other}}};
  for (const auto& [name, v] : fields)
    if (!same_bits(v.first, v.second))
      return std::string("replayed breakdown.") + name + " differs from live";
  return "";
}

volatile double g_sink = 0.0;

UnitResult run_engine_unit(Workload w, const WorkloadShape& shape,
                           std::uint64_t seed, const UnitOptions& opt) {
  using clock = std::chrono::steady_clock;
  const lobsim::RunSpec& spec = shape.specs.front();
  HostTrace* ht = opt.host_trace;
  UnitResult r;
  r.seed = seed;
  const std::string trace_path =
      std::string(kOutDir) + "/" + to_string(w) + ".trace.jsonl";

  HostTrace::Scope unit_span(ht, "unit", to_string(w));
  const auto t0 = clock::now();
  std::unique_ptr<lobsim::Engine> engine;
  {
    HostTrace::Scope s(ht, "lobsim", "setup");
    engine = std::make_unique<lobsim::Engine>(spec.cluster, spec.workload,
                                              seed, spec.metric_bin_seconds);
    if (shape.traced) engine->enable_tracing(trace_path);
    if (spec.outage_start > 0.0 && spec.outage_duration > 0.0)
      engine->schedule_outage(spec.outage_start, spec.outage_duration);
  }
  r.times.setup_s = seconds_since(t0);
  const auto t1 = clock::now();
  {
    HostTrace::Scope s(ht, "lobsim", "run");
    engine->run(spec.time_cap);
  }
  r.times.run_s = seconds_since(t1);
  const auto t2 = clock::now();
  {
    HostTrace::Scope s(ht, "core", "report");
    g_sink = g_sink + report_fold(engine->metrics().monitor);
  }
  r.times.report_s = seconds_since(t2);

  r.fingerprint = fingerprint_of(engine->metrics(),
                                 engine->sim().events_executed(),
                                 spec.workload.num_tasklets);
  if (opt.counters) r.counters = engine->sim().counters().snapshot();

  if (shape.traced) {
    const auto t3 = clock::now();
    HostTrace::Scope s(ht, "core", "replay");
    // What `lobster_report --trace` does with the file.
    const auto events = util::read_trace_jsonl(trace_path);
    const std::string problem = util::validate_trace(events);
    const core::TraceReplay replay = core::replay_trace(events);
    core::Monitor monitor(spec.metric_bin_seconds);
    for (const auto& rec : replay.records) monitor.on_task_finished(rec);
    if (!problem.empty())
      r.error = "invalid trace: " + problem;
    else
      r.error = diff_breakdown(engine->metrics().monitor.breakdown(),
                               monitor.breakdown());
    r.trace_records = events.size();
    r.trace_bytes = std::filesystem::file_size(trace_path);
    r.times.replay_s = seconds_since(t3);
  }
  const auto t4 = clock::now();
  {
    HostTrace::Scope s(ht, "lobsim", "teardown");
    engine.reset();
  }
  r.times.teardown_s = seconds_since(t4);
  r.times.wall_s = seconds_since(t0);
  return r;
}

UnitResult run_sweep_unit(const WorkloadShape& shape, std::uint64_t seed,
                          const UnitOptions& opt) {
  using clock = std::chrono::steady_clock;
  HostTrace* ht = opt.host_trace;
  UnitResult r;
  r.seed = seed;
  HostTrace::Scope unit_span(ht, "unit", "policy-sweep");

  // Campaign builds its Engines inside run(), out of reach of a timer, so
  // set-up is measured on the side: the same grid of Engines, constructed
  // and destroyed on this thread.
  {
    std::vector<std::unique_ptr<lobsim::Engine>> engines;
    const auto t0 = clock::now();
    {
      HostTrace::Scope s(ht, "lobsim", "setup");
      for (const auto& spec : shape.specs)
        engines.push_back(std::make_unique<lobsim::Engine>(
            spec.cluster, spec.workload, seed, spec.metric_bin_seconds));
    }
    r.times.setup_s = seconds_since(t0);
    const auto t1 = clock::now();
    {
      HostTrace::Scope s(ht, "lobsim", "teardown");
      engines.clear();
    }
    r.times.teardown_s = seconds_since(t1);
  }

  const auto t0 = clock::now();
  lobsim::Campaign campaign(shape.jobs);
  campaign.add_grid(shape.specs, {seed});
  const auto t1 = clock::now();
  {
    HostTrace::Scope s(ht, "lobsim", "campaign.run");
    campaign.run();
  }
  r.times.run_s = seconds_since(t1);
  const auto t2 = clock::now();
  {
    HostTrace::Scope s(ht, "core", "report");
    double acc = 0.0;
    for (const auto& agg : campaign.aggregate())
      acc += agg.makespan.mean() + agg.tasks_evicted.mean() +
             agg.tasklets_retried.mean();
    for (const auto& res : campaign.results()) {
      const double total = res.stats.breakdown.total();
      acc += total > 0.0 ? res.stats.breakdown.cpu / total : 0.0;
    }
    g_sink = g_sink + acc;
  }
  r.times.report_s = seconds_since(t2);
  r.times.wall_s = seconds_since(t0);

  r.fingerprint.completed = true;
  for (std::size_t i = 0; i < campaign.results().size(); ++i) {
    const auto& res = campaign.results()[i];
    if (!res.ok()) {
      r.error = res.label + " threw: " + res.error;
      return r;
    }
    accumulate(r.fingerprint,
               fingerprint_of(res.stats, shape.specs[i].workload.num_tasklets));
  }

  if (opt.counters) {
    // The serial pass: the same grid through Engines the benchmark owns,
    // for the counter plane, the kernel event count, and the serial host
    // time the Campaign's parallel efficiency is measured against.
    HostTrace::Scope s(ht, "lobsim", "serial-pass");
    Fingerprint serial;
    serial.completed = true;
    double serial_s = 0.0;
    for (const auto& spec : shape.specs) {
      const auto ts = clock::now();
      lobsim::Engine engine(spec.cluster, spec.workload, seed,
                            spec.metric_bin_seconds);
      engine.run(spec.time_cap);
      accumulate(serial,
                 fingerprint_of(engine.metrics(),
                                engine.sim().events_executed(),
                                spec.workload.num_tasklets));
      add_counters(r.counters, engine.sim().counters().snapshot());
      serial_s += seconds_since(ts);
    }
    r.serial_s = serial_s;
    const std::string d = diff_fingerprint(serial, r.fingerprint);
    if (!d.empty()) r.error = "serial pass differs from the Campaign: " + d;
    r.fingerprint = serial;
  }
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() { return kNames; }

const char* to_string(Workload w) {
  return kNames.at(static_cast<std::size_t>(w)).c_str();
}

Workload parse_workload(const std::string& name) {
  for (std::size_t i = 0; i < kNames.size(); ++i)
    if (kNames[i] == name) return static_cast<Workload>(i);
  std::string known;
  for (const auto& n : kNames) known += (known.empty() ? "" : ", ") + n;
  throw std::invalid_argument("--workload: unknown workload '" + name +
                              "' (known: " + known + ")");
}

WorkloadShape workload_shape(Workload w) {
  WorkloadShape shape;
  switch (w) {
    case Workload::DataStream:
    case Workload::DataStreamTraced:
      shape.specs = {data_stream_spec()};
      shape.traced = w == Workload::DataStreamTraced;
      shape.dispatch_modes = {lobsim::DispatchMode::Fifo};
      break;
    case Workload::McStageout:
      shape.specs = {mc_stageout_spec()};
      shape.dispatch_modes = {lobsim::DispatchMode::Fifo};
      break;
    case Workload::PolicySweep:
      shape.specs = policy_sweep_specs();
      shape.jobs = std::clamp<std::size_t>(
          std::thread::hardware_concurrency(), 1, kSweepJobs);
      shape.dispatch_modes = kSweepModes;
      break;
  }
  const lobsim::RunSpec& spec = shape.specs.front();
  shape.slots = spec.cluster.target_cores;
  shape.uplink_rate = spec.cluster.federation.campus_uplink_rate;
  shape.per_stream_rate = spec.cluster.federation.per_stream_rate;
  shape.stream_bytes = static_cast<double>(spec.workload.tasklets_per_task) *
                       (spec.workload.tasklet_input_bytes *
                            spec.workload.read_fraction +
                        spec.workload.pileup_bytes);
  return shape;
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t i) {
  // A prime stride keeps the sub-seeds of nearby --seed values disjoint.
  return seed + 1000003ULL * static_cast<std::uint64_t>(i);
}

UnitResult run_unit(Workload w, std::uint64_t seed, const UnitOptions& opt) {
  const WorkloadShape shape = workload_shape(w);
  UnitResult r = w == Workload::PolicySweep
                     ? run_sweep_unit(shape, seed, opt)
                     : run_engine_unit(w, shape, seed, opt);
  if (r.error.empty()) r.error = check_complete(r.fingerprint);
  return r;
}

}  // namespace lobbench
