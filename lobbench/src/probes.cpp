#include "probes.hpp"

#include <chrono>
#include <coroutine>
#include <memory>
#include <vector>

#include "core/db.hpp"
#include "des/bandwidth.hpp"
#include "des/event_queue.hpp"
#include "des/simulation.hpp"
#include "lobsim/engine.hpp"
#include "util/rng.hpp"

namespace lobbench {

namespace lobsim = lobster::lobsim;
namespace des = lobster::des;
namespace util = lobster::util;
namespace core = lobster::core;

namespace {

using clock = std::chrono::steady_clock;

volatile double g_sink = 0.0;

/// Call `batch()` (which performs `ops_per_batch` operations) until
/// `budget_s` has passed, at least once.
template <typename Batch>
ProbeResult timed(double budget_s, std::uint64_t ops_per_batch, Batch batch) {
  ProbeResult r;
  const auto t0 = clock::now();
  double elapsed = 0.0;
  do {
    batch();
    r.calls += ops_per_batch;
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  } while (elapsed < budget_s);
  r.ns_per_op = elapsed * 1e9 / static_cast<double>(r.calls);
  return r;
}

des::Process stream_forever(des::BandwidthLink& link, double bytes,
                            double cap, std::uint64_t& completed) {
  for (;;) {
    co_await link.transfer(bytes, cap);
    ++completed;
  }
}

}  // namespace

ProbeResult probe_queue_hold(std::size_t resident, bool far_item,
                             double budget_s) {
  // Increments come from a fixed table so the probe times the queue, not
  // the RNG.
  util::Rng rng(0x401d);
  std::vector<double> incr(4096);
  for (double& d : incr) d = rng.exponential(1.0);
  std::size_t k = 0;

  des::EventQueue q;
  const std::coroutine_handle<> h = std::noop_coroutine();
  for (std::size_t i = 0; i < resident; ++i)
    q.push_resume(incr[k++ % incr.size()], h);
  if (far_item) q.push_resume(1e7, h);
  des::EventQueue::Item item;
  auto hold = [&] {
    q.pop_next(item);
    q.push_resume(item.time + incr[k++ % incr.size()], h);
  };
  // Cycle the resident set once so the queue is in its steady shape.
  for (std::size_t i = 0; i < resident; ++i) hold();
  return timed(budget_s, 64, [&] {
    for (int i = 0; i < 64; ++i) hold();
  });
}

ProbeResult probe_link(const WorkloadShape& shape, double budget_s) {
  des::Simulation sim;
  des::BandwidthLink link(sim, shape.uplink_rate);
  std::uint64_t completed = 0;
  // Stagger the sizes so completions do not coincide.
  for (std::size_t i = 0; i < shape.slots; ++i) {
    const double bytes =
        shape.stream_bytes * (0.5 + static_cast<double>(i) /
                                        static_cast<double>(shape.slots));
    sim.spawn(stream_forever(link, bytes, shape.per_stream_rate, completed));
  }
  sim.run(4 * shape.slots);  // every flow joined
  const std::uint64_t start = completed;
  ProbeResult r;
  const auto t0 = clock::now();
  double elapsed = 0.0;
  do {
    sim.run(1024);
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  } while (elapsed < budget_s || completed == start);
  r.calls = completed - start;
  r.ns_per_op = elapsed * 1e9 / static_cast<double>(r.calls);
  return r;
}

ProbeResult probe_availability(const WorkloadShape& shape, std::uint64_t seed,
                               double budget_s) {
  // One Engine per distinct climate of the workload (the policy-sweep grid
  // repeats each climate once per dispatch mode).
  std::vector<std::unique_ptr<lobsim::Engine>> engines;
  for (std::size_t i = 0; i < shape.specs.size();
       i += shape.dispatch_modes.size()) {
    const auto& spec = shape.specs[i];
    engines.push_back(std::make_unique<lobsim::Engine>(
        spec.cluster, spec.workload, seed, spec.metric_bin_seconds));
  }
  std::size_t e = 0;
  std::uint64_t step = 0;
  return timed(budget_s, 16, [&] {
    const lobsim::SiteManager& sites = engines[e]->site_manager();
    double acc = 0.0;
    // Two simulated days in 3-minute steps.
    for (int i = 0; i < 16; ++i, ++step)
      acc += sites.expected_remaining_lifetime(
          0, 180.0 * static_cast<double>(step % 960));
    g_sink = g_sink + acc;
    e = (e + 1) % engines.size();
  });
}

ProbeResult probe_dispatch(const WorkloadShape& shape, double budget_s) {
  const lobsim::WorkloadParams& wl = shape.specs.front().workload;
  lobsim::DispatchContext ctx;
  ctx.total_slots = shape.slots;
  ctx.tasklet_cpu_mean = wl.tasklet_cpu_mean;
  ctx.expected_remaining_lifetime = 12.0 * 3600.0;
  std::size_t m = 0;
  std::unique_ptr<lobsim::DispatchPolicy> policy;
  auto refill = [&] {
    policy = lobsim::make_dispatch_policy(
        shape.dispatch_modes[m], wl.tasklets_per_task, wl.lifetime_safety,
        wl.lifetime_max_tasklets, wl.steal_min_backlog);
    policy->add_tasklets(wl.num_tasklets);
    policy->partition({shape.slots});
    m = (m + 1) % shape.dispatch_modes.size();
  };
  refill();
  return timed(budget_s, 64, [&] {
    double acc = 0.0;
    for (int i = 0; i < 64; ++i) {
      ctx.now += 1.0;
      const auto task = policy->next(ctx);
      if (task)
        acc += task->n_tasklets;
      else
        refill();
    }
    g_sink = g_sink + acc;
  });
}

ProbeResult probe_trace_span(double budget_s) {
  double now = 0.0;
  util::Tracer tracer;
  tracer.bind_clock(&now);
  std::uint64_t spans = 0;
  return timed(budget_s, 64, [&] {
    // A fresh sink per 4096 spans keeps the in-memory buffer bounded.
    if (spans % 4096 == 0)
      tracer.set_sink(util::make_trace_sink(util::TraceFormat::Jsonl, ""));
    for (int i = 0; i < 64; ++i, ++spans) {
      util::Span span = tracer.span("task", "analysis", spans % 256);
      now += 1.0;
      span.arg("status", 1.0);
      span.arg("exit", 0.0);
      span.arg("tasklets", 6.0);
      span.arg("cpu", 3600.0 + now);
      span.arg("lost", 0.0);
      for (std::size_t s = 0; s < core::kNumSegments; ++s)
        span.arg(core::to_string(static_cast<core::Segment>(s)), 0.5 * now);
      span.end();
    }
  });
}

}  // namespace lobbench
