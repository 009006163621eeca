// probes.hpp — timed calls into one layer's public functions, sized from a
// workload's parameters.
//
// Each probe repeats its operation until its host-time budget is spent and
// reports ns per operation with the number of calls it made, so a layer
// number always comes with its sample size.  Ratios taken within one
// process (des.queue.far_penalty) carry across machines where absolute
// nanoseconds do not.
#pragma once

#include <cstdint>

#include "workloads.hpp"

namespace lobbench {

struct ProbeResult {
  double ns_per_op = 0.0;
  std::uint64_t calls = 0;
};

/// des::EventQueue hold model: `resident` pending items, each pop followed
/// by a push at the popped time plus an exp(1) increment.  With
/// `far_item`, one extra item sits at t = 1e7 for the whole probe, the way
/// a worker death or the run's time cap does.  ns per pop+push pair.
ProbeResult probe_queue_hold(std::size_t resident, bool far_item,
                             double budget_s);

/// A standalone des::BandwidthLink with the workload's uplink capacity and
/// per-stream cap, kept at `shape.slots` concurrent flows (one stream per
/// slot, the peak a run can reach).  ns per completed flow.
ProbeResult probe_link(const WorkloadShape& shape, double budget_s);

/// SiteManager::expected_remaining_lifetime on a freshly built Engine of
/// each of the workload's climates, over a sweep of simulated times.  ns per
/// query.
ProbeResult probe_availability(const WorkloadShape& shape, std::uint64_t seed,
                               double budget_s);

/// A fresh make_dispatch_policy(...) per workload dispatch mode, loaded
/// with the workload's tasklets and drained by next(ctx).  ns per next().
ProbeResult probe_dispatch(const WorkloadShape& shape, double budget_s);

/// util::Tracer with an in-memory JSONL sink, emitting the Engine's task
/// span shape (begin, status/exit/tasklets/cpu/lost and one arg per
/// segment on the end event).  ns per span.
ProbeResult probe_trace_span(double budget_s);

}  // namespace lobbench
