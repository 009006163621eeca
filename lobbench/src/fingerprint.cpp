#include "fingerprint.hpp"

#include <cstdio>
#include <cstring>
#include <map>

namespace lobbench {

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

std::string dbl(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
void diff_field(std::string& out, const char* name, const T& want,
                const T& got, std::string (*fmt)(T)) {
  if (out.empty() && !(want == got))
    out = std::string(name) + " " + fmt(got) + " != pinned " + fmt(want);
}

std::string boolean(bool v) { return v ? "true" : "false"; }

}  // namespace

std::string diff_fingerprint(const Fingerprint& e, const Fingerprint& g) {
  std::string out;
  if (e.has_events && g.has_events)
    diff_field(out, "events", e.events, g.events, u64);
  diff_field(out, "tasks_completed", e.tasks_completed, g.tasks_completed, u64);
  diff_field(out, "tasks_failed", e.tasks_failed, g.tasks_failed, u64);
  diff_field(out, "tasks_evicted", e.tasks_evicted, g.tasks_evicted, u64);
  diff_field(out, "tasklets_processed", e.tasklets_processed,
             g.tasklets_processed, u64);
  diff_field(out, "tasklets_retried", e.tasklets_retried, g.tasklets_retried,
             u64);
  // Bitwise: a speed-up must not move a single ulp.
  diff_field(out, "makespan", e.makespan, g.makespan, dbl);
  diff_field(out, "bytes_streamed", e.bytes_streamed, g.bytes_streamed, dbl);
  diff_field(out, "bytes_staged_out", e.bytes_staged_out, g.bytes_staged_out,
             dbl);
  diff_field(out, "completed", e.completed, g.completed, boolean);
  diff_field(out, "num_tasklets", e.num_tasklets, g.num_tasklets, u64);
  return out;
}

std::string check_complete(const Fingerprint& fp) {
  if (!fp.completed) return "workflow did not complete (time cap or stall)";
  if (fp.tasklets_processed != fp.num_tasklets)
    return "processed " + u64(fp.tasklets_processed) + " of " +
           u64(fp.num_tasklets) + " tasklets";
  return "";
}

std::uint64_t digest(const std::vector<Fingerprint>& fps) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const Fingerprint& fp : fps) {
    for (std::uint64_t v :
         {fp.tasks_completed, fp.tasks_failed, fp.tasks_evicted,
          fp.tasklets_processed, fp.tasklets_retried, fp.num_tasklets,
          static_cast<std::uint64_t>(fp.completed)})
      mix(&v, sizeof v);
    for (double v : {fp.makespan, fp.bytes_streamed, fp.bytes_staged_out}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      mix(&bits, sizeof bits);
    }
  }
  return h;
}

std::string to_initializer(const Fingerprint& fp) {
  std::string out = "{";
  for (const std::string& field :
       {u64(fp.events) + "ULL", boolean(fp.has_events),
        u64(fp.tasks_completed), u64(fp.tasks_failed), u64(fp.tasks_evicted),
        u64(fp.tasklets_processed), u64(fp.tasklets_retried),
        dbl(fp.makespan), dbl(fp.bytes_streamed), dbl(fp.bytes_staged_out),
        boolean(fp.completed), u64(fp.num_tasklets)}) {
    if (out.size() > 1) out += ", ";
    out += field;
  }
  return out + "}";
}

const Pin* pinned(const std::string& workload) {
  // Measured at the commit that introduced the benchmark (seed 2015).  A
  // mismatching run prints the values it got in this form on stderr; re-pin
  // only in a change that is meant to alter simulated results, and say so.
  static const std::map<std::string, Pin> pins = {
      {"data-stream",
       {{36552ULL, true, 1000, 96, 107, 6000, 1158, 61755.341573184873,
         723340800000.00012, 240000000000, true, 6000},
        4427077551112020332ULL}},
      {"mc-stageout",
       {{84473ULL, true, 3000, 0, 564, 3000, 511, 605502.1247387653,
         136480000000, 1668750000000, true, 3000},
        5199540813781036245ULL}},
      {"policy-sweep",
       {{386449ULL, true, 10380, 0, 1902, 36000, 8736, 157210.83309108205,
         1342080000000, 1083150000000, true, 36000},
        2220717020701067211ULL}},
  };
  const std::string key =
      workload == "data-stream-traced" ? "data-stream" : workload;
  const auto it = pins.find(key);
  return it == pins.end() ? nullptr : &it->second;
}

}  // namespace lobbench

namespace lobbench {

std::string check_pinned(const std::string& workload, std::uint64_t run_seed,
                         const std::vector<Fingerprint>& units) {
  const Pin* pin = pinned(workload);
  if (run_seed != kDefaultSeed || !pin || units.empty()) return "";
  if (units.size() == 1) {
    const std::string d = diff_fingerprint(pin->first, units.front());
    return d.empty() ? "" : "pinned fingerprint: " + d;
  }
  if (units.size() == kPinnedUnits && digest(units) != pin->digest)
    return "digest of units 0.." + std::to_string(kPinnedUnits - 1) +
           " differs from the pin";
  return "";
}

}  // namespace lobbench
