// host_trace.hpp — host-time spans recorded by the benchmark around its
// calls into each layer (Engine phases, probes), kept in memory and written
// once at exit as a Chrome trace that Perfetto loads.
//
// These spans come from the benchmark's own code only: they show where the
// benchmark's host time went, phase by phase, not what happens inside the
// simulator.  Each span records the span that was open when it began.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lobbench {

class HostTrace {
 public:
  struct Record {
    std::string name;
    std::string cat;
    double start_us = 0.0;  ///< since the HostTrace was created
    double dur_us = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = top level
  };

  /// RAII scope: the span ends when the scope does.
  class Scope {
   public:
    Scope(HostTrace* trace, std::string cat, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostTrace* trace_;
    std::size_t index_ = 0;
  };

  HostTrace();
  HostTrace(const HostTrace&) = delete;
  HostTrace& operator=(const HostTrace&) = delete;

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Write every span as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  ///< indices of open spans, innermost last
};

}  // namespace lobbench
