#include "host_trace.hpp"

#include <cstdio>
#include <fstream>

namespace lobbench {

HostTrace::HostTrace() : origin_(std::chrono::steady_clock::now()) {}

double HostTrace::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

HostTrace::Scope::Scope(HostTrace* trace, std::string cat, std::string name)
    : trace_(trace) {
  if (!trace_) return;
  Record r;
  r.name = std::move(name);
  r.cat = std::move(cat);
  r.id = trace_->records_.size() + 1;
  r.parent =
      trace_->open_.empty() ? 0 : trace_->records_[trace_->open_.back()].id;
  index_ = trace_->records_.size();
  trace_->records_.push_back(std::move(r));
  trace_->open_.push_back(index_);
  // Start last, so the bookkeeping above is not charged to the span.
  trace_->records_[index_].start_us = trace_->now_us();
}

HostTrace::Scope::~Scope() {
  if (!trace_) return;
  Record& r = trace_->records_[index_];
  r.dur_us = trace_->now_us() - r.start_us;
  trace_->open_.pop_back();
}

bool HostTrace::write_chrome(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"%s\","
                  "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu}}%s\n",
                  r.cat.c_str(), r.name.c_str(), r.start_us, r.dur_us,
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  i + 1 < records_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace lobbench
