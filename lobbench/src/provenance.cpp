#include "provenance.hpp"

#include <cstdlib>
#include <fstream>
#include <thread>

namespace lobbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

Provenance provenance(std::uint64_t seed) {
  Provenance p;
  p.compiler = LOBBENCH_COMPILER;
  p.build_type = LOBBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
  p.optimized = p.build_type != "Debug";
#endif
  p.cpu_model = cpu_model();
  p.nproc = std::thread::hardware_concurrency();
  const char* describe = std::getenv("LOBBENCH_GIT_DESCRIBE");
  p.git_describe = describe && *describe ? describe : "unknown";
  p.seed = seed;
  return p;
}

std::string to_json(const Provenance& p) {
  return "{\"compiler\": " + json_string(p.compiler) +
         ", \"build_type\": " + json_string(p.build_type) +
         ", \"optimized\": " + (p.optimized ? "true" : "false") +
         ", \"cpu_model\": " + json_string(p.cpu_model) +
         ", \"nproc\": " + std::to_string(p.nproc) +
         ", \"git_describe\": " + json_string(p.git_describe) +
         ", \"seed\": " + std::to_string(p.seed) + "}";
}

}  // namespace lobbench
