#include "args.hpp"

#include <stdexcept>

#include "util/parse.hpp"

namespace lobbench {

namespace {

long long int_in(const std::string& text, const std::string& flag,
                 long long lo, long long hi) {
  const long long v = lobster::util::require_int(text, flag);
  if (v < lo || v > hi)
    throw std::invalid_argument(flag + ": '" + text + "' is outside [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  return v;
}

}  // namespace

Options parse_args(const std::vector<std::string>& args) {
  Options o;
  bool have_workload = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace")
      throw std::invalid_argument("unknown argument '" + flag + "'");
    if (i + 1 >= args.size())
      throw std::invalid_argument(flag + " needs a value");
    const std::string& value = args[++i];
    if (flag == "--workload") {
      o.workload = parse_workload(value);
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(
          int_in(value, "--seed", 0, 1LL << 53));
    } else if (flag == "--seconds") {
      o.seconds = static_cast<int>(int_in(value, "--seconds", 1, 600));
    } else {
      o.trace = int_in(value, "--trace", 0, 1) == 1;
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

}  // namespace lobbench
