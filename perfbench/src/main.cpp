// perfbench: runs one named workload against deeppool in-process
// and prints its report, then one JSON result line:
//
//   perfbench --workload fleet_replay|serve_mix|cold_plan --seed N
//             --seconds S --trace 0|1 [--scratch DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the recorded spans under DIR). A failed output check prints
// the result with "correct": false and exits 1.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload fleet_replay|serve_mix|"
               "cold_plan --seed N --seconds S --trace 0|1 [--scratch DIR]\n";
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--scratch") {
        args.scratch = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(args.seconds > 0)) usage("--seconds must be > 0");
  return args;
}

/// Restricts the process to the first two CPUs it may use (or the one it
/// has). Threads that hand work to each other then mostly wake on a busy
/// CPU, and a socket round trip measures deeppool rather than how fast
/// the host resumes an idle virtual CPU.
void use_two_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < 2; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++taken;
    }
  }
  if (sched_setaffinity(0, sizeof chosen, &chosen) != 0) {
    std::cerr << "perfbench: cannot restrict the CPU set; running unpinned\n";
  }
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  use_two_cpus();
  perfbench::Result result;
  try {
    if (args.workload == "fleet_replay") {
      result = perfbench::run_fleet_replay(args);
    } else if (args.workload == "serve_mix") {
      result = perfbench::run_serve_mix(args);
    } else if (args.workload == "cold_plan") {
      result = perfbench::run_cold_plan(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }

  std::cout << "workload: " << args.workload << " seed " << args.seed
            << " trace " << (args.trace ? 1 : 0) << '\n';
  for (const std::string& line : result.report()) std::cout << line << '\n';
  std::cout << "operations: attempted " << result.attempted << ", ok "
            << result.ok << ", failed " << result.failed() << " (errors "
            << result.errors << ", shed " << result.shed << ", over limit "
            << result.over_limit << ")\n";
  for (const auto& [name, value] : result.metrics()) {
    std::cout << "  " << name << " = " << number(value.first) << ' '
              << value.second << '\n';
  }
  if (!result.correct()) {
    std::cout << "OUTPUT CHECK FAILED: " << result.failure() << '\n';
  }

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics()) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            number(value.first) + ", \"unit\": \"" + value.second + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return result.correct() ? 0 : 1;
}
