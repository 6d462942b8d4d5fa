// perfbench: the repository's benchmark program. It drives the system only
// through its public entry points. The last line of standard output is the
// JSON result, with each metric's value by name; run.py adds the units.
//
// Usage:
//   perfbench --workload <tpch_power|serve_short|predict|tpch_budget>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Exit codes: 0 all results matched Volcano; 1 a result differed or a query
// failed (the result line says so); 2 the run could not be made (bad
// arguments, a TQP_* knob in the environment, set-up failure), with no
// result line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

extern char** environ;

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Every TQP_* variable changes the program being measured.
const char* FindKnob() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "TQP_", 4) == 0) return *env;
  }
  return nullptr;
}

/// The process's peak resident set (VmHWM), which includes the catalog and
/// the Volcano oracle; "unknown" where /proc is not available.
std::string PeakResidentSet() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return "unknown";
  char line[256];
  std::string value = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      value = std::to_string(std::strtoll(line + 6, nullptr, 10) / 1024) + " MiB";
    }
  }
  std::fclose(f);
  return value;
}

void PrintReport(const perfbench::Report& report) {
  for (const auto& [key, value] : report.notes) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("# error_rate: %.6f (%lld failed of %lld attempted)\n",
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0,
              static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));
  // Values only: run.py checks the names against BENCHMARK.json and
  // attaches the units listed there.
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, value] = report.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += (i > 0 ? ", \"" : "\"") + name + "\": " + buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  if (const char* knob = FindKnob()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set: every TQP_* variable "
                 "changes the program being measured\n",
                 knob);
    return 2;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  const int pool_threads = tqp::runtime::ThreadPool::Global()->num_threads();
  perfbench::Report report;
  report.Note("workload", args.workload);
  report.Note("seed", std::to_string(args.seed));
  report.Note("seconds", std::to_string(args.seconds));
  report.Note("trace", args.trace ? "1" : "0");
  report.Note("nproc", std::to_string(cores));
  report.Note("pool_threads", std::to_string(pool_threads));
  report.Note("executor", "kPipelined");
  report.Note("compiler", PERFBENCH_COMPILER);
  report.Note("build_type", PERFBENCH_BUILD_TYPE);
  const tqp::Status status = perfbench::RunWorkload(args, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 2;
  }
  report.Note("process_peak_rss", PeakResidentSet());
  PrintReport(report);
  return report.correct ? 0 : 1;
}
