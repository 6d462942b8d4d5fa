#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Workload-independent parts of the benchmark: run options, the report that
// becomes the result line, execution records, statistics, the warm-up /
// timed-loop / A-B protocol over a Runner, the frontend probe, and the
// Volcano result gate.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "compile/compiler.h"
#include "obs/trace.h"
#include "plan/catalog.h"
#include "relational/table.h"
#include "runtime/session.h"

namespace perfbench {

using tqp::Status;

inline constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its span file
};

/// \brief Everything one run reports: metrics in print order, the
/// environment/size notes printed beside them, and the correctness tally.
/// Metric names and units are listed once, in BENCHMARK.json; the program
/// reports only the values it computed, and run.py checks the names and
/// attaches the units.
struct Report {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
  int64_t attempted = 0;
  int64_t failed = 0;  // errored, rejected, or different from Volcano
  bool correct = true;

  void Add(const std::string& name, double value) { metrics.emplace_back(name, value); }
  void Note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

// ---------------------------------------------------------------- stats --

double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double GeoMean(const std::vector<double>& values);

/// Value of a process-wide metrics-registry counter (0 when not registered).
int64_t CounterValue(const char* name);
double ProcessCpuSeconds();

// ----------------------------------------------------------- executions --

/// \brief The distinct SQL texts of a run. Each belongs to one template
/// (a TPC-H query number or a named PREDICT query); fresh substitution
/// parameters make new texts of the same template.
class TextSet {
 public:
  int Intern(const std::string& sql, int template_id);
  const std::string& text(int id) const { return texts_[static_cast<size_t>(id)]; }
  int template_of(int id) const { return templates_[static_cast<size_t>(id)]; }
  int size() const { return static_cast<int>(texts_.size()); }

 private:
  std::unordered_map<std::string, int> ids_;
  std::vector<std::string> texts_;
  std::vector<int> templates_;
};

/// \brief One query execution, submit to result.
struct Execution {
  int text_id = -1;
  double latency_ms = 0;
  int64_t done_nanos = 0;          // completion, on the obs::TraceNowNanos clock
  /// From the scheduler; `predict` fills only peak_memory_bytes, from the
  /// QueryScope it attaches.
  tqp::runtime::QueryStats stats;
  Status status;
  tqp::Table result;
};

/// Decides, at each pass boundary, whether a runner stops submitting:
/// (submissions so far, seconds since the run began).
using StopFn = std::function<bool(int64_t, double)>;

/// \brief What a workload drives. A pass submits each template once; a
/// runner may run its passes with up to some number of queries outstanding.
class Runner {
 public:
  virtual ~Runner() = default;

  /// Keeps submitting until `stop` returns true at a pass boundary, then
  /// drains. `traced` runs the submissions with the system's trace session
  /// attached.
  virtual void Run(bool traced, const StopFn& stop, std::vector<Execution>* out) = 0;
  virtual int pass_size() const = 0;
};

/// Stop predicate for exactly `passes` passes of `runner`.
StopFn AfterPasses(const Runner& runner, int passes);

/// \brief Result of warming a runner to steady state: one cold pass, then
/// rounds, each a whole number of passes lasting at least 0.5 s.
struct WarmUp {
  double cold_pass_seconds = 0;  // the first pass; charged to setup_s
  double seconds = 0;            // the cold pass and every round
  int64_t executions = 0;
  int round_passes = 1;
  std::vector<double> pass_seconds;  // per-pass time of each round
};

/// Runs one pass, then rounds until they stop getting faster: neither of
/// the last two rounds is more than 10% faster per pass than the best round
/// before them (at least three rounds, at most ten).
WarmUp WarmToSteadyState(Runner* runner);

/// Runs whole passes until `seconds` have elapsed; returns the wall time.
double TimedLoop(Runner* runner, bool traced, double seconds,
                 std::vector<Execution>* out);

/// Runs rounds of `round_passes` passes until `seconds` have elapsed;
/// returns the wall time. A traced runner starts each round with an empty
/// trace session, so the session holds only the last round's spans.
double RoundsLoop(Runner* runner, bool traced, int round_passes, double seconds,
                  std::vector<Execution>* out);

/// Interleaved untraced/traced rounds in alternating order; returns the
/// traced/untraced time ratio of each pair.
std::vector<double> TraceOverheadPairs(Runner* runner, int round_passes,
                                       double seconds);

// ------------------------------------------------------------- frontend --

/// Per-stage medians of one query's frontend, in microseconds.
struct FrontendTimes {
  double parse_us = 0;
  double bind_us = 0;
  double optimize_us = 0;
  double physical_us = 0;
  double lower_us = 0;
  int pipelines = 0;
  int program_nodes = 0;
  double total_us() const {
    return parse_us + bind_us + optimize_us + physical_us + lower_us;
  }
};

/// Times ParseSelect, Binder::Bind, Optimize, ChoosePhysical and
/// QueryCompiler::Compile for `sql`, `reps` times, from outside. With a
/// session, each stage is also recorded as a span.
tqp::Result<FrontendTimes> ProbeFrontend(const std::string& sql,
                                         const tqp::Catalog& catalog,
                                         const tqp::ml::ModelRegistry* models,
                                         const tqp::CompileOptions& options,
                                         int reps, tqp::obs::TraceSession* session);

// --------------------------------------------------------------- oracle --

/// Runs every distinct text of `executions` on VolcanoEngine, the
/// independent row engine, and compares each execution's result with it. Returns how many executions
/// failed or differed; the first few differences go to stderr.
int64_t CheckAgainstVolcano(const tqp::Catalog& catalog,
                            const tqp::ml::ModelRegistry* models,
                            const TextSet& texts,
                            const std::vector<Execution>& executions);

// -------------------------------------------------------------- metrics --

/// The end-to-end metrics of a timed loop. Throughput and the latency
/// median are medians over consecutive groups of `round_size` completions.
void AddEndToEnd(const std::vector<Execution>& executions, const TextSet& texts,
                 double wall_seconds, int64_t round_size, double setup_seconds,
                 Report* report);

/// Per-layer values by metric name. A workload sets every per-layer metric
/// of BENCHMARK.json: those it measures, and an explicit 0 for those that do
/// not apply to it (NotApplicable).
using LayerValues = std::map<std::string, double>;

void NotApplicable(const std::vector<std::string>& names, LayerValues* layer);

/// The per-layer metric of TPC-H query `query`'s execution time.
std::string ExecMetric(int query);

/// Counter deltas over a traced loop: pool, scheduler, breaker and
/// expression-tier counters plus process CPU time.
class CounterWindow {
 public:
  CounterWindow();
  /// Adds the per-pass deltas and CPU utilization since construction.
  void Finish(double wall_seconds, double passes, LayerValues* layer) const;

 private:
  std::map<std::string, int64_t> start_;
  double cpu_start_ = 0;
  int64_t allocs_start_ = 0;
  int64_t pooled_start_ = 0;
  int64_t hits_start_ = 0;
};

/// Per-layer values from the scheduler's QueryStats: means, per-query
/// execution medians, the frontend share of latency.
void AddSchedulerLayers(const std::vector<Execution>& executions,
                        const TextSet& texts, LayerValues* layer);

void AddLayerReport(const LayerValues& layer, Report* report);

/// Writes the session's spans as a Chrome trace under `args.out_dir`;
/// returns a description of the file for the report.
std::string WriteTrace(const Args& args, const tqp::obs::TraceSession& session);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
