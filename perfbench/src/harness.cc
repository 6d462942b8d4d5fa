#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <optional>
#include <thread>

#include "baseline/volcano.h"
#include "common/stopwatch.h"
#include "compile/pipeline.h"
#include "obs/metrics.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "plan/physical_planner.h"
#include "runtime/thread_pool.h"
#include "sql/parser.h"
#include "tensor/buffer_pool.h"

namespace perfbench {

using tqp::Stopwatch;
using tqp::Table;

// ---------------------------------------------------------------- stats --

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

int64_t CounterValue(const char* name) {
  const tqp::obs::Counter* counter =
      tqp::obs::MetricsRegistry::Global()->FindCounter(name);
  return counter != nullptr ? counter->value() : 0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ----------------------------------------------------------- executions --

int TextSet::Intern(const std::string& sql, int template_id) {
  auto [it, inserted] = ids_.emplace(sql, size());
  if (inserted) {
    texts_.push_back(sql);
    templates_.push_back(template_id);
  }
  return it->second;
}

namespace {

constexpr double kMinRoundSeconds = 0.5;
constexpr int kMinWarmRounds = 3;
constexpr int kMaxWarmRounds = 10;
constexpr double kSteadyTolerance = 0.90;

}  // namespace

StopFn AfterPasses(const Runner& runner, int passes) {
  const int64_t target = static_cast<int64_t>(passes) * runner.pass_size();
  return [target](int64_t submitted, double) { return submitted >= target; };
}

WarmUp WarmToSteadyState(Runner* runner) {
  WarmUp warm;
  Stopwatch total;
  std::vector<double>& per_pass = warm.pass_seconds;
  std::vector<Execution> sink;
  // The cold pass runs every template once on a fresh runner: its first
  // compile and first execution. Its length does not depend on how many
  // rounds the steady-state search below takes.
  runner->Run(false, AfterPasses(*runner, 1), &sink);
  warm.cold_pass_seconds = total.ElapsedSeconds();
  warm.executions += static_cast<int64_t>(sink.size());
  sink.clear();
  const int64_t pass_size = runner->pass_size();
  while (static_cast<int>(per_pass.size()) < kMaxWarmRounds) {
    Stopwatch round;
    int64_t submitted_in_round = 0;
    runner->Run(false,
                [&](int64_t submitted, double elapsed) {
                  submitted_in_round = submitted;
                  return submitted > 0 && elapsed >= kMinRoundSeconds;
                },
                &sink);
    const int passes = static_cast<int>(submitted_in_round / pass_size);
    warm.executions += static_cast<int64_t>(sink.size());
    sink.clear();
    warm.round_passes = std::max(1, passes);
    per_pass.push_back(round.ElapsedSeconds() / std::max(1, passes));
    // Steady once rounds stop getting faster: neither of the last two beats
    // the best earlier round by more than the tolerance.
    const size_t n = per_pass.size();
    if (n < kMinWarmRounds) continue;
    const double earlier = *std::min_element(per_pass.begin(), per_pass.end() - 2);
    if (std::min(per_pass[n - 1], per_pass[n - 2]) >= kSteadyTolerance * earlier) {
      break;
    }
  }
  warm.seconds = total.ElapsedSeconds();
  return warm;
}

double TimedLoop(Runner* runner, bool traced, double seconds,
                 std::vector<Execution>* out) {
  Stopwatch wall;
  runner->Run(traced,
              [seconds](int64_t submitted, double elapsed) {
                return submitted > 0 && elapsed >= seconds;
              },
              out);
  return wall.ElapsedSeconds();
}

double RoundsLoop(Runner* runner, bool traced, int round_passes, double seconds,
                  std::vector<Execution>* out) {
  Stopwatch wall;
  while (wall.ElapsedSeconds() < seconds) {
    runner->Run(traced, AfterPasses(*runner, round_passes), out);
  }
  return wall.ElapsedSeconds();
}

std::vector<double> TraceOverheadPairs(Runner* runner, int round_passes,
                                       double seconds) {
  constexpr int kMinPairs = 5;
  constexpr int kMaxPairs = 40;
  std::vector<double> ratios;
  std::vector<Execution> sink;
  Stopwatch total;
  for (int pair = 0; pair < kMaxPairs; ++pair) {
    if (pair >= kMinPairs && total.ElapsedSeconds() >= seconds) break;
    double elapsed[2] = {0, 0};  // [untraced, traced]
    for (int k = 0; k < 2; ++k) {
      // Even pairs run untraced first, odd pairs traced first.
      const bool traced = (pair % 2 == 0) == (k == 1);
      Stopwatch round;
      runner->Run(traced, AfterPasses(*runner, round_passes), &sink);
      elapsed[traced ? 1 : 0] = round.ElapsedSeconds();
      sink.clear();
    }
    ratios.push_back(elapsed[1] / elapsed[0]);
  }
  return ratios;
}

// ------------------------------------------------------------- frontend --

tqp::Result<FrontendTimes> ProbeFrontend(const std::string& sql,
                                         const tqp::Catalog& catalog,
                                         const tqp::ml::ModelRegistry* models,
                                         const tqp::CompileOptions& options,
                                         int reps,
                                         tqp::obs::TraceSession* session) {
  std::optional<tqp::obs::TraceContext> context;
  if (session != nullptr) context.emplace(session, session->NextQueryId());
  std::vector<double> stage[5];
  FrontendTimes times;
  const tqp::PhysicalOptions physical_options;
  const tqp::QueryCompiler compiler(models);
  for (int rep = 0; rep < reps; ++rep) {
    tqp::obs::TraceSpan query_span("bench", "frontend");
    Stopwatch sw;
    auto stmt = [&] {
      tqp::obs::TraceSpan span("bench", "sql.parse");
      return tqp::sql::ParseSelect(sql);
    }();
    TQP_RETURN_NOT_OK(stmt.status());
    stage[0].push_back(sw.ElapsedMicros());
    sw.Reset();
    auto logical = [&] {
      tqp::obs::TraceSpan span("bench", "plan.bind");
      tqp::Binder binder(&catalog, models);
      return binder.Bind(**stmt);
    }();
    TQP_RETURN_NOT_OK(logical.status());
    stage[1].push_back(sw.ElapsedMicros());
    sw.Reset();
    auto optimized = [&] {
      tqp::obs::TraceSpan span("bench", "plan.optimize");
      return tqp::Optimize(*logical, physical_options.optimizer);
    }();
    TQP_RETURN_NOT_OK(optimized.status());
    stage[2].push_back(sw.ElapsedMicros());
    sw.Reset();
    tqp::PlanPtr physical = [&] {
      tqp::obs::TraceSpan span("bench", "plan.physical");
      return tqp::ChoosePhysical(*optimized, physical_options);
    }();
    stage[3].push_back(sw.ElapsedMicros());
    sw.Reset();
    auto compiled = [&] {
      tqp::obs::TraceSpan span("bench", "compile.lower");
      return compiler.Compile(physical, options);
    }();
    TQP_RETURN_NOT_OK(compiled.status());
    stage[4].push_back(sw.ElapsedMicros());
    if (rep == 0) {
      times.program_nodes = compiled->program().num_nodes();
      times.pipelines = static_cast<int>(
          tqp::BuildPipelinePlan(compiled->program()).pipelines.size());
    }
  }
  times.parse_us = Median(stage[0]);
  times.bind_us = Median(stage[1]);
  times.optimize_us = Median(stage[2]);
  times.physical_us = Median(stage[3]);
  times.lower_us = Median(stage[4]);
  return times;
}

// --------------------------------------------------------------- oracle --

namespace {

/// Runs `fn(i)` for i in `order` on one thread per core, and joins them.
void ParallelFor(const std::vector<int>& order, const std::function<void(int)>& fn) {
  std::atomic<size_t> next{0};
  const size_t workers = std::max<size_t>(
      1, std::min<size_t>(std::thread::hardware_concurrency(), order.size()));
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < order.size(); i = next++) fn(order[i]);
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

int64_t CheckAgainstVolcano(const tqp::Catalog& catalog,
                            const tqp::ml::ModelRegistry* models,
                            const TextSet& texts,
                            const std::vector<Execution>& executions) {
  // The timed runs are over: hand the pool's cached blocks back before the
  // row engine builds its own state.
  tqp::BufferPool::Global()->Trim();
  const int n = texts.size();
  // Longest queries first (by their timed latency), so the oracle threads
  // finish together.
  std::vector<double> cost(static_cast<size_t>(n), 0.0);
  for (const Execution& e : executions) {
    double& c = cost[static_cast<size_t>(e.text_id)];
    c = std::max(c, e.latency_ms);
  }
  // Only the texts the measured executions ran (warm-up draws are not kept).
  std::vector<int> order;
  std::vector<bool> needed(static_cast<size_t>(n), false);
  for (const Execution& e : executions) needed[static_cast<size_t>(e.text_id)] = true;
  for (int i = 0; i < n; ++i) {
    if (needed[static_cast<size_t>(i)]) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return cost[static_cast<size_t>(a)] > cost[static_cast<size_t>(b)];
  });

  std::vector<Table> oracle(static_cast<size_t>(n));
  std::vector<Status> oracle_status(static_cast<size_t>(n));
  const tqp::VolcanoEngine volcano(&catalog, models);
  ParallelFor(order, [&](int id) {
    auto result = volcano.ExecuteSql(texts.text(id));
    oracle_status[static_cast<size_t>(id)] = result.status();
    if (result.ok()) oracle[static_cast<size_t>(id)] = std::move(result).ValueOrDie();
  });

  std::vector<Status> verdict(executions.size());
  std::vector<int> all(executions.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  ParallelFor(all, [&](int i) {
    const Execution& e = executions[static_cast<size_t>(i)];
    const size_t id = static_cast<size_t>(e.text_id);
    if (!e.status.ok()) {
      verdict[static_cast<size_t>(i)] = e.status;
    } else if (!oracle_status[id].ok()) {
      verdict[static_cast<size_t>(i)] = Status::Invalid(
          "Volcano failed: " + oracle_status[id].ToString());
    } else {
      verdict[static_cast<size_t>(i)] = tqp::TablesEqualUnordered(e.result, oracle[id]);
    }
  });

  int64_t failed = 0;
  for (size_t i = 0; i < verdict.size(); ++i) {
    if (verdict[i].ok()) continue;
    if (++failed <= 5) {
      std::fprintf(stderr, "perfbench: MISMATCH on [%s]: %s\n",
                   texts.text(executions[i].text_id).c_str(),
                   verdict[i].ToString().c_str());
    }
  }
  return failed;
}

// -------------------------------------------------------------- metrics --

namespace {

/// The successful executions in completion order.
std::vector<const Execution*> ByCompletion(const std::vector<Execution>& executions) {
  std::vector<const Execution*> done;
  for (const Execution& e : executions) {
    if (e.status.ok()) done.push_back(&e);
  }
  std::sort(done.begin(), done.end(), [](const Execution* a, const Execution* b) {
    return a->done_nanos < b->done_nanos;
  });
  return done;
}

/// Median completion rate over consecutive groups of `group` completions,
/// from the end of the first group on; the plain mean rate when the loop
/// had fewer than four groups.
double ThroughputPerSecond(const std::vector<const Execution*>& done,
                           double wall_seconds, size_t group) {
  const size_t n = done.size();
  if (n / group < 4) return static_cast<double>(n) / wall_seconds;
  std::vector<double> rates;
  for (size_t end = 2 * group - 1; end < n; end += group) {
    const int64_t nanos = done[end]->done_nanos - done[end - group]->done_nanos;
    rates.push_back(static_cast<double>(group) / (static_cast<double>(nanos) / 1e9));
  }
  return Median(rates);
}

/// Median over consecutive groups of `group` completions of each group's
/// median latency; the whole loop's median when it had fewer than four
/// groups. A burst of host contention that hits a few groups does not move
/// a median over many.
double GroupedMedianLatency(const std::vector<const Execution*>& done, size_t group) {
  const size_t n = done.size();
  if (n / group < 4) group = n;
  std::vector<double> per_group;
  for (size_t begin = 0; begin + group <= n; begin += group) {
    std::vector<double> latencies;
    for (size_t i = begin; i < begin + group; ++i) latencies.push_back(done[i]->latency_ms);
    per_group.push_back(Median(std::move(latencies)));
  }
  return Median(per_group);
}

}  // namespace

void AddEndToEnd(const std::vector<Execution>& executions, const TextSet& texts,
                 double wall_seconds, int64_t round_size, double setup_seconds,
                 Report* report) {
  std::vector<double> latencies;
  std::map<int, std::vector<double>> by_template;
  std::map<int, std::vector<double>> peaks_by_template;
  for (const Execution& e : executions) {
    if (!e.status.ok()) continue;
    const int tmpl = texts.template_of(e.text_id);
    latencies.push_back(e.latency_ms);
    by_template[tmpl].push_back(e.latency_ms);
    peaks_by_template[tmpl].push_back(static_cast<double>(e.stats.peak_memory_bytes) / kMiB);
  }
  // A query's peak is the median over its executions of its own peak live
  // bytes (the high-water mark moves with scheduling); the workload reports
  // the largest.
  std::vector<double> medians;
  double peak_mb = 0;
  for (auto& [tmpl, values] : by_template) {
    medians.push_back(Median(values));
    const double peak = Median(peaks_by_template[tmpl]);
    peak_mb = std::max(peak_mb, peak);
    char line[96];
    std::snprintf(line, sizeof(line), "%zu runs, median %.3f ms, peak %.3f MiB",
                  values.size(), medians.back(), peak);
    report->Note("template " + std::to_string(tmpl), line);
  }
  report->Add("setup_s", setup_seconds);
  report->Add("geomean_ms", GeoMean(medians));
  // Groups of one warm-up round each.
  const std::vector<const Execution*> done = ByCompletion(executions);
  const size_t group = static_cast<size_t>(std::max<int64_t>(1, round_size));
  report->Add("throughput_qps", ThroughputPerSecond(done, wall_seconds, group));
  report->Add("latency_p50_ms", GroupedMedianLatency(done, group));
  report->Add("peak_mem_mb", peak_mb);
  // The p99 is printed, not bounded: on serve_short it rose by half in runs
  // the host slowed by a sixth, so its spread over ten runs exceeded 0.25.
  const double n = static_cast<double>(latencies.size());
  char latency[160];
  std::snprintf(latency, sizeof(latency),
                "%.0f samples, groups of %zu; whole-loop p50 %.3f ms, p99 %.3f ms (%.0f above)",
                n, group, Median(latencies), Quantile(latencies, 0.99),
                n - std::ceil(0.99 * n));
  report->Note("latency", latency);
  report->Note("mean_rate_qps", std::to_string(n / wall_seconds));
  report->Note("distinct_templates", std::to_string(medians.size()));
  std::vector<bool> seen(static_cast<size_t>(texts.size()), false);
  int64_t distinct = 0;
  for (const Execution& e : executions) {
    if (!seen[static_cast<size_t>(e.text_id)]) ++distinct;
    seen[static_cast<size_t>(e.text_id)] = true;
  }
  report->Note("distinct_texts", std::to_string(distinct));
}

std::string ExecMetric(int query) { return "exec.Q" + std::to_string(query) + "_ms"; }

void NotApplicable(const std::vector<std::string>& names, LayerValues* layer) {
  for (const std::string& name : names) (*layer)[name] = 0;
}

namespace {

/// Registry counters whose per-pass deltas are per-layer metrics.
const std::vector<std::pair<const char*, const char*>>& WindowCounters() {
  static const std::vector<std::pair<const char*, const char*>> kCounters = {
      {"runtime.morsels", "tqp_morsel_evals_total"},
      {"runtime.steps", "tqp_steps_executed_total"},
      {"runtime.rejected", "tqp_queries_rejected_total"},
      {"operators.breaker_invocations", "tqp_breaker_invocations_total"},
      {"operators.breaker_partitions", "tqp_breaker_partitions_total"},
      {"operators.breaker_repartitions", "tqp_breaker_repartitions_total"},
      {"operators.breaker_fallbacks", "tqp_breaker_fallbacks_total"},
      {"simd", "tqp_expr_backend_simd_total"},
      {"interp", "tqp_expr_backend_interp_total"},
  };
  return kCounters;
}

}  // namespace

CounterWindow::CounterWindow() {
  for (const auto& [metric, counter] : WindowCounters()) {
    start_[metric] = CounterValue(counter);
  }
  tqp::runtime::ThreadPool* pool = tqp::runtime::ThreadPool::Global();
  start_["runtime.steals"] = pool->steals();
  start_["runtime.tasks"] = pool->tasks_executed();
  const tqp::BufferPoolStats stats = tqp::BufferPool::Global()->stats();
  allocs_start_ = stats.total_allocations();
  pooled_start_ = stats.allocations;
  hits_start_ = stats.pool_hits;
  cpu_start_ = ProcessCpuSeconds();
}

void CounterWindow::Finish(double wall_seconds, double passes,
                           LayerValues* layer) const {
  const double cpu = ProcessCpuSeconds() - cpu_start_;
  std::map<std::string, int64_t> delta;
  for (const auto& [metric, counter] : WindowCounters()) {
    delta[metric] = CounterValue(counter) - start_.at(metric);
  }
  tqp::runtime::ThreadPool* pool = tqp::runtime::ThreadPool::Global();
  delta["runtime.steals"] = pool->steals() - start_.at("runtime.steals");
  delta["runtime.tasks"] = pool->tasks_executed() - start_.at("runtime.tasks");
  for (const auto& [metric, value] : delta) {
    if (metric == "simd" || metric == "interp") continue;
    (*layer)[metric] = static_cast<double>(value) / passes;
  }
  const int64_t fused = delta["simd"] + delta["interp"];
  (*layer)["compile.expr_simd_ratio"] =
      fused > 0 ? static_cast<double>(delta["simd"]) / static_cast<double>(fused) : 0;
  const tqp::BufferPoolStats stats = tqp::BufferPool::Global()->stats();
  (*layer)["tensor.allocs"] =
      static_cast<double>(stats.total_allocations() - allocs_start_) / passes;
  const int64_t pooled = stats.allocations - pooled_start_;
  (*layer)["tensor.recycle_hit_ratio"] =
      pooled > 0 ? static_cast<double>(stats.pool_hits - hits_start_) /
                       static_cast<double>(pooled)
                 : 0;
  (*layer)["runtime.cpu_util"] = cpu / (wall_seconds * pool->num_threads());
}

void AddSchedulerLayers(const std::vector<Execution>& executions,
                        const TextSet& texts, LayerValues* layer) {
  double ok = 0, hits = 0, queue = 0, exec = 0, compile = 0, latency = 0;
  std::map<int, std::vector<double>> exec_by_template;
  for (const Execution& e : executions) {
    if (!e.status.ok()) continue;
    ok += 1;
    hits += e.stats.cache_hit ? 1 : 0;
    queue += static_cast<double>(e.stats.queue_nanos) / 1e6;
    exec += static_cast<double>(e.stats.exec_nanos) / 1e6;
    compile += static_cast<double>(e.stats.compile_nanos) / 1e6;
    latency += e.latency_ms;
    exec_by_template[texts.template_of(e.text_id)].push_back(
        static_cast<double>(e.stats.exec_nanos) / 1e6);
  }
  if (ok == 0) return;
  (*layer)["runtime.plan_cache_hit_ratio"] = hits / ok;
  (*layer)["runtime.queue_ms"] = queue / ok;
  (*layer)["runtime.exec_ms"] = exec / ok;
  (*layer)["runtime.compile_ms"] = compile / ok;
  (*layer)["compile.frontend_share"] = compile / latency;
  for (const auto& [tmpl, values] : exec_by_template) {
    (*layer)[ExecMetric(tmpl)] = Median(values);
  }
}

void AddLayerReport(const LayerValues& layer, Report* report) {
  for (const auto& [name, value] : layer) report->Add(name, value);
}

std::string WriteTrace(const Args& args, const tqp::obs::TraceSession& session) {
  if (args.out_dir.empty()) return "not written";
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  std::ofstream out(path);
  out << session.ToChromeTrace("perfbench");
  return path + " (" + std::to_string(session.num_events()) + " events)";
}

}  // namespace perfbench
