#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>

#include "common/random.h"
#include "common/stopwatch.h"
#include "datasets/reviews.h"
#include "ml/text.h"
#include "ml/tree.h"
#include "tensor/buffer_pool.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace perfbench {
namespace {

using tqp::Catalog;
using tqp::CompiledQuery;
using tqp::CompileOptions;
using tqp::Result;
using tqp::Rng;
using tqp::Stopwatch;
using tqp::Tensor;
using tqp::runtime::QueryScheduler;
using tqp::runtime::SchedulerOptions;

/// Set-up steps that can repeat (data generation, model fit) run this many
/// times; the median counts toward setup_s.
constexpr int kSetupRepeats = 3;
/// Frontend probe repetitions per distinct query.
constexpr int kFrontendReps = 5;

CompileOptions MeasuredCompileOptions(int64_t memory_budget_bytes) {
  CompileOptions options;
  options.target = tqp::ExecutorTarget::kPipelined;
  options.memory_budget_bytes = memory_budget_bytes;
  return options;
}

/// Frontend probe over each template's default text: sums for setup_s, means
/// for the per-layer metrics.
Status ProbeTemplates(const std::vector<std::string>& sqls, const Catalog& catalog,
                      const tqp::ml::ModelRegistry* models,
                      const CompileOptions& options, tqp::obs::TraceSession* session,
                      double* compile_seconds, LayerValues* layer) {
  FrontendTimes sum;
  double total_us = 0;
  for (const std::string& sql : sqls) {
    TQP_ASSIGN_OR_RETURN(FrontendTimes t, ProbeFrontend(sql, catalog, models, options,
                                                        kFrontendReps, session));
    sum.parse_us += t.parse_us;
    sum.bind_us += t.bind_us;
    sum.optimize_us += t.optimize_us;
    sum.physical_us += t.physical_us;
    sum.lower_us += t.lower_us;
    sum.pipelines += t.pipelines;
    sum.program_nodes += t.program_nodes;
    total_us += t.total_us();
  }
  const double n = static_cast<double>(sqls.size());
  *compile_seconds = total_us / 1e6;
  (*layer)["sql.parse_us"] = sum.parse_us / n;
  (*layer)["plan.bind_us"] = sum.bind_us / n;
  (*layer)["plan.optimize_us"] = sum.optimize_us / n;
  (*layer)["plan.physical_us"] = sum.physical_us / n;
  (*layer)["compile.lower_us"] = sum.lower_us / n;
  (*layer)["compile.pipelines"] = sum.pipelines / n;
  (*layer)["compile.program_nodes"] = sum.program_nodes / n;
  return Status::OK();
}

void AddSetupLayers(double dbgen_s, double fit_s, double compile_s, double cold_s,
                    const WarmUp& warm, LayerValues* layer) {
  (*layer)["setup.dbgen_s"] = dbgen_s;
  (*layer)["setup.model_fit_s"] = fit_s;
  (*layer)["setup.compile_s"] = compile_s;
  (*layer)["setup.cold_pass_s"] = cold_s;
  (*layer)["setup.warmup_s"] = warm.seconds;
  (*layer)["setup.warmup_runs"] = static_cast<double>(warm.executions);
}

/// Median of a repeated set-up step; every repeat is printed.
double MedianOfRepeats(const std::string& step, const std::vector<double>& seconds,
                       Report* report) {
  std::string values;
  for (double s : seconds) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.1f", s * 1e3);
    values += buf;
  }
  report->Note(step + " ms, by repeat", values);
  return Median(seconds);
}

void NoteWarmUp(const WarmUp& warm, Report* report) {
  report->Note("cold pass ms", std::to_string(warm.cold_pass_seconds * 1e3));
  std::string rounds;
  for (double seconds : warm.pass_seconds) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.1f", seconds * 1e3);
    rounds += buf;
  }
  report->Note("warm-up ms per pass, by round", rounds);
  report->Note("warm-up passes per round", std::to_string(warm.round_passes));
}

void AppendBenchSpan(tqp::obs::TraceSession* session, const char* name,
                     const std::string& detail, int64_t begin_nanos,
                     int64_t end_nanos) {
  tqp::obs::TraceEvent event;
  event.category = "bench";
  event.name = name;
  event.detail = detail;
  event.ts_nanos = begin_nanos;
  event.dur_nanos = end_nanos - begin_nanos;
  event.span_id = session->NextSpanId();
  event.thread_id = tqp::obs::TraceThreadId();
  session->Append(std::move(event));
}

/// The traced-run tail shared by every workload: the traced loop and its
/// counters, the span file (the loop's last round), the interleaved overhead
/// pairs. Returns the traced loop's executions through `executions`.
void MeasureTraced(const Args& args, Runner* runner, const WarmUp& warm,
                   const tqp::obs::TraceSession& frontend_spans,
                   tqp::obs::TraceSession* session,
                   std::vector<Execution>* executions, LayerValues* layer,
                   Report* report) {
  // One untimed round warms the traced side (its plan cache, its spans).
  std::vector<Execution> sink;
  runner->Run(true, AfterPasses(*runner, warm.round_passes), &sink);
  sink.clear();
  CounterWindow window;
  const double wall =
      RoundsLoop(runner, true, warm.round_passes, args.seconds / 2, executions);
  const double passes =
      static_cast<double>(executions->size()) / runner->pass_size();
  window.Finish(wall, passes, layer);
  for (const tqp::obs::TraceEvent& event : frontend_spans.events()) {
    session->Append(event);
  }
  report->Note("trace_file", WriteTrace(args, *session));
  session->Clear();
  const std::vector<double> ratios =
      TraceOverheadPairs(runner, warm.round_passes, args.seconds / 2);
  (*layer)["obs.trace_overhead_ratio"] = Median(ratios);
  char quartiles[96];
  std::snprintf(quartiles, sizeof(quartiles), "%zu pairs, quartiles %.4f / %.4f / %.4f",
                ratios.size(), Quantile(ratios, 0.25), Median(ratios),
                Quantile(ratios, 0.75));
  report->Note("trace_overhead_ratio", quartiles);
}

// ------------------------------------------------ TPC-H substitution --

std::string DateLiteral(int year, int month) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-01", year, month);
  return buf;
}

/// First-of-month date, uniform over `months` months from January 1993.
std::string DrawMonth(Rng* rng, int months) {
  const int64_t idx = rng->Uniform(0, months - 1);
  return DateLiteral(1993 + static_cast<int>(idx / 12), 1 + static_cast<int>(idx % 12));
}

/// Replaces every occurrence of `from`; false when there is none.
bool Substitute(std::string* sql, const std::string& from, const std::string& to) {
  bool found = false;
  for (size_t pos = sql->find(from); pos != std::string::npos;
       pos = sql->find(from, pos + to.size())) {
    sql->replace(pos, from.size(), to);
    found = true;
  }
  return found;
}

/// `count` distinct picks from `pool`, formatted as a quoted SQL list.
std::string DrawList(Rng* rng, std::vector<std::string> pool, int count) {
  std::string out = "(";
  for (int i = 0; i < count; ++i) {
    const auto j = static_cast<size_t>(rng->Uniform(i, static_cast<int64_t>(pool.size()) - 1));
    std::swap(pool[static_cast<size_t>(i)], pool[j]);
    out += (i > 0 ? ", '" : "'") + pool[static_cast<size_t>(i)] + "'";
  }
  return out + ")";
}

/// Query `q` with freshly drawn substitution parameters, from the ranges the
/// TPC-H specification gives for them.
Result<std::string> DrawParameters(int q, Rng* rng) {
  static const std::vector<std::string> kNations = {
      "ALGERIA", "ARGENTINA", "BRAZIL",    "CANADA",         "EGYPT",
      "ETHIOPIA", "FRANCE",   "GERMANY",   "INDIA",          "INDONESIA",
      "IRAN",    "IRAQ",      "JAPAN",     "JORDAN",         "KENYA",
      "MOROCCO", "MOZAMBIQUE", "PERU",     "CHINA",          "ROMANIA",
      "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
  static const std::vector<std::string> kShipModes = {
      "REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"};
  TQP_ASSIGN_OR_RETURN(std::string sql, tqp::tpch::QueryText(q));
  const std::string year = std::to_string(rng->Uniform(1993, 1997)) + "-01-01";
  bool ok = true;
  switch (q) {
    case 4:
      ok = Substitute(&sql, "1993-07-01", DrawMonth(rng, 58));
      break;
    case 6: {
      const int64_t discount = rng->Uniform(2, 9);
      char between[64];
      std::snprintf(between, sizeof(between), "BETWEEN 0.%02d AND 0.%02d",
                    static_cast<int>(discount - 1), static_cast<int>(discount + 1));
      ok = Substitute(&sql, "1994-01-01", year) &&
           Substitute(&sql, "BETWEEN 0.05 AND 0.07", between) &&
           Substitute(&sql, "l_quantity < 24",
                      "l_quantity < " + std::to_string(rng->Uniform(24, 25)));
      break;
    }
    case 11:
      ok = Substitute(&sql, "'GERMANY'",
                      "'" + kNations[static_cast<size_t>(rng->Uniform(0, 24))] + "'");
      break;
    case 12:
      ok = Substitute(&sql, "('MAIL', 'SHIP')", DrawList(rng, kShipModes, 2)) &&
           Substitute(&sql, "1994-01-01", year);
      break;
    case 14:
      ok = Substitute(&sql, "1995-09-01", DrawMonth(rng, 60));
      break;
    case 15:
      ok = Substitute(&sql, "1996-01-01", DrawMonth(rng, 58));
      break;
    case 22: {
      std::vector<std::string> codes;
      for (int c = 10; c <= 34; ++c) codes.push_back(std::to_string(c));
      ok = Substitute(&sql, "('13', '31', '23', '29', '30', '18', '17')",
                      DrawList(rng, codes, 7));
      break;
    }
    default:
      return Status::Invalid("no substitution parameters for Q" + std::to_string(q));
  }
  if (!ok) {
    return Status::Invalid("Q" + std::to_string(q) +
                           " no longer has the default parameters to substitute");
  }
  return sql;
}

/// Seeded submission order: each pass is a fresh permutation of the
/// templates. With `fresh_parameters`, every submission carries drawn
/// substitution parameters instead of the template's default text.
class QueryStream {
 public:
  QueryStream(std::vector<int> templates, std::vector<std::string> defaults,
              bool fresh_parameters, uint64_t seed)
      : templates_(std::move(templates)),
        defaults_(std::move(defaults)),
        fresh_parameters_(fresh_parameters),
        rng_(seed) {}

  int pass_size() const { return static_cast<int>(templates_.size()); }

  /// The next submission: its template (TPC-H query number) and SQL text.
  std::pair<int, std::string> Next() {
    if (pos_ == order_.size()) {
      order_.resize(templates_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[static_cast<size_t>(
                                     rng_.Uniform(0, static_cast<int64_t>(i) - 1))]);
      }
      pos_ = 0;
    }
    const size_t idx = order_[pos_++];
    if (fresh_parameters_) {
      // RunTpch checks every template draws before the stream starts.
      return {templates_[idx], DrawParameters(templates_[idx], &rng_).ValueOrDie()};
    }
    return {templates_[idx], defaults_[idx]};
  }

 private:
  std::vector<int> templates_;
  std::vector<std::string> defaults_;
  bool fresh_parameters_;
  Rng rng_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

// ------------------------------------------------- scheduler workloads --

/// Drives QueryScheduler::Submit with up to `outstanding` queries in flight
/// from this one thread. Completion is observed by polling the futures,
/// blocking on the oldest for at most 50 us between sweeps.
class SchedulerRunner : public Runner {
 public:
  SchedulerRunner(QueryScheduler* plain, QueryScheduler* traced,
                  tqp::obs::TraceSession* session, QueryStream* stream,
                  TextSet* texts, int outstanding)
      : plain_(plain),
        traced_(traced),
        session_(session),
        stream_(stream),
        texts_(texts),
        outstanding_(outstanding) {}

  int pass_size() const override { return stream_->pass_size(); }

  void Run(bool traced, const StopFn& stop, std::vector<Execution>* out) override {
    QueryScheduler* scheduler = traced ? traced_ : plain_;
    if (traced) session_->Clear();
    struct Slot {
      std::future<tqp::runtime::QueryOutcome> future;
      int text_id = -1;
      int64_t submit_nanos = 0;
      bool busy = false;
    };
    std::vector<Slot> slots(static_cast<size_t>(outstanding_));
    const int64_t start = tqp::obs::TraceNowNanos();
    int64_t submitted = 0;
    bool stopping = false;
    auto fill = [&](Slot* slot) {
      while (!stopping) {
        if (submitted % pass_size() == 0 &&
            stop(submitted, static_cast<double>(tqp::obs::TraceNowNanos() - start) / 1e9)) {
          stopping = true;
          return;
        }
        auto [tmpl, sql] = stream_->Next();
        slot->text_id = texts_->Intern(sql, tmpl);
        slot->submit_nanos = tqp::obs::TraceNowNanos();
        ++submitted;
        auto future = scheduler->Submit(sql);
        if (future.ok()) {
          slot->future = std::move(future).ValueOrDie();
          slot->busy = true;
          return;
        }
        Execution rejected;
        rejected.text_id = slot->text_id;
        rejected.status = future.status();
        out->push_back(std::move(rejected));
      }
    };
    auto finish = [&](Slot* slot) {
      const int64_t done = tqp::obs::TraceNowNanos();
      tqp::runtime::QueryOutcome outcome = slot->future.get();
      Execution e;
      e.text_id = slot->text_id;
      e.latency_ms = static_cast<double>(done - slot->submit_nanos) / 1e6;
      e.done_nanos = done;
      e.stats = outcome.stats;
      e.status = outcome.status;
      e.result = std::move(outcome.table);
      if (traced) {
        AppendBenchSpan(session_, "query",
                        "Q" + std::to_string(texts_->template_of(e.text_id)),
                        slot->submit_nanos, done);
      }
      out->push_back(std::move(e));
      slot->busy = false;
    };
    for (Slot& slot : slots) fill(&slot);
    while (true) {
      Slot* oldest = nullptr;
      int busy = 0;
      bool progressed = false;
      for (Slot& slot : slots) {
        if (slot.busy && slot.future.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready) {
          finish(&slot);
          fill(&slot);
          progressed = true;
        }
        if (!slot.busy) continue;
        ++busy;
        if (oldest == nullptr || slot.submit_nanos < oldest->submit_nanos) oldest = &slot;
      }
      if (busy == 0) break;
      if (progressed) continue;
      if (busy == 1) {
        oldest->future.wait();
      } else {
        oldest->future.wait_for(std::chrono::microseconds(50));
      }
    }
  }

 private:
  QueryScheduler* plain_;
  QueryScheduler* traced_;
  tqp::obs::TraceSession* session_;
  QueryStream* stream_;
  TextSet* texts_;
  int outstanding_;
};

struct TpchSpec {
  double scale_factor = 0.1;
  std::vector<int> queries;
  bool closed_loop = false;          // nproc outstanding, else one at a time
  int64_t memory_budget_bytes = 0;   // 0: the system default
  bool fresh_parameters = false;     // every submission draws its parameters
};

/// Per-pass spill counters from one execution of each template through
/// QueryCompiler with an attached QueryScope: the QueryMemoryStats that
/// QueryStats does not carry (faulted bytes, budget overruns).
Status AttributeMemory(const std::vector<std::string>& sqls, const Catalog& catalog,
                       const tqp::ml::ModelRegistry* models,
                       const CompileOptions& options, LayerValues* layer) {
  const tqp::QueryCompiler compiler(models);
  tqp::QueryMemoryStats sum;
  for (const std::string& sql : sqls) {
    TQP_ASSIGN_OR_RETURN(CompiledQuery query, compiler.CompileSql(sql, catalog, options));
    TQP_ASSIGN_OR_RETURN(std::vector<Tensor> inputs, query.CollectInputs(catalog));
    tqp::BufferPool::QueryScope scope(
        tqp::BufferPool::ResolveMemoryBudget(options.memory_budget_bytes));
    {
      tqp::BufferPool::QueryScope::Attach attach(&scope);
      TQP_RETURN_NOT_OK(query.RunWithInputs(inputs).status());
    }
    const tqp::QueryMemoryStats stats = scope.stats();
    sum.spill_events += stats.spill_events;
    sum.spilled_bytes += stats.spilled_bytes;
    sum.faulted_bytes += stats.faulted_bytes;
    sum.budget_overruns += stats.budget_overruns;
  }
  (*layer)["tensor.spill_events"] = static_cast<double>(sum.spill_events);
  (*layer)["tensor.spilled_mb"] = static_cast<double>(sum.spilled_bytes) / kMiB;
  (*layer)["tensor.faulted_mb"] = static_cast<double>(sum.faulted_bytes) / kMiB;
  (*layer)["tensor.budget_overruns"] = static_cast<double>(sum.budget_overruns);
  return Status::OK();
}

Status RunTpch(const Args& args, const TpchSpec& spec, Report* report) {
  // Set-up 1: data generation, repeated; the last catalog is kept.
  Catalog catalog;
  std::vector<double> dbgen_seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Catalog fresh;
    tqp::tpch::DbgenOptions gen;
    gen.scale_factor = spec.scale_factor;
    Stopwatch sw;
    TQP_RETURN_NOT_OK(tqp::tpch::GenerateAll(gen, &fresh));
    dbgen_seconds.push_back(sw.ElapsedSeconds());
    catalog = std::move(fresh);
  }
  report->Note("scale_factor", std::to_string(spec.scale_factor));
  report->Note("lineitem_rows",
               std::to_string(catalog.GetTable("lineitem").ValueOrDie().num_rows()));

  std::vector<std::string> defaults;
  for (int q : spec.queries) {
    TQP_ASSIGN_OR_RETURN(std::string sql, tqp::tpch::QueryText(q));
    defaults.push_back(sql);
    if (spec.fresh_parameters) {
      Rng probe(1);
      TQP_RETURN_NOT_OK(DrawParameters(q, &probe).status());
    }
  }

  // Set-up 2: compile every template (timed per frontend stage).
  tqp::obs::TraceSession session;
  tqp::obs::TraceSession frontend_spans;
  LayerValues layer;
  const CompileOptions options = MeasuredCompileOptions(spec.memory_budget_bytes);
  double compile_seconds = 0;
  TQP_RETURN_NOT_OK(ProbeTemplates(defaults, catalog, nullptr, options,
                                   args.trace ? &frontend_spans : nullptr,
                                   &compile_seconds, &layer));

  // Set-up 3: the scheduler and its cold pass, then warm-up to steady state.
  Stopwatch construct;
  SchedulerOptions plain_options;
  plain_options.compile = options;
  QueryScheduler plain(&catalog, plain_options);
  const double construct_s = construct.ElapsedSeconds();
  std::optional<QueryScheduler> traced;
  if (args.trace) {
    SchedulerOptions traced_options = plain_options;
    traced_options.trace = &session;
    traced.emplace(&catalog, traced_options);
  }
  QueryStream stream(spec.queries, defaults, spec.fresh_parameters, args.seed);
  TextSet texts;
  const int outstanding =
      spec.closed_loop ? plain.pool()->num_threads() : 1;
  SchedulerRunner runner(&plain, traced ? &*traced : nullptr, &session, &stream,
                         &texts, outstanding);
  const WarmUp warm = WarmToSteadyState(&runner);
  const double dbgen_s = MedianOfRepeats("dbgen", dbgen_seconds, report);
  const double cold_s = construct_s + warm.cold_pass_seconds;
  const double setup_s = dbgen_s + compile_seconds + cold_s;
  report->Note("outstanding", std::to_string(outstanding));
  report->Note("memory_budget_mb",
               std::to_string(static_cast<double>(spec.memory_budget_bytes) / kMiB));
  NoteWarmUp(warm, report);

  std::vector<Execution> executions;
  if (!args.trace) {
    const double wall = TimedLoop(&runner, false, args.seconds, &executions);
    AddEndToEnd(executions, texts, wall,
                static_cast<int64_t>(warm.round_passes) * runner.pass_size(), setup_s,
                report);
    double spilled_bytes = 0;
    for (const Execution& e : executions) {
      spilled_bytes += static_cast<double>(e.stats.spilled_bytes);
    }
    const double passes = static_cast<double>(executions.size()) / runner.pass_size();
    report->Note("spilled_mb_per_pass", std::to_string(spilled_bytes / kMiB / passes));
  } else {
    AddSetupLayers(dbgen_s, 0, compile_seconds, cold_s, warm, &layer);
    MeasureTraced(args, &runner, warm, frontend_spans, &session, &executions, &layer,
                  report);
    AddSchedulerLayers(executions, texts, &layer);
    TQP_RETURN_NOT_OK(AttributeMemory(defaults, catalog, nullptr, options, &layer));
    NotApplicable({"ml.score_ms.sentiment", "ml.score_ms.forest", "ml.query_ms.sentiment",
                   "ml.query_ms.forest"},
                  &layer);
    for (const int q : tqp::tpch::SupportedQueries()) {
      if (std::find(spec.queries.begin(), spec.queries.end(), q) == spec.queries.end()) {
        NotApplicable({ExecMetric(q)}, &layer);
      }
    }
    AddLayerReport(layer, report);
  }
  report->attempted = static_cast<int64_t>(executions.size());
  report->failed = CheckAgainstVolcano(catalog, nullptr, texts, executions);
  return Status::OK();
}

// ------------------------------------------------------------ predict --

constexpr int kSentimentTemplate = 101;
constexpr int kForestTemplate = 102;
constexpr int64_t kNumReviews = 100000;
constexpr double kLineitemScale = 0.005;
constexpr int64_t kForestTrainRows = 20000;
/// Hummingbird's GEMM strategy costs O(2^depth) per row and tree.
constexpr int kForestDepth = 4;

const char* const kSentimentSql =
    "SELECT brand, "
    "SUM(CASE WHEN rating >= 3 THEN 1 ELSE 0 END) AS actual_positive, "
    "SUM(PREDICT('sentiment_classifier', text)) AS predicted_positive "
    "FROM amazon_reviews GROUP BY brand ORDER BY brand";
const char* const kForestSql =
    "SELECT l_returnflag, l_linestatus, COUNT(*) AS line_count, "
    "AVG(PREDICT('charge_forest', l_quantity, l_extendedprice, l_discount, l_tax)) "
    "AS predicted_charge, "
    "AVG(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS actual_charge "
    "FROM lineitem GROUP BY l_returnflag, l_linestatus "
    "ORDER BY l_returnflag, l_linestatus";
const char* const kForestFeatures[] = {"l_quantity", "l_extendedprice", "l_discount",
                                       "l_tax"};

/// The random forest learns each line's charge from its first rows.
Result<std::shared_ptr<tqp::ml::RandomForestModel>> FitForest(const tqp::Table& lineitem) {
  const int64_t rows = std::min(kForestTrainRows, lineitem.num_rows());
  TQP_ASSIGN_OR_RETURN(Tensor x, Tensor::Empty(tqp::DType::kFloat64, rows, 4));
  TQP_ASSIGN_OR_RETURN(Tensor y, Tensor::Empty(tqp::DType::kFloat64, rows, 1));
  std::vector<tqp::Column> columns;
  for (const char* name : kForestFeatures) {
    TQP_ASSIGN_OR_RETURN(tqp::Column column, lineitem.ColumnByName(name));
    columns.push_back(std::move(column));
  }
  for (int64_t i = 0; i < rows; ++i) {
    double f[4];
    for (int c = 0; c < 4; ++c) {
      f[c] = columns[static_cast<size_t>(c)].tensor().at<double>(i);
      x.mutable_data<double>()[i * 4 + c] = f[c];
    }
    y.mutable_data<double>()[i] = f[1] * (1 - f[2]) * (1 + f[3]);
  }
  tqp::ml::RandomForestModel::FitOptions options;
  options.tree.max_depth = kForestDepth;
  return tqp::ml::RandomForestModel::Fit("charge_forest", x, y, options);
}

/// Runs the PREDICT queries through CompiledQuery::RunWithInputs, one at a
/// time, each under its own attached QueryScope for its peak memory.
class PredictRunner : public Runner {
 public:
  struct Query {
    int text_id = -1;
    CompiledQuery compiled;
    std::vector<Tensor> inputs;
  };

  PredictRunner(std::vector<Query>* queries, tqp::obs::TraceSession* session,
                uint64_t seed)
      : queries_(queries), session_(session), rng_(seed) {}

  int pass_size() const override { return static_cast<int>(queries_->size()); }

  void Run(bool traced, const StopFn& stop, std::vector<Execution>* out) override {
    if (traced) session_->Clear();
    const int64_t start = tqp::obs::TraceNowNanos();
    for (int64_t submitted = 0;; ++submitted) {
      if (submitted % pass_size() == 0) {
        if (stop(submitted,
                 static_cast<double>(tqp::obs::TraceNowNanos() - start) / 1e9)) {
          return;
        }
        // Seeded order within each pass.
        if (rng_.Bernoulli(0.5)) std::swap((*queries_)[0], (*queries_)[1]);
      }
      const Query& query = (*queries_)[static_cast<size_t>(submitted % pass_size())];
      tqp::BufferPool::QueryScope scope;
      Execution e;
      e.text_id = query.text_id;
      const int64_t begin = tqp::obs::TraceNowNanos();
      {
        tqp::BufferPool::QueryScope::Attach attach(&scope);
        std::optional<tqp::obs::TraceContext> context;
        if (traced) context.emplace(session_, session_->NextQueryId());
        auto result = query.compiled.RunWithInputs(query.inputs);
        e.status = result.status();
        if (result.ok()) e.result = std::move(result).ValueOrDie();
      }
      const int64_t end = tqp::obs::TraceNowNanos();
      e.latency_ms = static_cast<double>(end - begin) / 1e6;
      e.done_nanos = end;
      e.stats.peak_memory_bytes = scope.stats().peak_live_bytes;
      if (traced) AppendBenchSpan(session_, "query", "predict", begin, end);
      out->push_back(std::move(e));
    }
  }

 private:
  std::vector<Query>* queries_;
  tqp::obs::TraceSession* session_;
  Rng rng_;
};

Result<double> MedianScoreMillis(const tqp::ml::Model& model,
                                 const std::vector<Tensor>& args) {
  std::vector<double> ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Stopwatch sw;
    TQP_RETURN_NOT_OK(model.PredictBatch(args).status());
    ms.push_back(sw.ElapsedMillis());
  }
  return Median(ms);
}

Status RunPredict(const Args& args, Report* report) {
  // Set-up 1: data generation, repeated; the last tables are kept.
  Catalog catalog;
  std::vector<double> dbgen_seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Stopwatch sw;
    tqp::datasets::ReviewsOptions reviews;
    reviews.num_reviews = kNumReviews;
    TQP_ASSIGN_OR_RETURN(tqp::Table review_table, tqp::datasets::ReviewsTable(reviews));
    tqp::tpch::DbgenOptions gen;
    gen.scale_factor = kLineitemScale;
    TQP_ASSIGN_OR_RETURN(tqp::Table lineitem, tqp::tpch::GenerateTable("lineitem", gen));
    dbgen_seconds.push_back(sw.ElapsedSeconds());
    catalog.RegisterTable("amazon_reviews", std::move(review_table));
    catalog.RegisterTable("lineitem", std::move(lineitem));
  }
  const tqp::Table reviews = catalog.GetTable("amazon_reviews").ValueOrDie();
  const tqp::Table lineitem = catalog.GetTable("lineitem").ValueOrDie();
  report->Note("reviews", std::to_string(reviews.num_rows()));
  report->Note("lineitem_rows", std::to_string(lineitem.num_rows()));

  // Set-up 2: fit both models, repeated; the last fit is kept.
  tqp::ml::ModelRegistry registry;
  std::vector<double> fit_seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Stopwatch sw;
    std::vector<std::string> texts;
    std::vector<double> labels;
    tqp::datasets::GenerateReviewTexts(2000, 31, &texts, &labels);
    TQP_ASSIGN_OR_RETURN(auto sentiment, tqp::ml::SentimentClassifier::Fit(
                                             "sentiment_classifier", texts, labels));
    TQP_ASSIGN_OR_RETURN(auto forest, FitForest(lineitem));
    fit_seconds.push_back(sw.ElapsedSeconds());
    registry.Register(std::move(sentiment));
    registry.Register(std::move(forest));
  }

  // Set-up 3: the frontend probe (timed per stage).
  tqp::obs::TraceSession session;
  tqp::obs::TraceSession frontend_spans;
  LayerValues layer;
  const CompileOptions options = MeasuredCompileOptions(0);
  const std::vector<std::string> sqls = {kSentimentSql, kForestSql};
  double compile_seconds = 0;
  TQP_RETURN_NOT_OK(ProbeTemplates(sqls, catalog, &registry, options,
                                   args.trace ? &frontend_spans : nullptr, &compile_seconds,
                                   &layer));
  // Set-up 4: compile the measured queries and collect their inputs, then
  // the cold pass and warm-up to steady state.
  Stopwatch construct;
  TextSet texts;
  std::vector<PredictRunner::Query> queries;
  const tqp::QueryCompiler compiler(&registry);
  for (const int tmpl : {kSentimentTemplate, kForestTemplate}) {
    const std::string sql = tmpl == kSentimentTemplate ? kSentimentSql : kForestSql;
    PredictRunner::Query query;
    query.text_id = texts.Intern(sql, tmpl);
    TQP_ASSIGN_OR_RETURN(query.compiled, compiler.CompileSql(sql, catalog, options));
    TQP_ASSIGN_OR_RETURN(query.inputs, query.compiled.CollectInputs(catalog));
    queries.push_back(std::move(query));
  }
  PredictRunner runner(&queries, &session, args.seed);
  const double construct_s = construct.ElapsedSeconds();
  const WarmUp warm = WarmToSteadyState(&runner);
  const double dbgen_s = MedianOfRepeats("dbgen", dbgen_seconds, report);
  const double fit_s = MedianOfRepeats("model fit", fit_seconds, report);
  const double cold_s = construct_s + warm.cold_pass_seconds;
  const double setup_s = dbgen_s + fit_s + compile_seconds + cold_s;
  NoteWarmUp(warm, report);

  std::vector<Execution> executions;
  if (!args.trace) {
    const double wall = TimedLoop(&runner, false, args.seconds, &executions);
    AddEndToEnd(executions, texts, wall,
                static_cast<int64_t>(warm.round_passes) * runner.pass_size(), setup_s,
                report);
  } else {
    AddSetupLayers(dbgen_s, fit_s, compile_seconds, cold_s, warm, &layer);
    MeasureTraced(args, &runner, warm, frontend_spans, &session, &executions, &layer,
                  report);
    TQP_RETURN_NOT_OK(AttributeMemory(sqls, catalog, &registry, options, &layer));
    // The queries run through CompiledQuery, not the scheduler: there are no
    // QueryStats, no plan cache and no TPC-H query.
    NotApplicable({"runtime.plan_cache_hit_ratio", "runtime.queue_ms", "runtime.exec_ms",
                   "runtime.compile_ms", "compile.frontend_share"},
                  &layer);
    for (const int q : tqp::tpch::SupportedQueries()) NotApplicable({ExecMetric(q)}, &layer);
    std::map<int, std::vector<double>> by_template;
    for (const Execution& e : executions) {
      by_template[texts.template_of(e.text_id)].push_back(e.latency_ms);
    }
    layer["ml.query_ms.sentiment"] = Median(by_template[kSentimentTemplate]);
    layer["ml.query_ms.forest"] = Median(by_template[kForestTemplate]);
    TQP_ASSIGN_OR_RETURN(auto sentiment, registry.Get("sentiment_classifier"));
    TQP_ASSIGN_OR_RETURN(tqp::Column text, reviews.ColumnByName("text"));
    TQP_ASSIGN_OR_RETURN(layer["ml.score_ms.sentiment"],
                         MedianScoreMillis(*sentiment, {text.tensor()}));
    TQP_ASSIGN_OR_RETURN(auto forest, registry.Get("charge_forest"));
    std::vector<Tensor> features;
    for (const char* name : kForestFeatures) {
      TQP_ASSIGN_OR_RETURN(tqp::Column column, lineitem.ColumnByName(name));
      features.push_back(column.tensor());
    }
    TQP_ASSIGN_OR_RETURN(layer["ml.score_ms.forest"],
                         MedianScoreMillis(*forest, features));
    AddLayerReport(layer, report);
  }
  report->attempted = static_cast<int64_t>(executions.size());
  report->failed = CheckAgainstVolcano(catalog, &registry, texts, executions);
  return Status::OK();
}

}  // namespace

Status RunWorkload(const Args& args, Report* report) {
  Status status;
  if (args.workload == "tpch_power") {
    TpchSpec spec;
    spec.scale_factor = 0.1;
    spec.queries = tqp::tpch::SupportedQueries();
    status = RunTpch(args, spec, report);
  } else if (args.workload == "serve_short") {
    TpchSpec spec;
    spec.scale_factor = 0.01;
    spec.queries = {4, 6, 11, 12, 14, 15, 22};
    spec.closed_loop = true;
    spec.fresh_parameters = true;
    status = RunTpch(args, spec, report);
  } else if (args.workload == "predict") {
    status = RunPredict(args, report);
  } else if (args.workload == "tpch_budget") {
    TpchSpec spec;
    spec.scale_factor = 0.1;
    spec.queries = {9, 13, 18, 21};
    spec.memory_budget_bytes = 128 * static_cast<int64_t>(kMiB);
    status = RunTpch(args, spec, report);
  } else {
    return Status::Invalid("unknown workload '" + args.workload + "'");
  }
  report->correct = status.ok() && report->failed == 0;
  return status;
}

}  // namespace perfbench
