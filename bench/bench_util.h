#ifndef TQP_BENCH_BENCH_UTIL_H_
#define TQP_BENCH_BENCH_UTIL_H_

// Shared harness for the figure-reproduction benches: the paper reports the
// median of 5 runs after 5 warm-up runs (§2.3); MedianTime reproduces that
// protocol. Scale factor defaults keep every bench under a few seconds on a
// laptop; pass a scale factor as argv[1] to go bigger.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "tensor/buffer_pool.h"

namespace tqp::bench {

struct TimingProtocol {
  int warmup_runs = 5;
  int timed_runs = 5;
};

/// \brief Runs `fn` per the paper's protocol and returns the median seconds.
inline double MedianTime(const std::function<void()>& fn,
                         const TimingProtocol& protocol = {}) {
  for (int i = 0; i < protocol.warmup_runs; ++i) fn();
  std::vector<double> times;
  times.reserve(static_cast<size_t>(protocol.timed_runs));
  for (int i = 0; i < protocol.timed_runs; ++i) {
    Stopwatch timer;
    fn();
    times.push_back(timer.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// \brief One timed configuration plus single-run BufferPool attribution.
struct PoolTimedRun {
  double seconds = 0;
  double peak_alloc_mb = 0;     // the run's QueryScope peak live bytes
  int64_t allocs = 0;           // pool allocations (incl. bypass) in one run
  double recycle_hit_rate = 0;  // pooled requests served from free lists
  double budget_mb = 0;         // per-query budget in effect (0 = unlimited)
  double spilled_mb = 0;        // bytes spilled to disk in the attributed run
  int64_t spill_events = 0;     // evictions in the attributed run
};

/// \brief Times `fn` per the paper's protocol, then runs it once more to
/// attribute pool allocation count, recycle hit rate and peak live bytes to
/// a single execution (the timed loop warms the pool's free lists). The
/// attribution run executes under an explicit per-query memory scope with
/// `budget_bytes` (0 defers to TQP_MEMORY_BUDGET_MB). peak_alloc_mb is that
/// scope's peak, so it counts only what the run allocated — not the catalog
/// or anything else already live in the process pool. Under a cap it reports
/// the *resident* working set and spilled_mb what moved to disk to keep it
/// there.
inline PoolTimedRun MeasureWithPool(const std::function<void()>& fn,
                                    const TimingProtocol& protocol = {},
                                    int64_t budget_bytes = 0) {
  PoolTimedRun r;
  const int64_t budget = BufferPool::ResolveMemoryBudget(budget_bytes);
  {
    BufferPool::QueryScope warm_scope(budget);
    BufferPool::QueryScope::Attach attach(&warm_scope);
    r.seconds = MedianTime(fn, protocol);
  }
  BufferPool* pool = BufferPool::Global();
  const BufferPoolStats before = pool->stats();
  BufferPool::QueryScope scope(budget);
  {
    BufferPool::QueryScope::Attach attach(&scope);
    fn();
  }
  const BufferPoolStats after = pool->stats();
  const QueryMemoryStats mem = scope.stats();
  r.peak_alloc_mb =
      static_cast<double>(mem.peak_live_bytes) / (1024.0 * 1024.0);
  r.allocs = after.total_allocations() - before.total_allocations();
  const int64_t pooled = after.allocations - before.allocations;
  r.recycle_hit_rate =
      pooled > 0 ? static_cast<double>(after.pool_hits - before.pool_hits) /
                       static_cast<double>(pooled)
                 : 0.0;
  r.budget_mb = static_cast<double>(mem.budget_bytes) / (1024.0 * 1024.0);
  r.spilled_mb = static_cast<double>(mem.spilled_bytes) / (1024.0 * 1024.0);
  r.spill_events = mem.spill_events;
  return r;
}

/// \brief Scale factor from argv[1], with a bench-appropriate default.
inline double ScaleFactorArg(int argc, char** argv, double default_sf) {
  if (argc > 1) {
    const double sf = std::strtod(argv[1], nullptr);
    if (sf > 0) return sf;
  }
  return default_sf;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace tqp::bench

#endif  // TQP_BENCH_BENCH_UTIL_H_
