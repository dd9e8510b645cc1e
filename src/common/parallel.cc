#include "common/parallel.h"

#include <cstdlib>

namespace roadpart {

namespace {

// Process-wide pin (SetDefaultParallelism). 0 = "no override"; consult
// RP_THREADS / hardware.
std::atomic<int> g_default_parallelism{0};

// Per-thread override (ScopedParallelism, and the nested-fan-out cap the
// threaded loops install on their workers). Takes precedence over the
// process-wide pin, and never races: each thread reads and writes only its
// own slot. Fresh worker threads start at 0 (no override).
thread_local int tl_parallelism_override = 0;

int EnvOrHardwareParallelism() {
  static const int value = [] {
    const char* env = std::getenv("RP_THREADS");
    if (env != nullptr) {
      int v = std::atoi(env);
      if (v > 0) return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return value;
}

}  // namespace

int DefaultParallelism() {
  if (tl_parallelism_override > 0) return tl_parallelism_override;
  int pinned = g_default_parallelism.load(std::memory_order_relaxed);
  if (pinned > 0) return pinned;
  return EnvOrHardwareParallelism();
}

void SetDefaultParallelism(int n) {
  g_default_parallelism.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

ScopedParallelism::ScopedParallelism(int n)
    : active_(n >= 1), saved_(tl_parallelism_override) {
  if (active_) tl_parallelism_override = n;
}

ScopedParallelism::~ScopedParallelism() {
  if (active_) tl_parallelism_override = saved_;
}

void ParallelFor(int count, const std::function<void(int)>& fn,
                 int num_threads) {
  ParallelFor(count, fn, num_threads, /*grain=*/1);
}

void ParallelFor(int count, const std::function<void(int)>& fn,
                 int num_threads, int grain) {
  if (grain < 1) grain = 1;
  ParallelForBlocked(
      count, grain,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) fn(static_cast<int>(i));
      },
      num_threads);
}

void ParallelForTasks(int count, const std::function<void(int)>& fn,
                      int num_threads) {
  ParallelFor(count, fn, num_threads, /*grain=*/1);
}

void ParallelForBlocked(int64_t count, int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn,
                        int num_threads) {
  if (count <= 0) return;
  if (grain < 1) grain = 1;
  const int64_t num_blocks = (count + grain - 1) / grain;
  if (num_threads <= 0) num_threads = DefaultParallelism();
  num_threads = static_cast<int>(
      std::min<int64_t>(num_threads, num_blocks));
  if (num_threads <= 1 || num_blocks == 1) {
    for (int64_t b = 0; b < num_blocks; ++b) {
      int64_t begin = b * grain;
      fn(begin, std::min(begin + grain, count));
    }
    return;
  }

  std::atomic<int64_t> next{0};
  auto worker = [&]() {
    // Nested-oversubscription cap: fn already runs on `num_threads` workers,
    // so parallel helpers it calls with num_threads = 0 run inline here.
    ScopedParallelism nested_cap(1);
    for (;;) {
      int64_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_blocks) return;
      int64_t begin = b * grain;
      fn(begin, std::min(begin + grain, count));
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_threads) - 1);
  for (int t = 1; t < num_threads; ++t) threads.emplace_back(worker);
  worker();  // this thread participates
  for (std::thread& t : threads) t.join();
}

double ParallelBlockedSum(int64_t count, int64_t grain,
                          const std::function<double(int64_t, int64_t)>& block,
                          int num_threads) {
  return ParallelBlockedReduce<double>(
      count, grain, 0.0, block,
      [](double a, double b) { return a + b; }, num_threads);
}

}  // namespace roadpart
