#ifndef ROADPART_PERFBENCH_HARNESS_H_
#define ROADPART_PERFBENCH_HARNESS_H_

// Shared plumbing of the repository benchmark (perfbench/README.md): run
// configuration, the metric tables BENCHMARK.json mirrors, the report every
// workload fills, and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace roadpart::perfbench {

/// Deliberate output corruptions, one per correctness check, used by
/// test_perfbench.py to prove each check can fail. kNone in real runs.
enum class Corruption {
  kNone,
  kLabelRange,       // cold: one label set to k (out of range)
  kLabelDisconnect,  // cold: one interior segment moved to another partition
  kThreadLabel,      // cold: 2-thread assignment differs in one label
  kDecompLabel,      // cold: traced decomposition differs in one label
  kSnapshotByte,     // live: one byte of a replayed snapshot flipped
  kReplayAns,        // live: one replayed interval's ANS off by one ulp
  kServedAnswer,     // cold + live: one served answer byte altered
};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // D1 preset and a short series: smoke tests only
  Corruption corrupt = Corruption::kNone;
  std::string work_dir;  // fresh per run; holds pipeline state and traces
  double start_s = 0.0;  // NowSeconds() at program start (setup_s origin)
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics every untraced run reports, in BENCHMARK.json order.
const std::vector<MetricSpec>& EndToEndMetrics();
/// The metrics every traced run reports, in BENCHMARK.json order.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Everything one run reports: metric values, the operation ledger, and
/// the outcome of every correctness check.
class Report {
 public:
  void Metric(const std::string& name, double value) {
    metrics_[name] = value;
  }
  /// Records one correctness check; a failed check makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  /// Declares a metric the workload does not exercise: it reports 0.
  void NotExercised(const std::string& name) { not_exercised_.insert(name); }
  void Attempt(int64_t n = 1) { attempted_ += n; }
  /// Counts `n` failed operations under a kebab-case reason.
  void Fail(const std::string& reason, int64_t n = 1);

  bool correct() const { return correct_; }
  const std::vector<std::pair<std::string, int64_t>>& failures() const {
    return failures_;
  }

  /// The single-line JSON result of the benchmark contract, with the
  /// metrics of `specs` in order. A metric that is neither reported nor
  /// declared NotExercised, or a non-finite value, marks the run incorrect
  /// (so call this before reading correct()).
  std::string ResultJson(const std::vector<MetricSpec>& specs);

 private:
  std::map<std::string, double> metrics_;
  std::set<std::string> not_exercised_;
  std::vector<std::pair<std::string, int64_t>> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of a non-empty sample.
double Median(std::vector<double> v);
/// Linear-interpolated percentile (q in [0, 1]) of a non-empty sample.
double Percentile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);
/// Median of a[i] - b[i] over the pairs both samples have; 0 when none.
double MedianPairedDifference(const std::vector<double>& a,
                              const std::vector<double>& b);
/// Peak resident set of this process so far, in MiB.
double PeakRssMb();
/// Size of a file in bytes; 0 when it cannot be read.
double FileBytes(const std::string& path);

}  // namespace roadpart::perfbench

#endif  // ROADPART_PERFBENCH_HARNESS_H_
