#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/check.h"
#include "common/string_util.h"

namespace roadpart::perfbench {

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: correctness check '%s' FAILED%s%s\n",
               name.c_str(), detail.empty() ? "" : ": ", detail.c_str());
}

void Report::Fail(const std::string& reason, int64_t n) {
  if (n <= 0) return;
  failed_ += n;
  for (auto& [r, count] : failures_) {
    if (r == reason) {
      count += n;
      return;
    }
  }
  failures_.push_back({reason, n});
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"partition_s", "s"},    {"ans", "ans"},
      {"interval_s_p50", "s"}, {"interval_s_p90", "s"},
      {"serve_qps", "1/s"},    {"ans_mean", "ans"},
      {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"network.dual_graph_s", "s"},
      {"core.mine_s", "s"},
      {"core.supernodes", "count"},
      {"core.kway_s", "s"},
      {"core.embed_s", "s"},
      {"linalg.eigensolve_s", "s"},
      {"core.row_normalize_s", "s"},
      {"linalg.eigensolves", "count"},
      {"linalg.operator_applies", "count"},
      {"linalg.lanczos_restarts", "count"},
      {"linalg.solver_path", "rung"},
      {"core.kway_rest_s", "s"},
      {"core.expand_s", "s"},
      {"network.sanitize_s", "s"},
      {"core.refresh_s", "s"},
      {"core.dirty_regions", "count"},
      {"core.clean_regions", "count"},
      {"core.warm_attempts", "count"},
      {"core.warm_accept_ratio", "ratio"},
      {"metrics.ans_s", "s"},
      {"core.align_s", "s"},
      {"serve.snapshot_build_s", "s"},
      {"serve.snapshot_save_s", "s"},
      {"serve.snapshot_bytes", "bytes"},
      {"serve.reload_s", "s"},
      {"core.cache_save_s", "s"},
      {"pipeline.journal_save_s", "s"},
      {"pipeline.journal_bytes", "bytes"},
      {"serve.batch_s", "s"},
      {"serve.index_s", "s"},
      {"serve.text_s", "s"},
      {"trace.unexplained_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return specs;
}

std::string Report::ResultJson(const std::vector<MetricSpec>& specs) {
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = metrics_.find(spec.name);
    double value = 0.0;
    if (it != metrics_.end()) {
      value = it->second;
    } else if (!not_exercised_.contains(spec.name)) {
      Check("metric-emitted", false, spec.name);
    }
    if (!std::isfinite(value)) {
      // JSON has no NaN/Inf.
      Check("metric-finite", false, spec.name);
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += StrPrintf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         spec.name, value, spec.unit);
  }
  return StrPrintf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}",
      correct_ ? "true" : "false", static_cast<long long>(attempted_),
      static_cast<long long>(failed_), metrics.c_str());
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  RP_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  RP_CHECK(!v.empty());
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double MedianPairedDifference(const std::vector<double>& a,
                              const std::vector<double>& b) {
  std::vector<double> differences;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    differences.push_back(a[i] - b[i]);
  }
  return differences.empty() ? 0.0 : Median(std::move(differences));
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace roadpart::perfbench
