#include "perfbench/trace.h"

#include <cstdio>

#include "common/check.h"

namespace roadpart::perfbench {

int Tracer::Begin(const char* name, int64_t group) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.group = group;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(id);
  // Stamp last, so the recorder's own bookkeeping stays outside the span.
  spans_.back().start = NowSeconds();
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[id].end = NowSeconds();
  // ScopedSpan closes spans in LIFO order.
  RP_CHECK(!open_.empty() && open_.back() == id);
  open_.pop_back();
}

GroupSecondsMap Tracer::GroupSeconds(bool self_time) const {
  const size_t n = spans_.size();
  std::vector<double> seconds(n);
  std::vector<size_t> root(n);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    seconds[i] = s.end - s.start;
    // Parents are recorded before their children.
    root[i] = s.parent < 0 ? i : root[static_cast<size_t>(s.parent)];
  }
  if (self_time) {
    for (const Span& s : spans_) {
      if (s.parent >= 0) seconds[s.parent] -= s.end - s.start;
    }
  }
  std::map<std::string, std::map<int64_t, double>> sums;  // key -> group
  for (size_t i = 0; i < n; ++i) {
    sums[spans_[root[i]].name + "/" + spans_[i].name][spans_[i].group] +=
        seconds[i];
  }
  GroupSecondsMap out;
  for (const auto& [key, by_group] : sums) {
    for (const auto& [group, total] : by_group) out[key].push_back(total);
  }
  return out;
}

double MedianOf(const GroupSecondsMap& groups, const std::string& key,
                Report& report) {
  auto it = groups.find(key);
  report.Check("layer-recorded", it != groups.end(), key);
  return it == groups.end() ? 0.0 : Median(it->second);
}

double MeanOf(const GroupSecondsMap& groups, const std::string& key,
              Report& report) {
  auto it = groups.find(key);
  report.Check("layer-recorded", it != groups.end(), key);
  return it == groups.end() ? 0.0 : Mean(it->second);
}

double LayerSecondsUnder(const GroupSecondsMap& self,
                         const std::string& root) {
  const std::string prefix = root + "/";
  double sum = 0.0;
  for (const auto& [key, per_group] : self) {
    if (key.rfind(prefix, 0) == 0 && key != prefix + root) {
      sum += Median(per_group);
    }
  }
  return sum;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d, \"group\": %lld}\n",
                 i, s.name.c_str(), s.start - origin, s.end - origin,
                 s.parent, static_cast<long long>(s.group));
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace roadpart::perfbench
