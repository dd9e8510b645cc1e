#include "perfbench/queries.h"

#include <memory>

#include "common/rng.h"
#include "common/string_util.h"

namespace roadpart::perfbench {

std::vector<QueryWindow> MakeQueryWindows(const BoundingBox& bounds,
                                          uint64_t seed, int count,
                                          int per_window) {
  const double w = bounds.WidthMetres(), h = bounds.HeightMetres();
  const double x0 = bounds.min.x - 0.05 * w, x1 = bounds.max.x + 0.05 * w;
  const double y0 = bounds.min.y - 0.05 * h, y1 = bounds.max.y + 0.05 * h;
  Rng rng(seed);
  std::vector<QueryWindow> windows(count);
  for (QueryWindow& window : windows) {
    window.queries.reserve(per_window);
    for (int i = 0; i < per_window; ++i) {
      Query q;
      q.range = rng.NextDouble() < 0.1;
      if (!q.range) {
        q.a = rng.NextDouble(x0, x1);
        q.b = rng.NextDouble(y0, y1);
        window.text += StrPrintf("point %.17g %.17g\n", q.a, q.b);
      } else {
        const double half_w = 0.5 * rng.NextDouble(0.02, 0.10) * w;
        const double half_h = 0.5 * rng.NextDouble(0.02, 0.10) * h;
        const double cx = rng.NextDouble(x0, x1), cy = rng.NextDouble(y0, y1);
        q.a = cx - half_w;
        q.b = cy - half_h;
        q.c = cx + half_w;
        q.d = cy + half_h;
        window.text += StrPrintf("range %.17g %.17g %.17g %.17g\n", q.a, q.b,
                                 q.c, q.d);
      }
      window.queries.push_back(q);
    }
  }
  return windows;
}

void ServeWindow(ServeRuntime& runtime, const QueryWindow& window,
                 int64_t group, Corruption corrupt, Tracer& tracer,
                 Report& report, ServeTally& tally) {
  ScopedSpan root(tracer, "window", group);
  const std::shared_ptr<const Snapshot> snapshot =
      runtime.snapshot_manager().Current();
  const int64_t lines = static_cast<int64_t>(window.queries.size());
  report.Attempt(lines);
  if (snapshot == nullptr) {
    report.Fail("no-snapshot-to-serve", lines);
    return;
  }
  const ServeRuntimeStats before = runtime.stats();
  std::string served;
  Status status;
  const double start = NowSeconds();
  {
    ScopedSpan span(tracer, "serve.batch", group);
    status = runtime.ServeBatch(window.text, &served);
  }
  const double batch_seconds = NowSeconds() - start;
  if (!status.ok()) {
    report.Fail("serve-" + std::string(StatusCodeKebab(status.code())),
                lines);
    return;
  }
  const ServeRuntimeStats& after = runtime.stats();
  tally.answered += after.served - before.served;
  tally.seconds += batch_seconds;
  report.Fail("query-error", after.errored - before.errored);
  report.Fail("query-shed", after.shed - before.shed);

  std::vector<PointAnswer> points;
  std::vector<std::vector<int64_t>> ranges;
  points.reserve(window.queries.size());
  {
    ScopedSpan span(tracer, "serve.index", group);
    for (const Query& q : window.queries) {
      if (q.range) {
        BoundingBox box;
        box.min = {q.a, q.b};
        box.max = {q.c, q.d};
        ranges.push_back(snapshot->CountByPartition(box));
      } else {
        points.push_back(snapshot->NearestSegment({q.a, q.b}));
      }
    }
  }
  std::string expected;
  size_t next_point = 0, next_range = 0;
  for (const Query& q : window.queries) {
    if (!q.range) {
      const PointAnswer& a = points[next_point++];
      expected += a.segment_id < 0
                      ? std::string("point -1 -1 -1\n")
                      : StrPrintf("point %d %d %.17g\n", a.segment_id,
                                  a.partition_id, a.distance);
      continue;
    }
    const std::vector<int64_t>& counts = ranges[next_range++];
    int64_t total = 0;
    for (int64_t c : counts) total += c;
    expected += StrPrintf("range %lld", static_cast<long long>(total));
    for (int64_t c : counts) {
      expected += StrPrintf(" %lld", static_cast<long long>(c));
    }
    expected += '\n';
  }
  if (corrupt == Corruption::kServedAnswer && !served.empty()) {
    served[served.size() / 2] ^= 1;
  }
  report.Check("served-answers-match-direct-snapshot-api", served == expected,
               StrPrintf("window %lld", static_cast<long long>(group)));
}

void ReportServeLayers(const GroupSecondsMap& self, Report& report) {
  const double batch = MedianOf(self, "window/serve.batch", report);
  const double index = MedianOf(self, "window/serve.index", report);
  report.Metric("serve.batch_s", batch);
  report.Metric("serve.index_s", index);
  report.Metric("serve.text_s", batch - index);
}

}  // namespace roadpart::perfbench
