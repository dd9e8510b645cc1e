#ifndef ROADPART_PERFBENCH_QUERIES_H_
#define ROADPART_PERFBENCH_QUERIES_H_

// Seeded serving query windows and the served-vs-direct answer check shared
// by the cold_asg and live workloads.

#include <cstdint>
#include <string>
#include <vector>

#include "network/geometry.h"
#include "perfbench/harness.h"
#include "perfbench/trace.h"
#include "serve/runtime.h"
#include "serve/snapshot.h"

namespace roadpart::perfbench {

struct Query {
  bool range = false;
  double a = 0.0, b = 0.0, c = 0.0, d = 0.0;  // x y | minx miny maxx maxy
};

/// One window: the query text ServeBatch parses and the same queries
/// pre-parsed for the direct Snapshot calls.
struct QueryWindow {
  std::string text;
  std::vector<Query> queries;
};

/// `count` windows of `per_window` queries, 90% `point` / 10% `range`,
/// uniform over `bounds` grown by 5% on each side. Coordinates print with
/// %.17g, so the text parses back to exactly the pre-parsed doubles.
std::vector<QueryWindow> MakeQueryWindows(const BoundingBox& bounds,
                                          uint64_t seed, int count,
                                          int per_window);

/// Answered queries and ServeBatch seconds, summed over query windows.
struct ServeTally {
  int64_t answered = 0;
  double seconds = 0.0;

  /// serve_qps: answered queries per second over all the windows. A
  /// per-window median is bimodal on a host that switches between a quiet
  /// and a contended state, where serving runs ~1.5x slower; the total rate
  /// moves with the share of each state instead of jumping between them.
  double Qps() const { return seconds > 0.0 ? answered / seconds : 0.0; }
};

/// Serves `window` through `runtime` (span "serve.batch"), answers the same
/// pre-parsed queries through the direct Snapshot API on the runtime's
/// current snapshot (span "serve.index", untimed formatting afterwards) and
/// checks both answer texts are byte-equal. Query lines answered `error` or
/// `shed` count as failed operations. Spans nest under a "window" root.
/// Adds the window's answered queries and ServeBatch time to `tally`.
void ServeWindow(ServeRuntime& runtime, const QueryWindow& window,
                 int64_t group, Corruption corrupt, Tracer& tracer,
                 Report& report, ServeTally& tally);

/// Reports serve.batch_s, serve.index_s and their difference serve.text_s
/// (parsing plus formatting): median self times of the "window" spans.
void ReportServeLayers(const GroupSecondsMap& self, Report& report);

}  // namespace roadpart::perfbench

#endif  // ROADPART_PERFBENCH_QUERIES_H_
