#include "serve/serve_loop.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace roadpart {
namespace {

enum class QueryKind : uint8_t { kPoint, kRange, kError, kShed };

struct ParsedQuery {
  QueryKind kind;
  size_t line = 0;          // 1-based, stream-global (first_line_number offset)
  const char* reason = "";  // stable kebab code for kError / kShed answers
  double a = 0.0, b = 0.0, c = 0.0, d = 0.0;  // x,y or minx,miny,maxx,maxy
};

/// Outcome of parsing one query line: `code` is null on success, else the
/// stable reason token for an `error` answer, with `detail` carrying the
/// human sentence used by strict-mode InvalidArgument messages.
struct ParseError {
  const char* code = nullptr;
  const char* detail = nullptr;
};

ParseError ParseQueryLine(std::string_view line, ParsedQuery* out) {
  std::vector<std::string> raw = Split(line, ' ');
  std::vector<std::string_view> tokens;
  for (const std::string& t : raw) {
    std::string_view v = Trim(t);
    if (!v.empty()) tokens.push_back(v);
  }
  if (tokens[0] != "point" && tokens[0] != "range") {
    return {"bad-verb", "expected 'point' or 'range'"};
  }
  const size_t want = tokens[0] == "point" ? 2 : 4;
  if (tokens.size() != want + 1) {
    return {"bad-arity", tokens[0] == "point"
                             ? "'point' takes exactly x y"
                             : "'range' takes exactly minx miny maxx maxy"};
  }
  double values[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < want; ++i) {
    Result<double> parsed = ParseDouble(tokens[i + 1]);
    if (!parsed.ok()) return {"bad-coordinate", "unparsable coordinate"};
    if (!std::isfinite(*parsed)) {
      return {"bad-coordinate", "non-finite coordinate"};
    }
    values[i] = *parsed;
  }
  if (tokens[0] == "range" &&
      (values[0] > values[2] || values[1] > values[3])) {
    // An inverted box is a malformed query, never a silently-empty result:
    // the closed-bounds contract makes minx == maxx legal, but minx > maxx
    // can only be a caller that swapped its coordinates.
    return {"inverted-box", "range box has minx > maxx or miny > maxy"};
  }
  out->kind = tokens[0] == "point" ? QueryKind::kPoint : QueryKind::kRange;
  out->a = values[0];
  out->b = values[1];
  out->c = values[2];
  out->d = values[3];
  return {};
}

void AppendAnswer(const Snapshot& snapshot, const ParsedQuery& q,
                  std::string* out) {
  switch (q.kind) {
    case QueryKind::kError:
      out->append(StrPrintf("error %zu %s\n", q.line, q.reason));
      return;
    case QueryKind::kShed:
      out->append(StrPrintf("shed %zu %s\n", q.line, q.reason));
      return;
    case QueryKind::kPoint: {
      const PointAnswer a = snapshot.NearestSegment({q.a, q.b});
      if (a.segment_id < 0) {
        out->append("point -1 -1 -1\n");
      } else {
        out->append(StrPrintf("point %d %d %.17g\n", a.segment_id,
                              a.partition_id, a.distance));
      }
      return;
    }
    case QueryKind::kRange:
      break;
  }
  BoundingBox box;
  box.min = {q.a, q.b};
  box.max = {q.c, q.d};
  const std::vector<int64_t> counts = snapshot.CountByPartition(box);
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  out->append(StrPrintf("range %lld", static_cast<long long>(total)));
  for (int64_t c : counts) {
    out->append(StrPrintf(" %lld", static_cast<long long>(c)));
  }
  out->push_back('\n');
}

}  // namespace

Status ServeQueries(const Snapshot& snapshot, std::string_view queries,
                    const ServeOptions& options, std::string* output,
                    ServeBatchStats* stats) {
  const bool isolate =
      options.on_malformed == MalformedQueryPolicy::kIsolate;
  // Fault sites and the deadline clock are consulted once per call, from
  // serial code, so degraded output is a pure function of the input.
  const bool overflow_injected =
      RP_FAULT_FIRES(FaultSite::kServeShedOverflow);
  const bool timeout_injected =
      RP_FAULT_FIRES(FaultSite::kServeQueryTimeout);
  Timer deadline_timer;

  // Parse + admit serially: errors stay deterministic and name their line,
  // and the admitted/errored/shed decision for every line is fixed before
  // any parallel work starts.
  std::vector<ParsedQuery> parsed;
  ServeBatchStats tally;
  int64_t admitted_queries = 0;
  int64_t admitted_bytes = 0;
  size_t local_line = 0;
  size_t pos = 0;
  while (pos <= queries.size()) {
    const size_t eol = queries.find('\n', pos);
    const size_t end = eol == std::string_view::npos ? queries.size() : eol;
    if (pos == queries.size() && eol == std::string_view::npos) break;
    ++local_line;
    std::string_view line = Trim(queries.substr(pos, end - pos));
    const size_t line_bytes = end - pos;
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;

    ParsedQuery q;
    q.line = options.first_line_number + local_line - 1;
    // Admission first: a shed line is refused before any parsing work, the
    // same order a saturated server applies. The injected overflow
    // collapses the query budget to zero for this call.
    const char* shed_reason = nullptr;
    if (overflow_injected || (options.max_inflight_queries > 0 &&
                              admitted_queries >=
                                  options.max_inflight_queries)) {
      shed_reason = "queue-full";
    } else if (options.max_inflight_bytes > 0 &&
               admitted_bytes + static_cast<int64_t>(line_bytes) >
                   options.max_inflight_bytes) {
      shed_reason = "byte-budget";
    }
    if (shed_reason != nullptr) {
      q.kind = QueryKind::kShed;
      q.reason = shed_reason;
      parsed.push_back(q);
      continue;
    }
    const ParseError err = ParseQueryLine(line, &q);
    if (err.code != nullptr) {
      if (!isolate) {
        return Status::InvalidArgument(
            StrPrintf("query line %zu: %s", q.line, err.detail));
      }
      q.kind = QueryKind::kError;
      q.reason = err.code;
      parsed.push_back(q);
      continue;
    }
    ++admitted_queries;
    admitted_bytes += static_cast<int64_t>(line_bytes);
    parsed.push_back(q);
  }

  // Per-batch deadline, checked once at the serial boundary before the
  // fan-out (PR-3 idiom: module boundaries, never inside a kernel). On
  // expiry every *admitted* query sheds; error/shed lines keep their more
  // specific diagnosis.
  const bool deadline_expired =
      timeout_injected || (options.deadline_seconds > 0.0 &&
                           deadline_timer.Seconds() >
                               options.deadline_seconds);
  if (deadline_expired && !parsed.empty()) {
    if (!isolate) {
      return Status::DeadlineExceeded(
          StrPrintf("serve batch deadline of %.3fs expired before dispatch",
                    options.deadline_seconds));
    }
    for (ParsedQuery& q : parsed) {
      if (q.kind == QueryKind::kPoint || q.kind == QueryKind::kRange) {
        q.kind = QueryKind::kShed;
        q.reason = "deadline";
      }
    }
  }

  for (const ParsedQuery& q : parsed) {
    switch (q.kind) {
      case QueryKind::kPoint: ++tally.answered_point; break;
      case QueryKind::kRange: ++tally.answered_range; break;
      case QueryKind::kError: ++tally.errored; break;
      case QueryKind::kShed: ++tally.shed; break;
    }
  }
  if (stats != nullptr) *stats = tally;
  if (parsed.empty()) return Status::OK();

  const int batch = options.batch_size < 1 ? 1 : options.batch_size;
  const int num_batches =
      static_cast<int>((parsed.size() + batch - 1) / static_cast<size_t>(batch));
  std::vector<std::string> answers(static_cast<size_t>(num_batches));
  // Each batch formats into a lambda-local buffer, then moves it into its
  // own slot; the serial join below fixes the output order for every
  // thread count.
  ParallelForTasks(
      num_batches,
      [&](int b) {
        const size_t begin = static_cast<size_t>(b) * batch;
        const size_t end = std::min(parsed.size(), begin + batch);
        std::string local;
        for (size_t i = begin; i < end; ++i) {
          AppendAnswer(snapshot, parsed[i], &local);
        }
        answers[static_cast<size_t>(b)] = std::move(local);
      },
      options.num_threads);
  for (const std::string& a : answers) output->append(a);
  return Status::OK();
}

}  // namespace roadpart
