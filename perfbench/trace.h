#ifndef ROADPART_PERFBENCH_TRACE_H_
#define ROADPART_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark runs. Spans are opened
// and closed by the benchmark's own code around calls into each library
// layer (no library file is instrumented), from one thread, and written out
// once when the run ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace roadpart::perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds, steady clock
  double end = 0.0;
  int parent = -1;     // index into the span list, -1 for a root
  int64_t group = 0;   // shared by the spans of one partition/interval/window
};

using GroupSecondsMap = std::map<std::string, std::vector<double>>;

class Tracer {
 public:
  /// A disabled tracer records nothing; Begin/End cost one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span nested under the innermost open span. Returns its id, or
  /// -1 when disabled.
  int Begin(const char* name, int64_t group);
  void End(int id);

  /// Per-group time of every span name, keyed "<root name>/<span name>":
  /// spans of one name are summed within a group, with one entry for every
  /// group in which such a span ran. With `self_time`, a span counts its
  /// duration minus the time its direct children cover.
  GroupSecondsMap GroupSeconds(bool self_time) const;

  /// Writes every span as one JSON object per line. Returns false on I/O
  /// failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Median / mean of one Tracer::GroupSeconds entry. An absent entry (the
/// layer's span was never recorded) fails the "layer-recorded" check and
/// reads 0.
double MedianOf(const GroupSecondsMap& groups, const std::string& key,
                Report& report);
double MeanOf(const GroupSecondsMap& groups, const std::string& key,
              Report& report);

/// Sum of the medians of every "<root>/<span>" entry under `root`, the root
/// span itself excluded: the layer self times of one root operation.
double LayerSecondsUnder(const GroupSecondsMap& self, const std::string& root);

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t group)
      : tracer_(tracer), id_(tracer.Begin(name, group)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace roadpart::perfbench

#endif  // ROADPART_PERFBENCH_TRACE_H_
