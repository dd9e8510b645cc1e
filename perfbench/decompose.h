#ifndef ROADPART_PERFBENCH_DECOMPOSE_H_
#define ROADPART_PERFBENCH_DECOMPOSE_H_

// The traced decomposition of one cold ASG partition: the path
// Partitioner::PartitionRoadGraph takes for Scheme::kASG, rebuilt from the
// library's public calls so each layer can be timed from outside. The
// alpha-Cut embedding is re-assembled from its public pieces (the sparse
// operator, the rank-one update, ExtremeEigenvectors and RowNormalize) with
// the operator wrapped in a counting LinearOperator. The result must equal
// the Partitioner's assignment bit for bit; the workloads check that.

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/partitioner.h"
#include "network/road_graph.h"
#include "perfbench/harness.h"
#include "perfbench/trace.h"

namespace roadpart::perfbench {

struct DecomposeResult {
  std::vector<int> assignment;
  int num_supernodes = 0;
  EigenSolveDiagnostics eigen;  // every solve of the cut
  int64_t operator_applies = 0;
};

/// Modules 2-3 of an ASG partition of `graph` under `options` (which must
/// select Scheme::kASG with the default density policy, no refinement and
/// no checkpointing). Spans: core.mine, core.kway > core.embed >
/// {linalg.eigensolve, core.row_normalize}, core.expand, plus
/// network.sanitize for the density validation the Partitioner runs first.
Result<DecomposeResult> DecomposeAsg(const RoadGraph& graph,
                                     const PartitionerOptions& options,
                                     Tracer& tracer, int64_t group);

/// The per-cut counters of a run's traced decompositions.
struct CutCounters {
  std::vector<double> applies, solves, restarts, path, supernodes;

  void Add(const DecomposeResult& result);
};

/// Reports the cut-path layer metrics: the median self times of the spans
/// under the "partition" root (`total` gives the whole of core.kway) and
/// the median per-cut counters.
void ReportCutLayers(const GroupSecondsMap& self, const GroupSecondsMap& total,
                     const CutCounters& counters, Report& report);

}  // namespace roadpart::perfbench

#endif  // ROADPART_PERFBENCH_DECOMPOSE_H_
