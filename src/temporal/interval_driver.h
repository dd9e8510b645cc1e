#ifndef ROADPART_TEMPORAL_INTERVAL_DRIVER_H_
#define ROADPART_TEMPORAL_INTERVAL_DRIVER_H_

/// The Section 6.4 interval loop over a snapshot series.
///
/// Where evolution_analyzer.h re-partitions the whole network at every
/// snapshot (the paper's repeated-partitioning workflow), this driver runs
/// the *incremental* regime: one full top-level partition at the first
/// snapshot establishes the regions, then every later snapshot flows through
/// an IncrementalRepartitioner refresh — dirty-region detection, cached cuts
/// for clean regions, warm-started eigensolves for dirty ones. Region ids
/// are kept stable across intervals with a PartitionTracker and quality is
/// measured per interval (ANS), so callers can compare the incremental
/// refresh against full re-partitioning on both cost and quality.

#include <string>
#include <vector>

#include "common/status.h"
#include "core/distributed_repartition.h"
#include "core/partition_tracker.h"
#include "core/partitioner.h"
#include "network/road_graph.h"
#include "temporal/snapshot_series.h"

namespace roadpart {

/// Options for the incremental interval loop.
struct IntervalDriverOptions {
  /// Top-level partition at the first snapshot; its `k` is the region count
  /// the refreshes are bound to.
  PartitionerOptions initial;
  /// Per-interval refresh configuration (inner partitioner, dirty triggers,
  /// warm start, fan-out threads).
  DistributedRepartitionOptions refresh;
};

/// One interval's outcome.
struct IntervalStep {
  double timestamp_seconds = 0.0;
  std::vector<int> assignment;  ///< tracked (stable) sub-partition ids
  int k_final = 0;
  double ans = 0.0;      ///< partition quality at this snapshot
  double churn = 0.0;    ///< fraction of segments changing label vs previous
  double seconds = 0.0;  ///< wall time of this interval's refresh
  RepartitionRefreshStats stats;  ///< dirty/clean/warm counters, phases
  /// kOk for a healthy interval. A failed refresh, failed region re-cut,
  /// align or metric error sets the typed code here (the first failed
  /// region's code for kept-whole regions — see
  /// RegionRefreshInfo::failure); `assignment`, `k_final` and `ans` repeat
  /// the last good interval's values (the frozen regions before any good
  /// interval), and `churn` is 0 — nothing moved, because nothing was
  /// adopted.
  StatusCode error_code = StatusCode::kOk;
  std::string error_message;  ///< empty when error_code == kOk

  bool ok() const { return error_code == StatusCode::kOk; }
};

/// Outcome of driving a whole series.
struct IntervalDriveResult {
  std::vector<int> regions;  ///< the frozen top-level region assignment
  int k_top = 0;             ///< number of regions
  double initial_seconds = 0.0;  ///< cost of the snapshot-0 full partition
  /// One step per snapshot from the first onward. Step 0 is the initial full
  /// partition re-cut into sub-partitions (the engine's cold refresh); later
  /// steps are incremental.
  std::vector<IntervalStep> steps;
};

/// What adopting one interval yields.
struct AdoptedInterval {
  std::vector<int> assignment;  ///< tracked (stable) sub-partition ids
  double ans = 0.0;             ///< quality of the refreshed partition
  double churn = 0.0;           ///< fraction relabelled vs the tracker
};

/// The one interval-adoption step of the Section 6.4 loop, shared by
/// DriveIntervals and the pipeline (pipeline/controller.h). Takes a
/// successful refresh over `densities` and:
///  1. refuses it when any region re-cut failed (those regions were kept
///     whole, so the merged partition is valid but known degraded), with
///     the first failed region's code;
///  2. measures its ANS over `graph`'s adjacency and `densities`;
///  3. aligns its labels with `tracker`.
/// Align goes last because it advances the tracker: once it succeeds the
/// interval is adopted, and any error returned leaves `tracker` untouched.
Result<AdoptedInterval> AdoptInterval(
    const RoadGraph& graph, const std::vector<double>& densities,
    const DistributedRepartitionResult& refresh, PartitionTracker* tracker);

/// Runs the incremental interval loop over `series`: full partition at
/// snapshot 0 (regions), engine refresh at every snapshot, then
/// AdoptInterval. Deterministic for a fixed configuration — thread counts
/// change wall times only, never any assignment byte.
///
/// Failure containment: an interval whose refresh or adoption fails is
/// RECORDED, not fatal — its IntervalStep carries the typed error and the
/// last good assignment, and later intervals proceed against the engine
/// unchanged. Only the snapshot-0 full partition and engine construction
/// are fatal (there is no last good state to fall back to).
Result<IntervalDriveResult> DriveIntervals(const RoadGraph& road_graph,
                                           const SnapshotSeries& series,
                                           const IntervalDriverOptions& options);

}  // namespace roadpart

#endif  // ROADPART_TEMPORAL_INTERVAL_DRIVER_H_
