#include "temporal/interval_driver.h"

#include <string>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/partition_tracker.h"
#include "metrics/partition_metrics.h"

namespace roadpart {

Result<AdoptedInterval> AdoptInterval(
    const RoadGraph& graph, const std::vector<double>& densities,
    const DistributedRepartitionResult& refresh, PartitionTracker* tracker) {
  const RepartitionRefreshStats& stats = refresh.stats;
  if (stats.failed > 0) {
    return Status::WithCode(
        stats.first_failure,
        StrPrintf("%d of %d region re-cuts failed (first: %s)", stats.failed,
                  stats.regions, StatusCodeKebab(stats.first_failure)));
  }
  AdoptedInterval adopted;
  RP_ASSIGN_OR_RETURN(adopted.ans,
                      AverageNcutSilhouette(graph.adjacency(), densities,
                                            refresh.assignment));
  RP_ASSIGN_OR_RETURN(adopted.assignment, tracker->Align(refresh.assignment));
  adopted.churn = tracker->last_churn();
  return adopted;
}

Result<IntervalDriveResult> DriveIntervals(
    const RoadGraph& road_graph, const SnapshotSeries& series,
    const IntervalDriverOptions& options) {
  if (series.num_segments() != road_graph.num_nodes()) {
    return Status::InvalidArgument(
        "series segment count does not match the road graph");
  }
  if (series.num_snapshots() == 0) {
    return Status::InvalidArgument("empty snapshot series");
  }

  IntervalDriveResult result;

  // Snapshot 0: one full top-level partition fixes the regions the
  // incremental engine is bound to for the rest of the series.
  RoadGraph graph = road_graph;  // mutable copy for per-snapshot features
  RP_RETURN_IF_ERROR(graph.SetFeatures(series.densities(0)));
  Timer timer;
  RP_ASSIGN_OR_RETURN(PartitionOutcome initial,
                      Partitioner(options.initial).PartitionRoadGraph(graph));
  result.initial_seconds = timer.Seconds();
  result.regions = std::move(initial.assignment);
  result.k_top = initial.k_final;

  RP_ASSIGN_OR_RETURN(IncrementalRepartitioner engine,
                      IncrementalRepartitioner::Create(graph, result.regions,
                                                       options.refresh));

  PartitionTracker tracker;
  result.steps.reserve(series.num_snapshots());
  for (int t = 0; t < series.num_snapshots(); ++t) {
    const std::vector<double>& densities = series.densities(t);
    IntervalStep step;
    step.timestamp_seconds = series.timestamp(t);

    auto refresh = engine.Refresh(densities);
    Result<AdoptedInterval> adopted =
        refresh.ok()
            ? AdoptInterval(graph, densities, *refresh, &tracker)
            : Result<AdoptedInterval>(refresh.status());
    if (refresh.ok()) {
      step.k_final = refresh->k_final;
      step.seconds = refresh->seconds;
      step.stats = std::move(refresh->stats);
    }
    if (adopted.ok()) {
      step.assignment = std::move(adopted->assignment);
      step.ans = adopted->ans;
      step.churn = adopted->churn;
    } else {
      // Per-interval isolation: record the typed code and repeat the last
      // good state — the previous step's, which a failed step repeats in
      // turn, or the frozen regions before any step. The tracker has not
      // moved; the engine's incremental cache evolves on every successful
      // Refresh, which keeps later intervals identical to a run without
      // the failure.
      step.error_code = adopted.status().code();
      step.error_message = std::string(adopted.status().message());
      if (result.steps.empty()) {
        step.assignment = result.regions;
        step.k_final = result.k_top;
      } else {
        const IntervalStep& last_good = result.steps.back();
        step.assignment = last_good.assignment;
        step.k_final = last_good.k_final;
        step.ans = last_good.ans;
      }
    }
    result.steps.push_back(std::move(step));
  }
  return result;
}

}  // namespace roadpart
