#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "netgen/grid_generator.h"
#include "network/road_graph.h"
#include "pipeline/controller.h"
#include "temporal/evolution_analyzer.h"
#include "temporal/interval_driver.h"
#include "temporal/snapshot_series.h"
#include "traffic/congestion_field.h"

namespace roadpart {
namespace {

// --- SnapshotSeries ---

TEST(SnapshotSeriesTest, AppendValidates) {
  SnapshotSeries series(3);
  EXPECT_TRUE(series.Append(0.0, {1.0, 2.0, 3.0}).ok());
  EXPECT_FALSE(series.Append(1.0, {1.0, 2.0}).ok());        // wrong size
  EXPECT_FALSE(series.Append(0.0, {1.0, 2.0, 3.0}).ok());   // non-increasing
  EXPECT_FALSE(series.Append(2.0, {1.0, -2.0, 3.0}).ok());  // negative
  EXPECT_EQ(series.num_snapshots(), 1);
}

TEST(SnapshotSeriesTest, MeanDensity) {
  SnapshotSeries series(4);
  ASSERT_TRUE(series.Append(0.0, {1.0, 2.0, 3.0, 4.0}).ok());
  EXPECT_DOUBLE_EQ(series.MeanDensity(0), 2.5);
}

TEST(SnapshotSeriesTest, SegmentStatistics) {
  SnapshotSeries series(2);
  ASSERT_TRUE(series.Append(0.0, {1.0, 10.0}).ok());
  ASSERT_TRUE(series.Append(1.0, {3.0, 10.0}).ok());
  auto means = series.SegmentMeans();
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 10.0);
  auto stds = series.SegmentStdDevs();
  EXPECT_DOUBLE_EQ(stds[0], 1.0);  // values 1, 3 around mean 2
  EXPECT_DOUBLE_EQ(stds[1], 0.0);
}

TEST(SnapshotSeriesTest, ChangeDetection) {
  SnapshotSeries series(2);
  ASSERT_TRUE(series.Append(0.0, {1.0, 1.0}).ok());
  ASSERT_TRUE(series.Append(1.0, {1.0, 1.0}).ok());
  ASSERT_TRUE(series.Append(2.0, {5.0, 1.0}).ok());
  EXPECT_DOUBLE_EQ(series.ChangeFrom(0), 0.0);
  EXPECT_DOUBLE_EQ(series.ChangeFrom(1), 0.0);
  EXPECT_DOUBLE_EQ(series.ChangeFrom(2), 2.0);  // (|5-1| + 0) / 2
}

TEST(SnapshotSeriesTest, PeakSnapshot) {
  SnapshotSeries series(1);
  ASSERT_TRUE(series.Append(0.0, {0.1}).ok());
  ASSERT_TRUE(series.Append(1.0, {0.9}).ok());
  ASSERT_TRUE(series.Append(2.0, {0.5}).ok());
  EXPECT_EQ(series.PeakSnapshot(), 1);
}

// --- AnalyzeEvolution ---

class EvolutionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    GridOptions grid;
    grid.rows = 8;
    grid.cols = 8;
    grid.seed = 5;
    network_ = GenerateGridNetwork(grid).value();
    graph_ = RoadGraph::FromNetwork(network_);
  }

  RoadNetwork network_;
  RoadGraph graph_;
};

TEST_F(EvolutionFixture, StableFieldLowChurn) {
  CongestionFieldOptions field_opt;
  field_opt.num_hotspots = 3;
  field_opt.voronoi_tiling = true;
  field_opt.noise_fraction = 0.02;
  field_opt.seed = 9;
  CongestionField field(network_, field_opt);

  SnapshotSeries series(network_.num_segments());
  // Slowly varying phases -> the same spatial structure every snapshot.
  for (int t = 0; t < 5; ++t) {
    ASSERT_TRUE(series.Append(t * 120.0, field.DensitiesAt(0.3 + 0.005 * t))
                    .ok());
  }

  EvolutionOptions options;
  options.partitioner.scheme = Scheme::kASG;
  options.partitioner.k = 3;
  options.partitioner.seed = 3;
  auto result = AnalyzeEvolution(graph_, series, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->steps.size(), 5u);
  EXPECT_LT(result->mean_churn, 0.35);
  for (const auto& step : result->steps) {
    EXPECT_EQ(step.k_final, 3);
    EXPECT_EQ(step.assignment.size(),
              static_cast<size_t>(network_.num_segments()));
  }
}

TEST_F(EvolutionFixture, RegimeChangeDetected) {
  CongestionFieldOptions before_opt;
  before_opt.num_hotspots = 2;
  before_opt.voronoi_tiling = true;
  before_opt.noise_fraction = 0.02;
  before_opt.seed = 11;
  CongestionField before(network_, before_opt);
  CongestionFieldOptions after_opt = before_opt;
  after_opt.seed = 77;  // completely different hotspot geometry
  CongestionField after(network_, after_opt);

  SnapshotSeries series(network_.num_segments());
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(series.Append(t * 120.0, before.Densities()).ok());
  }
  for (int t = 4; t < 8; ++t) {
    ASSERT_TRUE(series.Append(t * 120.0, after.Densities()).ok());
  }

  EvolutionOptions options;
  options.partitioner.scheme = Scheme::kASG;
  options.partitioner.k = 2;
  options.partitioner.seed = 3;
  options.regime_threshold = 0.2;
  auto result = AnalyzeEvolution(graph_, series, options);
  ASSERT_TRUE(result.ok());
  // The flip at t = 4 must register as a regime change.
  bool found = false;
  for (int t : result->regime_changes) found |= (t == 4);
  EXPECT_TRUE(found) << "regime changes: " << result->regime_changes.size();
}

TEST_F(EvolutionFixture, Validation) {
  SnapshotSeries wrong(graph_.num_nodes() + 1);
  EvolutionOptions options;
  EXPECT_FALSE(AnalyzeEvolution(graph_, wrong, options).ok());
  SnapshotSeries empty(graph_.num_nodes());
  EXPECT_FALSE(AnalyzeEvolution(graph_, empty, options).ok());
}

// --- DriveIntervals failure containment ---

class IntervalDriverFixture : public EvolutionFixture {
 protected:
  SnapshotSeries StableSeries(int snapshots) const {
    CongestionFieldOptions field_opt;
    field_opt.num_hotspots = 3;
    field_opt.voronoi_tiling = true;
    field_opt.noise_fraction = 0.02;
    field_opt.seed = 9;
    CongestionField field(network_, field_opt);
    SnapshotSeries series(network_.num_segments());
    for (int t = 0; t < snapshots; ++t) {
      EXPECT_TRUE(
          series.Append(t * 120.0, field.DensitiesAt(0.3 + 0.005 * t)).ok());
    }
    return series;
  }
};

TEST_F(IntervalDriverFixture, FailedRegionRecutsIsolatePerStepNotPerSeries) {
  const SnapshotSeries series = StableSeries(4);
  IntervalDriverOptions options;
  options.initial.scheme = Scheme::kASG;
  options.initial.k = 3;
  options.initial.seed = 3;
  options.refresh.partitioner.scheme = Scheme::kAG;
  options.refresh.partitioner.k = 2;
  options.refresh.partitioner.seed = 3;
  // An impossible re-cut budget: every dirty region's inner partition
  // expires at its first module boundary and is kept whole. The refresh
  // itself still succeeds (stats.failed > 0), but a partition known to be
  // partially degraded must not be silently adopted.
  options.refresh.partitioner.deadline_seconds = 1e-9;
  options.refresh.trigger_ratio = 0.0;  // every region dirty every interval

  auto result = DriveIntervals(graph_, series, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->steps.size(), 4u);
  for (const IntervalStep& step : result->steps) {
    EXPECT_FALSE(step.ok());
    EXPECT_EQ(step.error_code, StatusCode::kDeadlineExceeded);
    EXPECT_NE(step.error_message.find("re-cuts failed"), std::string::npos);
    EXPECT_GT(step.stats.failed, 0);
    // The last good assignment carried forward: before any good interval,
    // the frozen top-level regions.
    EXPECT_EQ(step.assignment, result->regions);
    EXPECT_EQ(step.k_final, result->k_top);
    EXPECT_EQ(step.churn, 0.0);
    EXPECT_EQ(step.ans, 0.0);
  }
}

TEST_F(IntervalDriverFixture, SingleFaultedIntervalDoesNotPoisonTheSeries) {
  const SnapshotSeries series = StableSeries(4);
  IntervalDriverOptions options;
  options.initial.scheme = Scheme::kAG;  // no mining: the fault cannot hit
  options.initial.k = 3;                 // the (fatal) snapshot-0 partition
  options.initial.seed = 3;
  options.refresh.partitioner.scheme = Scheme::kASG;  // re-cuts mine
  options.refresh.partitioner.k = 2;
  options.refresh.partitioner.seed = 3;

  // All-serial so a finite budget fires at a deterministic call site: the
  // first region re-cut of interval 0 (the engine's cold refresh).
  ScopedParallelism serial(1);
  FaultInjector injector(13);
  injector.Arm(FaultSite::kKMeans1DWorkspaceCorruption, 1);
  ScopedFaultInjector scoped(&injector);

  auto result = DriveIntervals(graph_, series, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->steps.size(), 4u);
  EXPECT_EQ(injector.fire_count(FaultSite::kKMeans1DWorkspaceCorruption), 1);

  const IntervalStep& poisoned = result->steps[0];
  EXPECT_EQ(poisoned.error_code, StatusCode::kInternal);
  EXPECT_EQ(poisoned.assignment, result->regions);
  // The budget is spent; every later interval proceeds and is adopted.
  for (size_t t = 1; t < result->steps.size(); ++t) {
    const IntervalStep& step = result->steps[t];
    EXPECT_TRUE(step.ok()) << "interval " << t << ": " << step.error_message;
    EXPECT_GE(step.k_final, result->k_top);  // every region has >= 1 part
  }
}

// The experiment loop and the service loop adopt an interval the same way:
// on a fault-free series with a gate that publishes everything, every
// journal entry carries its IntervalStep's ANS and churn bit for bit.
TEST_F(IntervalDriverFixture, PipelineAdoptsExactlyWhatTheDriverAdopts) {
  const SnapshotSeries series = StableSeries(6);
  PipelineOptions options;
  options.driver.initial.scheme = Scheme::kASG;
  options.driver.initial.k = 3;
  options.driver.initial.seed = 3;
  options.driver.refresh.partitioner.scheme = Scheme::kAG;
  options.driver.refresh.partitioner.k = 2;
  options.driver.refresh.partitioner.seed = 3;
  options.driver.refresh.trigger_ratio = 0.05;
  options.state_dir = testing::TempDir() + "/driver_vs_pipeline";
  options.resume = false;
  options.ans_margin = 1e6;
  options.churn_ceiling = 0.0;

  auto driven = DriveIntervals(graph_, series, options.driver);
  ASSERT_TRUE(driven.ok()) << driven.status().ToString();
  auto piped = RunPipeline(network_, series, options);
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();

  const PipelineJournal& journal = piped->journal;
  ASSERT_EQ(journal.entries.size(), driven->steps.size());
  for (size_t t = 0; t < driven->steps.size(); ++t) {
    const IntervalStep& step = driven->steps[t];
    const PipelineJournalEntry& entry = journal.entries[t];
    ASSERT_TRUE(step.ok()) << "interval " << t << ": " << step.error_message;
    EXPECT_EQ(entry.outcome, PipelineIntervalOutcome::kPublished) << t;
    EXPECT_EQ(DoubleToBitsHex(entry.ans), DoubleToBitsHex(step.ans)) << t;
    EXPECT_EQ(DoubleToBitsHex(entry.churn), DoubleToBitsHex(step.churn)) << t;
  }
  EXPECT_EQ(journal.regions, driven->regions);
  EXPECT_EQ(journal.tracker_reference, driven->steps.back().assignment);
  std::filesystem::remove_all(options.state_dir);
}

}  // namespace
}  // namespace roadpart
