// Chaos harness for the continuous-operation pipeline, end to end through
// the real rp_pipeline binary (path injected by CMake as RP_PIPELINE_PATH)
// plus an in-process fault soak.
//
// Subprocess side: a 20-interval series is run to completion as the
// reference, then the pipeline is killed hard (std::_Exit(42), no
// unwinding) right after EVERY interval's journal write; each restarted
// run must resume mid-series and finish with a journal byte-identical to
// the uninterrupted run — across --threads 1/2/8. Corrupt and
// differently-keyed journals must cold-restart with a warning, never
// error; a first run into an empty state dir prints no warning.
//
// In-process side: a 20-interval run with a ServeRuntime attached arms a
// different registered pipeline / serve / repartition fault site before
// every interval and serves a query window after it, proving every
// interval lands in a typed outcome (published / degraded / quarantined),
// serving only ever swaps to fully validated snapshots, and the session
// lines stay consistent with the journal.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

#ifndef RP_PIPELINE_PATH
#define RP_PIPELINE_PATH "rp_pipeline"
#endif

constexpr int kIntervals = 20;

int RunPipelineBin(const std::string& args, const std::string& stdout_path) {
  std::string command = std::string(RP_PIPELINE_PATH) + " " + args + " > " +
                        (stdout_path.empty() ? "/dev/null" : stdout_path) +
                        " 2>&1";
  int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string Slurp(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  return bytes.ok() ? *bytes : std::string();
}

void ExpectNoTempFiles(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << "lingering temp file " << entry.path();
  }
}

class PipelineChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = testing::TempDir() + "/pipeline_chaos";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);

    GridOptions grid;
    grid.rows = 8;
    grid.cols = 8;
    grid.seed = 5;
    network_ = GenerateGridNetwork(grid).value();

    CongestionFieldOptions field_opt;
    field_opt.num_hotspots = 3;
    field_opt.voronoi_tiling = true;
    field_opt.noise_fraction = 0.02;
    field_opt.seed = 9;
    CongestionField field(network_, field_opt);
    series_ = SnapshotSeries(network_.num_segments());
    for (int t = 0; t < kIntervals; ++t) {
      RP_CHECK_OK(
          series_.Append(t * 120.0, field.DensitiesAt(0.3 + 0.005 * t)));
    }

    net_path_ = root_ + "/city.net";
    series_path_ = root_ + "/series.csv";
    RP_CHECK_OK(SaveRoadNetwork(network_, net_path_));
    RP_CHECK_OK(SaveSnapshotSeries(series_, series_path_));
    state_dir_ = root_ + "/state";
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  // All runs share ONE state-dir path: journal bytes embed snapshot paths,
  // so byte-comparison across runs requires the identical directory name.
  std::string Args(const std::string& extra) const {
    return "--scheme=ASG --k=3 --inner-scheme=AG --inner-k=2 --seed=3 "
           "--ans-margin=1000 --churn-ceiling=1.5 --state-dir=" +
           state_dir_ + " " + extra + " " + net_path_ + " " + series_path_;
  }

  std::string JournalPath() const { return state_dir_ + "/journal.rpj"; }

  RoadNetwork network_;
  SnapshotSeries series_{0};
  std::string root_, net_path_, series_path_, state_dir_;
};

TEST_F(PipelineChaosTest, CrashAtEveryIntervalBoundaryThenResumeBitIdentical) {
  // Uninterrupted reference run.
  ASSERT_EQ(RunPipelineBin(Args("--threads=2"), ""), 0);
  const std::string reference = Slurp(JournalPath());
  ASSERT_FALSE(reference.empty());

  const int resume_threads[] = {1, 2, 8};
  for (int t = 0; t < kIntervals; ++t) {
    std::filesystem::remove_all(state_dir_);

    // Kill hard right after interval t's journal write became durable.
    ASSERT_EQ(RunPipelineBin(
                  Args(StrPrintf("--threads=2 --crash-after-interval=%d", t)),
                  ""),
              42)
        << "interval " << t;
    // The journal through interval t must be durably on disk, with no torn
    // temp files anywhere in the state dir.
    EXPECT_TRUE(std::filesystem::exists(JournalPath())) << "interval " << t;
    ExpectNoTempFiles(state_dir_);

    // Restart on a rotating thread count; the resumed journal must equal
    // the uninterrupted run byte for byte.
    const int threads = resume_threads[t % 3];
    ASSERT_EQ(
        RunPipelineBin(Args(StrPrintf("--threads=%d", threads)), ""), 0)
        << "interval " << t << " resume at " << threads << " threads";
    EXPECT_EQ(Slurp(JournalPath()), reference)
        << "interval " << t << " resume at " << threads << " threads";
  }
}

TEST_F(PipelineChaosTest, FirstRunIntoAnEmptyStateDirIsSilent) {
  // No journal or cache exists yet: a first run, not a failed adoption.
  std::filesystem::create_directories(state_dir_);
  const std::string out = root_ + "/first.out";
  ASSERT_EQ(RunPipelineBin(Args("--threads=2"), out), 0);
  const std::string text = Slurp(out);
  EXPECT_EQ(text.find("warning:"), std::string::npos) << text;
  EXPECT_NE(text.find("resumed=0"), std::string::npos) << text;
}

TEST_F(PipelineChaosTest, RerunOfCompletedSeriesIsANoOp) {
  ASSERT_EQ(RunPipelineBin(Args("--threads=2"), ""), 0);
  const std::string reference = Slurp(JournalPath());

  const std::string out = root_ + "/rerun.out";
  ASSERT_EQ(RunPipelineBin(Args("--threads=1"), out), 0);
  EXPECT_EQ(Slurp(JournalPath()), reference);
  const std::string stdout_text = Slurp(out);
  EXPECT_NE(stdout_text.find(StrPrintf("resumed=%d", kIntervals)),
            std::string::npos)
      << stdout_text;
  EXPECT_NE(stdout_text.find("quarantined=0"), std::string::npos)
      << stdout_text;
}

TEST_F(PipelineChaosTest, CorruptJournalColdRestartsAndHeals) {
  ASSERT_EQ(RunPipelineBin(Args("--threads=2"), ""), 0);
  const std::string reference = Slurp(JournalPath());

  // Flip one byte in the middle of the journal artifact.
  std::string mutated = reference;
  mutated[mutated.size() / 2] =
      static_cast<char>(mutated[mutated.size() / 2] ^ 0x5A);
  RP_CHECK_OK(AtomicWriteFile(JournalPath(), mutated));

  // The rerun must warn, cold-restart, and heal the journal back to the
  // reference bytes — exit 0 throughout.
  const std::string out = root_ + "/heal.out";
  ASSERT_EQ(RunPipelineBin(Args("--threads=2"), out), 0);
  EXPECT_EQ(Slurp(JournalPath()), reference);
  const std::string text = Slurp(out);
  EXPECT_NE(text.find("cold restart"), std::string::npos) << text;
  EXPECT_NE(text.find("resumed=0"), std::string::npos) << text;
}

TEST_F(PipelineChaosTest, DifferentlyKeyedJournalColdRestarts) {
  ASSERT_EQ(RunPipelineBin(Args("--threads=2"), ""), 0);

  // A different seed changes the pipeline key: the on-disk journal is
  // someone else's history and must be rejected with a warning.
  const std::string out = root_ + "/rekey.out";
  ASSERT_EQ(RunPipelineBin(Args("--threads=2 --seed=4"), out), 0);
  const std::string text = Slurp(out);
  EXPECT_NE(text.find("keyed to a different"), std::string::npos) << text;
  EXPECT_NE(text.find("resumed=0"), std::string::npos) << text;
}

// In-process soak: one registered fault site armed per interval, a query
// window served after every interval.
TEST_F(PipelineChaosTest, EveryFaultSiteSoakWithServingWindows) {
  // Interval -> armed site, cycled twice across the 20 intervals. The last
  // slot arms nothing (healthy interval between fault storms).
  const std::vector<FaultSite> rotation = {
      FaultSite::kPipelineQuarantinedInterval,
      FaultSite::kPipelinePublishGateReject,
      FaultSite::kWarmStartCorruption,
      FaultSite::kDirtyDetectOverflow,
      FaultSite::kSnapshotShortRead,
      FaultSite::kSnapshotStaleFingerprint,
      FaultSite::kSnapshotSwapCorruption,
      FaultSite::kServeShedOverflow,
      FaultSite::kServeQueryTimeout,
      FaultSite::kFaultSiteCount,  // sentinel: no fault this interval
  };
  FaultInjector injector(29);
  ScopedFaultInjector scoped(&injector);

  ServeRuntime serve;
  PipelineOptions options;
  options.driver.initial.scheme = Scheme::kASG;
  options.driver.initial.k = 3;
  options.driver.initial.seed = 3;
  options.driver.refresh.partitioner.scheme = Scheme::kAG;
  options.driver.refresh.partitioner.k = 2;
  options.driver.refresh.partitioner.seed = 3;
  options.driver.refresh.trigger_ratio = 0.05;
  options.state_dir = root_ + "/soak";
  options.ans_margin = 1e6;
  options.churn_ceiling = 1.5;
  options.retry.sleep = [](double) {};
  options.serve = &serve;
  options.before_interval = [&](int t) {
    const FaultSite site = rotation[t % rotation.size()];
    if (site != FaultSite::kFaultSiteCount) injector.Arm(site, 1);
  };
  int windows = 0;
  options.on_interval = [&](const PipelineJournalEntry& entry) {
    // Every interval ends in exactly one typed outcome with a kebab or
    // "none" reason — no interval is allowed to escape the taxonomy.
    if (entry.outcome == PipelineIntervalOutcome::kPublished) {
      EXPECT_EQ(entry.reason, "none");
    } else {
      EXPECT_NE(entry.reason, "none");
    }
    const SnapshotManagerDiagnostics diag =
        serve.snapshot_manager().diagnostics();
    // Serving only ever swaps to a fully validated snapshot: the version is
    // exactly the published count minus the refused (faulted) hot swaps.
    const PipelineFeedStats* feed = serve.pipeline_stats();
    ASSERT_NE(feed, nullptr);
    EXPECT_EQ(diag.version, feed->published - diag.reloads_failed);

    // A query window against whatever is currently serving. Before the
    // first successful publish there is no snapshot; control lines still
    // answer.
    const std::string script = diag.version > 0
                                   ? "point 10.0 10.0\n!health\n"
                                   : "!health\n";
    auto out = serve.RunSession(script);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    // The health line mirrors the journal entry just recorded.
    const std::string expected_health = StrPrintf(
        "health version=%lld staleness=%lld reloads_failed=%lld",
        static_cast<long long>(diag.version),
        static_cast<long long>(entry.staleness),
        static_cast<long long>(diag.reloads_failed));
    EXPECT_NE(out->find(expected_health), std::string::npos)
        << "interval " << entry.index << ": " << *out;
    ++windows;
  };

  auto result = RunPipeline(network_, series_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(windows, kIntervals);

  // Outcome ledger: 2 injected quarantines, 2 injected gate rejections,
  // everything else published (repartition faults degrade internally and
  // recover; serve faults refuse the hot swap but the snapshot is still
  // durably published).
  EXPECT_EQ(result->stats.intervals, kIntervals);
  EXPECT_EQ(result->stats.quarantined, 2);
  EXPECT_EQ(result->stats.degraded, 2);
  EXPECT_EQ(result->stats.published, kIntervals - 4);

  // Serving ledger: each of the three snapshot-load/swap faults fired twice
  // and refused exactly that hot swap; everything else swapped in.
  const SnapshotManagerDiagnostics diag =
      serve.snapshot_manager().diagnostics();
  EXPECT_EQ(diag.reloads_failed, 6);
  EXPECT_EQ(diag.version, kIntervals - 4 - 6);

  // Every armed site actually fired, exactly as often as it was armed.
  for (FaultSite site : rotation) {
    if (site == FaultSite::kFaultSiteCount) continue;
    EXPECT_EQ(injector.fire_count(site), 2) << FaultSiteName(site);
  }

  // Finale: injected journal corruption on a resumed run — cold restart
  // with a warning, never an error, and the series replays clean.
  injector.Arm(FaultSite::kPipelineJournalCorruption, 1);
  PipelineOptions resumed = options;
  resumed.serve = nullptr;
  resumed.before_interval = nullptr;
  resumed.on_interval = nullptr;
  auto rerun = RunPipeline(network_, series_, resumed);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(injector.fire_count(FaultSite::kPipelineJournalCorruption), 1);
  EXPECT_EQ(rerun->stats.resumed, 0);
  EXPECT_EQ(rerun->stats.quarantined, 0);
  bool warned = false;
  for (const std::string& w : rerun->warnings) {
    warned |= w.find("cold restart") != std::string::npos;
  }
  EXPECT_TRUE(warned);
}

}  // namespace
}  // namespace roadpart
