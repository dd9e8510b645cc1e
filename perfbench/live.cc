// The live workload: RunPipeline over a drifting congestion series with a
// serving runtime attached and a query window served after every interval
// (perfbench/README.md). Refresh, gate, publish, hot swap, journal and
// serving reads all run; cold partitioning happens once per pass.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/distributed_repartition.h"
#include "core/partition_tracker.h"
#include "metrics/partition_metrics.h"
#include "network/density_sanitizer.h"
#include "perfbench/city.h"
#include "perfbench/decompose.h"
#include "perfbench/queries.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "pipeline/controller.h"
#include "pipeline/journal.h"
#include "serve/runtime.h"
#include "serve/snapshot.h"
#include "temporal/snapshot_series.h"
#include "traffic/congestion_field.h"

namespace roadpart::perfbench {
namespace {

// Fixed city and drift series (the M1 series of
// bench_distributed_repartition, stretched to more intervals); --seed
// drives the query windows.
constexpr uint64_t kCitySeed = 17;
constexpr int kSetupRepeats = 9;

struct LiveInputs {
  RoadNetwork network;
  SnapshotSeries series{0};
  std::vector<QueryWindow> windows;  // one per interval
};

LiveInputs MakeInputs(const Config& config) {
  const DatasetPreset preset =
      config.tiny ? DatasetPreset::kD1 : DatasetPreset::kM1;
  const int intervals = config.tiny ? 4 : 24;
  LiveInputs in;
  in.network = MakeCity(preset, kCitySeed);
  const CongestionField field(in.network, CityField(preset, kCitySeed));
  in.series = SnapshotSeries(in.network.num_segments());
  for (int t = 0; t < intervals; ++t) {
    const double time01 = 0.30 + 0.35 * t / (intervals - 1);
    RP_CHECK_OK(in.series.Append(300.0 * t, field.DensitiesAt(time01)));
  }
  in.windows = MakeQueryWindows(in.network.Bounds(), config.seed, intervals,
                                config.tiny ? 200 : 2000);
  return in;
}

PipelineOptions LiveOptions(const std::string& state_dir,
                            ServeRuntime* serve) {
  PipelineOptions options;
  options.driver.initial.scheme = Scheme::kASG;
  options.driver.initial.k = 4;
  options.driver.initial.seed = 7;
  options.driver.initial.num_threads = 1;
  PartitionerOptions& inner = options.driver.refresh.partitioner;
  inner.scheme = Scheme::kASG;
  inner.k = 3;
  inner.seed = 9;
  inner.num_threads = 1;
  // As in bench_distributed_repartition: a broader MCG shortlist keeps
  // re-cuts off the strictest-stability re-mine.
  inner.miner.mcg_threshold_fraction = 0.5;
  options.driver.refresh.trigger_ratio = 0.40;
  options.driver.refresh.boundary_delta_ratio = 0.40;
  options.driver.refresh.warm_start_embeddings = true;
  options.driver.refresh.num_threads = 1;
  options.state_dir = state_dir;
  options.resume = false;
  options.serve = serve;
  return options;
}

ServeRuntimeOptions LiveServeOptions() {
  ServeRuntimeOptions options;
  options.serve.num_threads = 1;
  return options;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// What one pass published, interval by interval.
struct PassRecord {
  std::vector<int> regions;  // snapshot-0 partition
  std::vector<PipelineJournalEntry> entries;
};

/// Per-layer counters the replay collects.
struct ReplayCounters {
  std::vector<double> dirty, clean, snapshot_bytes, journal_bytes;
  CutCounters cuts;  // the snapshot-0 cut of every pass
  int64_t warm_started = 0, warm_attempts = 0;
  int passes = 0;
};

/// Re-runs one pass through the public calls RunPipeline makes, each in its
/// own span, serving the same query windows, and checks every interval
/// against the RunPipeline pass `reference` (outcome, reason, bit-equal ANS
/// and churn, byte-equal published snapshots). Appends each interval's wall
/// time to `interval_seconds`.
void ReplayPass(const Config& config, const LiveInputs& in,
                const PassRecord& reference, const std::string& state_dir,
                Tracer& tracer, int64_t& group, ReplayCounters& counters,
                std::vector<double>& interval_seconds,
                ServeTally& serve_tally, Report& report) {
  ServeRuntime runtime(LiveServeOptions());
  const PipelineOptions options = LiveOptions(state_dir, &runtime);
  std::error_code ec;
  std::filesystem::create_directories(state_dir, ec);
  const int n = in.network.num_segments();

  RoadGraph graph;
  Result<DecomposeResult> initial = Status::Internal("not run");
  {
    ScopedSpan root(tracer, "partition", group);
    {
      ScopedSpan span(tracer, "network.dual_graph", group);
      graph = RoadGraph::FromNetwork(in.network);
    }
    RP_CHECK_OK(graph.SetFeatures(in.series.densities(0)));
    initial = DecomposeAsg(graph, options.driver.initial, tracer, group);
  }
  ++group;
  report.Check("replay-initial-partition-ran", initial.ok(),
               initial.status().ToString());
  if (!initial.ok()) return;
  report.Check("replay-regions-equal-pipeline",
               initial->assignment == reference.regions);
  counters.cuts.Add(*initial);

  DistributedRepartitionOptions refresh_options = options.driver.refresh;
  refresh_options.partitioner.checkpoint.retry = options.retry;
  Result<IncrementalRepartitioner> engine = IncrementalRepartitioner::Create(
      graph, initial->assignment, refresh_options);
  report.Check("replay-engine-created", engine.ok(),
               engine.status().ToString());
  if (!engine.ok()) return;

  PipelineJournal journal;
  journal.key = PipelineKey(graph, options);
  journal.regions = initial->assignment;
  for (int label : journal.regions) {
    journal.k_top = std::max(journal.k_top, label + 1);
  }
  PartitionTracker tracker;
  const std::string journal_path = state_dir + "/journal.rpj";
  const std::string cache_path = state_dir + "/cache.rpinc";

  for (int t = 0; t < in.series.num_snapshots(); ++t) {
    PipelineJournalEntry entry;
    entry.index = t;
    entry.timestamp_seconds = in.series.timestamp(t);
    entry.input_fingerprint = IntervalInputFingerprint(
        in.series.timestamp(t), in.series.densities(t));
    const double interval_start = NowSeconds();
    {
      ScopedSpan root(tracer, "interval", group);
      auto settle = [&](PipelineIntervalOutcome outcome,
                        const std::string& reason) {
        entry.outcome = outcome;
        entry.reason = reason;
      };
      [&]() {
        Result<std::vector<double>> densities = Status::Internal("not run");
        {
          ScopedSpan span(tracer, "network.sanitize", group);
          densities = SanitizeDensities(
              in.series.densities(t),
              refresh_options.partitioner.density_policy, n);
        }
        if (!densities.ok()) {
          settle(PipelineIntervalOutcome::kQuarantined,
                 StatusCodeKebab(densities.status().code()));
          return;
        }
        Result<DistributedRepartitionResult> refresh =
            Status::Internal("not run");
        {
          ScopedSpan span(tracer, "core.refresh", group);
          for (int attempt = 0; attempt < options.max_refresh_attempts;
               ++attempt) {
            refresh = engine->Refresh(*densities);
            if (refresh.ok()) break;
          }
        }
        if (!refresh.ok()) {
          settle(PipelineIntervalOutcome::kQuarantined,
                 StatusCodeKebab(refresh.status().code()));
          return;
        }
        entry.refreshed = true;
        const RepartitionRefreshStats& stats = refresh->stats;
        counters.dirty.push_back(stats.dirty);
        counters.clean.push_back(stats.clean);
        counters.warm_started += stats.warm_started;
        counters.warm_attempts += stats.warm_started + stats.warm_rejected;
        if (stats.failed > 0) {
          settle(PipelineIntervalOutcome::kQuarantined,
                 StatusCodeKebab(stats.first_failure));
          return;
        }
        Result<double> ans = Status::Internal("not run");
        {
          ScopedSpan span(tracer, "metrics.ans", group);
          ans = AverageNcutSilhouette(graph.adjacency(), *densities,
                                      refresh->assignment);
        }
        if (!ans.ok()) {
          settle(PipelineIntervalOutcome::kQuarantined,
                 StatusCodeKebab(ans.status().code()));
          return;
        }
        Result<std::vector<int>> aligned = Status::Internal("not run");
        {
          ScopedSpan span(tracer, "core.align", group);
          aligned = tracker.Align(refresh->assignment);
        }
        if (!aligned.ok()) {
          settle(PipelineIntervalOutcome::kQuarantined,
                 StatusCodeKebab(aligned.status().code()));
          return;
        }
        journal.tracker_reference = *aligned;
        journal.tracker_next_id = tracker.num_regions_seen();
        entry.ans = *ans;
        entry.churn = tracker.last_churn();
        if (journal.last_published_path != "-" &&
            *ans > journal.last_published_ans + options.ans_margin) {
          settle(PipelineIntervalOutcome::kDegraded, "ans-regression");
          return;
        }
        if (options.churn_ceiling > 0.0 &&
            tracker.last_churn() > options.churn_ceiling) {
          settle(PipelineIntervalOutcome::kDegraded, "churn-ceiling");
          return;
        }
        const std::string snap_path =
            StrPrintf("%s/snap-%06d.rpsnap", state_dir.c_str(), t);
        Result<Snapshot> snapshot = Status::Internal("not run");
        {
          ScopedSpan span(tracer, "serve.snapshot_build", group);
          snapshot = Snapshot::Build(in.network, *aligned);
        }
        Status saved = snapshot.status();
        if (snapshot.ok()) {
          ScopedSpan span(tracer, "serve.snapshot_save", group);
          saved = snapshot->Save(snap_path, options.retry);
        }
        if (!saved.ok()) {
          settle(PipelineIntervalOutcome::kDegraded,
                 StatusCodeKebab(saved.code()));
          return;
        }
        counters.snapshot_bytes.push_back(FileBytes(snap_path));
        settle(PipelineIntervalOutcome::kPublished, "none");
        entry.snapshot_path = snap_path;
        journal.last_published_path = snap_path;
        journal.last_published_ans = *ans;
        Status reloaded;
        {
          ScopedSpan span(tracer, "serve.reload", group);
          reloaded = runtime.LoadSnapshot(snap_path);
        }
        report.Check("replay-hot-swap", reloaded.ok(), reloaded.ToString());
      }();
      if (entry.outcome == PipelineIntervalOutcome::kPublished) {
        journal.staleness = 0;
      } else {
        ++journal.staleness;
        if (entry.outcome == PipelineIntervalOutcome::kQuarantined) {
          entry.ans = journal.last_published_ans;
          entry.churn = 0.0;
        }
      }
      entry.staleness = journal.staleness;
      journal.entries.push_back(entry);
      Status cached;
      {
        ScopedSpan span(tracer, "core.cache_save", group);
        cached = engine->SaveCache(cache_path);
      }
      Status journaled;
      {
        ScopedSpan span(tracer, "pipeline.journal_save", group);
        journaled = SaveJournal(journal, journal_path, options.retry);
      }
      report.Check("replay-durable-saves", cached.ok() && journaled.ok(),
                   cached.ToString() + " / " + journaled.ToString());
      counters.journal_bytes.push_back(FileBytes(journal_path));
    }
    interval_seconds.push_back(NowSeconds() - interval_start);
    ++group;

    // The replay must publish what RunPipeline published.
    const std::string where = StrPrintf("interval %d", t);
    if (t >= static_cast<int>(reference.entries.size())) {
      report.Check("replay-interval-count", false, where);
      continue;
    }
    const PipelineJournalEntry& ref = reference.entries[t];
    double ans = entry.ans;
    if (config.corrupt == Corruption::kReplayAns && t == 0) {
      ans = std::nextafter(ans, 2.0 * ans + 1.0);
    }
    report.Check("replay-outcome-equals-pipeline",
                 entry.outcome == ref.outcome && entry.reason == ref.reason,
                 where);
    report.Check("replay-ans-churn-equal-pipeline",
                 ans == ref.ans && entry.churn == ref.churn, where);
    if (entry.outcome == PipelineIntervalOutcome::kPublished &&
        ref.outcome == PipelineIntervalOutcome::kPublished) {
      std::string replayed = ReadFileBytes(entry.snapshot_path);
      if (config.corrupt == Corruption::kSnapshotByte && !replayed.empty()) {
        replayed[replayed.size() / 2] ^= 0x01;
      }
      report.Check("replay-snapshot-bytes-equal-pipeline",
                   !replayed.empty() &&
                       replayed == ReadFileBytes(ref.snapshot_path),
                   where);
    }
    ServeWindow(runtime, in.windows[t], group++, config.corrupt, tracer,
                report, serve_tally);
  }
  ++counters.passes;
}

}  // namespace

void RunLive(const Config& config, Report& report) {
  // --- Set-up: city, drift series and query windows, several times.
  const double first_setup = NowSeconds();
  std::vector<double> setup_seconds;
  LiveInputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double start = NowSeconds();
    LiveInputs generated = MakeInputs(config);
    setup_seconds.push_back(NowSeconds() - start);
    if (i == 0) {
      in = std::move(generated);
      continue;
    }
    bool same = generated.series.num_snapshots() == in.series.num_snapshots();
    for (int t = 0; same && t < in.series.num_snapshots(); ++t) {
      same = generated.series.densities(t) == in.series.densities(t);
    }
    report.Check("setup-deterministic",
                 same && generated.windows.back().text ==
                             in.windows.back().text);
  }
  const int intervals = in.series.num_snapshots();

  // --- Measurement: whole RunPipeline passes, fresh state each. A traced
  // run follows every pass with a traced and an untraced replay of it, in
  // alternating order, so all three see the same machine conditions and the
  // two replays differ only by the tracing; otherwise one untraced replay
  // after the last pass runs the equality checks.
  std::vector<double> interval_seconds, cold_start_seconds;
  ServeTally serve_tally, replay_serve_tally;
  std::vector<double> traced_interval_seconds, untraced_interval_seconds;
  Tracer untraced(false), tracer(config.trace);
  ReplayCounters counters, untraced_counters;
  PassRecord reference;
  int64_t group = 0;
  auto replay = [&](const std::string& pass_dir, bool traced) {
    const std::string state_dir = pass_dir + "-replay";
    ReplayPass(config, in, reference, state_dir, traced ? tracer : untraced,
               group, traced ? counters : untraced_counters,
               traced ? traced_interval_seconds : untraced_interval_seconds,
               replay_serve_tally, report);
    std::error_code ec;
    std::filesystem::remove_all(state_dir, ec);
  };
  const double stop = NowSeconds() + config.seconds;
  for (int pass = 0;; ++pass) {
    const std::string pass_dir =
        StrPrintf("%s/pass-%d", config.work_dir.c_str(), pass);
    ServeRuntime runtime(LiveServeOptions());
    PipelineOptions options = LiveOptions(pass_dir, &runtime);
    const double call = NowSeconds();
    double interval_start = call;
    options.before_interval = [&](int t) {
      interval_start = NowSeconds();
      if (t == 0) cold_start_seconds.push_back(interval_start - call);
    };
    options.on_interval = [&](const PipelineJournalEntry& entry) {
      interval_seconds.push_back(NowSeconds() - interval_start);
      report.Attempt();
      if (entry.outcome != PipelineIntervalOutcome::kPublished) {
        report.Fail(StrPrintf("%s-%s", PipelineOutcomeName(entry.outcome),
                              entry.reason.c_str()));
      }
      ServeWindow(runtime, in.windows[entry.index], group++, config.corrupt,
                  untraced, report, serve_tally);
    };
    Result<PipelineRunResult> result =
        RunPipeline(in.network, in.series, options);
    report.Check("pipeline-ran", result.ok(), result.status().ToString());
    if (!result.ok()) {
      report.Attempt();
      report.Fail("pipeline-" +
                  std::string(StatusCodeKebab(result.status().code())));
      break;
    }
    PassRecord record{result->journal.regions, result->journal.entries};
    if (pass == 0) {
      report.Check("pipeline-ran-every-interval",
                   static_cast<int>(record.entries.size()) == intervals);
    } else {
      bool same = record.regions == reference.regions &&
                  record.entries.size() == reference.entries.size();
      for (size_t t = 0; same && t < record.entries.size(); ++t) {
        same = record.entries[t].outcome == reference.entries[t].outcome &&
               record.entries[t].ans == reference.entries[t].ans &&
               record.entries[t].churn == reference.entries[t].churn;
      }
      report.Check("repeated-passes-identical", same,
                   StrPrintf("pass %d", pass));
    }
    reference = std::move(record);
    const bool last = NowSeconds() >= stop;
    if (config.trace) {
      replay(pass_dir, pass % 2 == 0);
      replay(pass_dir, pass % 2 == 1);
    } else if (last) {
      replay(pass_dir, false);
    }
    std::error_code ec;
    std::filesystem::remove_all(pass_dir, ec);
    if (last) break;
  }
  if (interval_seconds.empty() || cold_start_seconds.empty()) {
    report.Check("live-intervals-measured", false);
    return;
  }
  const double interval_p50 = Percentile(interval_seconds, 0.5);
  report.Metric("interval_s_p50", interval_p50);
  report.Metric("interval_s_p90", Percentile(interval_seconds, 0.9));
  report.Metric("partition_s", Median(cold_start_seconds));
  report.Metric("setup_s", first_setup - config.start_s +
                               Median(setup_seconds) +
                               Median(cold_start_seconds));
  report.Metric("serve_qps", serve_tally.Qps());
  std::vector<double> published_ans;
  for (const PipelineJournalEntry& e : reference.entries) {
    if (e.outcome == PipelineIntervalOutcome::kPublished) {
      published_ans.push_back(e.ans);
    }
  }
  report.Check("live-published", !published_ans.empty());
  if (!published_ans.empty()) report.Metric("ans_mean", Mean(published_ans));
  {
    const RoadGraph graph = RoadGraph::FromNetwork(in.network);
    Result<PartitionEvaluation> evaluation = EvaluatePartitions(
        graph.adjacency(), in.series.densities(0), reference.regions);
    report.Check("ans-evaluated", evaluation.ok(),
                 evaluation.status().ToString());
    if (evaluation.ok()) report.Metric("ans", evaluation->ans);
  }
  report.Metric("peak_rss_mb", PeakRssMb());

  if (!config.trace) return;
  // --- Per-layer metrics from the traced replays.
  const GroupSecondsMap self = tracer.GroupSeconds(true);
  // The snapshot-0 cold partition of each pass.
  ReportCutLayers(self, tracer.GroupSeconds(false), counters.cuts, report);
  // The intervals.
  report.Metric("network.sanitize_s",
                MedianOf(self, "interval/network.sanitize", report));
  // Most intervals are clean, so a median would hide the dirty re-cuts that
  // set interval_s_p90: the refresh layer reports means per interval.
  report.Metric("core.refresh_s",
                MeanOf(self, "interval/core.refresh", report));
  report.Metric("metrics.ans_s",
                MedianOf(self, "interval/metrics.ans", report));
  report.Metric("core.align_s", MedianOf(self, "interval/core.align", report));
  report.Metric("serve.snapshot_build_s",
                MedianOf(self, "interval/serve.snapshot_build", report));
  report.Metric("serve.snapshot_save_s",
                MedianOf(self, "interval/serve.snapshot_save", report));
  report.Metric("serve.reload_s",
                MedianOf(self, "interval/serve.reload", report));
  report.Metric("core.cache_save_s",
                MedianOf(self, "interval/core.cache_save", report));
  report.Metric("pipeline.journal_save_s",
                MedianOf(self, "interval/pipeline.journal_save", report));
  report.Check("layer-recorded",
               !counters.dirty.empty() && !counters.snapshot_bytes.empty() &&
                   !counters.journal_bytes.empty(),
               "refresh and publication counters");
  if (!counters.dirty.empty()) {
    report.Metric("core.dirty_regions", Mean(counters.dirty));
    report.Metric("core.clean_regions", Mean(counters.clean));
  }
  report.Metric("core.warm_attempts",
                static_cast<double>(counters.warm_attempts) /
                    std::max(counters.passes, 1));
  report.Metric("core.warm_accept_ratio",
                counters.warm_attempts == 0
                    ? 0.0
                    : static_cast<double>(counters.warm_started) /
                          static_cast<double>(counters.warm_attempts));
  if (!counters.snapshot_bytes.empty()) {
    report.Metric("serve.snapshot_bytes", Median(counters.snapshot_bytes));
  }
  if (!counters.journal_bytes.empty()) {
    report.Metric("pipeline.journal_bytes", Median(counters.journal_bytes));
  }
  ReportServeLayers(self, report);

  report.Metric("trace.unexplained_s",
                interval_p50 - LayerSecondsUnder(self, "interval"));
  // Paired interval by interval: the intervals differ in cost far more
  // than tracing adds.
  report.Metric("trace.overhead_s",
                MedianPairedDifference(traced_interval_seconds,
                                       untraced_interval_seconds));
  if (!tracer.WriteJsonl(config.work_dir + "/spans.jsonl")) {
    report.Check("spans-written", false, config.work_dir + "/spans.jsonl");
  }
}

}  // namespace roadpart::perfbench
