// The cold_asg workload: repeated cold ASG partitions of one congested city
// at 1 thread (perfbench/README.md). The paper's method at city scale: the
// eigensolve and supergraph mining do most of the work.

#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/partitioner.h"
#include "core/spectral_common.h"
#include "graph/connected_components.h"
#include "metrics/partition_metrics.h"
#include "perfbench/city.h"
#include "perfbench/decompose.h"
#include "perfbench/queries.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "serve/runtime.h"
#include "serve/snapshot.h"

namespace roadpart::perfbench {
namespace {

// The city and the solver's start vector are fixed; --seed drives the
// miner's sweep sample and the query windows. A cold cut's cost follows the
// city's supernode count, which ranges 3.7k-11.3k over M3 dataset seeds
// (cut time CV ~22%), and the Lanczos start vector moves it by up to 25%,
// so a run that drew either from the seed could not be compared with
// another. City 7 is a mid-heavy one (8466 supernodes).
constexpr uint64_t kCitySeed = 7;
constexpr int kK = 6;
constexpr int kThreads = 1;
// One cut per run at this thread count must match the 1-thread cuts bit for
// bit.
constexpr int kIdentityThreads = 2;
constexpr int kSetupRepeats = 9;
constexpr int kWindowsPerPartition = 4;

PartitionerOptions ColdOptions(uint64_t seed, int threads) {
  PartitionerOptions options;
  options.scheme = Scheme::kASG;
  options.k = kK;
  options.num_threads = threads;
  options.miner.seed = seed;
  return options;
}

/// The three validity checks of a cold partition.
void CheckColdPartition(const CsrGraph& graph, const std::vector<int>& labels,
                        int k_final, Report& report) {
  const Status labels_ok =
      ValidatePartitionLabels(labels, graph.num_nodes(), k_final);
  report.Check("cold-partition-labels-valid", labels_ok.ok(),
               labels_ok.ToString());
  report.Check("cold-partition-k-final-equals-k", k_final == kK,
               StrPrintf("k_final %d", k_final));
  if (!labels_ok.ok()) return;
  std::vector<std::vector<int>> members(k_final);
  for (int v = 0; v < graph.num_nodes(); ++v) members[labels[v]].push_back(v);
  for (int p = 0; p < k_final; ++p) {
    report.Check("cold-partition-connected",
                 IsSubsetConnected(graph, members[p]),
                 StrPrintf("partition %d", p));
  }
}

/// Moves one segment whose neighbours all share its label to the next
/// label, which leaves that label disconnected.
void DisconnectOneSegment(const CsrGraph& graph, std::vector<int>& labels,
                          int k) {
  for (int v = 0; v < graph.num_nodes(); ++v) {
    bool interior = !graph.Neighbors(v).empty();
    for (int u : graph.Neighbors(v)) interior &= labels[u] == labels[v];
    if (interior) {
      labels[v] = (labels[v] + 1) % k;
      return;
    }
  }
}

}  // namespace

void RunCold(const Config& config, Report& report) {
  const DatasetPreset preset =
      config.tiny ? DatasetPreset::kD1 : DatasetPreset::kM3;

  // --- Set-up: generate the city several times; setup_s is program
  // start-up plus the median generation time.
  const double first_setup = NowSeconds();
  std::vector<double> setup_seconds;
  RoadNetwork network;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double start = NowSeconds();
    RoadNetwork generated = MakeCity(preset, kCitySeed);
    setup_seconds.push_back(NowSeconds() - start);
    if (i == 0) {
      network = std::move(generated);
    } else {
      report.Check("setup-deterministic",
                   generated.num_segments() == network.num_segments() &&
                       generated.Densities() == network.Densities());
    }
  }
  report.Metric("setup_s",
                first_setup - config.start_s + Median(setup_seconds));

  const PartitionerOptions options = ColdOptions(config.seed, kThreads);
  const RoadGraph graph = RoadGraph::FromNetwork(network);

  // Serving reads interleave with the partitions (kWindowsPerPartition
  // windows after each one), against the published first partition, so
  // serve_qps samples the same stretch of machine time as partition_s.
  const std::vector<QueryWindow> windows =
      MakeQueryWindows(network.Bounds(), config.seed, config.tiny ? 8 : 64,
                       config.tiny ? 200 : 2000);
  ServeRuntimeOptions serve_options;
  serve_options.serve.num_threads = kThreads;
  ServeRuntime runtime(serve_options);
  ServeTally serve_tally, traced_serve_tally;
  size_t next_window = 0;
  int64_t group = 0;
  auto serve_windows = [&](Tracer& tracer, ServeTally& tally) {
    for (int i = 0; i < kWindowsPerPartition; ++i) {
      ServeWindow(runtime, windows[next_window++ % windows.size()], group++,
                  config.corrupt, tracer, report, tally);
    }
  };
  const std::string snapshot_path = config.work_dir + "/cold.rpsnap";
  auto publish = [&](Tracer& tracer, const std::vector<int>& labels) {
    ScopedSpan root(tracer, "publish", group);
    Result<Snapshot> snapshot = Status::Internal("not built");
    {
      ScopedSpan span(tracer, "serve.snapshot_build", group);
      snapshot = Snapshot::Build(network, labels);
    }
    Status status = snapshot.status();
    if (snapshot.ok()) {
      ScopedSpan span(tracer, "serve.snapshot_save", group);
      status = snapshot->Save(snapshot_path);
    }
    if (status.ok()) {
      ScopedSpan span(tracer, "serve.reload", group);
      status = runtime.LoadSnapshot(snapshot_path);
    }
    ++group;
    report.Check("cold-partition-published", status.ok(), status.ToString());
    return status.ok();
  };

  std::vector<int> reference;
  // The decomposition, traced or not: every pass must reproduce the
  // Partitioner. Its wall time goes to `wall_seconds`.
  Tracer tracer(config.trace);
  Tracer untraced(false);
  CutCounters counters;
  std::vector<double> traced_seconds, untraced_seconds;
  auto decompose = [&](Tracer& t, std::vector<double>& wall_seconds) {
    const double start = NowSeconds();
    Result<DecomposeResult> result = Status::Internal("not run");
    {
      ScopedSpan root(t, "partition", group);
      RoadGraph traced_graph;
      {
        ScopedSpan span(t, "network.dual_graph", group);
        traced_graph = RoadGraph::FromNetwork(network);
      }
      result = DecomposeAsg(traced_graph, options, t, group);
    }
    wall_seconds.push_back(NowSeconds() - start);
    ++group;
    report.Check("traced-decomposition-ran", result.ok(),
                 result.status().ToString());
    if (!result.ok()) return;
    if (config.corrupt == Corruption::kDecompLabel) {
      result->assignment[0] = (result->assignment[0] + 1) % kK;
    }
    report.Check("traced-decomposition-equals-partitioner",
                 result->assignment == reference);
    if (&t == &tracer) counters.Add(*result);
  };

  // --- Measurement: repeated cold partitions. A traced run follows each
  // untraced partition with the decomposition traced and untraced, in
  // alternating order, so all three see the same machine conditions and the
  // two decompositions differ only by the tracing.
  const Partitioner partitioner(options);
  std::vector<double> latencies;
  const double stop = NowSeconds() + config.seconds;
  do {
    report.Attempt();
    const double start = NowSeconds();
    Result<PartitionOutcome> outcome = partitioner.PartitionNetwork(network);
    latencies.push_back(NowSeconds() - start);
    if (!outcome.ok()) {
      report.Fail("partition-" +
                  std::string(StatusCodeKebab(outcome.status().code())));
      continue;
    }
    if (reference.empty()) {
      if (config.corrupt == Corruption::kLabelRange) {
        outcome->assignment[0] = kK;
      }
      if (config.corrupt == Corruption::kLabelDisconnect) {
        DisconnectOneSegment(graph.adjacency(), outcome->assignment, kK);
      }
      const bool was_correct = report.correct();
      CheckColdPartition(graph.adjacency(), outcome->assignment,
                         outcome->k_final, report);
      if (was_correct && !report.correct()) {
        report.Fail("partition-invalid");
        return;
      }
      reference = std::move(outcome->assignment);
      if (!publish(untraced, reference)) return;
      if (config.trace && !publish(tracer, reference)) return;
    } else if (outcome->assignment != reference) {
      report.Fail("partition-differs-from-first-repeat");
      report.Check("repeated-partitions-identical", false);
    }
    serve_windows(untraced, serve_tally);
    if (config.trace) {
      const bool traced_first = latencies.size() % 2 == 1;
      decompose(traced_first ? tracer : untraced,
                traced_first ? traced_seconds : untraced_seconds);
      decompose(traced_first ? untraced : tracer,
                traced_first ? untraced_seconds : traced_seconds);
      serve_windows(tracer, traced_serve_tally);
    }
  } while (NowSeconds() < stop);
  report.Metric("partition_s", Median(latencies));
  report.Metric("interval_s_p50", Percentile(latencies, 0.5));
  report.Metric("interval_s_p90", Percentile(latencies, 0.9));
  report.Check("cold-partition-produced", !reference.empty());
  if (reference.empty()) return;
  report.Metric("serve_qps", serve_tally.Qps());

  // --- Same inputs at 2 threads: bit-identical labels.
  {
    PartitionerOptions other = options;
    other.num_threads = kIdentityThreads;
    Result<PartitionOutcome> outcome =
        Partitioner(other).PartitionNetwork(network);
    report.Check("cross-thread-partition-ran", outcome.ok(),
                 outcome.status().ToString());
    if (outcome.ok()) {
      if (config.corrupt == Corruption::kThreadLabel) {
        outcome->assignment[0] = (outcome->assignment[0] + 1) % kK;
      }
      report.Check("one-and-two-thread-cuts-identical",
                   outcome->assignment == reference);
    }
  }

  if (!config.trace) decompose(untraced, untraced_seconds);  // the check

  // --- Quality of the cut (every repeat cut identically, checked above).
  Result<PartitionEvaluation> evaluation =
      EvaluatePartitions(graph.adjacency(), graph.features(), reference);
  report.Check("ans-evaluated", evaluation.ok(),
               evaluation.status().ToString());
  if (evaluation.ok()) {
    report.Metric("ans", evaluation->ans);
    report.Metric("ans_mean", evaluation->ans);
  }
  report.Metric("peak_rss_mb", PeakRssMb());

  if (!config.trace) return;
  // --- Per-layer metrics from the traced passes. Refresh, the gate and the
  // durable pipeline state belong to live only.
  for (const char* name :
       {"core.refresh_s", "core.dirty_regions", "core.clean_regions",
        "core.warm_attempts", "core.warm_accept_ratio", "metrics.ans_s",
        "core.align_s", "core.cache_save_s", "pipeline.journal_save_s",
        "pipeline.journal_bytes"}) {
    report.NotExercised(name);
  }
  const GroupSecondsMap self = tracer.GroupSeconds(true);
  ReportCutLayers(self, tracer.GroupSeconds(false), counters, report);
  report.Metric("network.sanitize_s",
                MedianOf(self, "partition/network.sanitize", report));
  report.Metric("serve.snapshot_build_s",
                MedianOf(self, "publish/serve.snapshot_build", report));
  report.Metric("serve.snapshot_save_s",
                MedianOf(self, "publish/serve.snapshot_save", report));
  report.Metric("serve.reload_s",
                MedianOf(self, "publish/serve.reload", report));
  report.Metric("serve.snapshot_bytes", FileBytes(snapshot_path));
  ReportServeLayers(self, report);

  report.Metric("trace.unexplained_s",
                Median(latencies) - LayerSecondsUnder(self, "partition"));
  // Paired: a cut's cost drifts with the machine by more than tracing adds.
  report.Metric("trace.overhead_s",
                MedianPairedDifference(traced_seconds, untraced_seconds));
  if (!tracer.WriteJsonl(config.work_dir + "/spans.jsonl")) {
    report.Check("spans-written", false, config.work_dir + "/spans.jsonl");
  }
}

}  // namespace roadpart::perfbench
