#include "perfbench/decompose.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/parallel.h"
#include "core/alpha_cut.h"
#include "core/spectral_common.h"
#include "core/supergraph_miner.h"
#include "linalg/linear_operator.h"
#include "linalg/sparse_matrix.h"
#include "network/density_sanitizer.h"

namespace roadpart::perfbench {
namespace {

/// Forwards to `base` and counts applies (the eigensolver's unit of work).
class CountingOperator : public LinearOperator {
 public:
  CountingOperator(const LinearOperator& base, std::atomic<int64_t>& applies)
      : base_(base), applies_(applies) {}

  int Dim() const override { return base_.Dim(); }
  void Apply(const double* x, double* y) const override {
    applies_.fetch_add(1, std::memory_order_relaxed);
    base_.Apply(x, y);
  }

 private:
  const LinearOperator& base_;
  std::atomic<int64_t>& applies_;
};

/// AlphaCutMethod with its Embed rebuilt from the same public pieces, in
/// the same order, so the embedding is bit-identical while the eigensolve
/// and row normalization get their own spans.
class TracedAlphaCut : public SpectralCutMethod {
 public:
  TracedAlphaCut(const SpectralOptions& spectral, Tracer& tracer,
                 int64_t group)
      : spectral_(spectral), tracer_(tracer), group_(group) {}

  Result<DenseMatrix> Embed(const CsrGraph& graph, int k) const override {
    ScopedSpan embed(tracer_, "core.embed", group_);
    SparseMatrix a = graph.ToSparseMatrix();
    SparseOperator a_op(a);
    std::vector<double> d = a.RowSums();
    double s = 0.0;
    for (double x : d) s += x;
    RankOneUpdatedOperator m_op(a_op, d, s > 0.0 ? 1.0 / s : 0.0, -1.0);
    CountingOperator counted(m_op, applies_);
    EigenSolveDiagnostics solve;
    Result<DenseMatrix> y = Status::Internal("eigensolve not run");
    {
      ScopedSpan span(tracer_, "linalg.eigensolve", group_);
      y = ExtremeEigenvectors(counted, k, SpectrumEnd::kSmallest, spectral_,
                              &solve);
    }
    if (!y.ok()) return y.status();
    RecordEigenSolve(solve);
    ScopedSpan span(tracer_, "core.row_normalize", group_);
    return RowNormalize(*y);
  }

  double Objective(const CsrGraph& graph,
                   const std::vector<int>& assignment) const override {
    return reference_.Objective(graph, assignment);
  }
  double PartitionTerm(double volume, double internal, int size,
                       double total) const override {
    return reference_.PartitionTerm(volume, internal, size, total);
  }
  const char* name() const override { return reference_.name(); }

  int64_t operator_applies() const { return applies_.load(); }

 private:
  SpectralOptions spectral_;
  AlphaCutMethod reference_;
  Tracer& tracer_;
  int64_t group_;
  mutable std::atomic<int64_t> applies_{0};
};

}  // namespace

Result<DecomposeResult> DecomposeAsg(const RoadGraph& graph,
                                     const PartitionerOptions& options,
                                     Tracer& tracer, int64_t group) {
  if (options.scheme != Scheme::kASG || options.refine_boundary ||
      !options.checkpoint.dir.empty()) {
    return Status::InvalidArgument(
        "the decomposition models plain ASG partitions only");
  }
  ScopedParallelism threads(options.num_threads);
  const int k = options.k;
  {
    ScopedSpan span(tracer, "network.sanitize", group);
    DensityRepairReport repairs;
    RP_RETURN_IF_ERROR(SanitizeDensities(graph.features(),
                                         options.density_policy,
                                         graph.num_nodes(), &repairs)
                           .status());
    if (repairs.total_repaired() > 0) {
      return Status::FailedPrecondition(
          "the decomposition does not model density repairs");
    }
  }

  Result<Supergraph> mined = Status::Internal("mining not run");
  {
    ScopedSpan span(tracer, "core.mine", group);
    SupergraphMinerOptions miner = options.miner;
    miner.min_supernodes = std::max(miner.min_supernodes, k);
    mined = MineSupergraph(graph, miner);
    if (mined.ok() && mined->num_supernodes() < k) {
      // Same escalation as the Partitioner: strictest stability setting.
      miner.stability.threshold = 1.0;
      mined = MineSupergraph(graph, miner);
    }
  }
  RP_RETURN_IF_ERROR(mined.status());
  const Supergraph& sg = *mined;
  if (sg.num_supernodes() < k) {
    return Status::FailedPrecondition(
        "the road-graph fallback cut is not modelled by the decomposition");
  }

  SpectralPipelineOptions pipeline;
  pipeline.kmeans = options.kmeans;
  pipeline.kmeans.seed = options.seed;
  pipeline.enforce_exact_k = options.enforce_exact_k;
  pipeline.exact_k_method = options.exact_k_method;
  pipeline.enforce_connectivity = options.enforce_connectivity;
  TracedAlphaCut method(options.spectral, tracer, group);
  Result<GraphCutResult> cut = Status::Internal("cut not run");
  {
    ScopedSpan span(tracer, "core.kway", group);
    cut = SpectralKWayPartition(sg.links(), k, method, pipeline);
  }
  RP_RETURN_IF_ERROR(cut.status());

  DecomposeResult result;
  {
    ScopedSpan span(tracer, "core.expand", group);
    RP_ASSIGN_OR_RETURN(result.assignment,
                        sg.ExpandAssignment(cut->assignment));
  }
  result.num_supernodes = sg.num_supernodes();
  result.eigen = cut->eigen;
  result.operator_applies = method.operator_applies();
  return result;
}

void CutCounters::Add(const DecomposeResult& result) {
  applies.push_back(static_cast<double>(result.operator_applies));
  solves.push_back(result.eigen.solves);
  restarts.push_back(result.eigen.lanczos_restarts);
  path.push_back(static_cast<double>(result.eigen.solver_path));
  supernodes.push_back(result.num_supernodes);
}

void ReportCutLayers(const GroupSecondsMap& self, const GroupSecondsMap& total,
                     const CutCounters& counters, Report& report) {
  static const std::pair<const char*, const char*> kSelfTimes[] = {
      {"network.dual_graph_s", "partition/network.dual_graph"},
      {"core.mine_s", "partition/core.mine"},
      {"core.kway_rest_s", "partition/core.kway"},
      {"core.embed_s", "partition/core.embed"},
      {"linalg.eigensolve_s", "partition/linalg.eigensolve"},
      {"core.row_normalize_s", "partition/core.row_normalize"},
      {"core.expand_s", "partition/core.expand"},
  };
  for (const auto& [metric, key] : kSelfTimes) {
    report.Metric(metric, MedianOf(self, key, report));
  }
  report.Metric("core.kway_s", MedianOf(total, "partition/core.kway", report));
  report.Check("layer-recorded", !counters.applies.empty(), "cut counters");
  if (counters.applies.empty()) return;
  report.Metric("linalg.operator_applies", Median(counters.applies));
  report.Metric("linalg.eigensolves", Median(counters.solves));
  report.Metric("linalg.lanczos_restarts", Median(counters.restarts));
  report.Metric("linalg.solver_path", Median(counters.path));
  report.Metric("core.supernodes", Median(counters.supernodes));
}

}  // namespace roadpart::perfbench
