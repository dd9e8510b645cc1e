#include "core/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "common/string_util.h"
#include "graph/csr_graph.h"

namespace roadpart {

namespace {

constexpr char kManifestFormat[] = "checkpoint-manifest";
constexpr int kCheckpointVersion = 1;

constexpr CheckpointStage kAllStages[] = {
    CheckpointStage::kMining, CheckpointStage::kCut, CheckpointStage::kFinal};

std::string StageFormat(CheckpointStage stage) {
  return std::string("checkpoint-") + CheckpointStageName(stage);
}

// The eigen diagnostics line shared by the cut and final stages.
void AppendEigen(PayloadWriter& out, const EigenSolveDiagnostics& eigen) {
  out.Line("eigen").Int(static_cast<int>(eigen.solver_path))
      .Int(eigen.solves).Int(eigen.lanczos_restarts)
      .Double(eigen.worst_ritz_residual).Int(eigen.all_converged ? 1 : 0);
}

Result<EigenSolveDiagnostics> ReadEigen(PayloadReader& in) {
  EigenSolveDiagnostics eigen;
  RP_RETURN_IF_ERROR(in.Line("eigen"));
  RP_ASSIGN_OR_RETURN(int path, in.ReadInt());
  if (path < 0 || path > static_cast<int>(SolverPath::kBestEffort)) {
    return Status::Corruption("checkpoint 'eigen' solver path out of range");
  }
  eigen.solver_path = static_cast<SolverPath>(path);
  RP_ASSIGN_OR_RETURN(eigen.solves, in.ReadInt());
  RP_ASSIGN_OR_RETURN(eigen.lanczos_restarts, in.ReadInt());
  RP_ASSIGN_OR_RETURN(eigen.worst_ritz_residual, in.ReadDouble());
  RP_ASSIGN_OR_RETURN(int converged, in.ReadInt());
  eigen.all_converged = converged != 0;
  return eigen;
}

// Cut and final assignments hold dense partition ids in [0, k_final).
Status CheckLabels(const std::vector<int>& assignment, int k_final) {
  for (int label : assignment) {
    if (label < 0 || label >= k_final) {
      return Status::Corruption(StrPrintf(
          "checkpoint label %d outside [0,%d)", label, k_final));
    }
  }
  return Status::OK();
}

}  // namespace

const char* CheckpointStageName(CheckpointStage stage) {
  switch (stage) {
    case CheckpointStage::kMining:
      return "mining";
    case CheckpointStage::kCut:
      return "cut";
    case CheckpointStage::kFinal:
      return "final";
  }
  return "?";
}

Result<CheckpointStage> ParseCheckpointStage(std::string_view name) {
  for (CheckpointStage stage : kAllStages) {
    if (name == CheckpointStageName(stage)) return stage;
  }
  return Status::InvalidArgument(
      StrPrintf("unknown checkpoint stage '%.*s' (want mining|cut|final)",
                static_cast<int>(name.size()), name.data()));
}

uint64_t FingerprintRoadGraph(const RoadGraph& graph) {
  const CsrGraph& adjacency = graph.adjacency();
  uint64_t hash = kFnv1a64Basis;
  auto mix_bytes = [&hash](const void* data, size_t size) {
    hash = Fnv1a64(data, size, hash);
  };
  const int64_t shape[2] = {graph.num_nodes(), adjacency.num_edges()};
  mix_bytes(shape, sizeof(shape));
  mix_bytes(adjacency.offsets().data(),
            adjacency.offsets().size() * sizeof(int64_t));
  mix_bytes(adjacency.neighbors().data(),
            adjacency.neighbors().size() * sizeof(int));
  mix_bytes(adjacency.weights().data(),
            adjacency.weights().size() * sizeof(double));
  mix_bytes(graph.features().data(),
            graph.features().size() * sizeof(double));
  return hash;
}

// --- CheckpointStore --------------------------------------------------------

CheckpointStore::CheckpointStore(CheckpointOptions options,
                                 RunManifest manifest)
    : options_(std::move(options)), manifest_(manifest) {}

std::string CheckpointStore::StagePath(CheckpointStage stage) const {
  return options_.dir + "/stage-" + CheckpointStageName(stage) + ".rpcp";
}

std::string CheckpointStore::ManifestPath() const {
  return options_.dir + "/MANIFEST";
}

Status CheckpointStore::Initialize() {
  if (!enabled()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint directory " +
                           options_.dir + ": " + ec.message());
  }
  const std::string manifest_payload =
      StrPrintf("input %s\noptions %s\n",
                Uint64ToHex(manifest_.input_fingerprint).c_str(),
                Uint64ToHex(manifest_.options_hash).c_str());
  if (options_.resume) {
    resuming_ = AdoptArtifact(
        ManifestPath(), kManifestFormat, options_.retry, "checkpoint manifest",
        "recomputing all stages",
        [&](std::string_view payload) {
          return payload == manifest_payload
                     ? Status::OK()
                     : Status::FailedPrecondition(
                           "manifest belongs to a different run (input or "
                           "options changed)");
        },
        &warnings_);
  }
  if (!resuming_) {
    // Stale stage files under an old manifest must not survive: a crash
    // between the manifest write and the first stage save would otherwise
    // let a later resume pair the new manifest with old stages.
    for (CheckpointStage stage : kAllStages) {
      (void)std::remove(StagePath(stage).c_str());
    }
    RP_RETURN_IF_ERROR(WriteArtifact(ManifestPath(), kManifestFormat,
                                     kCheckpointVersion, manifest_payload,
                                     options_.retry));
  }
  return Status::OK();
}

bool CheckpointStore::LoadStage(
    CheckpointStage stage,
    const std::function<Status(std::string_view payload)>& decode) {
  if (!enabled() || !resuming_) return false;
  return AdoptArtifact(
      StagePath(stage), StageFormat(stage), options_.retry,
      StrPrintf("checkpoint stage '%s'", CheckpointStageName(stage)),
      "recomputing", decode, &warnings_);
}

Status CheckpointStore::SaveStage(CheckpointStage stage,
                                  std::string_view payload) {
  if (!enabled()) return Status::OK();
  RP_RETURN_IF_ERROR(WriteArtifact(StagePath(stage), StageFormat(stage),
                                   kCheckpointVersion, payload,
                                   options_.retry));
  if (options_.crash_after_stage == CheckpointStageName(stage)) {
    // Crash-injection hook: die the hard way — no unwinding, no buffers
    // flushed — right after this stage became durable.
    std::_Exit(42);
  }
  return Status::OK();
}

// --- Mining checkpoint ------------------------------------------------------

std::string EncodeMiningCheckpoint(const MiningCheckpoint& checkpoint) {
  PayloadWriter out;
  out.Line("fallback").Int(checkpoint.roadgraph_fallback ? 1 : 0);
  out.Line("supernodes").Int(checkpoint.num_supernodes);
  out.Line("module2").Double(checkpoint.module2_seconds);
  const SupergraphMiningReport& report = checkpoint.report;
  out.Line("threshold").Double(report.threshold);
  out.Line("sweep-shape").Int(report.effective_max_kappa)
      .Int(report.chosen_kappa).Int(report.supernodes_before_stability)
      .Int(report.supernodes_after_stability);
  out.Line("phase-seconds").Double(report.sweep_seconds)
      .Double(report.cluster_seconds).Double(report.superlink_seconds);
  out.Line("kappas").IntVec(report.kappas);
  out.Line("mcg").DoubleVec(report.mcg);
  out.Line("shortlisted").IntVec(report.shortlisted_kappas);
  out.Line("components").IntVec(report.component_counts);
  out.Line("stability-values").DoubleVec(report.stability_values);
  if (!checkpoint.roadgraph_fallback && checkpoint.supergraph.has_value()) {
    const Supergraph& sg = *checkpoint.supergraph;
    out.Line("supergraph").Int(sg.num_road_nodes()).Int(sg.num_supernodes());
    for (const Supernode& sn : sg.supernodes()) {
      out.Line("sn").Double(sn.feature).IntVec(sn.members);
    }
    const CsrGraph& links = sg.links();
    out.Line("links").Int(links.num_nodes());
    out.Line("offsets").Int64Vec(links.offsets());
    out.Line("neighbors").IntVec(links.neighbors());
    out.Line("weights").DoubleVec(links.weights());
  }
  return out.Finish();
}

Result<MiningCheckpoint> DecodeMiningCheckpoint(std::string_view payload) {
  PayloadReader in(payload);
  MiningCheckpoint checkpoint;
  RP_RETURN_IF_ERROR(in.Line("fallback"));
  RP_ASSIGN_OR_RETURN(int fallback, in.ReadInt());
  checkpoint.roadgraph_fallback = fallback != 0;
  RP_RETURN_IF_ERROR(in.Line("supernodes"));
  RP_ASSIGN_OR_RETURN(checkpoint.num_supernodes, in.ReadInt());
  RP_RETURN_IF_ERROR(in.Line("module2"));
  RP_ASSIGN_OR_RETURN(checkpoint.module2_seconds, in.ReadDouble());
  SupergraphMiningReport& report = checkpoint.report;
  RP_RETURN_IF_ERROR(in.Line("threshold"));
  RP_ASSIGN_OR_RETURN(report.threshold, in.ReadDouble());
  RP_RETURN_IF_ERROR(in.Line("sweep-shape"));
  RP_ASSIGN_OR_RETURN(report.effective_max_kappa, in.ReadInt());
  RP_ASSIGN_OR_RETURN(report.chosen_kappa, in.ReadInt());
  RP_ASSIGN_OR_RETURN(report.supernodes_before_stability, in.ReadInt());
  RP_ASSIGN_OR_RETURN(report.supernodes_after_stability, in.ReadInt());
  RP_RETURN_IF_ERROR(in.Line("phase-seconds"));
  RP_ASSIGN_OR_RETURN(report.sweep_seconds, in.ReadDouble());
  RP_ASSIGN_OR_RETURN(report.cluster_seconds, in.ReadDouble());
  RP_ASSIGN_OR_RETURN(report.superlink_seconds, in.ReadDouble());
  RP_RETURN_IF_ERROR(in.Line("kappas"));
  RP_ASSIGN_OR_RETURN(report.kappas, in.ReadIntVec());
  RP_RETURN_IF_ERROR(in.Line("mcg"));
  RP_ASSIGN_OR_RETURN(report.mcg, in.ReadDoubleVec());
  RP_RETURN_IF_ERROR(in.Line("shortlisted"));
  RP_ASSIGN_OR_RETURN(report.shortlisted_kappas, in.ReadIntVec());
  RP_RETURN_IF_ERROR(in.Line("components"));
  RP_ASSIGN_OR_RETURN(report.component_counts, in.ReadIntVec());
  RP_RETURN_IF_ERROR(in.Line("stability-values"));
  RP_ASSIGN_OR_RETURN(report.stability_values, in.ReadDoubleVec());
  if (checkpoint.roadgraph_fallback) {
    RP_RETURN_IF_ERROR(in.Finish());
    return checkpoint;
  }

  RP_RETURN_IF_ERROR(in.Line("supergraph"));
  RP_ASSIGN_OR_RETURN(int num_road_nodes, in.ReadInt());
  RP_ASSIGN_OR_RETURN(int num_supernodes, in.ReadInt());
  if (num_road_nodes < 0 || num_supernodes < 0) {
    return Status::Corruption("checkpoint 'supergraph' counts are negative");
  }
  // Supernodes are read line by line, so their count never sizes anything
  // before the lines exist; the member total must cover the road nodes.
  std::vector<Supernode> supernodes;
  int64_t members = 0;
  for (int s = 0; s < num_supernodes; ++s) {
    Supernode sn;
    RP_RETURN_IF_ERROR(in.Line("sn"));
    RP_ASSIGN_OR_RETURN(sn.feature, in.ReadDouble());
    RP_ASSIGN_OR_RETURN(sn.members, in.ReadIntVec());
    members += static_cast<int64_t>(sn.members.size());
    supernodes.push_back(std::move(sn));
  }
  RP_RETURN_IF_ERROR(in.Line("links"));
  RP_ASSIGN_OR_RETURN(int link_nodes, in.ReadInt());
  RP_RETURN_IF_ERROR(in.Line("offsets"));
  RP_ASSIGN_OR_RETURN(std::vector<int64_t> offsets, in.ReadInt64Vec());
  RP_RETURN_IF_ERROR(in.Line("neighbors"));
  RP_ASSIGN_OR_RETURN(std::vector<int> neighbors, in.ReadIntVec());
  RP_RETURN_IF_ERROR(in.Line("weights"));
  RP_ASSIGN_OR_RETURN(std::vector<double> weights, in.ReadDoubleVec());
  RP_RETURN_IF_ERROR(in.Finish());
  if (num_road_nodes != members || link_nodes != num_supernodes ||
      offsets.size() != static_cast<size_t>(link_nodes) + 1 ||
      neighbors.size() != weights.size()) {
    return Status::Corruption("checkpoint supergraph arrays are inconsistent");
  }
  // Adopting the raw arrays skips the sort-and-merge pass but not their
  // validation: a valid checksum only proves the bytes are the ones written.
  // Supergraph::Create re-validates the member partition.
  auto links = CsrGraph::FromRawParts(link_nodes, std::move(offsets),
                                      std::move(neighbors), std::move(weights));
  if (!links.ok()) {
    return Status::Corruption("checkpoint supergraph links fail validation: " +
                              links.status().ToString());
  }
  auto supergraph = Supergraph::Create(
      std::move(supernodes), std::move(links).value(), num_road_nodes);
  if (!supergraph.ok()) {
    return Status::Corruption("checkpoint supergraph fails validation: " +
                              supergraph.status().ToString());
  }
  checkpoint.supergraph = std::move(*supergraph);
  return checkpoint;
}

// --- Cut checkpoint ---------------------------------------------------------

std::string EncodeCutCheckpoint(const GraphCutResult& cut) {
  PayloadWriter out;
  out.Line("k-final").Int(cut.k_final);
  out.Line("k-prime").Int(cut.k_prime);
  out.Line("objective").Double(cut.objective);
  AppendEigen(out, cut.eigen);
  out.Line("assignment").IntVec(cut.assignment);
  return out.Finish();
}

Result<GraphCutResult> DecodeCutCheckpoint(std::string_view payload) {
  PayloadReader in(payload);
  GraphCutResult cut;
  RP_RETURN_IF_ERROR(in.Line("k-final"));
  RP_ASSIGN_OR_RETURN(cut.k_final, in.ReadInt());
  RP_RETURN_IF_ERROR(in.Line("k-prime"));
  RP_ASSIGN_OR_RETURN(cut.k_prime, in.ReadInt());
  RP_RETURN_IF_ERROR(in.Line("objective"));
  RP_ASSIGN_OR_RETURN(cut.objective, in.ReadDouble());
  RP_ASSIGN_OR_RETURN(cut.eigen, ReadEigen(in));
  RP_RETURN_IF_ERROR(in.Line("assignment"));
  RP_ASSIGN_OR_RETURN(cut.assignment, in.ReadIntVec());
  RP_RETURN_IF_ERROR(in.Finish());
  RP_RETURN_IF_ERROR(CheckLabels(cut.assignment, cut.k_final));
  return cut;
}

// --- Final checkpoint -------------------------------------------------------

std::string EncodeFinalCheckpoint(const FinalCheckpoint& checkpoint) {
  PayloadWriter out;
  out.Line("k-final").Int(checkpoint.k_final);
  out.Line("k-prime").Int(checkpoint.k_prime);
  out.Line("supernodes").Int(checkpoint.num_supernodes);
  out.Line("objective").Double(checkpoint.objective);
  out.Line("module2").Double(checkpoint.module2_seconds);
  out.Line("module3").Double(checkpoint.module3_seconds);
  AppendEigen(out, checkpoint.eigen);
  out.Line("assignment").IntVec(checkpoint.assignment);
  return out.Finish();
}

Result<FinalCheckpoint> DecodeFinalCheckpoint(std::string_view payload) {
  PayloadReader in(payload);
  FinalCheckpoint checkpoint;
  RP_RETURN_IF_ERROR(in.Line("k-final"));
  RP_ASSIGN_OR_RETURN(checkpoint.k_final, in.ReadInt());
  RP_RETURN_IF_ERROR(in.Line("k-prime"));
  RP_ASSIGN_OR_RETURN(checkpoint.k_prime, in.ReadInt());
  RP_RETURN_IF_ERROR(in.Line("supernodes"));
  RP_ASSIGN_OR_RETURN(checkpoint.num_supernodes, in.ReadInt());
  RP_RETURN_IF_ERROR(in.Line("objective"));
  RP_ASSIGN_OR_RETURN(checkpoint.objective, in.ReadDouble());
  RP_RETURN_IF_ERROR(in.Line("module2"));
  RP_ASSIGN_OR_RETURN(checkpoint.module2_seconds, in.ReadDouble());
  RP_RETURN_IF_ERROR(in.Line("module3"));
  RP_ASSIGN_OR_RETURN(checkpoint.module3_seconds, in.ReadDouble());
  RP_ASSIGN_OR_RETURN(checkpoint.eigen, ReadEigen(in));
  RP_RETURN_IF_ERROR(in.Line("assignment"));
  RP_ASSIGN_OR_RETURN(checkpoint.assignment, in.ReadIntVec());
  RP_RETURN_IF_ERROR(in.Finish());
  RP_RETURN_IF_ERROR(CheckLabels(checkpoint.assignment, checkpoint.k_final));
  return checkpoint;
}

}  // namespace roadpart
