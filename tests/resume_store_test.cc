// The resume stores' one adoption rule (AdoptArtifact, common/durable_io.h),
// pinned over every store that carries state across restarts: the
// checkpoint manifest, a checkpoint stage, the incremental cache ("rpinc")
// and the pipeline journal ("rpjournal").
//
//  - a missing file is a first run: nothing is adopted and no warning is
//    left;
//  - a flipped byte, the wrong format, a foreign key or an undecodable
//    payload is not adopted and leaves exactly one warning,
//    "<store> not adopted (<Code>: <message>); <fallback>".

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "netgen/grid_generator.h"
#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

const RunManifest kManifest{0x1234, 0x5678};
constexpr int kStageNodes = 6;
constexpr uint64_t kJournalKey = 0xfeedfacecafe1234ull;

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// One resume store, driven through its public loader.
struct Store {
  std::string name;        ///< warning prefix
  std::string fallback;    ///< what the caller does instead
  std::string format;      ///< envelope format name
  std::string path;        ///< where the store's artifact lives
  StatusCode undecodable;  ///< typed reason a garbage payload reports
  std::function<void()> save;          ///< writes an adoptable artifact
  std::function<void()> save_foreign;  ///< writes another run's artifact
  /// Runs the store's loader; true when it adopted. Appends its warnings.
  std::function<bool(std::vector<std::string>*)> adopt;
};

Store ManifestStore() {
  CheckpointOptions options;
  options.dir = FreshDir("adopt_manifest");
  auto write = [options](RunManifest manifest) {
    CheckpointStore writer(options, manifest);
    RP_CHECK_OK(writer.Initialize());
  };
  Store store;
  store.name = "checkpoint manifest";
  store.fallback = "recomputing all stages";
  store.format = "checkpoint-manifest";
  store.path = options.dir + "/MANIFEST";
  // Any payload but this run's identity names another run.
  store.undecodable = StatusCode::kFailedPrecondition;
  store.save = [write] { write(kManifest); };
  store.save_foreign = [write] {
    write(
        RunManifest{kManifest.input_fingerprint, kManifest.options_hash ^ 1});
  };
  store.adopt = [options](std::vector<std::string>* warnings) {
    CheckpointOptions resume = options;
    resume.resume = true;
    CheckpointStore reader(resume, kManifest);
    RP_CHECK_OK(reader.Initialize());
    warnings->insert(warnings->end(), reader.warnings().begin(),
                     reader.warnings().end());
    return reader.resuming();
  };
  return store;
}

Store CutStageStore() {
  CheckpointOptions options;
  options.dir = FreshDir("adopt_stage");
  auto write = [options](int nodes) {
    CheckpointStore writer(options, kManifest);
    RP_CHECK_OK(writer.Initialize());
    GraphCutResult cut;
    cut.k_final = 2;
    cut.k_prime = 2;
    for (int i = 0; i < nodes; ++i) cut.assignment.push_back(i % 2);
    RP_CHECK_OK(writer.SaveStage(CheckpointStage::kCut,
                                 EncodeCutCheckpoint(cut)));
  };
  Store store;
  store.name = "checkpoint stage 'cut'";
  store.fallback = "recomputing";
  store.format = "checkpoint-cut";
  store.path = options.dir + "/stage-cut.rpcp";
  store.undecodable = StatusCode::kCorruption;
  store.save = [write] { write(kStageNodes); };
  // A stage is keyed through the manifest; what is foreign to this run is a
  // cut of another graph.
  store.save_foreign = [write] { write(kStageNodes + 1); };
  store.adopt = [options](std::vector<std::string>* warnings) {
    CheckpointOptions resume = options;
    resume.resume = true;
    CheckpointStore reader(resume, kManifest);
    RP_CHECK_OK(reader.Initialize());
    const bool adopted = reader.LoadStage(
        CheckpointStage::kCut, [](std::string_view payload) -> Status {
          RP_ASSIGN_OR_RETURN(GraphCutResult cut,
                              DecodeCutCheckpoint(payload));
          if (cut.assignment.size() != static_cast<size_t>(kStageNodes)) {
            return Status::FailedPrecondition("cut of another graph");
          }
          return Status::OK();
        });
    warnings->insert(warnings->end(), reader.warnings().begin(),
                     reader.warnings().end());
    return adopted;
  };
  return store;
}

Store CacheStore() {
  GridOptions grid;
  grid.rows = 3;
  grid.cols = 3;
  const RoadGraph graph =
      RoadGraph::FromNetwork(GenerateGridNetwork(grid).value());
  std::vector<int> regions;
  for (int v = 0; v < graph.num_nodes(); ++v) regions.push_back(v % 2);
  DistributedRepartitionOptions options;
  options.partitioner.scheme = Scheme::kAG;
  options.partitioner.k = 2;
  auto engine = [graph, regions](const DistributedRepartitionOptions& o) {
    return IncrementalRepartitioner::Create(graph, regions, o).value();
  };
  const std::string path = FreshDir("adopt_cache") + "/cache.rpinc";
  Store store;
  store.name = "incremental cache";
  store.fallback = "cold start";
  store.format = "rpinc";
  store.path = path;
  store.undecodable = StatusCode::kCorruption;
  store.save = [=] { RP_CHECK_OK(engine(options).SaveCache(path)); };
  store.save_foreign = [=] {
    DistributedRepartitionOptions other = options;
    other.partitioner.k = 3;  // output-affecting, so part of the key
    RP_CHECK_OK(engine(other).SaveCache(path));
  };
  store.adopt = [=](std::vector<std::string>* warnings) {
    IncrementalRepartitioner reader = engine(options);
    const bool adopted = reader.LoadCache(path).value();
    warnings->insert(warnings->end(), reader.warnings().begin(),
                     reader.warnings().end());
    return adopted;
  };
  return store;
}

Store JournalStore() {
  const std::string path = FreshDir("adopt_journal") + "/journal.rpj";
  auto write = [path](uint64_t key) {
    PipelineJournal journal;
    journal.key = key;
    journal.k_top = 2;
    journal.regions = {0, 1, 1, 0};
    RP_CHECK_OK(SaveJournal(journal, path));
  };
  Store store;
  store.name = "pipeline journal";
  store.fallback = "cold restart";
  store.format = "rpjournal";
  store.path = path;
  store.undecodable = StatusCode::kCorruption;
  store.save = [write] { write(kJournalKey); };
  store.save_foreign = [write] { write(kJournalKey ^ 1); };
  store.adopt = [path](std::vector<std::string>* warnings) {
    return LoadJournal(path, kJournalKey, {}, warnings).has_value();
  };
  return store;
}

// Rewraps the verified payload at `path` under `format` (or replaces it
// with `payload`, when given), inside a valid envelope.
void Rewrap(const std::string& path, const std::string& format,
            const std::string& payload = {}) {
  const std::string stored = ReadArtifact(path).value();
  RP_CHECK_OK(WriteArtifact(path, format, 1,
                            payload.empty() ? stored : payload));
}

TEST(ResumeStoreAdoptionTest, OneRuleForEveryStore) {
  struct Row {
    std::string name;
    std::function<void(const Store&)> damage;  ///< applied after save
    bool foreign = false;        ///< save another run's artifact instead
    size_t warnings = 1;
    StatusCode code = StatusCode::kOk;  ///< kOk: the store's undecodable
  };
  const Row rows[] = {
      {"adoptable", [](const Store&) {}, false, 0},
      {"missing",
       [](const Store& s) { std::filesystem::remove(s.path); }, false, 0},
      {"flipped byte",
       [](const Store& s) {
         std::string bytes = ReadFileBytes(s.path).value();
         bytes[bytes.size() / 2] ^= 0x20;
         RP_CHECK_OK(AtomicWriteFile(s.path, bytes));
       },
       false, 1, StatusCode::kCorruption},
      {"wrong format",
       [](const Store& s) { Rewrap(s.path, "some-other-format"); }, false, 1,
       StatusCode::kFailedPrecondition},
      {"foreign key", [](const Store&) {}, true, 1,
       StatusCode::kFailedPrecondition},
      {"undecodable",
       [](const Store& s) { Rewrap(s.path, s.format, "garbage 1 2 3\n"); },
       false, 1},
  };
  const std::vector<std::function<Store()>> stores = {
      ManifestStore, CutStageStore, CacheStore, JournalStore};
  for (const auto& make_store : stores) {
    for (const Row& row : rows) {
      const Store store = make_store();
      SCOPED_TRACE(store.name + ": " + row.name);
      if (row.foreign) {
        store.save_foreign();
      } else {
        store.save();
      }
      row.damage(store);
      std::vector<std::string> warnings;
      const bool adopted = store.adopt(&warnings);
      EXPECT_EQ(adopted, row.name == "adoptable");
      // Every row runs even when one fails, so a report names them all.
      EXPECT_EQ(warnings.size(), row.warnings)
          << (warnings.empty() ? "" : warnings[0]);
      if (warnings.size() != row.warnings || row.warnings == 0) continue;
      const StatusCode code =
          row.code == StatusCode::kOk ? store.undecodable : row.code;
      const std::string prefix = store.name + " not adopted (" +
                                 StatusCodeName(code) + ": ";
      const std::string suffix = "); " + store.fallback;
      const std::string& warning = warnings[0];
      EXPECT_EQ(warning.compare(0, prefix.size(), prefix), 0) << warning;
      EXPECT_TRUE(warning.size() > suffix.size() &&
                  warning.compare(warning.size() - suffix.size(),
                                  suffix.size(), suffix) == 0)
          << warning;
    }
  }
}

}  // namespace
}  // namespace roadpart
