#ifndef ROADPART_PIPELINE_JOURNAL_H_
#define ROADPART_PIPELINE_JOURNAL_H_

/// Durable crash-resumable journal of the continuous-operation pipeline
/// (format "rpjournal", version 1).
///
/// The journal is the pipeline's single source of truth about the past: one
/// header block with everything a restarted process needs to rebuild its
/// supervisors (the run key, the frozen top-level regions, the label
/// tracker's reference state, the last published snapshot and its quality),
/// followed by one line per completed interval recording what went in (the
/// input fingerprint), what came out (published / degraded / quarantined
/// with a typed kebab reason), and where the published snapshot lives.
///
/// Durability model: the whole journal is rewritten atomically (durable_io
/// envelope: tmp -> fsync -> rename) after every interval, so a crash at
/// any instant leaves either the previous interval's journal or the current
/// one — never a torn file. Full-rewrite journaling also self-heals: if one
/// interval's write fails, the next interval's rewrite repairs the file.
///
/// Versioning: the envelope records format "rpjournal" version 1, but
/// LoadJournal checks only the format name, not the version number. A file
/// is refused (as a cold restart, never an error) when its strict payload
/// decode fails, so a layout change is caught only where it changes what
/// that decode accepts. The payload uses the shared payload codec
/// (DESIGN.md "Payload codec"): its bit-exact doubles give a resumed run
/// bit-exact quality baselines and byte-identical replayed series, and its
/// word fields mean stored paths must not contain whitespace; the pipeline
/// only writes paths it derived from its own state directory.
///
/// Failure policy: AdoptArtifact's rule (common/durable_io.h), as for the
/// checkpoint and "rpinc" stores. A journal that cannot be adopted (fault
/// site kPipelineJournalCorruption included) loads as "no journal": a cold
/// restart is always a safe answer, so LoadJournal never fails.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable_io.h"
#include "common/status.h"

namespace roadpart {

/// Terminal state of one pipeline interval.
enum class PipelineIntervalOutcome {
  kPublished = 0,   ///< refreshed, passed the gate, snapshot published
  kDegraded,        ///< refreshed but the publish gate refused it
  kQuarantined,     ///< the refresh itself failed; nothing was adopted
};

const char* PipelineOutcomeName(PipelineIntervalOutcome outcome);
Result<PipelineIntervalOutcome> ParsePipelineOutcome(std::string_view name);

/// One interval's journal record.
struct PipelineJournalEntry {
  int index = 0;                   ///< snapshot index in the series
  double timestamp_seconds = 0.0;  ///< series timestamp (bit-exact)
  uint64_t input_fingerprint = 0;  ///< FNV over timestamp + density bits
  PipelineIntervalOutcome outcome = PipelineIntervalOutcome::kQuarantined;
  /// Typed kebab reason: "none" for published intervals, a status-code
  /// token (e.g. "deadline-exceeded"), gate token ("ans-regression",
  /// "churn-ceiling") or fault-site name for everything else.
  std::string reason = "none";
  bool refreshed = false;  ///< the engine's Refresh executed (mutated state)
  int retries = 0;         ///< extra refresh attempts this interval consumed
  int64_t staleness = 0;   ///< intervals since last publish, AFTER this one
  /// Measured ANS of this interval's refresh (published/degraded); for a
  /// quarantined interval, the served baseline repeats (bit-exact either
  /// way).
  double ans = 0.0;
  double churn = 0.0;      ///< label churn of this interval (0 if not adopted)
  std::string snapshot_path = "-";  ///< published artifact, "-" if none
};

/// The journal: resume header + per-interval records.
struct PipelineJournal {
  /// Key binding the journal to one computation: graph fingerprint +
  /// output-affecting pipeline options. A journal keyed differently is
  /// someone else's history and is never adopted.
  uint64_t key = 0;
  int k_top = 0;                       ///< frozen top-level region count
  std::vector<int> regions;            ///< frozen region id per node
  std::vector<int> tracker_reference;  ///< last aligned labels (may be empty)
  int tracker_next_id = 0;             ///< label tracker id watermark
  std::string last_published_path = "-";
  double last_published_ans = 0.0;     ///< gate baseline (bit-exact)
  int64_t staleness = 0;               ///< current staleness counter
  std::vector<PipelineJournalEntry> entries;
};

/// Atomically writes the journal through the checksummed "rpjournal"
/// envelope. `retry` bounds transient I/O faults.
Status SaveJournal(const PipelineJournal& journal, const std::string& path,
                   const RetryOptions& retry = {});

/// Loads a journal saved by SaveJournal when AdoptArtifact adopts it: it
/// verifies, decodes, carries key `expected_key`, and passes `fits` (when
/// given). Otherwise nullopt, and the caller cold-restarts.
std::optional<PipelineJournal> LoadJournal(
    const std::string& path, uint64_t expected_key, const RetryOptions& retry,
    std::vector<std::string>* warnings,
    const std::function<Status(const PipelineJournal&)>& fits = nullptr);

}  // namespace roadpart

#endif  // ROADPART_PIPELINE_JOURNAL_H_
