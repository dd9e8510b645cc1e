#include "pipeline/journal.h"

#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace roadpart {
namespace {

constexpr const char* kJournalFormat = "rpjournal";
constexpr int kJournalVersion = 1;

}  // namespace

const char* PipelineOutcomeName(PipelineIntervalOutcome outcome) {
  switch (outcome) {
    case PipelineIntervalOutcome::kPublished:
      return "published";
    case PipelineIntervalOutcome::kDegraded:
      return "degraded";
    case PipelineIntervalOutcome::kQuarantined:
      return "quarantined";
  }
  return "quarantined";
}

Result<PipelineIntervalOutcome> ParsePipelineOutcome(std::string_view name) {
  if (name == "published") return PipelineIntervalOutcome::kPublished;
  if (name == "degraded") return PipelineIntervalOutcome::kDegraded;
  if (name == "quarantined") return PipelineIntervalOutcome::kQuarantined;
  return Status::InvalidArgument(
      StrPrintf("unknown pipeline outcome '%.*s'",
                static_cast<int>(name.size()), name.data()));
}

Status SaveJournal(const PipelineJournal& journal, const std::string& path,
                   const RetryOptions& retry) {
  PayloadWriter out;
  out.Line("key").Hex64(journal.key);
  out.Line("ktop").Int(journal.k_top);
  out.Line("regions").IntVec(journal.regions);
  out.Line("tracker").Int(journal.tracker_next_id)
      .IntVec(journal.tracker_reference);
  out.Line("last_published").Word(journal.last_published_path)
      .Word("ans").Double(journal.last_published_ans)
      .Word("staleness").Int(journal.staleness);
  out.Line("intervals").Int(static_cast<int64_t>(journal.entries.size()));
  for (const PipelineJournalEntry& e : journal.entries) {
    out.Line("interval").Int(e.index)
        .Word("ts").Double(e.timestamp_seconds)
        .Word("input").Hex64(e.input_fingerprint)
        .Word("outcome").Word(PipelineOutcomeName(e.outcome))
        .Word("reason").Word(e.reason)
        .Word("refreshed").Int(e.refreshed ? 1 : 0)
        .Word("retries").Int(e.retries)
        .Word("staleness").Int(e.staleness)
        .Word("ans").Double(e.ans)
        .Word("churn").Double(e.churn)
        .Word("snapshot").Word(e.snapshot_path);
  }
  return WriteArtifact(path, kJournalFormat, kJournalVersion, out.Finish(),
                       retry);
}

std::optional<PipelineJournal> LoadJournal(
    const std::string& path, uint64_t expected_key, const RetryOptions& retry,
    std::vector<std::string>* warnings,
    const std::function<Status(const PipelineJournal&)>& fits) {
  // Strict decode into a scratch journal; only a fully valid artifact
  // carrying the expected key (and fitting the caller's inputs) is adopted.
  PipelineJournal j;
  auto decode = [&](std::string_view payload) -> Status {
    if (RP_FAULT_FIRES(FaultSite::kPipelineJournalCorruption)) {
      // A journal whose bytes verified but whose producer is suspect (e.g. a
      // mid-upgrade writer); the loader must treat it like any torn file.
      return Status::Corruption(
          "journal declared corrupt after verification (injected)");
    }
    PayloadReader in(payload);
    RP_RETURN_IF_ERROR(in.Line("key"));
    RP_ASSIGN_OR_RETURN(j.key, in.ReadHex64());
    if (j.key != expected_key) {
      return Status::FailedPrecondition(
          "journal keyed to a different graph/options");
    }
    RP_RETURN_IF_ERROR(in.Line("ktop"));
    RP_ASSIGN_OR_RETURN(j.k_top, in.ReadInt());
    if (j.k_top <= 0) return Status::Corruption("bad ktop line");
    RP_RETURN_IF_ERROR(in.Line("regions"));
    RP_ASSIGN_OR_RETURN(j.regions, in.ReadIntVec());
    for (int r : j.regions) {
      if (r < 0 || r >= j.k_top) return Status::Corruption("bad region id");
    }
    RP_RETURN_IF_ERROR(in.Line("tracker"));
    RP_ASSIGN_OR_RETURN(j.tracker_next_id, in.ReadInt());
    RP_ASSIGN_OR_RETURN(j.tracker_reference, in.ReadIntVec());
    if (j.tracker_next_id < 0) return Status::Corruption("bad tracker line");
    for (int label : j.tracker_reference) {
      if (label < 0 || label >= j.tracker_next_id) {
        return Status::Corruption("bad tracker label");
      }
    }
    RP_RETURN_IF_ERROR(in.Line("last_published"));
    RP_ASSIGN_OR_RETURN(std::string_view last_published, in.ReadWord());
    j.last_published_path = last_published;
    RP_ASSIGN_OR_RETURN(j.last_published_ans, in.ReadDouble("ans"));
    RP_ASSIGN_OR_RETURN(j.staleness, in.ReadInt64("staleness"));
    if (j.staleness < 0) return Status::Corruption("bad staleness");
    RP_RETURN_IF_ERROR(in.Line("intervals"));
    RP_ASSIGN_OR_RETURN(int64_t count, in.ReadInt64());
    if (count < 0) return Status::Corruption("bad intervals line");
    // Entries are appended line by line, so the count never sizes anything
    // before the lines exist.
    for (int64_t i = 0; i < count; ++i) {
      PipelineJournalEntry e;
      RP_RETURN_IF_ERROR(in.Line("interval"));
      RP_ASSIGN_OR_RETURN(e.index, in.ReadInt());
      if (e.index != i) return Status::Corruption("bad interval header");
      RP_ASSIGN_OR_RETURN(e.timestamp_seconds, in.ReadDouble("ts"));
      RP_ASSIGN_OR_RETURN(e.input_fingerprint, in.ReadHex64("input"));
      RP_ASSIGN_OR_RETURN(std::string_view outcome, in.ReadWord("outcome"));
      auto parsed = ParsePipelineOutcome(outcome);
      if (!parsed.ok()) return Status::Corruption("unknown outcome token");
      e.outcome = *parsed;
      RP_ASSIGN_OR_RETURN(std::string_view reason, in.ReadWord("reason"));
      e.reason = reason;
      RP_ASSIGN_OR_RETURN(int refreshed, in.ReadInt("refreshed"));
      if (refreshed != 0 && refreshed != 1) {
        return Status::Corruption("bad refreshed flag");
      }
      e.refreshed = refreshed != 0;
      RP_ASSIGN_OR_RETURN(e.retries, in.ReadInt("retries"));
      if (e.retries < 0) return Status::Corruption("bad retries");
      RP_ASSIGN_OR_RETURN(e.staleness, in.ReadInt64("staleness"));
      if (e.staleness < 0) return Status::Corruption("bad entry staleness");
      RP_ASSIGN_OR_RETURN(e.ans, in.ReadDouble("ans"));
      RP_ASSIGN_OR_RETURN(e.churn, in.ReadDouble("churn"));
      RP_ASSIGN_OR_RETURN(std::string_view snapshot, in.ReadWord("snapshot"));
      e.snapshot_path = snapshot;
      const bool published = e.outcome == PipelineIntervalOutcome::kPublished;
      if (published != (e.snapshot_path != "-")) {
        return Status::Corruption("snapshot path inconsistent with outcome");
      }
      j.entries.push_back(std::move(e));
    }
    RP_RETURN_IF_ERROR(in.Finish());
    return fits ? fits(j) : Status::OK();
  };
  if (!AdoptArtifact(path, kJournalFormat, retry, "pipeline journal",
                     "cold restart", decode, warnings)) {
    return std::nullopt;
  }
  return j;
}

}  // namespace roadpart
