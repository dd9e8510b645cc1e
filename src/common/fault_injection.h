#ifndef ROADPART_COMMON_FAULT_INJECTION_H_
#define ROADPART_COMMON_FAULT_INJECTION_H_

#include <array>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

namespace roadpart {

/// Named fault points compiled into the library. Each site sits on a path
/// where real deployments see bad data or numerical trouble; tests arm them
/// to prove the pipeline degrades cleanly instead of crashing or silently
/// emitting garbage (see tests/fault_injection_test.cc).
enum class FaultSite {
  /// LoadDensities: a deterministic subset of loaded values becomes NaN
  /// (sensor dropouts in a live density feed).
  kDensityLoadNaN = 0,
  /// LoadDensities: the trailing quarter of the vector is dropped (stale or
  /// truncated read from a feed that died mid-write).
  kDensityLoadShortRead,
  /// LanczosEigen: the whole call refuses to declare convergence, forcing
  /// the caller onto its fallback ladder. One query per LanczosEigen call,
  /// so Arm(site, 1) sabotages exactly the first solve.
  kLanczosNonConvergence,
  /// KMeansRows: the input rows are replaced by an all-zero matrix (a
  /// degenerate spectral embedding where every node collapses to one point).
  kKMeansDegenerateEmbedding,
  /// KMeans1D (workspace form): the shared Sorted1DWorkspace behind the
  /// miner's kappa sweep reports itself corrupt. Queried from inside the
  /// sweep's ParallelFor, so arming it proves the per-slot Status plumbing
  /// of the parallel sweep surfaces a clean error instead of crashing; arm
  /// with an unlimited budget for determinism across thread counts.
  kKMeans1DWorkspaceCorruption,
  /// AtomicFileWriter::Append: only part of the buffer reaches the file and
  /// the write reports failure (a full disk / interrupted write mid-stream).
  kDurableShortWrite,
  /// AtomicFileWriter::Commit: the final temp -> target rename fails (target
  /// directory vanished, EXDEV, permission flip under the writer).
  kDurableRenameFailure,
  /// AtomicFileWriter::Commit: fsync of the written temp file fails — the
  /// classic silent-ENOSPC-on-close case the durability layer exists for.
  kDurableFsyncFailure,
  /// WriteArtifact: one payload byte is flipped after the checksum is
  /// computed, producing exactly the torn artifact ReadArtifact must catch.
  kDurableChecksumCorruption,
  /// Snapshot::Load: the verified rpsnap payload loses its trailing quarter
  /// before structural validation (a reader racing a non-atomic copy of the
  /// file). Must surface as typed Corruption, never as UB in the views.
  kSnapshotShortRead,
  /// Snapshot::Load: the loaded snapshot's source fingerprint is declared
  /// stale, modelling a serving tier that refreshed its network but not its
  /// snapshot. Queried once per Load, after validation succeeds.
  kSnapshotStaleFingerprint,
  /// SnapshotManager::Reload: the fully-loaded, fully-validated candidate
  /// snapshot is declared corrupt at the last moment before the swap (a
  /// publisher whose artifact tore between validation and adoption). The
  /// manager must keep serving the previous snapshot and record the failed
  /// reload — rollback is free because the swap never happened. Queried
  /// once per Reload, from serial code.
  kSnapshotSwapCorruption,
  /// ServeQueries: the admission controller's query budget collapses to
  /// zero for this call, so every query line in the window is answered
  /// `shed ... queue-full` (a serving tier at saturation). Queried once per
  /// ServeQueries call, from the serial parse/admission phase, so the
  /// degraded output is byte-identical for every thread count.
  kServeShedOverflow,
  /// ServeQueries: the per-batch deadline is declared expired before any
  /// query dispatches (a stalled upstream eating the whole budget). Under
  /// the isolate policy every query line in the window answers
  /// `shed ... deadline`; under strict the call fails DeadlineExceeded.
  /// Queried once per ServeQueries call, from serial code.
  kServeQueryTimeout,
  /// IncrementalRepartitioner::Refresh: the cached warm-start embedding for
  /// every region is declared corrupt before it is handed to the eigensolver
  /// (a torn warm cache surviving a crash). The engine must fall back to the
  /// cold seeded start — identical fallback ladder, valid output. Queried
  /// once per Refresh, from the serial dirty-detection phase.
  kWarmStartCorruption,
  /// IncrementalRepartitioner::Refresh: the dirty-region detector reports
  /// an overflow (density delta accounting no longer trustworthy) and must
  /// degrade by marking *every* region dirty — a safe over-recut, never a
  /// missed one. Queried once per Refresh, from serial code.
  kDirtyDetectOverflow,
  /// RunPipeline: the supervised controller declares the current interval
  /// poisoned before its refresh is attempted (an upstream feed flagged bad
  /// out of band). The interval must quarantine with a typed reason while
  /// serving stays on the last good snapshot. Queried once per interval,
  /// from serial code.
  kPipelineQuarantinedInterval,
  /// RunPipeline: the publication gate vetoes an otherwise publishable
  /// refresh (a quality monitor tripping independently of ANS/churn). The
  /// interval records degraded and the staleness counter rises. Queried
  /// once per gate evaluation, from serial code.
  kPipelinePublishGateReject,
  /// LoadJournal: the pipeline journal is declared corrupt after its
  /// envelope verified (a torn artifact surviving checksum by luck). The
  /// pipeline must warn and cold-restart the series — never error. Queried
  /// once per verified journal LoadJournal reads, from serial code.
  kPipelineJournalCorruption,
  kFaultSiteCount,  ///< sentinel; keep last
};

constexpr int kNumFaultSites = static_cast<int>(FaultSite::kFaultSiteCount);

const char* FaultSiteName(FaultSite site);

/// Deterministic, seeded fault injector. Sites fire while armed and count
/// every fire, so a test can assert both that a fault was actually exercised
/// and that two runs with the same seed + same arming produce bit-identical
/// behavior. Thread-safe; determinism across thread counts holds as long as
/// armed sites are queried from serial code or armed with an unlimited
/// budget (a finite budget raced by parallel queries would be claimed in
/// nondeterministic order).
class FaultInjector {
 public:
  static constexpr int kUnlimited = std::numeric_limits<int>::max();

  explicit FaultInjector(uint64_t seed);

  /// Arms `site` to fire on its next `count` queries.
  void Arm(FaultSite site, int count = kUnlimited);

  /// Clears any remaining budget on `site`.
  void Disarm(FaultSite site);

  /// True when `site` is armed; decrements the budget and bumps the fire
  /// counter.
  bool ShouldFire(FaultSite site);

  /// Times `site` has fired since construction.
  int fire_count(FaultSite site) const;

  /// `how_many` distinct indices in [0, n), sorted ascending, drawn from the
  /// injector's seeded stream — the deterministic choice of which entries a
  /// corruption site mangles.
  std::vector<int> PickIndices(int n, int how_many);

 private:
  mutable std::mutex mu_;
  uint64_t rng_state_;  // SplitMix64 state; advanced by PickIndices
  std::array<int, kNumFaultSites> armed_{};
  std::array<int, kNumFaultSites> fired_{};
};

/// Process-global injector consulted by the RP_FAULT_FIRES hooks; null (the
/// default) means every site is cold.
FaultInjector* GlobalFaultInjector();
void SetGlobalFaultInjector(FaultInjector* injector);

/// RAII installer for tests: installs `injector` on construction, restores
/// the previous global on destruction.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector);
  ~ScopedFaultInjector();

  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* previous_;
};

namespace internal {
/// Out-of-line slow path behind RP_FAULT_FIRES.
bool FaultPointFires(FaultSite site);
}  // namespace internal

/// Hook macro placed at each fault site. Defining RP_DISABLE_FAULT_INJECTION
/// collapses every hook to the constant `false` at compile time (zero cost,
/// dead-code-eliminated guards); otherwise the cost is one atomic pointer
/// load and a branch, paid only at the handful of cold sites above.
#if defined(RP_DISABLE_FAULT_INJECTION)
#define RP_FAULT_FIRES(site) (false)
#else
#define RP_FAULT_FIRES(site) (::roadpart::internal::FaultPointFires(site))
#endif

}  // namespace roadpart

#endif  // ROADPART_COMMON_FAULT_INJECTION_H_
