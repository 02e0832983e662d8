#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "launcher/campaign.hpp"
#include "launcher/planner.hpp"
#include "launcher/result_store.hpp"
#include "support/csv.hpp"

namespace microtools::launcher {

// ---------------------------------------------------------------------------
// Content-addressed cache key (the store itself lives in result_store.hpp)
// ---------------------------------------------------------------------------

/// Computes the content-addressed cache key of one variant measurement:
/// the FNV-1a digest over everything that can change the result — variant
/// source + kind + entry point, the full measurement protocol (inner/outer
/// repetitions, warmup, overhead subtraction, adaptive CV target and
/// budget), the backend identity string (backend name + machine/arch
/// configuration, e.g. "sim:nehalem_x5650_2s"), and the kernel request
/// (trip count, array shapes, element stride). The worker core is
/// deliberately excluded: per-worker pinning must not fragment the cache.
std::string cacheKey(const CampaignVariant& variant,
                     const CampaignOptions& options,
                     const std::string& backendId,
                     const KernelRequest& request);

// ---------------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------------

/// Knobs of one `microtools explore` run: description in, ranked results
/// out, with every measurement flowing creator -> campaign in memory. The
/// inherited KernelGeometry is the launch geometry of every variant.
struct ExploreOptions : KernelGeometry {
  std::string descriptionFile;  ///< XML kernel description path
  std::string descriptionText;  ///< inline XML (tests); used when file == ""

  // -- generation overrides --------------------------------------------------
  std::optional<std::size_t> maxVariants;  ///< <maximum_benchmarks> override
  std::optional<std::uint64_t> seed;       ///< <seed> override

  // -- execution -------------------------------------------------------------
  std::string backend = "sim";  ///< sim|native
  std::string arch = "nehalem_x5650_2s";
  std::optional<double> coreGHz;
  CampaignOptions campaign;  ///< jobs/protocol/adaptive/timeout knobs

  /// Escape hatch (`--sim-exact`): force the simulator backend to cycle-
  /// simulate every invoke — no warm-invoke memoization. Results are
  /// bit-identical to the default fast path; this exists to prove that, and
  /// to debug the fast path when it isn't.
  bool simExact = false;

  /// Static cost-model integration (`--no-predict` turns it off). When on,
  /// every asm variant is annotated with the port-level cycles/iteration
  /// lower bound (CSV columns pred_cpi_lo/pred_bound/pred_err, priced
  /// against `arch`; left empty on the native backend, where that machine
  /// is not the host), the halving planner seeds its screening round in
  /// predicted order, and provably-stable variants screen with
  /// planner.stableScreenRepetitions instead of planner.screenRepetitions.
  /// Predictions are recomputed per run and never cached; measured values
  /// are never altered.
  bool predict = true;

  /// How the variant space is walked: Full sweeps everything at the
  /// baseline protocol (the paper's pipeline); Halving runs the
  /// successive-halving planner (screen cheap, keep the best half, double
  /// the budget, finish with the untouched baseline protocol).
  SearchMode search = SearchMode::Full;
  PlannerOptions planner;  ///< screen reps / budget / tie guard / resume

  /// Overrides the backend construction (tests inject counting backends).
  /// When empty, a SimBackend factory is built from `arch`/`coreGHz`
  /// ("native" requires an explicit factory — the CLI provides one).
  BackendFactory backendFactory;

  /// Cache-key identity of the execution environment; derived from the
  /// backend (and on sim from arch/coreGHz/simExact) when empty. Must be
  /// set alongside a custom backendFactory.
  std::string backendId;

  // -- kernel request (the geometry is inherited) ----------------------------
  int nbVectors = 0;  ///< arrays passed to the kernel; 0 = derive from
                      ///< the generated programs' array counts

  // -- cache -----------------------------------------------------------------
  std::string cacheDir = ".microtools-cache";
  bool useCache = true;

  // -- campaign service (--connect) ------------------------------------------
  /// When non-empty, this worker shards the campaign against a `microtools
  /// serve` daemon at the given address instead of using a local cache: the
  /// daemon owns the measurement cache, hands out idempotent work leases,
  /// and merges every worker's rows into the canonical CSV/report. Full
  /// sweeps only. Dispatch is per-variant (streaming), so a worker measures
  /// its leases while peers hold theirs.
  std::string connectAddr;
  std::string workerName;  ///< name in the daemon's telemetry ("": pid)
};

/// Outcome of one exploration run.
struct ExploreResult {
  std::vector<VariantResult> results;  ///< sequence order
  std::size_t generated = 0;           ///< variants swept (explore: the
                                       ///< programs MicroCreator emitted)
  std::size_t cacheHits = 0;           ///< variants served from the cache
  std::size_t measured = 0;            ///< variants actually executed
  std::size_t skipped = 0;  ///< resumed from a CSV or verify-strict skipped
  std::size_t failures = 0;            ///< status error/timeout
  KernelRequest request;               ///< the request every variant ran
  std::string backendId;               ///< resolved backend identity

  /// Variant-measurement work actually executed: the sum of outer
  /// repetitions over fresh (non-cached, non-resumed) measurements. This is
  /// the denominator-compatible metric the halving planner's "<= 50% of the
  /// exhaustive work" contract is verified against.
  long long workRepetitions = 0;

  /// Measurement-cache access counters for this run (all zero when the
  /// cache is disabled): hits, misses, corrupt records, record-file reads.
  CacheTelemetry cacheTelemetry;

  // -- halving search only ---------------------------------------------------
  std::vector<RoundSummary> rounds;  ///< per-round planner accounting
  bool budgetExhausted = false;      ///< stopped early on --budget
  std::string stopReason;            ///< planner verdict ("" for full sweeps)
  std::size_t fullFidelityVariants = 0;  ///< variants in the final round
};

/// The end-to-end pipeline (§3 + §4 fused): parse the description, generate
/// every variant in memory, then runSweep() them. No intermediate .s files
/// ever touch the filesystem.
ExploreResult runExplore(const ExploreOptions& options,
                         CampaignCsvSink* sink = nullptr);

/// The measurement half of runExplore, which `microlauncher --campaign`
/// runs over a directory of kernels: resolves the backend factory and
/// identity, opens the measurement cache (options.useCache, never with
/// --connect), wires the static cost model, and dispatches once — to the
/// serve daemon (connectAddr), the halving planner, or the full sweep. The
/// full sweep moves each variant into the campaign as it pulls it; rows
/// stream into `sink` as they complete. The description and generation
/// fields of `options` are ignored.
ExploreResult runSweep(std::vector<CampaignVariant> variants,
                       const KernelRequest& request,
                       const ExploreOptions& options,
                       CampaignCsvSink* sink = nullptr);

/// The backend factory a sweep over `options` uses: options.backendFactory
/// when set, else a SimBackend of `arch` (at `coreGHz`, fully simulated
/// under `simExact`). Throws McError for another backend without a factory.
BackendFactory sweepBackendFactory(const ExploreOptions& options);

/// Renders the ranked report: the `k` best status-ok variants by minimum
/// cycles/iteration (the paper's plotted metric), with CV, convergence and
/// cache provenance columns. k <= 0 ranks everything.
csv::Table topKReport(const std::vector<VariantResult>& results, int k);

}  // namespace microtools::launcher
