#pragma once

#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "launcher/backend.hpp"
#include "launcher/protocol.hpp"
#include "support/csv.hpp"

namespace microtools::verify {
struct VerifyOptions;
}  // namespace microtools::verify

namespace microtools::launcher {

/// One benchmark variant of a campaign: a MicroCreator-generated program or
/// a source file picked up from a campaign directory.
struct CampaignVariant {
  std::string name;                      ///< unique label (file stem)
  std::string kind = "asm";              ///< asm|c (Backend::loadSource)
  std::string source;                    ///< kernel source text
  std::string functionName = "microkernel";
  std::string contentId;  ///< creator content digest ("" for file variants)
};

/// Outcome of one variant, in input order (`sequence`).
struct VariantResult {
  std::size_t sequence = 0;  ///< index of the variant in the input batch
  int round = 0;  ///< planner round that produced this row (0: plain sweep)
  std::string name;
  std::string status = "ok";  ///< ok|error|timeout|skipped
  std::string error;          ///< message when status != ok
  Measurement measurement;    ///< valid only when status == ok
  int repetitions = 0;        ///< final outer-repetition count
  double finalCv = 0.0;       ///< CV of the final sample set (NaN: undefined)
  bool converged = true;      ///< finalCv <= maxCv (when adaptive is on)
  int attempts = 1;           ///< 1, or 2 after a retry on ExecutionError
  bool cached = false;        ///< served from the measurement cache
  std::string note;           ///< diagnostic annotation (degenerate CV, resume)
  std::string verify;  ///< pre-flight verdict ("ok", "E:.../W:...", or "")

  /// Static cost-model annotation (CampaignOptions::predict): lower bound on
  /// cycles/iteration and the binding constraint ("frontend", "latency", or
  /// a port pool). NaN/"" when no predictor ran or the kernel's shape is
  /// outside the model. Recomputed per run — never stored in the
  /// measurement cache, so cached rows pick up model improvements for free.
  double predCpiLo = std::numeric_limits<double>::quiet_NaN();
  std::string predBound;
};

/// Pre-measurement hook: return true and fill `out` to satisfy a variant
/// from the measurement cache instead of running it (`sequence`, `name` and
/// `cached` are overwritten by the runner).
using CacheLookup =
    std::function<bool(const CampaignVariant& variant, VariantResult& out)>;

/// Post-measurement hook: persist a completed (status == "ok") result.
using CacheStore = std::function<void(const CampaignVariant& variant,
                                      const VariantResult& result)>;

/// Static-prediction hook: annotate `out` (predCpiLo/predBound) for a
/// variant. Called once per variant on the campaign thread before any
/// measurement or cache decision, on every path that appends a row.
using Predictor =
    std::function<void(const CampaignVariant& variant, VariantResult& out)>;

/// Per-variant screening-repetition override: returns a cap applied to both
/// the protocol's outer repetitions and the adaptive budget for this
/// variant, or 0 to keep the campaign protocol untouched. The measurement
/// cache key incorporates the effective (capped) protocol, so overridden
/// rows never alias full-fidelity entries.
using RepetitionOverride = std::function<int(const CampaignVariant& variant)>;

/// Row hook: fires once per terminal row exactly where the CSV sink would
/// append it (cache hits, verify-strict skips, measured rows, pipeline
/// phantom rows — but NOT resume skips, whose rows already exist in the file
/// being resumed). Campaign-service workers use it to forward every row to
/// the daemon's canonical merge. Called from worker threads; must be
/// thread-safe.
using RowObserver = std::function<void(const CampaignVariant& variant,
                                       const VariantResult& row)>;

/// Pre-flight static verification policy for "asm" variants (verify::).
/// Off keeps the pre-PR-5 behavior bit-identical; Warn annotates the CSV
/// `verify` column but still measures everything; Strict skips variants
/// whose verification reports an error (ABI clobber, provable OOB, ...)
/// before any compile or dlopen can crash the campaign.
enum class VerifyMode { Off, Warn, Strict };

/// Parses a --verify value ("off"|"warn"|"strict"); throws McError on
/// anything else.
VerifyMode verifyModeFromName(const std::string& name);

/// Campaign execution knobs.
struct CampaignOptions {
  int jobs = 1;                ///< worker threads, each owning one Backend
  ProtocolOptions protocol;    ///< baseline Figure-10 protocol per variant
  double maxCv = 0.05;         ///< adaptive-repetition CV target (<=0: off)
  int maxRepetitions = 40;     ///< total outer-repetition budget per variant
  int variantTimeoutMs = 0;    ///< cooperative per-variant timeout (0: none)
  bool pinWorkers = false;     ///< pin worker w's requests to core w (native)

  /// Pipelined compilation: `compileJobs` producer threads call
  /// Backend::prepareBatch() on groups of `compileBatch` variants and feed a
  /// bounded queue ahead of the measurement workers, so compiling variant
  /// N+k overlaps measuring variant N and pinned workers never block on the
  /// compiler. 0 disables the pipeline (each worker compiles inline).
  /// Results are bit-identical either way: preparation only transforms
  /// sources, never measures. Connect mode (bindRemoteCampaign) forces 0.
  int compileJobs = 0;
  int compileBatch = 8;  ///< variants per prepareBatch() call (>= 1)

  /// Static pre-flight verification of "asm" variants. Library default is
  /// Off (bit-compatible with earlier campaigns); the CLIs default to
  /// Strict. Skipped variants get a CSV row with status "skipped" and the
  /// rule summary in `verify`/`error`.
  VerifyMode verify = VerifyMode::Off;

  CacheLookup cacheLookup;     ///< pre-measurement cache probe (optional)
  CacheStore cacheStore;       ///< post-measurement cache write (optional)
  RowObserver rowObserver;     ///< per-terminal-row hook (optional)
  Predictor predict;           ///< static cost-model annotation (optional)

  /// Per-variant repetition cap for stability-directed screening
  /// (optional). Applied inside runOne and inside explore's cacheKey.
  RepetitionOverride repOverride;

  /// Stamped onto every VariantResult (and its CSV row) this run produces.
  /// The successive-halving planner runs one campaign per round and bumps
  /// this so rows from different fidelity levels stay distinguishable in a
  /// single streamed CSV; a plain exhaustive sweep leaves it at 0.
  int round = 0;

  /// (sequence, name) pairs already terminal in a previous run (CSV
  /// resume; see readCompletedVariants): these variants are marked
  /// "skipped" without touching a backend, and are NOT re-appended to the
  /// sink — their rows already exist in the file being resumed.
  std::set<std::pair<std::size_t, std::string>> completed;
};

/// Pull-based variant producer for CampaignRunner::run: returns the next
/// variant, or nullopt when the source is exhausted. Called only from the
/// campaign thread, so implementations need no internal locking.
using VariantSource = std::function<std::optional<CampaignVariant>()>;

/// Creates the Backend a given worker owns for the whole campaign. Workers
/// 0..jobs-1 are measurement workers; when the compile pipeline is on
/// (CampaignOptions::compileJobs > 0), workers jobs..jobs+compileJobs-1 are
/// compile producers that only ever call prepareBatch() on their backend.
using BackendFactory = std::function<std::unique_ptr<Backend>(int worker)>;

/// Streams finished variant rows to a CSV file or stream as they complete,
/// so a crashed campaign loses nothing. Rows are appended in completion
/// order and carry their `sequence` column; one flush per row. When opened
/// on a path, the header is only written if the file is new or empty, so
/// resumed campaigns append cleanly. Resuming an existing file is hardened
/// two ways: a file whose header differs from the current csvHeader() is
/// rejected (McError) instead of silently mixing schemas, and a file whose
/// last row was truncated by a crash gets a newline before the first new
/// row so the next append cannot concatenate onto the torn line.
class CampaignCsvSink {
 public:
  /// Opens `path` for appending. For a new or empty file, `preamble`
  /// (typically env::toCsvComments output — "#"-prefixed lines) is written
  /// before the header; an existing file keeps its original preamble.
  explicit CampaignCsvSink(const std::string& path,
                           const std::string& preamble = "");
  explicit CampaignCsvSink(std::ostream& os);
  ~CampaignCsvSink();

  void append(const VariantResult& result);

 private:
  void writeLine(const std::vector<std::string>& cells);

  std::mutex mutex_;
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_ = nullptr;
  bool headerWritten_ = false;
};

/// Dispatches a campaign's variants across `jobs` worker threads. Each worker
/// owns the Backend the factory built for it; every variant gets a freshly
/// reset backend, a cooperative timeout, one retry on ExecutionError, and
/// adaptive repetition until its CV target or budget is reached — so results
/// are bit-identical regardless of job count or completion order (on
/// deterministic backends).
class CampaignRunner {
 public:
  CampaignRunner(BackendFactory factory, CampaignOptions options);

  /// Runs every variant against `request`; optionally streams rows into
  /// `sink` as they complete. Returns results ordered by sequence.
  std::vector<VariantResult> run(const std::vector<CampaignVariant>& variants,
                                 const KernelRequest& request,
                                 CampaignCsvSink* sink = nullptr);

  /// The campaign loop: pulls variants from `source` (sequence = arrival
  /// order) and resolves each upfront — resume skip, verify pre-flight,
  /// cache probe — on the calling thread. A miss goes straight to the
  /// worker pool when compileJobs == 0; otherwise it joins a compile batch
  /// that closes at compileBatch misses or when the source ends. Backends
  /// are built lazily per worker, so a fully cached run constructs none.
  /// On deterministic backends the results do not depend on jobs,
  /// compileJobs or compileBatch.
  std::vector<VariantResult> run(const VariantSource& source,
                                 const KernelRequest& request,
                                 CampaignCsvSink* sink = nullptr);

  static std::vector<std::string> csvHeader();
  static std::vector<std::string> csvRow(const VariantResult& result);

  /// Renders results (in sequence order) as a CSV table.
  static csv::Table toCsv(const std::vector<VariantResult>& results);

 private:
  VariantResult runOne(Backend& backend, const CampaignVariant& variant,
                       std::size_t sequence, const KernelRequest& request);

  /// Shared upfront resolution: resume skip -> verify pre-flight -> cache
  /// probe. Returns true when the variant is terminal without measurement
  /// (r filled, row appended to sink where due); false leaves `r` primed
  /// (sequence/round/name/verify) for measurement.
  bool resolveUpfront(const CampaignVariant& variant, std::size_t sequence,
                      const verify::VerifyOptions& verifyOptions,
                      VariantResult& r, CampaignCsvSink* sink);

  BackendFactory factory_;
  CampaignOptions options_;
};

/// Scans `dir` (non-recursively) for `.s` and `.c` kernels, sorted by file
/// name for a deterministic sequence. Throws McError when the directory is
/// missing or holds no kernels.
std::vector<CampaignVariant> loadCampaignDirectory(
    const std::string& dir, const std::string& functionName = "microkernel");

/// Reads a campaign CSV written by CampaignCsvSink and returns the
/// (sequence, name) pairs of rows with a TERMINAL status — ok, error,
/// timeout, or skipped — i.e. the set a resumed campaign can skip. Every
/// status the runner writes is terminal (a failed variant already got its
/// retry; a verify-strict skip is a verdict, not a transient), so re-running
/// such a variant on resume would only duplicate its row. Missing files
/// yield an empty set; "#" comment lines are skipped, and rows narrower
/// than the schema — the runner always writes full-width rows — are treated
/// as crash-torn remnants: ignored here so the variant is re-measured.
std::set<std::pair<std::size_t, std::string>> readCompletedVariants(
    const std::string& csvPath);

/// Round-aware overload for resuming a successive-halving CSV: only rows
/// whose `round` column equals `round` are returned. Files written before
/// the round column existed are rejected by CampaignCsvSink anyway, but for
/// robustness a missing round column here counts every row as round 0.
std::set<std::pair<std::size_t, std::string>> readCompletedVariants(
    const std::string& csvPath, int round);

/// Wraps a MicroCreator batch as campaign variants.
std::vector<CampaignVariant> variantsFromPrograms(
    const std::vector<creator::GeneratedProgram>& programs);

}  // namespace microtools::launcher
