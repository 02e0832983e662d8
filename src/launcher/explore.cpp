#include "launcher/explore.hpp"

#include <algorithm>
#include <memory>

#include "creator/creator.hpp"
#include "launcher/arch_registry.hpp"
#include "launcher/predict.hpp"
#include "launcher/remote_store.hpp"
#include "launcher/sim_backend.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

namespace microtools::launcher {

// ---------------------------------------------------------------------------
// Cache key
// ---------------------------------------------------------------------------

std::string cacheKey(const CampaignVariant& variant,
                     const CampaignOptions& options,
                     const std::string& backendId,
                     const KernelRequest& request) {
  hash::Fnv1a h;
  h.u64(MeasurementCache::kFormatVersion);
  // What runs: the kernel source is hashed directly (not via contentId) so
  // the same program gets the same key whether it arrived in memory from
  // MicroCreator or from a .s file written to a campaign directory.
  h.str(variant.kind).str(variant.functionName).str(variant.source);
  // How it is measured. A per-variant repetition override changes what
  // actually runs, so the key hashes the EFFECTIVE protocol — a
  // stability-capped screening row can never serve (or be served by) a
  // full-fidelity probe of the same variant.
  const ProtocolOptions& p = options.protocol;
  int outerRepetitions = p.outerRepetitions;
  int maxRepetitions = options.maxRepetitions;
  if (options.repOverride) {
    int cap = options.repOverride(variant);
    if (cap > 0) {
      outerRepetitions = std::min(outerRepetitions, cap);
      maxRepetitions = std::min(maxRepetitions, cap);
    }
  }
  h.i64(p.innerRepetitions).i64(outerRepetitions);
  h.boolean(p.warmup).boolean(p.subtractOverhead);
  h.f64(options.maxCv).i64(maxRepetitions);
  // Where it runs. request.core is excluded on purpose: campaign workers
  // pin to different cores, and per-core keys would fragment the cache.
  h.str(backendId);
  h.i64(request.n).u64(request.chunkStrideBytes);
  h.u64(request.arrays.size());
  for (const ArraySpec& a : request.arrays) {
    h.u64(a.bytes).u64(a.alignment).u64(a.offset);
  }
  return h.hex();
}

// ---------------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------------

namespace {

/// Builds the cache binder over an open cache. The binder installs
/// lookup/store hooks keyed on the options of whatever campaign it is
/// applied to. The full sweep applies it once to the baseline options; the
/// halving planner re-applies it every round, because cacheKey() hashes the
/// round's protocol — screening entries and full-fidelity entries must
/// never serve each other, while the final round's keys are identical to an
/// exhaustive sweep's.
CacheBinder makeCacheBinder(std::shared_ptr<MeasurementCache> cache,
                            const std::string& backendId,
                            const KernelRequest& request) {
  return [cache, backendId, request](CampaignOptions& roundOptions) {
    // Key fields only — the hook-free copy avoids self-capture. repOverride
    // stays: cacheKey() folds the per-variant cap into the effective
    // protocol it hashes.
    CampaignOptions keyOptions = roundOptions;
    keyOptions.cacheLookup = nullptr;
    keyOptions.cacheStore = nullptr;
    keyOptions.rowObserver = nullptr;
    keyOptions.predict = nullptr;
    keyOptions.completed.clear();
    roundOptions.cacheLookup = [cache, keyOptions, backendId, request](
                                   const CampaignVariant& v,
                                   VariantResult& out) {
      std::optional<VariantResult> hit =
          cache->load(cacheKey(v, keyOptions, backendId, request));
      if (!hit) return false;
      out = std::move(*hit);
      return true;
    };
    roundOptions.cacheStore = [cache, keyOptions, backendId, request](
                                  const CampaignVariant& v,
                                  const VariantResult& result) {
      cache->store(cacheKey(v, keyOptions, backendId, request), result);
    };
  };
}

std::string sweepBackendId(const ExploreOptions& options) {
  if (!options.backendId.empty()) return options.backendId;
  if (options.backend != "sim") return options.backend;
  std::string id = "sim:" + options.arch;
  if (options.coreGHz) id += strings::format("@%.3fGHz", *options.coreGHz);
  // Exact-mode results are bit-identical to fast-mode ones, but sharing a
  // cache identity would let one serve the other's entries and make any
  // fast-vs-exact comparison vacuous. Keep them separate.
  if (options.simExact) id += ":exact";
  return id;
}

void tallyFullSweep(ExploreResult& out) {
  for (const VariantResult& r : out.results) {
    if (r.cached) {
      ++out.cacheHits;
    } else if (r.status != "skipped") {
      ++out.measured;
      out.workRepetitions += r.repetitions;
    } else {
      ++out.skipped;
    }
    if (r.status == "error" || r.status == "timeout") ++out.failures;
  }
}

}  // namespace

BackendFactory sweepBackendFactory(const ExploreOptions& options) {
  if (options.backendFactory) return options.backendFactory;
  if (options.backend != "sim") {
    throw McError("backend '" + options.backend +
                  "' requires an explicit backend factory");
  }
  sim::MachineConfig config = archByName(options.arch).config;
  if (options.coreGHz) config.coreGHz = *options.coreGHz;
  SimBackendOptions simOptions;
  simOptions.memoize = !options.simExact;
  return [config, simOptions](int) {
    return std::make_unique<SimBackend>(config, simOptions);
  };
}

ExploreResult runExplore(const ExploreOptions& options,
                         CampaignCsvSink* sink) {
  creator::Description description =
      options.descriptionFile.empty()
          ? creator::parseDescriptionText(options.descriptionText)
          : creator::parseDescriptionFile(options.descriptionFile);
  if (options.maxVariants) {
    description.maximumBenchmarks = *options.maxVariants;
  }
  if (options.seed) description.seed = *options.seed;

  // §3 in memory: the whole variant set goes straight into the campaign,
  // no .s round-trip through the filesystem.
  std::vector<creator::GeneratedProgram> programs =
      creator::MicroCreator().generate(description);
  if (programs.empty()) {
    throw McError("description generated no benchmark programs");
  }
  int nbVectors = options.nbVectors;
  if (nbVectors <= 0) {
    // Derive the array count the kernels actually dereference.
    nbVectors = 1;
    for (const creator::GeneratedProgram& p : programs) {
      nbVectors = std::max(nbVectors, p.arrayCount);
    }
  }
  std::vector<CampaignVariant> variants = variantsFromPrograms(programs);
  // Past this point only the variants are needed: free the generated IR
  // before the campaign allocates, so it reuses that memory.
  programs = {};
  return runSweep(std::move(variants), buildRequest(options, nbVectors),
                  options, sink);
}

ExploreResult runSweep(std::vector<CampaignVariant> variants,
                       const KernelRequest& request,
                       const ExploreOptions& options, CampaignCsvSink* sink) {
  bool connectMode = !options.connectAddr.empty();
  if (connectMode && options.search == SearchMode::Halving) {
    throw McError(
        "--connect requires the full sweep: the halving planner adapts the "
        "protocol per round, which sharded workers cannot coordinate");
  }
  BackendFactory factory = sweepBackendFactory(options);

  ExploreResult out;
  out.backendId = sweepBackendId(options);
  out.generated = variants.size();
  out.request = request;

  CampaignOptions campaign = options.campaign;
  // The cost model prices the simulated `arch`. Its bound is printed only
  // next to a backend that runs that machine; on native it still orders
  // the halving planner's screening, which needs no soundness.
  std::shared_ptr<StaticAnnotator> annotator;
  if (options.predict) annotator = makeStaticAnnotator(options.arch, request);
  if (options.backend != "native") installPredict(campaign, annotator);

  if (connectMode) {
    // Sharded worker: the daemon owns the one shared cache (a local one
    // would shadow it) and resolves every variant — cache probe or lease —
    // while the campaign loop dispatches each miss at once, so a worker at
    // its lease cap always has measurements in flight to drain.
    RemoteOptions remote;
    remote.worker = options.workerName;
    remote.jobs = campaign.jobs;
    std::shared_ptr<RemoteResultStore> store = bindRemoteCampaign(
        options.connectAddr, remote, variants, out.backendId, request,
        campaign);
    CampaignRunner runner(std::move(factory), campaign);
    // Rotated traversal: start where the daemon's joining ordinal points,
    // so fleet members lease disjoint stretches of the variant space
    // instead of colliding on the same keys in lockstep. The row observer
    // rewrites sequences back to the canonical order, so the daemon's
    // merged CSV/report is identical whatever the local order was.
    std::size_t offset = shardOffset(store->ordinal(), variants.size());
    std::size_t next = 0;
    out.results = runner.run(
        [&variants, &next, offset]() -> std::optional<CampaignVariant> {
          if (next >= variants.size()) return std::nullopt;
          return variants[(offset + next++) % variants.size()];
        },
        request, sink);
    tallyFullSweep(out);
    out.cacheTelemetry = store->telemetry();
    return out;
  }

  std::shared_ptr<MeasurementCache> cache;
  CacheBinder bindCache;
  if (options.useCache) {
    cache = std::make_shared<MeasurementCache>(options.cacheDir);
    bindCache = makeCacheBinder(cache, out.backendId, request);
  }

  if (options.search == SearchMode::Halving) {
    PlannerOptions planner = options.planner;
    installPlannerHooks(planner, annotator);
    PlannerResult planned = runSuccessiveHalving(
        variants, request, factory, campaign, planner, bindCache, sink);
    out.results = std::move(planned.results);
    out.rounds = std::move(planned.rounds);
    out.budgetExhausted = planned.budgetExhausted;
    out.stopReason = std::move(planned.stopReason);
    out.fullFidelityVariants = planned.fullFidelityVariants;
    out.workRepetitions = planned.workRepetitions;
    out.measured = planned.measured;
    out.cacheHits = planned.cacheHits;
    out.skipped = planned.resumed;
    out.failures = planned.failures;
    if (cache) out.cacheTelemetry = cache->telemetry();
    return out;
  }

  if (bindCache) bindCache(campaign);
  CampaignRunner runner(std::move(factory), campaign);
  // The campaign takes each variant over as it pulls it; nothing reads the
  // vector afterwards.
  std::size_t next = 0;
  out.results = runner.run(
      [&variants, &next]() -> std::optional<CampaignVariant> {
        if (next == variants.size()) return std::nullopt;
        return std::move(variants[next++]);
      },
      request, sink);
  tallyFullSweep(out);
  if (cache) out.cacheTelemetry = cache->telemetry();
  return out;
}

csv::Table topKReport(const std::vector<VariantResult>& results, int k) {
  std::vector<const VariantResult*> ranked;
  for (const VariantResult& r : results) {
    if (r.status == "ok") ranked.push_back(&r);
  }
  // NaN-last comparisons throughout: `am != bm ? am < bm : ...` is not a
  // strict weak order once a NaN min/mean appears (possible after
  // overhead-clamped measurements) — NaN compares false both ways, breaking
  // transitivity of equivalence, which is UB in std::stable_sort.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const VariantResult* a, const VariantResult* b) {
                     double am = a->measurement.cyclesPerIteration.min;
                     double bm = b->measurement.cyclesPerIteration.min;
                     if (stats::nanLastLess(am, bm)) return true;
                     if (stats::nanLastLess(bm, am)) return false;
                     double aMean = a->measurement.cyclesPerIteration.mean;
                     double bMean = b->measurement.cyclesPerIteration.mean;
                     if (stats::nanLastLess(aMean, bMean)) return true;
                     if (stats::nanLastLess(bMean, aMean)) return false;
                     return a->name < b->name;
                   });
  if (k > 0 && ranked.size() > static_cast<std::size_t>(k)) {
    ranked.resize(static_cast<std::size_t>(k));
  }
  csv::Table table({"rank", "variant", "cycles_per_iteration_min",
                    "cycles_per_iteration_mean", "cv", "converged",
                    "repetitions", "cached"});
  int rank = 1;
  for (const VariantResult* r : ranked) {
    const stats::Summary& s = r->measurement.cyclesPerIteration;
    table.beginRow()
        .add(rank++)
        .add(r->name)
        .add(s.min)
        .add(s.mean)
        .add(strings::format("%.6f", r->finalCv))
        .add(r->converged ? "1" : "0")
        .add(r->repetitions)
        .add(r->cached ? "1" : "0")
        .commit();
  }
  return table;
}

}  // namespace microtools::launcher
