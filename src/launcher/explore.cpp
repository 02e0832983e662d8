#include "launcher/explore.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "creator/creator.hpp"
#include "launcher/arch_registry.hpp"
#include "launcher/predict.hpp"
#include "launcher/remote_store.hpp"
#include "launcher/sim_backend.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
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

/// Bounded handoff between the generation producer thread and the campaign
/// loop in streaming mode. The producer pushes verified variants (plus the
/// one-shot StreamInfo); the campaign thread pulls them in order.
/// `abandoned` releases a blocked producer when the consumer unwinds early.
struct StreamChannel {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<CampaignVariant> queue;
  std::size_t capacity = 0;
  creator::PassManager::StreamInfo info;
  bool infoSet = false;
  bool closed = false;
  bool abandoned = false;
  std::exception_ptr error;
};

CampaignVariant variantFromProgram(creator::GeneratedProgram&& p) {
  CampaignVariant v;
  v.name = std::move(p.name);
  v.kind = "asm";
  v.source = std::move(p.asmText);
  v.functionName = std::move(p.functionName);
  v.contentId = std::move(p.contentId);
  return v;
}

KernelRequest buildRequest(const ExploreOptions& options, int nbVectors) {
  KernelRequest request;
  request.chunkStrideBytes = options.elementBytes;
  if (options.tripCount) {
    request.n = *options.tripCount;
  } else {
    if (options.elementBytes == 0) throw McError("element bytes must be > 0");
    std::uint64_t elements = options.arrayBytes / options.elementBytes;
    if (elements == 0 || elements > 0x7fffffffull) {
      throw McError("array size yields an invalid trip count");
    }
    request.n = static_cast<int>(elements);
  }
  for (int i = 0; i < nbVectors; ++i) {
    request.arrays.push_back(
        ArraySpec{options.arrayBytes, options.alignment, options.alignOffset});
  }
  return request;
}

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

/// Builds the run's StaticAnnotator (nullptr when prediction is off); see
/// launcher/predict.hpp for what it feeds.
std::shared_ptr<StaticAnnotator> makeAnnotator(const ExploreOptions& options,
                                               const KernelRequest& request) {
  if (!options.predict) return nullptr;
  return makeStaticAnnotator(options.arch, request);
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

  if (options.stream && options.search == SearchMode::Halving) {
    throw McError(
        "--stream requires the full sweep: the halving planner needs the "
        "complete variant set before its first round");
  }
  bool connectMode = !options.connectAddr.empty();
  if (connectMode && options.search == SearchMode::Halving) {
    throw McError(
        "--connect requires the full sweep: the halving planner adapts the "
        "protocol per round, which sharded workers cannot coordinate");
  }
  if (connectMode && options.stream) {
    // The campaign (its id and variant count) must be announced to the
    // daemon before the first acquire, so connect mode generates in batch;
    // dispatch itself still streams per variant.
    log::warn("--connect announces the campaign upfront; --stream's "
              "generation overlap is ignored");
  }

  creator::MicroCreator creator;
  creator.setGenerateJobs(options.generateJobs);

  // Backend resolution is independent of the generated programs, so both
  // the batch and the streaming path share it up front.
  BackendFactory factory = options.backendFactory;
  std::string backendId = options.backendId;
  if (!factory) {
    if (options.backend != "sim") {
      throw McError("explore backend '" + options.backend +
                    "' requires an explicit backend factory");
    }
    sim::MachineConfig config = archByName(options.arch).config;
    if (options.coreGHz) config.coreGHz = *options.coreGHz;
    SimBackendOptions simOptions;
    simOptions.memoize = !options.simExact;
    factory = [config, simOptions](int) {
      return std::make_unique<SimBackend>(config, simOptions);
    };
  }
  if (backendId.empty()) {
    backendId = options.backend == "sim" ? "sim:" + options.arch
                                         : options.backend;
    if (options.coreGHz) {
      backendId += strings::format("@%.3fGHz", *options.coreGHz);
    }
    // Exact-mode results are bit-identical to fast-mode ones, but sharing a
    // cache identity would let one serve the other's entries and make any
    // fast-vs-exact comparison vacuous. Keep them separate.
    if (options.backend == "sim" && options.simExact) backendId += ":exact";
  }

  std::shared_ptr<MeasurementCache> cache;
  if (options.useCache && !connectMode) {
    // In connect mode the serve daemon owns the one shared cache; a local
    // cache would shadow it and desynchronize the workers' hit accounting.
    cache = std::make_shared<MeasurementCache>(options.cacheDir);
  }

  ExploreResult out;
  out.backendId = backendId;

  if (options.stream && !connectMode) {
    // §3 as a producer: generation runs on its own thread, handing verified
    // variants through a bounded channel into a streaming campaign, so the
    // first measurement starts as soon as the first variant is emitted.
    StreamChannel channel;
    channel.capacity =
        std::max<std::size_t>(64, static_cast<std::size_t>(
                                      options.campaign.jobs) * 8);
    std::thread producer([&creator, &description, &channel] {
      try {
        creator.generateStream(
            description,
            [&channel](const creator::PassManager::StreamInfo& info) {
              std::lock_guard<std::mutex> lock(channel.mutex);
              channel.info = info;
              channel.infoSet = true;
              channel.cv.notify_all();
            },
            [&channel](creator::GeneratedProgram&& p) {
              CampaignVariant v = variantFromProgram(std::move(p));
              std::unique_lock<std::mutex> lock(channel.mutex);
              channel.cv.wait(lock, [&channel] {
                return channel.queue.size() < channel.capacity ||
                       channel.abandoned;
              });
              if (channel.abandoned) return;  // consumer unwound; discard
              channel.queue.push_back(std::move(v));
              channel.cv.notify_all();
            });
      } catch (...) {
        std::lock_guard<std::mutex> lock(channel.mutex);
        channel.error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(channel.mutex);
      channel.closed = true;
      channel.cv.notify_all();
    });
    // Covers every exit (including exceptions below): release a blocked
    // producer, then join it before the channel leaves scope.
    struct ProducerGuard {
      StreamChannel& channel;
      std::thread& producer;
      ~ProducerGuard() {
        {
          std::lock_guard<std::mutex> lock(channel.mutex);
          channel.abandoned = true;
        }
        channel.cv.notify_all();
        if (producer.joinable()) producer.join();
      }
    } guard{channel, producer};

    creator::PassManager::StreamInfo info;
    {
      std::unique_lock<std::mutex> lock(channel.mutex);
      channel.cv.wait(lock,
                      [&channel] { return channel.infoSet || channel.closed; });
      if (!channel.infoSet) {
        if (channel.error) std::rethrow_exception(channel.error);
        throw McError("description generated no benchmark programs");
      }
      info = channel.info;
    }
    if (info.kernelCount == 0) {
      std::unique_lock<std::mutex> lock(channel.mutex);
      channel.cv.wait(lock, [&channel] { return channel.closed; });
      if (channel.error) std::rethrow_exception(channel.error);
      throw McError("description generated no benchmark programs");
    }

    // nbVectors comes from the pre-verification kernel shape (the emitted
    // kernels' maximum arrayCount) — available before the first program
    // finishes, unlike the batch path's post-verification maximum. The two
    // can only differ when verification rejects every widest variant, in
    // which case the surviving kernels simply get one array more than they
    // dereference.
    int nbVectors = options.nbVectors > 0
                        ? options.nbVectors
                        : std::max(1, info.maxArrayCount);
    KernelRequest request = buildRequest(options, nbVectors);
    out.request = request;

    CampaignOptions campaign = options.campaign;
    installPredict(campaign, makeAnnotator(options, request));
    if (cache) makeCacheBinder(cache, backendId, request)(campaign);
    CampaignRunner runner(std::move(factory), campaign);
    std::size_t streamed = 0;
    out.results = runner.runStream(
        [&channel, &streamed]() -> std::optional<CampaignVariant> {
          std::unique_lock<std::mutex> lock(channel.mutex);
          channel.cv.wait(lock, [&channel] {
            return !channel.queue.empty() || channel.closed;
          });
          if (channel.queue.empty()) return std::nullopt;
          CampaignVariant v = std::move(channel.queue.front());
          channel.queue.pop_front();
          channel.cv.notify_all();
          ++streamed;
          return v;
        },
        request, sink);
    {
      // Batch parity: a generation failure fails the run, even when it
      // struck after some variants were already measured.
      std::lock_guard<std::mutex> lock(channel.mutex);
      if (channel.error) std::rethrow_exception(channel.error);
    }
    out.generated = streamed;
    tallyFullSweep(out);
    if (cache) out.cacheTelemetry = cache->telemetry();
    return out;
  }

  // §3 in memory: the whole variant set goes straight into the campaign,
  // no .s round-trip through the filesystem.
  std::vector<creator::GeneratedProgram> programs =
      creator.generate(description);
  if (programs.empty()) {
    throw McError("description generated no benchmark programs");
  }
  std::vector<CampaignVariant> variants = variantsFromPrograms(programs);

  int nbVectors = options.nbVectors;
  if (nbVectors <= 0) {
    // Derive the array count the kernels actually dereference.
    nbVectors = 1;
    for (const creator::GeneratedProgram& p : programs) {
      nbVectors = std::max(nbVectors, p.arrayCount);
    }
  }
  KernelRequest request = buildRequest(options, nbVectors);

  CacheBinder bindCache;
  if (cache) bindCache = makeCacheBinder(cache, backendId, request);

  std::shared_ptr<StaticAnnotator> annotator = makeAnnotator(options, request);

  out.generated = programs.size();
  out.request = request;

  if (connectMode) {
    // Sharded worker: the daemon resolves every variant (cache probe or
    // lease). Dispatch MUST stream per variant — the batch path resolves
    // every variant before its pool starts, so a worker at its lease cap
    // would sleep in `defer` with nothing draining its queue.
    CampaignOptions campaign = options.campaign;
    installPredict(campaign, annotator);
    RemoteOptions remote;
    remote.worker = options.workerName;
    remote.jobs = campaign.jobs;
    std::shared_ptr<RemoteResultStore> store = bindRemoteCampaign(
        options.connectAddr, remote, variants, backendId, request, campaign);
    CampaignRunner runner(std::move(factory), campaign);
    // Rotated traversal: start where the daemon's joining ordinal points,
    // so fleet members lease disjoint stretches of the variant space
    // instead of colliding on the same keys in lockstep. The row observer
    // rewrites sequences back to the canonical order, so the daemon's
    // merged CSV/report is identical whatever the local order was.
    std::size_t offset = shardOffset(store->ordinal(), variants.size());
    std::size_t next = 0;
    out.results = runner.runStream(
        [&variants, &next, offset]() -> std::optional<CampaignVariant> {
          if (next >= variants.size()) return std::nullopt;
          return variants[(offset + next++) % variants.size()];
        },
        request, sink);
    tallyFullSweep(out);
    out.cacheTelemetry = store->telemetry();
    return out;
  }

  if (options.search == SearchMode::Halving) {
    CampaignOptions campaign = options.campaign;
    PlannerOptions planner = options.planner;
    installPredict(campaign, annotator);
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

  CampaignOptions campaign = options.campaign;
  installPredict(campaign, annotator);
  if (bindCache) bindCache(campaign);
  CampaignRunner runner(std::move(factory), campaign);
  out.results = runner.run(variants, request, sink);
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
