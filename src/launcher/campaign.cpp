#include "launcher/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "verify/verify.hpp"

namespace microtools::launcher {

namespace fs = std::filesystem;

namespace {

/// One variant of a running campaign. Slots live in a deque that only the
/// campaign thread appends to, so the pointer a worker holds to its slot
/// stays valid while later variants arrive.
struct Slot {
  CampaignVariant variant;
  VariantResult result;
  bool miss = false;      ///< handed on for measurement (not resolved upfront)
  bool measured = false;  ///< a measurement worker wrote `result`
};

/// A cache miss whose source a compile producer has prepared (e.g. batch
/// compiled to an "so" unit by the native backend), ready to measure.
struct PreparedVariant {
  Slot* slot = nullptr;
  SourceUnit unit;
};

/// Blocking MPMC queue between the campaign stages. push() blocks while the
/// queue holds `capacity` items (0: unbounded), which bounds how far
/// compilation can run ahead; pop() blocks until an item arrives or the
/// queue is closed, then returns false.
template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(std::size_t capacity) : capacity_(capacity) {}

  void push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    notFull_.wait(lock, [this] {
      return capacity_ == 0 || items_.size() < capacity_;
    });
    items_.push_back(std::move(item));
    notEmpty_.notify_one();
  }

  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    notEmpty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    notFull_.notify_one();
    return true;
  }

  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    notEmpty_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable notFull_;
  std::condition_variable notEmpty_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

/// Turns `r` into an error row, keeping its identity and the pre-flight
/// annotations (verify verdict, static prediction) resolved upfront.
void markFailed(VariantResult& r, std::string error) {
  VariantResult failed;
  failed.sequence = r.sequence;
  failed.round = r.round;
  failed.name = std::move(r.name);
  failed.verify = std::move(r.verify);
  failed.predCpiLo = r.predCpiLo;
  failed.predBound = std::move(r.predBound);
  failed.status = "error";
  failed.error = std::move(error);
  r = std::move(failed);
}

/// Maps the campaign's launch geometry onto the verifier's context so the
/// MT-MEM bounds/alignment rules check exactly what the backends will
/// allocate (including the kArraySlackBytes page of slack).
verify::VerifyOptions verifyOptionsFor(const KernelRequest& request) {
  verify::VerifyOptions options;
  verify::LaunchContext context;
  context.tripCount = request.n;
  context.slackBytes = static_cast<std::size_t>(kArraySlackBytes);
  context.arrays.reserve(request.arrays.size());
  for (const ArraySpec& spec : request.arrays) {
    verify::ArrayExtent extent;
    extent.bytes = static_cast<std::size_t>(spec.bytes);
    extent.alignment = static_cast<std::size_t>(spec.alignment);
    extent.offset = static_cast<std::size_t>(spec.offset);
    context.arrays.push_back(extent);
  }
  options.arrayCount = static_cast<int>(request.arrays.size());
  options.context = std::move(context);
  return options;
}

}  // namespace

VerifyMode verifyModeFromName(const std::string& name) {
  if (name == "off") return VerifyMode::Off;
  if (name == "warn") return VerifyMode::Warn;
  if (name == "strict") return VerifyMode::Strict;
  throw McError("--verify must be off, warn, or strict (got '" + name + "')");
}

// ---------------------------------------------------------------------------
// CampaignCsvSink
// ---------------------------------------------------------------------------

CampaignCsvSink::CampaignCsvSink(const std::string& path,
                                 const std::string& preamble) {
  // Append-safe: an interrupted campaign can be rerun against the same file
  // and only the header is deduplicated. Before appending to an existing
  // file, two resume hazards are checked: a header from an older (or newer)
  // schema, and a last row torn mid-write by a crash.
  std::error_code ec;
  bool hasContent = fs::exists(path, ec) && fs::file_size(path, ec) > 0;
  bool existingHeader = false;
  bool missingFinalNewline = false;
  if (hasContent) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw McError("cannot read campaign CSV file: " + path);
    std::string line;
    while (std::getline(in, line)) {
      if (strings::startsWith(strings::trim(line), "#")) continue;  // preamble
      if (csv::parseLine(line) != CampaignRunner::csvHeader()) {
        throw McError("campaign CSV header of '" + path +
                      "' does not match the current schema; refusing to mix "
                      "schemas in one file (move the old file aside)");
      }
      existingHeader = true;
      break;
    }
    in.clear();
    in.seekg(-1, std::ios::end);
    char last = '\n';
    if (in.get(last) && last != '\n') missingFinalNewline = true;
  }
  auto file = std::make_unique<std::ofstream>(
      path, std::ios::binary | std::ios::app);
  if (!*file) throw McError("cannot open campaign CSV file: " + path);
  owned_ = std::move(file);
  os_ = owned_.get();
  headerWritten_ = existingHeader;
  if (missingFinalNewline) {
    // Repair a crash-truncated final row: terminate the torn line so the
    // next append starts fresh. The partial row itself stays (parsers skip
    // short rows), but nothing concatenates onto it.
    *os_ << '\n';
    os_->flush();
  }
  if (!hasContent && !preamble.empty()) {
    *os_ << preamble;
    os_->flush();
  }
}

CampaignCsvSink::CampaignCsvSink(std::ostream& os) : os_(&os) {}

CampaignCsvSink::~CampaignCsvSink() = default;

void CampaignCsvSink::writeLine(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) line += ',';
    line += csv::quoteField(cells[i]);
  }
  line += '\n';
  *os_ << line;
  os_->flush();  // one flush per row: a crash loses at most the row in flight
}

void CampaignCsvSink::append(const VariantResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!headerWritten_) {
    writeLine(CampaignRunner::csvHeader());
    headerWritten_ = true;
  }
  writeLine(CampaignRunner::csvRow(result));
}

// ---------------------------------------------------------------------------
// CampaignRunner
// ---------------------------------------------------------------------------

CampaignRunner::CampaignRunner(BackendFactory factory, CampaignOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {
  if (!factory_) throw McError("campaign runner requires a backend factory");
  if (options_.jobs < 1) throw McError("campaign requires --jobs >= 1");
  if (options_.compileJobs < 0) {
    throw McError("campaign requires --compile-jobs >= 0");
  }
  if (options_.compileBatch < 1) {
    throw McError("campaign requires --compile-batch >= 1");
  }
}

VariantResult CampaignRunner::runOne(Backend& backend,
                                     const CampaignVariant& variant,
                                     std::size_t sequence,
                                     const KernelRequest& request) {
  VariantResult result;
  result.sequence = sequence;
  result.round = options_.round;
  result.name = variant.name;

  DeadlineCheck outOfTime;
  if (options_.variantTimeoutMs > 0) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.variantTimeoutMs);
    outOfTime = [deadline] {
      return std::chrono::steady_clock::now() > deadline;
    };
  }

  // Stability-directed screening: the override caps both the protocol's
  // outer repetitions and the adaptive budget for this variant. explore's
  // cacheKey() applies the same cap, so the entry is keyed by the protocol
  // that actually ran.
  ProtocolOptions protocol = options_.protocol;
  int maxRepetitions = options_.maxRepetitions;
  if (options_.repOverride) {
    int cap = options_.repOverride(variant);
    if (cap > 0) {
      protocol.outerRepetitions = std::min(protocol.outerRepetitions, cap);
      maxRepetitions = std::min(maxRepetitions, cap);
    }
  }

  AdaptivePolicy policy;
  policy.maxCv = options_.maxCv;
  policy.maxRepetitions = std::max(maxRepetitions, protocol.outerRepetitions);

  for (int attempt = 1; attempt <= 2; ++attempt) {
    result.attempts = attempt;
    try {
      backend.reset();  // every variant starts from post-construction state
      std::unique_ptr<KernelHandle> kernel =
          backend.loadSource(variant.kind, variant.source,
                             variant.functionName);
      AdaptiveMeasurement am = measureKernelAdaptive(
          backend, *kernel, request, protocol, policy, outOfTime);
      result.measurement = am.measurement;
      result.repetitions = am.repetitions;
      result.finalCv = am.measurement.cyclesPerIteration.cv;
      result.converged = am.converged;
      if (std::isnan(result.finalCv)) {
        // Zero-mean sample set (every sample clamped to 0 after overhead
        // subtraction): the CV is undefined, so this variant must never be
        // reported as converged, whatever the adaptive policy says.
        result.converged = false;
        result.note = "cv undefined: zero-mean samples";
      }
      result.status = "ok";
      result.error.clear();
      return result;
    } catch (const TimeoutError& e) {
      result.status = "timeout";
      result.error = e.message();
      return result;  // out of time: retrying would also time out
    } catch (const ExecutionError& e) {
      result.status = "error";
      result.error = e.message();
      // Transient execution failures get exactly one retry.
    } catch (const McError& e) {
      result.status = "error";
      result.error = e.message();
      return result;  // structural error: a retry cannot change the outcome
    }
  }
  return result;
}

bool CampaignRunner::resolveUpfront(const CampaignVariant& variant,
                                    std::size_t sequence,
                                    const verify::VerifyOptions& verifyOptions,
                                    VariantResult& r, CampaignCsvSink* sink) {
  r.sequence = sequence;
  r.round = options_.round;
  r.name = variant.name;
  if (options_.completed.count({sequence, variant.name})) {
    r.status = "skipped";
    r.note = "already completed in resumed CSV";
    return true;  // its row already exists in the file being resumed
  }
  // Static prediction annotates every row this run appends (strict skips,
  // cache hits, fresh measurements). Cache hits get theirs recomputed here
  // because predictions never enter the measurement cache.
  auto annotate = [&](VariantResult& row) {
    if (options_.predict) options_.predict(variant, row);
  };
  std::string verdict;
  if (options_.verify != VerifyMode::Off && variant.kind == "asm") {
    verify::VerifyReport report =
        verify::verifyAssembly(variant.source, verifyOptions);
    verdict = report.shortSummary();
    if (!report.ok()) {
      std::string detail;
      for (const verify::Diagnostic& d : report.diagnostics) {
        if (d.severity != verify::Severity::Error) continue;
        if (!detail.empty()) detail += "; ";
        detail += "[" + d.rule + "] " + d.message;
      }
      if (options_.verify == VerifyMode::Strict) {
        r.status = "skipped";
        r.verify = verdict;
        r.error = "static verification failed: " + detail;
        r.note = "skipped by --verify=strict";
        annotate(r);
        log::warn("variant '" + r.name + "' skipped by verification: " +
                  verdict);
        if (options_.rowObserver) options_.rowObserver(variant, r);
        if (sink) sink->append(r);
        return true;  // never compiled, loaded, or measured
      }
      log::warn("variant '" + r.name + "' failed verification (" + verdict +
                "); measuring anyway (--verify=warn)");
    }
  }
  if (options_.cacheLookup && options_.cacheLookup(variant, r)) {
    r.sequence = sequence;
    r.round = options_.round;
    r.name = variant.name;
    r.cached = true;
    r.verify = verdict;
    annotate(r);
    if (options_.rowObserver) options_.rowObserver(variant, r);
    if (sink) sink->append(r);
    return true;
  }
  r = VariantResult{};  // a miss may have partially filled the result
  r.sequence = sequence;
  r.round = options_.round;
  r.name = variant.name;
  r.verify = std::move(verdict);
  annotate(r);
  return false;
}

std::vector<VariantResult> CampaignRunner::run(
    const std::vector<CampaignVariant>& variants,
    const KernelRequest& request, CampaignCsvSink* sink) {
  std::size_t next = 0;
  return run(
      [&variants, &next]() -> std::optional<CampaignVariant> {
        if (next == variants.size()) return std::nullopt;
        return variants[next++];
      },
      request, sink);
}

std::vector<VariantResult> CampaignRunner::run(const VariantSource& source,
                                               const KernelRequest& request,
                                               CampaignCsvSink* sink) {
  if (!source) throw McError("campaign requires a variant source");
  // Pre-flight verification runs before the cache probe: a variant the
  // strict gate rejects must never be measured, even from cache, and its
  // verdict must reach the CSV.
  verify::VerifyOptions verifyOptions;
  if (options_.verify != VerifyMode::Off) {
    verifyOptions = verifyOptionsFor(request);
  }

  const int jobs = options_.jobs;
  const int compileJobs = options_.compileJobs;
  const auto batchSize = static_cast<std::size_t>(options_.compileBatch);
  std::deque<Slot> slots;

  // Backends are built on first use by the worker that owns them, so a
  // fully resolved run (resume skips, strict skips, cache hits) constructs
  // none. The factory itself is serialized: a test factory may count
  // constructions in non-atomic state.
  std::vector<std::unique_ptr<Backend>> backends(
      static_cast<std::size_t>(jobs + compileJobs));
  std::mutex factoryMutex;
  auto backendFor = [this, &backends, &factoryMutex](int worker) -> Backend& {
    std::lock_guard<std::mutex> lock(factoryMutex);
    std::unique_ptr<Backend>& backend =
        backends[static_cast<std::size_t>(worker)];
    if (!backend) backend = factory_(worker);
    if (!backend) throw McError("backend factory returned null");
    return *backend;
  };

  // Measures a slot's variant (whose source a compile producer may have
  // rewritten) on the worker's backend. The cache and the row observer
  // always see the ORIGINAL variant: a prepared "so" unit is a
  // process-local artifact and must never leak into the cache key.
  auto measure = [&](int worker, Slot& slot, const CampaignVariant& variant) {
    VariantResult& r = slot.result;
    try {
      KernelRequest workerRequest = request;
      if (options_.pinWorkers) workerRequest.core = worker;
      VariantResult row =
          runOne(backendFor(worker), variant, r.sequence, workerRequest);
      row.verify = std::move(r.verify);
      row.predCpiLo = r.predCpiLo;
      row.predBound = std::move(r.predBound);
      r = std::move(row);
    } catch (const std::exception& e) {
      markFailed(r, e.what());
    }
    slot.measured = true;
    if (r.status == "ok" && options_.cacheStore) {
      options_.cacheStore(slot.variant, r);
    }
    if (options_.rowObserver) options_.rowObserver(slot.variant, r);
    if (sink) sink->append(r);
  };

  // The measurement pool, and with the compile pipeline its producers, start
  // on the first miss. Without the pipeline each miss is one pool task that
  // compiles inline. With it, misses gather into batches of `compileBatch`;
  // producer threads run prepareBatch() on each batch and stream the
  // prepared units, one by one for load balance, through a bounded queue
  // that the measurement workers drain. A variant whose preparation failed
  // arrives unchanged and fails (with the real diagnostic) in the worker's
  // own loadSource, exactly like the inline path.
  std::unique_ptr<threads::ThreadPool> pool;
  std::vector<std::thread> producers;
  BlockingQueue<std::vector<Slot*>> batches(0);
  // Capacity bounds the compile lead: roughly one in-flight batch per
  // producer plus a batch of ready work per measurement worker.
  BlockingQueue<PreparedVariant> prepared(
      batchSize * static_cast<std::size_t>(compileJobs + jobs));
  std::atomic<int> liveProducers{compileJobs};
  std::vector<Slot*> batch;

  // The last producer to exit — on ANY path, including an exception that
  // escapes its loop — must close the prepared queue, or the measurement
  // workers block in pop() forever. A destructor is the only spot that
  // covers every exit, so the decrement lives in a scope guard.
  struct ProducerExit {
    std::atomic<int>& live;
    BlockingQueue<PreparedVariant>& queue;
    ~ProducerExit() {
      if (live.fetch_sub(1) == 1) queue.close();
    }
  };
  auto produce = [&](int producer) {
    ProducerExit exitGuard{liveProducers, prepared};
    std::vector<Slot*> work;
    while (batches.pop(work)) {
      std::vector<SourceUnit> units;
      units.reserve(work.size());
      for (const Slot* slot : work) {
        const CampaignVariant& v = slot->variant;
        units.push_back(SourceUnit{v.kind, v.source, v.functionName});
      }
      std::vector<SourceUnit> ready;
      try {
        ready = backendFor(jobs + producer).prepareBatch(units);
      } catch (const std::exception& e) {
        // prepareBatch contractually degrades instead of throwing; treat a
        // throwing backend (bad_alloc, a crashed compiler, anything) the same
        // way — measure the originals.
        log::warn(std::string("prepareBatch failed (") + e.what() +
                  "); measuring unprepared sources");
      } catch (...) {
        log::warn("prepareBatch failed (unknown exception); measuring "
                  "unprepared sources");
      }
      if (ready.size() != units.size()) ready = std::move(units);
      for (std::size_t k = 0; k < work.size(); ++k) {
        prepared.push(PreparedVariant{work[k], std::move(ready[k])});
      }
    }
  };
  auto consume = [&measure, &prepared](int worker) {
    PreparedVariant item;
    while (prepared.pop(item)) {
      const CampaignVariant& original = item.slot->variant;
      CampaignVariant variant{original.name, std::move(item.unit.kind),
                              std::move(item.unit.text),
                              std::move(item.unit.functionName),
                              original.contentId};
      measure(worker, *item.slot, variant);
    }
  };

  auto dispatch = [&](Slot& slot) {
    slot.miss = true;
    if (!pool) {
      pool = std::make_unique<threads::ThreadPool>(jobs);
      if (compileJobs > 0) {
        for (int w = 0; w < jobs; ++w) pool->submit(consume);
        for (int j = 0; j < compileJobs; ++j) {
          producers.emplace_back(produce, j);
        }
      }
    }
    if (compileJobs == 0) {
      pool->submit([&measure, &slot](int worker) {
        measure(worker, slot, slot.variant);
      });
      return;
    }
    batch.push_back(&slot);
    if (batch.size() == batchSize) {
      batches.push(std::move(batch));
      batch.clear();
    }
  };

  // Lets every dispatched variant finish: the last partial batch goes out,
  // the producers drain and exit (the last one closing the prepared queue),
  // then the pool idles.
  auto drain = [&] {
    if (!batch.empty()) batches.push(std::move(batch));
    batches.close();
    for (std::thread& producer : producers) producer.join();
    if (pool) pool->wait();
  };

  try {
    for (std::optional<CampaignVariant> next; (next = source());) {
      Slot& slot = slots.emplace_back();
      slot.variant = std::move(*next);
      if (!resolveUpfront(slot.variant, slots.size() - 1, verifyOptions,
                          slot.result, sink)) {
        dispatch(slot);
      }
    }
  } catch (...) {
    drain();
    throw;
  }
  drain();

  std::vector<VariantResult> results;
  results.reserve(slots.size());
  for (Slot& slot : slots) {
    if (slot.miss && !slot.measured) {
      // A producer that died before pushing its items leaves variants no
      // worker ever saw. Surface them as errors (with a CSV row) instead of
      // returning phantom successes.
      markFailed(slot.result, "never measured: compile pipeline aborted");
      if (options_.rowObserver) options_.rowObserver(slot.variant, slot.result);
      if (sink) sink->append(slot.result);
    }
    results.push_back(std::move(slot.result));
  }
  return results;
}

std::vector<std::string> CampaignRunner::csvHeader() {
  return {"sequence",
          "round",
          "variant",
          "status",
          "iterations_per_call",
          "cycles_per_iteration_min",
          "cycles_per_iteration_mean",
          "cycles_per_iteration_median",
          "cycles_per_iteration_max",
          "cv",
          "instructions_per_iteration",
          "ipc",
          "l1_miss_rate",
          "llc_miss_rate",
          "stall_ratio",
          "repetitions",
          "converged",
          "attempts",
          "verify",
          "error",
          "cached",
          "note",
          "pred_cpi_lo",
          "pred_bound",
          "pred_err"};
}

std::vector<std::string> CampaignRunner::csvRow(const VariantResult& r) {
  std::vector<std::string> cells;
  cells.push_back(std::to_string(r.sequence));
  cells.push_back(std::to_string(r.round));
  cells.push_back(r.name);
  cells.push_back(r.status);
  // A counter metric cell is empty whenever the value is absent — the
  // rdtsc-only degradation path (no perf, VM without PMU, sim backend) and
  // individual events dropped from the PMU group both surface as NaN.
  auto metricCell = [&cells](double value, const char* fmt) {
    cells.push_back(std::isfinite(value) ? strings::format(fmt, value) : "");
  };
  if (r.status == "ok") {
    const stats::Summary& s = r.measurement.cyclesPerIteration;
    cells.push_back(std::to_string(r.measurement.iterationsPerCall));
    cells.push_back(strings::format("%.4f", s.min));
    cells.push_back(strings::format("%.4f", s.mean));
    cells.push_back(strings::format("%.4f", s.median));
    cells.push_back(strings::format("%.4f", s.max));
    cells.push_back(strings::format("%.6f", r.finalCv));
    const CounterMetrics& c = r.measurement.counters;
    metricCell(c.instructionsPerIteration, "%.4f");
    metricCell(c.ipc, "%.4f");
    metricCell(c.l1MissRate, "%.6f");
    metricCell(c.llcMissRate, "%.6f");
    metricCell(c.stallRatio, "%.6f");
  } else {
    for (int i = 0; i < 11; ++i) cells.push_back("");
  }
  cells.push_back(std::to_string(r.repetitions));
  cells.push_back(r.converged ? "1" : "0");
  cells.push_back(std::to_string(r.attempts));
  cells.push_back(r.verify);
  cells.push_back(r.error);
  cells.push_back(r.cached ? "1" : "0");
  cells.push_back(r.note);
  // Static cost-model columns: the prediction is independent of measurement
  // status, so even error/skipped rows keep their bound. pred_err is the
  // relative gap of the measured best over the static lower bound,
  // (min - pred) / pred — available only when both sides exist.
  metricCell(r.predCpiLo, "%.4f");
  cells.push_back(r.predBound);
  double predErr = std::numeric_limits<double>::quiet_NaN();
  if (r.status == "ok" && std::isfinite(r.predCpiLo) && r.predCpiLo > 0.0) {
    predErr =
        (r.measurement.cyclesPerIteration.min - r.predCpiLo) / r.predCpiLo;
  }
  metricCell(predErr, "%.4f");
  return cells;
}

csv::Table CampaignRunner::toCsv(const std::vector<VariantResult>& results) {
  std::vector<const VariantResult*> ordered;
  ordered.reserve(results.size());
  for (const VariantResult& r : results) ordered.push_back(&r);
  std::sort(ordered.begin(), ordered.end(),
            [](const VariantResult* a, const VariantResult* b) {
              return a->sequence < b->sequence;
            });
  csv::Table table(csvHeader());
  for (const VariantResult* r : ordered) table.addRow(csvRow(*r));
  return table;
}

// ---------------------------------------------------------------------------
// Variant sources
// ---------------------------------------------------------------------------

std::vector<CampaignVariant> loadCampaignDirectory(
    const std::string& dir, const std::string& functionName) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw McError("campaign directory not found: " + dir);
  }
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::string ext = entry.path().extension().string();
    if (ext == ".s" || ext == ".c") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // deterministic sequence
  std::vector<CampaignVariant> variants;
  variants.reserve(files.size());
  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw McError("cannot read campaign kernel: " + path.string());
    std::ostringstream oss;
    oss << in.rdbuf();
    CampaignVariant v;
    v.name = path.stem().string();
    v.kind = path.extension() == ".c" ? "c" : "asm";
    v.source = oss.str();
    v.functionName = functionName;
    variants.push_back(std::move(v));
  }
  if (variants.empty()) {
    throw McError("campaign directory holds no .s or .c kernels: " + dir);
  }
  return variants;
}

std::vector<CampaignVariant> variantsFromPrograms(
    const std::vector<creator::GeneratedProgram>& programs) {
  std::vector<CampaignVariant> variants;
  variants.reserve(programs.size());
  for (const creator::GeneratedProgram& p : programs) {
    CampaignVariant v;
    v.name = p.name;
    v.kind = "asm";
    v.source = p.asmText;
    v.functionName = p.functionName;
    v.contentId = p.contentId;
    variants.push_back(std::move(v));
  }
  return variants;
}

namespace {

/// Shared body of the two readCompletedVariants overloads. A negative
/// `roundFilter` accepts every row; otherwise only rows whose `round`
/// column matches are returned (a file without a round column counts every
/// row as round 0).
std::set<std::pair<std::size_t, std::string>> readCompletedImpl(
    const std::string& csvPath, int roundFilter) {
  std::set<std::pair<std::size_t, std::string>> completed;
  std::ifstream in(csvPath, std::ios::binary);
  if (!in) return completed;

  // Skip the "# env.*" preamble (and any other comment lines) before the
  // header.
  std::string line;
  std::vector<std::string> header;
  while (std::getline(in, line)) {
    if (strings::startsWith(strings::trim(line), "#")) continue;
    header = csv::parseLine(line);
    break;
  }
  if (header.empty()) return completed;
  auto column = [&header](const std::string& name) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };
  std::ptrdiff_t seqCol = column("sequence");
  std::ptrdiff_t nameCol = column("variant");
  std::ptrdiff_t statusCol = column("status");
  std::ptrdiff_t roundCol = column("round");
  if (seqCol < 0 || nameCol < 0 || statusCol < 0) return completed;

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (strings::startsWith(strings::trim(line), "#")) continue;
    std::vector<std::string> cells = csv::parseLine(line);
    // The runner always writes full-width rows (missing metrics are empty
    // cells, not absent ones), so any shorter row is the torn remnant of a
    // crash mid-write — its data is gone; re-measure it.
    if (cells.size() < header.size()) continue;
    // Every status the runner writes is terminal: a failed variant already
    // consumed its retry and a verify-strict skip is a verdict. Only rows
    // with an unknown status (foreign file, torn row) are re-run.
    const std::string& status = cells[static_cast<std::size_t>(statusCol)];
    if (status != "ok" && status != "error" && status != "timeout" &&
        status != "skipped") {
      continue;
    }
    if (roundFilter >= 0) {
      int rowRound = 0;
      if (roundCol >= 0) {
        auto parsed =
            strings::parseInt(cells[static_cast<std::size_t>(roundCol)]);
        if (!parsed) continue;  // unparsable round: torn or foreign row
        rowRound = static_cast<int>(*parsed);
      }
      if (rowRound != roundFilter) continue;
    }
    auto seq = strings::parseInt(cells[static_cast<std::size_t>(seqCol)]);
    if (!seq || *seq < 0) continue;
    completed.emplace(static_cast<std::size_t>(*seq),
                      cells[static_cast<std::size_t>(nameCol)]);
  }
  return completed;
}

}  // namespace

std::set<std::pair<std::size_t, std::string>> readCompletedVariants(
    const std::string& csvPath) {
  return readCompletedImpl(csvPath, -1);
}

std::set<std::pair<std::size_t, std::string>> readCompletedVariants(
    const std::string& csvPath, int round) {
  if (round < 0) throw McError("readCompletedVariants: round must be >= 0");
  return readCompletedImpl(csvPath, round);
}

}  // namespace microtools::launcher
