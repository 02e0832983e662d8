// One iteration of the explore benchmark: `microtools explore` driven
// through launcher::runExplore on one workload, from XML to ranked report.
//
// Untraced (--trace 0): a cold run on a fresh cache, then warm reruns
// against the filled cache for --warm-seconds. --warm-cache makes only the
// warm reruns, against the cache a cold run filled. --probe instead times
// only the set-up of one cold run (runExplore up to its first backend load).
// Prints one JSON object with the raw end-to-end numbers and the no-op
// guards; the files it names (campaign CSV, ranked reports, variant names)
// are checked by perfbench/check.py.
//
// Traced (--trace 1): calls each layer's public entry point from outside —
// creator::MicroCreator::generateFromText, verify::verifyProgram,
// verify::predictProgram, a cold and a warm runExplore whose backend is
// wrapped through ExploreOptions::backendFactory, and launcher::topKReport
// — and records a span around every call. Spans stay in memory and are
// written to --spans at the end; the printed JSON carries the per-layer
// metrics and each layer's self time.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "asmparse/asmparse.hpp"
#include "creator/creator.hpp"
#include "launcher/arch_registry.hpp"
#include "launcher/explore.hpp"
#include "launcher/sim_backend.hpp"
#include "native/compile.hpp"
#include "native/native_backend.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "verify/costmodel.hpp"
#include "verify/verify.hpp"

namespace fs = std::filesystem;
using namespace microtools;

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum Layer { kBench, kCreator, kVerify, kLauncher, kSim, kNative, kLayers };
const char* const kLayerNames[kLayers] = {"bench",    "creator", "verify",
                                          "launcher", "sim",     "native"};

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  Layer layer = kBench;
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// In-memory span store; written out once, after the traced pass.
class Tracer {
 public:
  std::int64_t newId() { return next_.fetch_add(1); }

  void record(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  std::vector<Span> spans() {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  std::atomic<std::int64_t> next_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times one call as a span of `layer` under `parent` (with a fresh id
/// unless the caller reserved one for the span's children to name). A null
/// tracer just makes the call.
template <typename Fn>
auto timed(Tracer* tracer, Layer layer, const std::string& name,
           std::int64_t parent, Fn&& fn, std::int64_t id = -1) {
  if (!tracer) return fn();
  Span span;
  span.id = id >= 0 ? id : tracer->newId();
  span.parent = parent;
  span.layer = layer;
  span.name = name;
  span.start = nowNs();
  struct Record {
    Tracer& tracer;
    Span& span;
    ~Record() {
      span.end = nowNs();
      tracer.record(span);
    }
  } record{*tracer, span};
  return fn();
}

/// Wall-clock attribution: at every instant, the innermost active spans
/// (those with no active child) share the elapsed time equally. The shares
/// therefore add up to the time covered by any span — the root's duration
/// when one root encloses the pass. Parallel backend calls split the wall
/// clock between them instead of counting it once per worker.
std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  struct Event {
    std::int64_t time;
    int kind;  // 0 = end, 1 = start
    std::size_t span;
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    events.push_back({spans[i].start, 1, i});
    events.push_back({spans[i].end, 0, i});
  }
  std::vector<int> depth(spans.size(), -1);
  auto depthOf = [&](std::size_t i) {
    int d = 0;
    for (std::int64_t p = spans[i].parent; p >= 0;) {
      auto it = index.find(p);
      if (it == index.end()) break;
      ++d;
      p = spans[it->second].parent;
    }
    return d;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) depth[i] = depthOf(i);
  // At equal times: ends before starts, outer spans start first and inner
  // spans end first.
  std::sort(events.begin(), events.end(), [&](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.kind == 1 ? depth[a.span] < depth[b.span]
                       : depth[a.span] > depth[b.span];
  });

  std::vector<int> activeChildren(spans.size(), 0);
  std::vector<char> active(spans.size(), 0);
  int frontier[kLayers] = {};
  int frontierTotal = 0;
  std::vector<double> self(kLayers, 0.0);
  auto parentOf = [&](std::size_t i) -> long {
    auto it = index.find(spans[i].parent);
    return it == index.end() ? -1 : static_cast<long>(it->second);
  };
  std::int64_t last = events.empty() ? 0 : events.front().time;
  for (const Event& e : events) {
    if (e.time > last && frontierTotal > 0) {
      double dt = seconds(e.time - last);
      for (int l = 0; l < kLayers; ++l) {
        self[static_cast<std::size_t>(l)] += dt * frontier[l] / frontierTotal;
      }
    }
    last = e.time;
    std::size_t i = e.span;
    long p = parentOf(i);
    if (e.kind == 1) {
      active[i] = 1;
      ++frontier[spans[i].layer];
      ++frontierTotal;
      if (p >= 0 && active[static_cast<std::size_t>(p)] &&
          activeChildren[static_cast<std::size_t>(p)]++ == 0) {
        --frontier[spans[static_cast<std::size_t>(p)].layer];
        --frontierTotal;
      }
    } else {
      if (activeChildren[i] == 0) {
        --frontier[spans[i].layer];
        --frontierTotal;
      }
      active[i] = 0;
      if (p >= 0 && active[static_cast<std::size_t>(p)] &&
          --activeChildren[static_cast<std::size_t>(p)] == 0) {
        ++frontier[spans[static_cast<std::size_t>(p)].layer];
        ++frontierTotal;
      }
    }
  }
  return self;
}

void writeSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw McError("cannot write span file: " + path);
  std::int64_t origin = spans.empty() ? 0 : spans.front().start;
  for (const Span& s : spans) origin = std::min(origin, s.start);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"id\":%lld,\"parent\":%lld,\"layer\":\"%s\","
                  "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), kLayerNames[s.layer],
                  s.name.c_str(), static_cast<double>(s.start - origin) / 1e3,
                  static_cast<double>(s.end - origin) / 1e3,
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]\n";
}

// ---------------------------------------------------------------------------
// The wrapping backend
// ---------------------------------------------------------------------------

/// Simulated statistics summed over every invoke of a traced run.
struct SimCounters {
  std::uint64_t replayed = 0;
  double simulatedCycles = 0.0;
  std::uint64_t levels[5] = {0, 0, 0, 0, 0};
  std::uint64_t prefetches = 0;
};

/// State one runExplore call shares with the backends it constructs.
struct RunContext {
  std::int64_t start = 0;                   ///< runExplore call
  std::atomic<std::int64_t> firstWork{-1};  ///< first load/prepareBatch

  /// Set-up probe: the first load or prepareBatch ends the probe's useful
  /// part, so every later load fails at once (an error row, no retry) and
  /// prepareBatch compiles nothing.
  bool probe = false;

  Tracer* tracer = nullptr;  ///< non-null: record spans and counters
  std::int64_t parent = -1;  ///< span of the enclosing runExplore call

  std::mutex mutex;
  SimCounters sim;

  void markWork() {
    std::int64_t expected = -1;
    firstWork.compare_exchange_strong(expected, nowNs());
  }
};

// A worker measures one variant at a time: its span opens at the reset()
// that starts the variant and closes when the row is observed.
thread_local std::int64_t tlVariantId = -1;
thread_local std::int64_t tlVariantStart = 0;

/// Forwards every call the campaign makes to the real backend (loadBatch
/// keeps the per-unit default: the campaign never calls it). Always records
/// the first load/prepareBatch for setup_s; when the run is traced it also
/// records a span per call, and for the simulator the memory-system
/// statistics.
class MeteredBackend final : public launcher::Backend {
  // Defined before its callers: they need its deduced return type.
  template <typename Fn>
  auto call(const char* what, Fn&& fn) {
    std::int64_t parent = tlVariantId >= 0 ? tlVariantId : run_.parent;
    return timed(run_.tracer, layer_,
                 std::string(kLayerNames[layer_]) + "." + what, parent,
                 std::forward<Fn>(fn));
  }

 public:
  MeteredBackend(std::unique_ptr<launcher::Backend> inner,
                 launcher::SimBackend* sim, RunContext& run, Layer layer)
      : inner_(std::move(inner)), sim_(sim), run_(run), layer_(layer) {}

  ~MeteredBackend() override {
    if (!run_.tracer || !sim_) return;
    std::lock_guard<std::mutex> lock(run_.mutex);
    run_.sim.replayed += simCounters_.replayed;
    run_.sim.simulatedCycles += simCounters_.simulatedCycles;
    for (int l = 0; l < 5; ++l) run_.sim.levels[l] += simCounters_.levels[l];
    run_.sim.prefetches += simCounters_.prefetches;
  }

  std::string name() const override { return inner_->name(); }

  std::unique_ptr<launcher::KernelHandle> load(
      const std::string& asmText, const std::string& functionName) override {
    return loadSource("asm", asmText, functionName);
  }
  using Backend::load;

  std::unique_ptr<launcher::KernelHandle> loadSource(
      const std::string& kind, const std::string& text,
      const std::string& functionName) override {
    run_.markWork();
    if (run_.probe) throw McError("set-up probe: nothing is loaded");
    return call("load", [&] {
      return inner_->loadSource(kind, text, functionName);
    });
  }

  std::vector<launcher::SourceUnit> prepareBatch(
      std::vector<launcher::SourceUnit> units) override {
    run_.markWork();
    if (run_.probe) return units;
    return call("compile", [&] {
      return inner_->prepareBatch(std::move(units));
    });
  }

  launcher::InvokeResult invoke(launcher::KernelHandle& kernel,
                                const launcher::KernelRequest& request)
      override {
    if (!run_.tracer || !sim_) {
      return call("invoke", [&] { return inner_->invoke(kernel, request); });
    }
    sim::MemorySystem& before = sim_->memory();
    std::uint64_t levels[5] = {0};
    for (int l = 1; l <= 4; ++l) {
      levels[l] = before.levelCount(static_cast<sim::MemLevel>(l));
    }
    std::uint64_t prefetches = before.prefetchCount();
    std::uint64_t replayed = sim_->replayedInvokes();
    launcher::InvokeResult r =
        call("invoke", [&] { return inner_->invoke(kernel, request); });
    sim::MemorySystem& after = sim_->memory();
    for (int l = 1; l <= 4; ++l) {
      simCounters_.levels[l] +=
          after.levelCount(static_cast<sim::MemLevel>(l)) - levels[l];
    }
    simCounters_.prefetches += after.prefetchCount() - prefetches;
    simCounters_.replayed += sim_->replayedInvokes() - replayed;
    simCounters_.simulatedCycles += r.tscCycles;
    return r;
  }

  double timerOverheadCycles() const override {
    return inner_->timerOverheadCycles();
  }

  std::vector<launcher::InvokeResult> invokeFork(
      launcher::KernelHandle& kernel, const launcher::KernelRequest& request,
      int processes, int calls, launcher::PinPolicy policy) override {
    return inner_->invokeFork(kernel, request, processes, calls, policy);
  }

  launcher::InvokeResult invokeOpenMp(launcher::KernelHandle& kernel,
                                      const launcher::KernelRequest& request,
                                      int threads, int repetitions) override {
    return inner_->invokeOpenMp(kernel, request, threads, repetitions);
  }

  void reset() override {
    if (run_.probe && run_.firstWork.load() >= 0) return;
    if (run_.tracer && tlVariantId < 0) {
      tlVariantId = run_.tracer->newId();
      tlVariantStart = nowNs();
    }
    call("reset", [&] { inner_->reset(); });
  }

 private:
  std::unique_ptr<launcher::Backend> inner_;
  launcher::SimBackend* sim_;  ///< inner_ when it is the simulator
  RunContext& run_;
  Layer layer_;
  SimCounters simCounters_;
};

// ---------------------------------------------------------------------------
// One explore run
// ---------------------------------------------------------------------------

/// The simulated machine of every workload, and the machine the static
/// cost model prices against.
const char* const kArch = "nehalem_x5650_2s";

struct Workload {
  std::string xml;
  std::string backend;
  std::uint64_t arrayBytes = 0;
  int jobs = 1;
  int compileJobs = 0;
  double maxCv = 0.05;
  bool simExact = false;
  std::uint64_t seed = 0;
};

struct RunOutcome {
  launcher::ExploreResult result;
  double wall = 0.0;
  double cpu = 0.0;
  double setup = std::nan("");
  double peakRssMb = 0.0;
  std::uint64_t spawns = 0;
};

double cpuSeconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    total += static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
             static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) *
                 1e-6;
  }
  return total;
}

double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/// The options `microtools explore` would build from its defaults plus the
/// workload's flags, with the backend wrapped for `run`.
launcher::ExploreOptions exploreOptions(const Workload& w,
                                        const std::string& cacheDir,
                                        RunContext& run) {
  launcher::ExploreOptions o;
  o.descriptionText = w.xml;
  o.seed = w.seed;
  o.backend = w.backend;
  o.arch = kArch;
  o.arrayBytes = w.arrayBytes;
  o.cacheDir = cacheDir;
  o.campaign.jobs = w.jobs;
  o.campaign.compileJobs = w.compileJobs;
  o.campaign.maxCv = w.maxCv;
  o.campaign.verify = launcher::VerifyMode::Strict;
  o.campaign.pinWorkers = w.backend == "native";
  o.simExact = w.simExact;
  if (w.backend == "native") {
    std::string soDir = cacheDir + "/so";
    o.backendFactory = [soDir, &run](int) {
      native::NativeBackendOptions nb;
      nb.compileCacheDir = soDir;
      return std::make_unique<MeteredBackend>(
          std::make_unique<native::NativeBackend>(nb), nullptr, run, kNative);
    };
    o.backendId = "native";
  } else {
    sim::MachineConfig config = launcher::archByName(kArch).config;
    launcher::SimBackendOptions simOptions;
    if (w.simExact) {
      simOptions.steadyState = false;
      simOptions.memoize = false;
    }
    o.backendFactory = [config, simOptions, &run](int) {
      auto inner = std::make_unique<launcher::SimBackend>(config, simOptions);
      launcher::SimBackend* sim = inner.get();
      return std::make_unique<MeteredBackend>(std::move(inner), sim, run,
                                              kSim);
    };
    o.backendId = std::string("sim:") + kArch + (w.simExact ? ":exact" : "");
  }
  // A variant's span closes when its row is observed on its worker.
  o.campaign.rowObserver = [&run](const launcher::CampaignVariant&,
                                  const launcher::VariantResult&) {
    if (!run.tracer || tlVariantId < 0) return;
    Span span;
    span.id = tlVariantId;
    span.parent = run.parent;
    span.layer = kLauncher;
    span.name = "campaign.variant";
    span.start = tlVariantStart;
    span.end = nowNs();
    run.tracer->record(std::move(span));
    tlVariantId = -1;
  };
  return o;
}

/// Renders the ranked report of every ok variant. The `cached` column is
/// cleared first: it says where a row came from, which is exactly what
/// differs between a cold run and its warm rerun.
csv::Table rankedReport(std::vector<launcher::VariantResult> results) {
  for (launcher::VariantResult& r : results) r.cached = false;
  return launcher::topKReport(results, 0);
}

void writeReport(const csv::Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw McError("cannot write report file: " + path);
  table.write(out);
}

/// One runExplore call from XML to ranked report, streaming its CSV to
/// `csvPath` and its report to `reportPath` (both skipped when empty).
RunOutcome exploreOnce(const Workload& w, const std::string& cacheDir,
                       const std::string& csvPath,
                       const std::string& reportPath, RunContext& run) {
  launcher::ExploreOptions options = exploreOptions(w, cacheDir, run);
  RunOutcome out;
  std::uint64_t spawns = native::spawnCount();
  double cpu = cpuSeconds();
  run.start = nowNs();
  {
    std::unique_ptr<launcher::CampaignCsvSink> sink;
    if (!csvPath.empty()) {
      sink = std::make_unique<launcher::CampaignCsvSink>(csvPath);
    }
    out.result = launcher::runExplore(options, sink.get());
  }
  if (!reportPath.empty()) {
    timed(run.tracer, kLauncher, "report.write", run.parent, [&] {
      writeReport(rankedReport(out.result.results), reportPath);
    });
  }
  std::int64_t end = nowNs();
  out.wall = seconds(end - run.start);
  out.cpu = cpuSeconds() - cpu;
  out.peakRssMb = peakRssMb();
  out.spawns = native::spawnCount() - spawns;
  std::int64_t first = run.firstWork.load();
  if (first >= 0) out.setup = seconds(first - run.start);
  return out;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string numList(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", values[i]);
    out += (i ? ", " : "") + std::string(buf);
  }
  return out + "]";
}

JsonObject guards(const launcher::ExploreResult& r) {
  JsonObject o;
  o.num("generated", static_cast<double>(r.generated))
      .num("measured", static_cast<double>(r.measured))
      .num("hits", static_cast<double>(r.cacheHits))
      .num("skipped", static_cast<double>(r.skipped))
      .num("failures", static_cast<double>(r.failures))
      .num("store_hits", static_cast<double>(r.cacheTelemetry.hits))
      .num("store_misses", static_cast<double>(r.cacheTelemetry.misses))
      .num("record_file_reads",
           static_cast<double>(r.cacheTelemetry.recordFileReads));
  return o;
}

/// Highest of p50/p90/p99/p99.9/p99.99 with at least ten samples beyond it.
double tailPercentile(std::size_t n) {
  double best = 50.0;
  for (double p : {90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Adds "<prefix>_p50_<unit>", "<prefix>_tail_<unit>", "<prefix>_tail_pct"
/// and "<prefix>_samples" for `values` (seconds) scaled by `scale`.
void addDistribution(JsonObject& m, const std::string& prefix,
                     const std::string& unit, double scale,
                     const std::vector<double>& values) {
  double tail = tailPercentile(values.size());
  m.num(prefix + "_p50_" + unit, percentile(values, 50.0) * scale)
      .num(prefix + "_tail_" + unit, percentile(values, tail) * scale)
      .num(prefix + "_tail_pct", values.empty() ? 0.0 : tail)
      .num(prefix + "_samples", static_cast<double>(values.size()));
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw McError("cannot open " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

void writeNames(const launcher::ExploreResult& r, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  for (const launcher::VariantResult& v : r.results) out << v.name << '\n';
}

// ---------------------------------------------------------------------------
// The two passes
// ---------------------------------------------------------------------------

/// Warm reruns last at least this many runs and at most this many.
constexpr int kMinWarmRuns = 3;
constexpr int kMaxWarmRuns = 200;

/// Warm reruns of `w` against the filled result store `cache`, for at least
/// `warmSeconds` and kMinWarmRuns; the first writes warm_report.csv. Adds
/// the "warm_wall_s" and "warm" members of the pass's JSON to `out`.
void warmReruns(const Workload& w, const fs::path& cache, const fs::path& dir,
                double warmSeconds, JsonObject& out) {
  // Warm reruns are short, and the host's speed drifts over seconds:
  // spread them over `warmSeconds` instead of taking a fixed count.
  std::vector<double> warmWalls;
  std::string warmGuards = "[";
  std::int64_t warmEnd =
      nowNs() + static_cast<std::int64_t>(warmSeconds * 1e9);
  for (int i = 0; i < kMaxWarmRuns &&
                  (i < kMinWarmRuns || nowNs() < warmEnd);
       ++i) {
    RunContext warmRun;
    std::string report =
        i == 0 ? (dir / "warm_report.csv").string() : std::string();
    fs::path csv = dir / ("warm" + std::to_string(i) + ".csv");
    RunOutcome warm =
        exploreOnce(w, cache.string(), csv.string(), report, warmRun);
    warmWalls.push_back(warm.wall);
    JsonObject g = guards(warm.result);
    g.num("backend_used", warmRun.firstWork.load() >= 0 ? 1.0 : 0.0);
    warmGuards += (i ? ", " : "") + g.text();
  }
  warmGuards += "]";
  out.raw("warm_wall_s", numList(warmWalls)).raw("warm", warmGuards);
}

std::string untracedPass(const Workload& w, const fs::path& dir,
                         double warmSeconds) {
  fs::path cache = dir / "cache";
  RunContext coldRun;
  RunOutcome cold =
      exploreOnce(w, cache.string(), (dir / "cold.csv").string(),
                  (dir / "cold_report.csv").string(), coldRun);
  writeNames(cold.result, (dir / "names.txt").string());

  JsonObject coldJson = guards(cold.result);
  coldJson.num("wall_s", cold.wall)
      .num("cpu_s", cold.cpu)
      .num("setup_s", cold.setup)
      .num("peak_rss_mb", cold.peakRssMb)
      .num("compile_spawns", static_cast<double>(cold.spawns));

  JsonObject out;
  out.raw("cold", coldJson.text());
  warmReruns(w, cache, dir, warmSeconds, out);
  return out.text();
}

/// A set-up probe: a cold runExplore that stops being useful at its first
/// backend load. Run in a fresh process, like the cold run, so one-time
/// initialisation counts the same way in both.
std::string probePass(const Workload& w, const fs::path& dir) {
  RunContext probe;
  probe.probe = true;
  RunOutcome p = exploreOnce(w, (dir / "cache").string(), "", "", probe);
  JsonObject out;
  out.num("setup_s", p.setup);
  return out.text();
}

std::string tracedPass(const Workload& w, const fs::path& dir,
                       const std::string& spansPath) {
  Tracer tracer;
  std::int64_t root = tracer.newId();
  std::int64_t rootStart = nowNs();

  // creator: the same XML runExplore parses.
  std::vector<creator::GeneratedProgram> programs =
      timed(&tracer, kCreator, "creator.generate", root, [&] {
        return creator::MicroCreator().generateFromText(w.xml);
      });
  double asmBytes = 0.0;
  int arrays = 1;
  for (const creator::GeneratedProgram& p : programs) {
    asmBytes += static_cast<double>(p.asmText.size());
    arrays = std::max(arrays, p.arrayCount);
  }

  // verify: the campaign's pre-flight geometry, then the cost model.
  verify::VerifyOptions lint;
  lint.arrayCount = arrays;
  verify::LaunchContext context;
  context.tripCount = static_cast<std::int64_t>(w.arrayBytes / 4);
  context.slackBytes = static_cast<std::size_t>(launcher::kArraySlackBytes);
  for (int i = 0; i < arrays; ++i) {
    context.arrays.push_back(
        verify::ArrayExtent{static_cast<std::size_t>(w.arrayBytes), 4096, 0});
  }
  lint.context = context;
  std::vector<asmparse::Program> parsed;
  double diagnostics = timed(&tracer, kVerify, "verify.lint", root, [&] {
    std::size_t n = 0;
    for (const creator::GeneratedProgram& p : programs) {
      parsed.push_back(asmparse::parseAssembly(p.asmText));
      n += verify::verifyProgram(parsed.back(), lint).diagnostics.size();
    }
    return static_cast<double>(n);
  });
  verify::CoreModel model =
      verify::coreModelFromMachine(launcher::archByName(kArch).config);
  timed(&tracer, kVerify, "verify.predict", root, [&] {
    int valid = 0;
    for (const asmparse::Program& p : parsed) {
      valid += verify::predictProgram(p, model).valid ? 1 : 0;
    }
    return valid;
  });

  // launcher + backend: one cold and one warm runExplore.
  fs::path cache = dir / "cache";
  auto explore = [&](RunContext& run, const char* name, const char* csv,
                     const char* report) {
    run.tracer = &tracer;
    run.parent = tracer.newId();
    return timed(
        &tracer, kLauncher, name, root,
        [&] {
          return exploreOnce(w, cache.string(), (dir / csv).string(),
                             *report ? (dir / report).string() : "", run);
        },
        run.parent);
  };
  RunContext coldRun;
  RunOutcome cold = explore(coldRun, "launcher.explore_cold",
                            "traced_cold.csv", "traced_report.csv");
  RunContext warmRun;
  RunOutcome warm =
      explore(warmRun, "launcher.explore_warm", "traced_warm.csv", "");
  std::int64_t rootEnd = nowNs();

  std::vector<Span> spans = tracer.spans();
  spans.push_back(Span{root, -1, kBench, "bench.traced", rootStart, rootEnd});
  writeSpans(spansPath, spans);

  std::vector<double> self = selfTimes(spans);
  double tracedWall = seconds(rootEnd - rootStart);

  std::map<std::string, double> busy;
  std::map<std::string, std::vector<double>> durations;
  for (const Span& s : spans) {
    double d = seconds(s.end - s.start);
    busy[s.name] += d;
    durations[s.name].push_back(d);
  }
  double workerBusy = 0.0;
  for (const char* name : {"sim.load", "sim.invoke", "sim.reset",
                           "native.load", "native.invoke", "native.reset"}) {
    workerBusy += busy[name];
  }

  const SimCounters& sc = coldRun.sim;
  double simInvokes = static_cast<double>(durations["sim.invoke"].size());
  launcher::CacheTelemetry ct = cold.result.cacheTelemetry;
  launcher::CacheTelemetry wt = warm.result.cacheTelemetry;

  JsonObject m;
  m.num("creator.generate_s", busy["creator.generate"])
      .num("creator.variants", static_cast<double>(programs.size()))
      .num("creator.asm_bytes", asmBytes)
      .num("verify.lint_s", busy["verify.lint"])
      .num("verify.predict_s", busy["verify.predict"])
      .num("verify.diagnostics", diagnostics)
      .num("sim.load_s", busy["sim.load"])
      .num("sim.invoke_s", busy["sim.invoke"]);
  addDistribution(m, "sim.invoke", "us", 1e6, durations["sim.invoke"]);
  m.num("sim.invokes", simInvokes)
      .num("sim.replayed_invokes", static_cast<double>(sc.replayed))
      .num("sim.memo_hit_ratio",
           simInvokes > 0 ? static_cast<double>(sc.replayed) / simInvokes
                          : 0.0)
      .num("sim.host_ns_per_sim_cycle",
           sc.simulatedCycles > 0
               ? busy["sim.invoke"] * 1e9 / sc.simulatedCycles
               : 0.0)
      .num("sim.simulated_cycles", sc.simulatedCycles)
      .num("sim.l1_accesses", static_cast<double>(sc.levels[1]))
      .num("sim.l2_accesses", static_cast<double>(sc.levels[2]))
      .num("sim.l3_accesses", static_cast<double>(sc.levels[3]))
      .num("sim.mem_accesses", static_cast<double>(sc.levels[4]))
      .num("sim.prefetches", static_cast<double>(sc.prefetches))
      .num("native.compile_s", busy["native.compile"])
      .num("native.compile_spawns", static_cast<double>(cold.spawns))
      .num("native.load_s", busy["native.load"])
      .num("native.invoke_s", busy["native.invoke"]);
  addDistribution(m, "native.invoke", "us", 1e6, durations["native.invoke"]);
  m.num("native.invokes",
        static_cast<double>(durations["native.invoke"].size()));
  addDistribution(m, "campaign.variant", "ms", 1e3,
                  durations["campaign.variant"]);
  m.num("campaign.work_repetitions",
        static_cast<double>(cold.result.workRepetitions))
      .num("campaign.worker_busy_frac",
           workerBusy / (static_cast<double>(w.jobs) * cold.wall))
      .num("result_store.hits", static_cast<double>(ct.hits + wt.hits))
      .num("result_store.misses", static_cast<double>(ct.misses + wt.misses))
      .num("result_store.record_file_reads",
           static_cast<double>(ct.recordFileReads + wt.recordFileReads))
      .num("report.write_s", busy["report.write"]);
  double selfSum = 0.0;
  for (int l = 0; l < kLayers; ++l) {
    m.num(std::string("self.") + kLayerNames[l] + "_s",
          self[static_cast<std::size_t>(l)]);
    selfSum += self[static_cast<std::size_t>(l)];
  }
  m.num("trace.wall_s", tracedWall);

  JsonObject warmJson = guards(warm.result);
  warmJson.num("backend_used", warmRun.firstWork.load() >= 0 ? 1.0 : 0.0);
  JsonObject out;
  out.raw("metrics", m.text())
      .raw("cold", guards(cold.result).text())
      .raw("warm", "[" + warmJson.text() + "]")
      .num("explore_wall_s", cold.wall)
      .num("self_sum_s", selfSum)
      .num("span_count", static_cast<double>(spans.size()))
      .str("spans", spansPath);
  writeNames(cold.result, (dir / "names.txt").string());
  return out.text();
}

}  // namespace

int main(int argc, char** argv) {
  cli::Parser parser("perfbench_explore",
                     "One iteration of the explore benchmark (see "
                     "perfbench/run.py, which drives it).");
  parser.addString("xml", "Kernel description file");
  parser.addString("backend", "sim|native", "sim");
  parser.addInt("array-bytes", "Bytes per kernel array", 16384);
  parser.addInt("jobs", "Measurement worker threads", 4);
  parser.addInt("compile-jobs", "Compile-pipeline producer threads", 0);
  parser.addDouble("max-cv", "Adaptive-repetition CV target (0: off)", 0.05);
  parser.addInt("seed", "Passed through as ExploreOptions::seed", 0);
  parser.addString("work-dir", "Fresh directory for caches, CSVs, reports");
  parser.addInt("trace", "1: the traced pass instead of the untraced one", 0);
  parser.addString("spans", "Span file of the traced pass");
  parser.addDouble("warm-seconds",
                   "How long to keep rerunning warm after the cold run", 1.5);
  parser.addFlag("probe", "Only one set-up probe");
  parser.addString("warm-cache",
                   "Only warm reruns, against this filled result store",
                   "");
  parser.addFlag("sim-exact", "Cycle-simulate every invoke (expected files)");
  try {
    if (!parser.parse(argc, argv)) return 0;
    log::setLevel(log::Level::Error);
    Workload w;
    w.xml = readFile(parser.getString("xml"));
    w.backend = parser.getString("backend");
    w.arrayBytes = static_cast<std::uint64_t>(parser.getInt("array-bytes"));
    w.jobs = static_cast<int>(parser.getInt("jobs"));
    w.compileJobs = static_cast<int>(parser.getInt("compile-jobs"));
    w.maxCv = parser.getDouble("max-cv");
    w.seed = static_cast<std::uint64_t>(parser.getInt("seed"));
    w.simExact = parser.getFlag("sim-exact");
    fs::path dir = parser.getString("work-dir");
    if (fs::exists(dir) && !fs::is_empty(dir)) {
      throw McError("work dir must be fresh: " + dir.string());
    }
    fs::create_directories(dir);
    std::string json;
    if (parser.getFlag("probe")) {
      json = probePass(w, dir);
    } else if (!parser.getString("warm-cache").empty()) {
      JsonObject out;
      warmReruns(w, parser.getString("warm-cache"), dir,
                 parser.getDouble("warm-seconds"), out);
      json = out.text();
    } else if (parser.getInt("trace") != 0) {
      json = tracedPass(w, dir, parser.getString("spans"));
    } else {
      json = untracedPass(w, dir, parser.getDouble("warm-seconds"));
    }
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_explore: %s\n", e.what());
    return 1;
  }
}
