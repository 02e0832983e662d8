// Tests of the end-to-end exploration driver: the content-addressed
// measurement cache (hit/miss/corruption/version handling), the in-memory
// creator -> campaign handoff, and the ranked top-K report.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "launcher/explore.hpp"
#include "launcher/sim_backend.hpp"
#include "sim/arch.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "test_helpers.hpp"

namespace microtools::launcher {
namespace {

namespace fs = std::filesystem;

using testing::figure6Xml;
using testing::uniqueTempDir;

/// Per-factory invocation counters shared by every backend it builds.
struct BackendCounters {
  std::atomic<int> constructed{0};
  std::atomic<int> loads{0};
  std::atomic<int> invokes{0};
};

/// SimBackend wrapper that counts every load and invocation — the proof
/// that a fully cached rerun performs zero backend work.
class CountingBackend final : public Backend {
 public:
  explicit CountingBackend(std::shared_ptr<BackendCounters> counters)
      : counters_(std::move(counters)),
        inner_(sim::nehalemX5650DualSocket()) {
    counters_->constructed++;
  }

  std::string name() const override { return "counting-sim"; }
  std::unique_ptr<KernelHandle> load(const std::string& asmText,
                                     const std::string& fn) override {
    counters_->loads++;
    return inner_.load(asmText, fn);
  }
  InvokeResult invoke(KernelHandle& kernel,
                      const KernelRequest& request) override {
    counters_->invokes++;
    return inner_.invoke(kernel, request);
  }
  double timerOverheadCycles() const override {
    return inner_.timerOverheadCycles();
  }
  std::vector<InvokeResult> invokeFork(KernelHandle& kernel,
                                       const KernelRequest& request,
                                       int processes, int calls,
                                       PinPolicy policy) override {
    return inner_.invokeFork(kernel, request, processes, calls, policy);
  }
  InvokeResult invokeOpenMp(KernelHandle& kernel,
                            const KernelRequest& request, int threads,
                            int repetitions) override {
    return inner_.invokeOpenMp(kernel, request, threads, repetitions);
  }
  void reset() override { inner_.reset(); }

 private:
  std::shared_ptr<BackendCounters> counters_;
  SimBackend inner_;
};

ExploreOptions baseOptions(const std::string& cacheDir,
                           std::shared_ptr<BackendCounters> counters) {
  ExploreOptions options;
  options.descriptionText = figure6Xml(1, 2, false);
  options.arrayBytes = 16 * 1024;
  options.campaign.jobs = 2;
  options.campaign.protocol.innerRepetitions = 1;
  options.campaign.protocol.outerRepetitions = 3;
  options.campaign.maxCv = 0.05;
  options.campaign.maxRepetitions = 10;
  options.cacheDir = cacheDir;
  options.backendFactory = [counters](int) {
    return std::make_unique<CountingBackend>(counters);
  };
  options.backendId = "counting-sim";
  return options;
}

VariantResult okResult(const std::string& name, double min) {
  VariantResult r;
  r.name = name;
  r.status = "ok";
  r.measurement.iterationsPerCall = 257;
  r.measurement.totalCycles = 1000.0;
  r.measurement.cyclesPerIteration =
      stats::Summary{3, min, min + 0.5, min + 0.2, min + 0.1, 0.05, 0.02};
  r.repetitions = 3;
  r.finalCv = 0.02;
  r.converged = true;
  r.attempts = 1;
  return r;
}

// ---------------------------------------------------------------------------
// Cache key
// ---------------------------------------------------------------------------

TEST(CacheKey, StableForIdenticalInputs) {
  CampaignVariant v{"a", "asm", ".text\nret\n", "microkernel", ""};
  CampaignOptions options;
  KernelRequest request;
  request.n = 100;
  request.arrays.push_back(ArraySpec{1024, 64, 0});
  std::string k1 = cacheKey(v, options, "sim:nehalem", request);
  std::string k2 = cacheKey(v, options, "sim:nehalem", request);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1.size(), 16u);
}

TEST(CacheKey, SensitiveToEveryMeasurementInput) {
  CampaignVariant v{"a", "asm", ".text\nret\n", "microkernel", ""};
  CampaignOptions options;
  KernelRequest request;
  request.n = 100;
  request.arrays.push_back(ArraySpec{1024, 64, 0});
  std::string base = cacheKey(v, options, "sim:nehalem", request);

  CampaignVariant v2 = v;
  v2.source = ".text\nnop\nret\n";
  EXPECT_NE(cacheKey(v2, options, "sim:nehalem", request), base);

  CampaignVariant v3 = v;
  v3.functionName = "other";
  EXPECT_NE(cacheKey(v3, options, "sim:nehalem", request), base);

  CampaignOptions o2 = options;
  o2.protocol.outerRepetitions += 1;
  EXPECT_NE(cacheKey(v, o2, "sim:nehalem", request), base);

  CampaignOptions o3 = options;
  o3.maxCv = 0.5;
  EXPECT_NE(cacheKey(v, o3, "sim:nehalem", request), base);

  EXPECT_NE(cacheKey(v, options, "sim:sandy_bridge", request), base);

  KernelRequest r2 = request;
  r2.n = 200;
  EXPECT_NE(cacheKey(v, options, "sim:nehalem", r2), base);

  KernelRequest r3 = request;
  r3.arrays[0].offset = 16;
  EXPECT_NE(cacheKey(v, options, "sim:nehalem", r3), base);
}

TEST(CacheKey, IgnoresWorkerCoreAndVariantName) {
  CampaignVariant v{"a", "asm", ".text\nret\n", "microkernel", ""};
  CampaignOptions options;
  KernelRequest request;
  request.n = 100;
  std::string base = cacheKey(v, options, "sim:nehalem", request);

  // Per-worker pinning must not fragment the cache.
  KernelRequest pinned = request;
  pinned.core = 3;
  EXPECT_EQ(cacheKey(v, options, "sim:nehalem", pinned), base);

  // Identity is the content, not the label.
  CampaignVariant renamed = v;
  renamed.name = "renamed";
  EXPECT_EQ(cacheKey(renamed, options, "sim:nehalem", request), base);
}

// ---------------------------------------------------------------------------
// MeasurementCache
// ---------------------------------------------------------------------------

TEST(MeasurementCache, StoreThenLoadRoundTrips) {
  MeasurementCache cache(uniqueTempDir("mtcache_roundtrip"));
  VariantResult r = okResult("variant_a", 2.0);
  r.note = "multi\nline \\ note";
  cache.store("00000000000000aa", r);

  std::optional<VariantResult> loaded = cache.load("00000000000000aa");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, r.name);
  EXPECT_EQ(loaded->status, "ok");
  EXPECT_EQ(loaded->note, r.note);
  EXPECT_EQ(loaded->measurement.iterationsPerCall, 257u);
  EXPECT_DOUBLE_EQ(loaded->measurement.cyclesPerIteration.min, 2.0);
  EXPECT_DOUBLE_EQ(loaded->measurement.cyclesPerIteration.max, 2.5);
  EXPECT_DOUBLE_EQ(loaded->measurement.cyclesPerIteration.mean, 2.2);
  EXPECT_DOUBLE_EQ(loaded->measurement.cyclesPerIteration.median, 2.1);
  EXPECT_DOUBLE_EQ(loaded->finalCv, 0.02);
  EXPECT_EQ(loaded->repetitions, 3);
  EXPECT_TRUE(loaded->converged);
  fs::remove_all(cache.dir());
}

TEST(MeasurementCache, MissOnAbsentKey) {
  MeasurementCache cache(uniqueTempDir("mtcache_absent"));
  EXPECT_FALSE(cache.load("00000000000000bb").has_value());
  fs::remove_all(cache.dir());
}

TEST(MeasurementCache, MissOnCorruptFile) {
  std::string dir = uniqueTempDir("mtcache_corrupt");
  {
    MeasurementCache cache(dir);
    cache.store("00000000000000cc", okResult("v", 1.0));
    std::ofstream(cache.recordPath("00000000000000cc"), std::ios::trunc)
        << "random garbage\nnot a record";
    // Truncated numeric field is also a miss, not an exception.
    std::ofstream(cache.recordPath("00000000000000cd"), std::ios::trunc)
        << "microtools-cache 1\nkey 00000000000000cd\nname v\nstatus ok\n"
           "iterations_per_call twelve\n";
  }
  // Damage lands on disk after the first open; a fresh open indexes the
  // damaged files and every load is a counted miss, never an exception.
  MeasurementCache reopened(dir);
  EXPECT_FALSE(reopened.load("00000000000000cc").has_value());
  EXPECT_FALSE(reopened.load("00000000000000cd").has_value());
  EXPECT_EQ(reopened.telemetry().corrupt, 2u);
  EXPECT_EQ(reopened.telemetry().misses, 2u);
  fs::remove_all(dir);
}

TEST(MeasurementCache, MissOnVersionMismatch) {
  std::string dir = uniqueTempDir("mtcache_version");
  {
    MeasurementCache cache(dir);
    cache.store("00000000000000dd", okResult("v", 1.0));
    ASSERT_TRUE(cache.load("00000000000000dd").has_value());

    // Rewrite the record with a bumped format version.
    std::ifstream in(cache.recordPath("00000000000000dd"));
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = strings::replaceAll(buf.str(), "microtools-cache 1",
                                           "microtools-cache 999");
    std::ofstream(cache.recordPath("00000000000000dd"), std::ios::trunc)
        << text;
  }
  MeasurementCache reopened(dir);
  EXPECT_FALSE(reopened.load("00000000000000dd").has_value());
  fs::remove_all(dir);
}

TEST(MeasurementCache, MissOnKeyMismatch) {
  std::string dir = uniqueTempDir("mtcache_keymismatch");
  {
    MeasurementCache cache(dir);
    cache.store("00000000000000ee", okResult("v", 1.0));
    // A hand-copied record file must not satisfy a different key.
    fs::copy_file(cache.recordPath("00000000000000ee"),
                  cache.recordPath("00000000000000ef"));
  }
  MeasurementCache reopened(dir);
  EXPECT_FALSE(reopened.load("00000000000000ef").has_value());
  EXPECT_TRUE(reopened.load("00000000000000ee").has_value());
  fs::remove_all(dir);
}

TEST(MeasurementCache, StoreTempFileIsUniquePerProcess) {
  MeasurementCache cache(uniqueTempDir("mtcache_tmpsuffix"));
  std::string key = "00000000000000a1";
  // A second process writing the same key would have started its own
  // counter at 0; before the pid went into the suffix both writers used
  // "<record>.tmp0" and one could publish the other's half-written file.
  // Simulate that foreign in-flight temp file and store over it: ours must
  // get a different name, leave the foreign file untouched, and still
  // publish a valid record.
  std::string foreignTmp = cache.recordPath(key) + ".tmp0";
  fs::create_directories(fs::path(foreignTmp).parent_path());
  std::ofstream(foreignTmp, std::ios::binary) << "half-written by pid 12345";
  cache.store(key, okResult("variant_a", 2.0));

  std::ifstream foreign(foreignTmp, std::ios::binary);
  ASSERT_TRUE(foreign.good());
  std::stringstream buf;
  buf << foreign.rdbuf();
  EXPECT_EQ(buf.str(), "half-written by pid 12345");

  std::optional<VariantResult> loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, "variant_a");

  // Concurrent stores under one key from this process also never share a
  // temp file: every record stays loadable, and no stray temp survives a
  // rename (each writer renames its own file).
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&cache, &key] {
      for (int i = 0; i < 25; ++i) {
        cache.store(key, okResult("variant_a", 2.0));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->status, "ok");
  fs::remove_all(cache.dir());
}

TEST(MeasurementCache, DoesNotStoreFailedResults) {
  MeasurementCache cache(uniqueTempDir("mtcache_failed"));
  VariantResult r = okResult("v", 1.0);
  r.status = "error";
  r.error = "backend exploded";
  cache.store("00000000000000ff", r);
  EXPECT_FALSE(fs::exists(cache.recordPath("00000000000000ff")));
  EXPECT_FALSE(cache.load("00000000000000ff").has_value());
  fs::remove_all(cache.dir());
}

TEST(MeasurementCache, RecordsAreShardedByKeyPrefix) {
  std::string dir = uniqueTempDir("mtcache_shards");
  MeasurementCache cache(dir);
  std::string key = "ab12cd34ef567890";
  cache.store(key, okResult("v", 1.0));
  // Two levels of key-prefix directories keep fleet-scale caches from
  // accumulating millions of siblings in one directory.
  fs::path expected = fs::path(dir) / "ab" / "12" / (key + ".mtres");
  EXPECT_EQ(cache.recordPath(key), expected.string());
  EXPECT_TRUE(fs::exists(expected));
  // Short keys (tests, hand-written) fall into "_" buckets that hex
  // digests can never occupy.
  EXPECT_EQ(cache.recordPath("a"),
            (fs::path(dir) / "_" / "_" / "a.mtres").string());
  fs::remove_all(dir);
}

TEST(MeasurementCache, MigratesFlatLegacyRecordsAtOpen) {
  // Records written by the pre-shard cache lived flat in the root. A new
  // open moves them into their shard and serves them from the index.
  std::string dir = uniqueTempDir("mtcache_legacy");
  std::string key = "00000000000000a7";
  VariantResult r = okResult("legacy_variant", 3.0);
  std::ofstream(fs::path(dir) / (key + ".mtres"), std::ios::binary)
      << MeasurementCache::serialize(key, r);

  MeasurementCache cache(dir);
  std::optional<VariantResult> loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, "legacy_variant");
  EXPECT_FALSE(fs::exists(fs::path(dir) / (key + ".mtres")));
  EXPECT_TRUE(fs::exists(cache.recordPath(key)));
  fs::remove_all(dir);
}

TEST(MeasurementCache, WarmReopenServesLoadsWithZeroRecordFileOpens) {
  std::string dir = uniqueTempDir("mtcache_zeroopen");
  std::vector<std::string> keys;
  {
    MeasurementCache cache(dir);
    for (int i = 0; i < 8; ++i) {
      std::string key = strings::format("%016x", 0xb0 + i);
      keys.push_back(key);
      cache.store(key, okResult("v" + std::to_string(i), 1.0 + i));
    }
  }
  // The journal holds every record, so the reopen scan trusts it and the
  // warm run never opens a single per-record file.
  MeasurementCache cache(dir);
  EXPECT_EQ(cache.telemetry().recordFileReads, 0u);
  for (const std::string& key : keys) {
    ASSERT_TRUE(cache.load(key).has_value()) << key;
  }
  CacheTelemetry t = cache.telemetry();
  EXPECT_EQ(t.recordFileReads, 0u);
  EXPECT_EQ(t.hits, keys.size());
  EXPECT_EQ(t.misses, 0u);
  fs::remove_all(dir);
}

TEST(MeasurementCache, TwoProcessesAppendOneIntactJournal) {
  // Two writer processes hammer the same cache directory; the flock around
  // each index.pack append must keep every journal record whole. If appends
  // interleaved mid-record the reopen would fall back to per-record file
  // reads (or drop entries), so the assertions below pin both: every key
  // loads AND the warm reopen never touches a record file.
  std::string dir = uniqueTempDir("mtcache_flock");
  constexpr int kKeysPerChild = 200;
  std::vector<pid_t> children;
  for (int child = 0; child < 2; ++child) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: its own MeasurementCache handle over the shared directory.
      // A large note pushes each journal record across one write's worth
      // of internal buffering so torn appends would actually interleave.
      MeasurementCache cache(dir);
      std::string padding(4096, 'a' + static_cast<char>(child));
      for (int i = 0; i < kKeysPerChild; ++i) {
        VariantResult r =
            okResult("c" + std::to_string(child) + "_v" + std::to_string(i),
                     1.0 + i);
        r.note = padding;
        cache.store(strings::format("%08x%08x", child, i), r);
      }
      std::_Exit(0);  // no gtest teardown in the child
    }
    children.push_back(pid);
  }
  for (pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "writer child failed";
  }

  MeasurementCache reopened(dir);
  for (int child = 0; child < 2; ++child) {
    for (int i = 0; i < kKeysPerChild; ++i) {
      std::string key = strings::format("%08x%08x", child, i);
      std::optional<VariantResult> loaded = reopened.load(key);
      ASSERT_TRUE(loaded.has_value()) << key;
      EXPECT_EQ(loaded->name,
                "c" + std::to_string(child) + "_v" + std::to_string(i));
    }
  }
  CacheTelemetry t = reopened.telemetry();
  EXPECT_EQ(t.recordFileReads, 0u) << "a torn journal forced record reads";
  EXPECT_EQ(t.hits, static_cast<std::uint64_t>(2 * kKeysPerChild));
  EXPECT_EQ(t.misses, 0u);
  fs::remove_all(dir);
}

TEST(MeasurementCache, MissingPackEntryRereadsTheFileOnceAndRejournals) {
  std::string dir = uniqueTempDir("mtcache_repack");
  std::string key = "00000000000000c9";
  {
    MeasurementCache cache(dir);
    cache.store(key, okResult("v", 2.0));
  }
  fs::remove(fs::path(dir) / "index.pack");

  {
    // Without the journal the open falls back to reading the record file —
    // exactly once — and writes the journal back.
    MeasurementCache cache(dir);
    EXPECT_EQ(cache.telemetry().recordFileReads, 1u);
    ASSERT_TRUE(cache.load(key).has_value());
  }
  // The re-journaled pack is trusted again on the next open.
  MeasurementCache cache(dir);
  EXPECT_EQ(cache.telemetry().recordFileReads, 0u);
  ASSERT_TRUE(cache.load(key).has_value());
  fs::remove_all(dir);
}

TEST(MeasurementCache, TornPackTailFallsBackToTheRecordFiles) {
  std::string dir = uniqueTempDir("mtcache_tornpack");
  std::string key = "00000000000000ca";
  {
    MeasurementCache cache(dir);
    cache.store(key, okResult("v", 2.0));
  }
  // Simulate a crash mid-append: truncate the journal inside the payload.
  fs::path pack = fs::path(dir) / "index.pack";
  std::uintmax_t size = fs::file_size(pack);
  fs::resize_file(pack, size / 2);

  MeasurementCache cache(dir);
  EXPECT_EQ(cache.telemetry().recordFileReads, 1u);
  std::optional<VariantResult> loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, "v");
  fs::remove_all(dir);
}

TEST(MeasurementCache, TelemetryCountsHitsMissesAndCorruption) {
  std::string dir = uniqueTempDir("mtcache_telemetry");
  {
    MeasurementCache cache(dir);
    cache.store("00000000000000e1", okResult("good", 1.0));
    std::ofstream(cache.recordPath("00000000000000e2"), std::ios::trunc)
        << "not a record";
  }
  MeasurementCache cache(dir);
  EXPECT_TRUE(cache.load("00000000000000e1").has_value());
  EXPECT_TRUE(cache.load("00000000000000e1").has_value());
  EXPECT_FALSE(cache.load("00000000000000e2").has_value());  // corrupt
  EXPECT_FALSE(cache.load("00000000000000e3").has_value());  // absent
  CacheTelemetry t = cache.telemetry();
  EXPECT_EQ(t.hits, 2u);
  EXPECT_EQ(t.misses, 2u);  // corrupt records count in both columns
  EXPECT_EQ(t.corrupt, 1u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// End-to-end exploration (the acceptance bar)
// ---------------------------------------------------------------------------

TEST(Explore, SecondRunIsFullyCachedWithZeroBackendInvocations) {
  std::string cacheDir = uniqueTempDir("explore_cache_accept");

  auto first = std::make_shared<BackendCounters>();
  ExploreResult cold = runExplore(baseOptions(cacheDir, first));
  ASSERT_GE(cold.results.size(), 2u);
  EXPECT_EQ(cold.generated, cold.results.size());
  EXPECT_EQ(cold.cacheHits, 0u);
  EXPECT_EQ(cold.measured, cold.results.size());
  EXPECT_GT(first->invokes.load(), 0);
  for (const VariantResult& r : cold.results) {
    EXPECT_EQ(r.status, "ok") << r.error;
    EXPECT_FALSE(r.cached);
  }

  auto second = std::make_shared<BackendCounters>();
  ExploreResult warm = runExplore(baseOptions(cacheDir, second));
  ASSERT_EQ(warm.results.size(), cold.results.size());
  EXPECT_EQ(warm.cacheHits, warm.results.size()) << "expected 100% hits";
  EXPECT_EQ(warm.measured, 0u);
  // The whole point: a fully cached rerun performs ZERO backend work —
  // not even a backend is constructed.
  EXPECT_EQ(second->constructed.load(), 0);
  EXPECT_EQ(second->loads.load(), 0);
  EXPECT_EQ(second->invokes.load(), 0);

  for (std::size_t i = 0; i < warm.results.size(); ++i) {
    const VariantResult& a = cold.results[i];
    const VariantResult& b = warm.results[i];
    EXPECT_TRUE(b.cached);
    EXPECT_EQ(b.sequence, a.sequence);
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.status, "ok");
    EXPECT_DOUBLE_EQ(b.measurement.cyclesPerIteration.min,
                     a.measurement.cyclesPerIteration.min);
    EXPECT_DOUBLE_EQ(b.measurement.cyclesPerIteration.mean,
                     a.measurement.cyclesPerIteration.mean);
    EXPECT_EQ(b.measurement.iterationsPerCall, a.measurement.iterationsPerCall);
    EXPECT_EQ(b.repetitions, a.repetitions);
    EXPECT_EQ(b.converged, a.converged);
  }
  fs::remove_all(cacheDir);
}

TEST(Explore, ProtocolChangeInvalidatesCache) {
  std::string cacheDir = uniqueTempDir("explore_cache_proto");
  auto counters = std::make_shared<BackendCounters>();
  runExplore(baseOptions(cacheDir, counters));

  auto recount = std::make_shared<BackendCounters>();
  ExploreOptions changed = baseOptions(cacheDir, recount);
  changed.campaign.protocol.outerRepetitions += 1;  // different measurement
  ExploreResult result = runExplore(changed);
  EXPECT_EQ(result.cacheHits, 0u);
  EXPECT_EQ(result.measured, result.results.size());
  EXPECT_GT(recount->invokes.load(), 0);
  fs::remove_all(cacheDir);
}

TEST(Explore, InMemoryHandoffNeedsNoFilesystemRoundTrip) {
  auto counters = std::make_shared<BackendCounters>();
  ExploreOptions options =
      baseOptions(uniqueTempDir("explore_nocache") + "/cache", counters);
  options.useCache = false;

  ExploreResult result = runExplore(options);
  ASSERT_GE(result.results.size(), 2u);
  EXPECT_EQ(result.cacheHits, 0u);
  EXPECT_EQ(result.measured, result.results.size());
  // The array count was derived from the generated programs.
  ASSERT_FALSE(result.request.arrays.empty());
  EXPECT_GT(result.request.n, 0);
  for (const VariantResult& r : result.results) {
    EXPECT_EQ(r.status, "ok") << r.error;
  }
  // No cache directory was created when the cache is off.
  EXPECT_FALSE(fs::exists(options.cacheDir));
}

TEST(Explore, StreamsCampaignRowsWithCachedColumn) {
  std::string cacheDir = uniqueTempDir("explore_stream");
  auto counters = std::make_shared<BackendCounters>();

  std::ostringstream cold;
  {
    CampaignCsvSink sink(cold);
    runExplore(baseOptions(cacheDir, counters), &sink);
  }
  std::ostringstream warm;
  {
    CampaignCsvSink sink(warm);
    runExplore(baseOptions(cacheDir, counters), &sink);
  }
  std::istringstream in(warm.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find(",cached,"), std::string::npos) << line;
  std::vector<std::string> header = csv::parseLine(line);
  std::size_t cachedCol = 0;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "cached") cachedCol = i;
  }
  int rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++rows;
    std::vector<std::string> cells = csv::parseLine(line);
    ASSERT_GT(cells.size(), cachedCol);
    EXPECT_EQ(cells[cachedCol], "1") << "warm row not served from cache";
  }
  EXPECT_GE(rows, 2);
  fs::remove_all(cacheDir);
}

TEST(Explore, StreamedColdRunMatchesBatchResults) {
  auto a = std::make_shared<BackendCounters>();
  ExploreOptions batch = baseOptions(uniqueTempDir("explore_stream_batch"), a);
  batch.useCache = false;
  ExploreResult reference = runExplore(batch);
  ASSERT_GE(reference.results.size(), 2u);

  auto b = std::make_shared<BackendCounters>();
  ExploreOptions streamed =
      baseOptions(uniqueTempDir("explore_stream_cold"), b);
  streamed.useCache = false;
  streamed.stream = true;
  ExploreResult result = runExplore(streamed);

  // Streaming reorders nothing: variants arrive in emission order, so rows,
  // sequences and (deterministic-sim) measurements are bit-identical.
  EXPECT_EQ(result.generated, reference.generated);
  ASSERT_EQ(result.results.size(), reference.results.size());
  EXPECT_EQ(result.request.arrays.size(), reference.request.arrays.size());
  for (std::size_t i = 0; i < result.results.size(); ++i) {
    const VariantResult& x = reference.results[i];
    const VariantResult& y = result.results[i];
    EXPECT_EQ(y.sequence, x.sequence);
    EXPECT_EQ(y.name, x.name);
    EXPECT_EQ(y.status, "ok") << y.error;
    EXPECT_DOUBLE_EQ(y.measurement.cyclesPerIteration.min,
                     x.measurement.cyclesPerIteration.min);
    EXPECT_DOUBLE_EQ(y.measurement.cyclesPerIteration.mean,
                     x.measurement.cyclesPerIteration.mean);
    EXPECT_EQ(y.measurement.iterationsPerCall, x.measurement.iterationsPerCall);
  }
}

TEST(Explore, StreamedWarmRunIsFullyCachedWithZeroFileOpens) {
  std::string cacheDir = uniqueTempDir("explore_stream_warm");
  auto cold = std::make_shared<BackendCounters>();
  ExploreOptions coldOptions = baseOptions(cacheDir, cold);
  coldOptions.stream = true;
  ExploreResult first = runExplore(coldOptions);
  ASSERT_GE(first.results.size(), 2u);
  EXPECT_EQ(first.measured, first.results.size());
  EXPECT_EQ(first.cacheTelemetry.misses, first.results.size());

  auto warm = std::make_shared<BackendCounters>();
  ExploreOptions warmOptions = baseOptions(cacheDir, warm);
  warmOptions.stream = true;
  ExploreResult second = runExplore(warmOptions);
  EXPECT_EQ(second.cacheHits, second.results.size());
  EXPECT_EQ(second.measured, 0u);
  // A fully cached stream constructs zero backends...
  EXPECT_EQ(warm->constructed.load(), 0);
  EXPECT_EQ(warm->invokes.load(), 0);
  // ...and the indexed cache serves every probe from memory: the whole warm
  // run opens zero per-variant record files (the acceptance assertion).
  EXPECT_EQ(second.cacheTelemetry.hits, second.results.size());
  EXPECT_EQ(second.cacheTelemetry.misses, 0u);
  EXPECT_EQ(second.cacheTelemetry.recordFileReads, 0u);
  fs::remove_all(cacheDir);
}

TEST(Explore, StreamedAndBatchRunsShareCacheEntries) {
  // The streaming path derives nbVectors pre-verification, the batch path
  // post-verification; for a description where nothing is rejected the
  // request — and therefore every cache key — must agree, so a batch-cold /
  // stream-warm pair hits 100%.
  std::string cacheDir = uniqueTempDir("explore_stream_share");
  auto cold = std::make_shared<BackendCounters>();
  runExplore(baseOptions(cacheDir, cold));

  auto warm = std::make_shared<BackendCounters>();
  ExploreOptions streamed = baseOptions(cacheDir, warm);
  streamed.stream = true;
  ExploreResult result = runExplore(streamed);
  EXPECT_EQ(result.cacheHits, result.results.size());
  EXPECT_EQ(warm->constructed.load(), 0);
  fs::remove_all(cacheDir);
}

TEST(Explore, StreamRejectsHalvingSearch) {
  auto counters = std::make_shared<BackendCounters>();
  ExploreOptions options = baseOptions(uniqueTempDir("explore_stream_halving"),
                                       counters);
  options.stream = true;
  options.search = SearchMode::Halving;
  EXPECT_THROW(runExplore(options), McError);
}

TEST(Explore, GenerateJobsLeaveResultsBitIdentical) {
  auto a = std::make_shared<BackendCounters>();
  ExploreOptions serial = baseOptions(uniqueTempDir("explore_jobs1"), a);
  serial.useCache = false;
  serial.descriptionText = figure6Xml(1, 4, true);
  ExploreResult reference = runExplore(serial);

  auto b = std::make_shared<BackendCounters>();
  ExploreOptions parallel = baseOptions(uniqueTempDir("explore_jobs4"), b);
  parallel.useCache = false;
  parallel.descriptionText = figure6Xml(1, 4, true);
  parallel.generateJobs = 4;
  ExploreResult result = runExplore(parallel);

  ASSERT_EQ(result.results.size(), reference.results.size());
  for (std::size_t i = 0; i < result.results.size(); ++i) {
    EXPECT_EQ(result.results[i].name, reference.results[i].name);
    EXPECT_DOUBLE_EQ(result.results[i].measurement.cyclesPerIteration.min,
                     reference.results[i].measurement.cyclesPerIteration.min);
  }
}

TEST(Explore, MaxVariantsAndSeedOverridesApply) {
  auto counters = std::make_shared<BackendCounters>();
  ExploreOptions options = baseOptions(uniqueTempDir("explore_max"), counters);
  options.useCache = false;
  options.descriptionText = figure6Xml(1, 8, false);
  options.maxVariants = 3;
  ExploreResult result = runExplore(options);
  EXPECT_EQ(result.results.size(), 3u);
}

TEST(Explore, RejectsEmptyGeneration) {
  ExploreOptions options;
  options.descriptionText = "<description></description>";
  options.useCache = false;
  EXPECT_THROW(runExplore(options), McError);
}

// ---------------------------------------------------------------------------
// Ranked report
// ---------------------------------------------------------------------------

TEST(TopKReport, RanksOkResultsByMinCyclesAndClampsK) {
  std::vector<VariantResult> results;
  results.push_back(okResult("slow", 9.0));
  results.push_back(okResult("fast", 1.0));
  results.push_back(okResult("mid", 4.0));
  VariantResult failed = okResult("broken", 0.5);
  failed.status = "error";
  results.push_back(failed);
  results[1].cached = true;

  csv::Table top2 = topKReport(results, 2);
  ASSERT_EQ(top2.rowCount(), 2u);
  EXPECT_EQ(top2.row(0)[1], "fast");
  EXPECT_EQ(top2.row(0)[0], "1");
  EXPECT_EQ(top2.row(0)[7], "1");  // cached column
  EXPECT_EQ(top2.row(1)[1], "mid");

  // k <= 0 ranks everything that succeeded; the error row never appears.
  csv::Table all = topKReport(results, 0);
  EXPECT_EQ(all.rowCount(), 3u);
  EXPECT_EQ(all.row(2)[1], "slow");

  csv::Table large = topKReport(results, 100);
  EXPECT_EQ(large.rowCount(), 3u);
}

TEST(TopKReport, NanMeasurementsRankLastWithoutBreakingTheSort) {
  // Overhead-clamped measurements can legitimately produce NaN min/mean.
  // The old comparator (`am != bm ? am < bm : ...`) was not a strict weak
  // order once NaN appeared — UB in std::stable_sort that corrupted the
  // ranking. Enough rows to give a broken sort room to misbehave:
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<VariantResult> results;
  for (int i = 0; i < 16; ++i) {
    results.push_back(okResult("v" + std::to_string(i), 16.0 - i));
    VariantResult undefined = okResult("nan" + std::to_string(i), 1.0);
    undefined.measurement.cyclesPerIteration.min = kNan;
    undefined.measurement.cyclesPerIteration.mean = kNan;
    results.push_back(undefined);
  }

  csv::Table all = topKReport(results, 0);
  ASSERT_EQ(all.rowCount(), 32u);
  // Numbers first, ascending; every NaN row after every measured one.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(all.row(i)[1], "v" + std::to_string(15 - i)) << "rank " << i;
  }
  for (std::size_t i = 16; i < 32; ++i) {
    EXPECT_TRUE(strings::startsWith(all.row(i)[1], "nan")) << "rank " << i;
  }
  // NaN-only ties fall back to the name ordering: deterministic output.
  EXPECT_EQ(all.row(16)[1], "nan0");

  // A NaN min with a measured mean still ranks after every finite min but
  // uses the mean against other NaN-min rows.
  VariantResult mixedA = okResult("mixed_a", 1.0);
  mixedA.measurement.cyclesPerIteration.min = kNan;
  mixedA.measurement.cyclesPerIteration.mean = 2.0;
  VariantResult mixedB = okResult("mixed_b", 1.0);
  mixedB.measurement.cyclesPerIteration.min = kNan;
  mixedB.measurement.cyclesPerIteration.mean = 9.0;
  csv::Table mixed = topKReport({okResult("solid", 5.0), mixedB, mixedA}, 0);
  ASSERT_EQ(mixed.rowCount(), 3u);
  EXPECT_EQ(mixed.row(0)[1], "solid");
  EXPECT_EQ(mixed.row(1)[1], "mixed_a");
  EXPECT_EQ(mixed.row(2)[1], "mixed_b");
}

}  // namespace
}  // namespace microtools::launcher
