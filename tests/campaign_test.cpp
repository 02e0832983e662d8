// Tests of the variant-campaign runner: parallel dispatch over per-worker
// backends, adaptive repetition, retry/timeout handling, and the streaming
// append-safe CSV output.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "launcher/campaign.hpp"
#include "launcher/sim_backend.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace microtools::launcher {
namespace {

namespace fs = std::filesystem;

using testing::figure6Xml;
using testing::generate;
using testing::uniqueTempDir;

BackendFactory simFactory() {
  return [](int) {
    return std::make_unique<SimBackend>(sim::nehalemX5650DualSocket());
  };
}

KernelRequest smallRequest() {
  KernelRequest request;
  request.arrays.push_back(ArraySpec{16 * 1024, 4096, 0});
  request.n = 16 * 1024 / 4;
  return request;
}

CampaignOptions quickOptions(int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  options.protocol.innerRepetitions = 1;
  options.protocol.outerRepetitions = 3;
  options.maxCv = 0.05;
  options.maxRepetitions = 10;
  return options;
}

/// >= 8 distinct generated variants (one per unroll factor).
std::vector<CampaignVariant> eightVariants() {
  auto variants = variantsFromPrograms(generate(figure6Xml(1, 8, false)));
  EXPECT_GE(variants.size(), 8u);
  return variants;
}

/// 64 variants cycling the eight generated programs under unique names.
std::vector<CampaignVariant> sixtyFourVariants() {
  std::vector<CampaignVariant> base = eightVariants();
  std::vector<CampaignVariant> variants;
  for (int i = 0; i < 64; ++i) {
    CampaignVariant v = base[static_cast<std::size_t>(i) % base.size()];
    v.name = strings::format("variant_%02d_%s", i, v.name.c_str());
    variants.push_back(std::move(v));
  }
  return variants;
}

/// A backend that fails its first `failures` invocations with
/// ExecutionError, then behaves; used for the retry path.
class FlakyBackend final : public Backend {
 public:
  explicit FlakyBackend(int failures) : failuresLeft_(failures) {}

  struct FakeKernel final : KernelHandle {};

  std::string name() const override { return "flaky"; }
  std::unique_ptr<KernelHandle> load(const std::string&,
                                     const std::string&) override {
    return std::make_unique<FakeKernel>();
  }
  InvokeResult invoke(KernelHandle&, const KernelRequest&) override {
    if (failuresLeft_ > 0) {
      --failuresLeft_;
      throw ExecutionError("transient fake failure");
    }
    if (sleepMs_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleepMs_));
    }
    return InvokeResult{100.0, 10};
  }
  double timerOverheadCycles() const override { return 0.0; }
  std::vector<InvokeResult> invokeFork(KernelHandle&, const KernelRequest&,
                                       int, int, PinPolicy) override {
    throw ExecutionError("no fork mode");
  }
  InvokeResult invokeOpenMp(KernelHandle&, const KernelRequest&, int,
                            int) override {
    throw ExecutionError("no OpenMP mode");
  }

  void setSleepMs(int ms) { sleepMs_ = ms; }

 private:
  int failuresLeft_;
  int sleepMs_ = 0;
};

/// A SimBackend that adds the wall-clock interval of every variant it
/// measures — from the reset() that starts the variant to the end of its
/// last invoke — to a shared total.
class IntervalBackend final : public Backend {
 public:
  explicit IntervalBackend(std::shared_ptr<std::atomic<std::int64_t>> totalNs)
      : inner_(sim::nehalemX5650DualSocket()), totalNs_(std::move(totalNs)) {}
  ~IntervalBackend() override { flush(); }

  std::string name() const override { return inner_.name(); }
  std::unique_ptr<KernelHandle> load(const std::string& asmText,
                                     const std::string& fn) override {
    return inner_.load(asmText, fn);
  }
  InvokeResult invoke(KernelHandle& kernel,
                      const KernelRequest& request) override {
    InvokeResult result = inner_.invoke(kernel, request);
    end_ = nowNs();
    return result;
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
  InvokeResult invokeOpenMp(KernelHandle& kernel, const KernelRequest& request,
                            int threads, int repetitions) override {
    return inner_.invokeOpenMp(kernel, request, threads, repetitions);
  }
  void reset() override {
    flush();
    start_ = nowNs();
    inner_.reset();
  }

 private:
  static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void flush() {
    if (end_ > start_) totalNs_->fetch_add(end_ - start_);
    start_ = end_ = 0;
  }

  SimBackend inner_;
  std::shared_ptr<std::atomic<std::int64_t>> totalNs_;
  std::int64_t start_ = 0;
  std::int64_t end_ = 0;
};

// ---------------------------------------------------------------------------
// Determinism & concurrency (the acceptance bar)
// ---------------------------------------------------------------------------

TEST(Campaign, SixtyFourVariantsBitIdenticalAcrossJobCounts) {
  std::vector<CampaignVariant> variants = sixtyFourVariants();
  ASSERT_EQ(variants.size(), 64u);
  KernelRequest request = smallRequest();

  // Returns the results; reports the campaign's wall time and the summed
  // wall-clock intervals of its variants.
  auto runWithJobs = [&](int jobs, double* wallSeconds, double* busySeconds) {
    auto totalNs = std::make_shared<std::atomic<std::int64_t>>(0);
    std::vector<VariantResult> results;
    auto t0 = std::chrono::steady_clock::now();
    {
      CampaignRunner runner(
          [totalNs](int) { return std::make_unique<IntervalBackend>(totalNs); },
          quickOptions(jobs));
      results = runner.run(variants, request);
    }
    auto t1 = std::chrono::steady_clock::now();
    *wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    *busySeconds = static_cast<double>(totalNs->load()) * 1e-9;
    return results;
  };

  double wall1 = 0.0, busy1 = 0.0, wall4 = 0.0, busy4 = 0.0;
  std::vector<VariantResult> serial = runWithJobs(1, &wall1, &busy1);
  std::vector<VariantResult> parallel = runWithJobs(4, &wall4, &busy4);

  ASSERT_EQ(serial.size(), 64u);
  ASSERT_EQ(parallel.size(), 64u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].status, "ok") << serial[i].error;
    // Bit-identical CSV rows regardless of job count.
    EXPECT_EQ(CampaignRunner::csvRow(serial[i]),
              CampaignRunner::csvRow(parallel[i]))
        << "variant " << i;
    EXPECT_GE(serial[i].repetitions, 3);
    EXPECT_GE(serial[i].finalCv, 0.0);
    EXPECT_GE(serial[i].measurement.cyclesPerIteration.min, 0.0);
  }

  // One worker measures one variant at a time, so its intervals are
  // disjoint and fit in the campaign's wall time...
  EXPECT_LE(busy1, wall1);
  // ...while four workers must measure variants at the same time: their
  // intervals overlap, so they sum to more than the wall time. Unlike a
  // jobs=4 vs jobs=1 wall-clock race, load on other cores stretches the
  // intervals and the wall time alike and cannot decide this. Only
  // meaningful with enough hardware threads; the identity checks above are
  // the load-bearing part and run everywhere.
  if (std::thread::hardware_concurrency() >= 4) {
    EXPECT_GT(busy4, wall4) << "jobs=4 measured no two variants at once ("
                            << busy4 << " s of variants in " << wall4
                            << " s)";
  }
}

TEST(Campaign, EightVariantsOnFourJobsMatchSerialRun) {
  std::vector<CampaignVariant> variants = eightVariants();
  KernelRequest request = smallRequest();
  CampaignRunner serial(simFactory(), quickOptions(1));
  CampaignRunner parallel(simFactory(), quickOptions(4));
  std::vector<VariantResult> a = serial.run(variants, request);
  std::vector<VariantResult> b = parallel.run(variants, request);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sequence, i);
    EXPECT_EQ(CampaignRunner::csvRow(a[i]), CampaignRunner::csvRow(b[i]));
  }
}

// ---------------------------------------------------------------------------
// Adaptive bookkeeping in results
// ---------------------------------------------------------------------------

TEST(Campaign, RowsCarryCvAndRepetitionCount) {
  CampaignRunner runner(simFactory(), quickOptions(2));
  std::vector<VariantResult> results =
      runner.run(eightVariants(), smallRequest());
  csv::Table table = CampaignRunner::toCsv(results);
  const auto& header = table.header();
  auto column = [&](const std::string& name) {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return i;
    }
    ADD_FAILURE() << "missing column " << name;
    return std::size_t{0};
  };
  std::size_t cvCol = column("cv");
  std::size_t repCol = column("repetitions");
  for (std::size_t i = 0; i < table.rowCount(); ++i) {
    EXPECT_FALSE(table.row(i)[cvCol].empty());
    EXPECT_GE(std::stoi(table.row(i)[repCol]), 3);
    // No negative cycles/iteration can reach the CSV.
    for (const std::string& cell : table.row(i)) {
      EXPECT_TRUE(cell.empty() || cell[0] != '-') << cell;
    }
  }
}

// ---------------------------------------------------------------------------
// Failure handling
// ---------------------------------------------------------------------------

TEST(Campaign, RetriesOnceOnExecutionError) {
  // First invocation throws; the retry succeeds.
  CampaignRunner runner(
      [](int) { return std::make_unique<FlakyBackend>(1); }, quickOptions(1));
  std::vector<CampaignVariant> variants{{"flaky", "asm", "", "microkernel"}};
  std::vector<VariantResult> results = runner.run(variants, KernelRequest{});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, "ok");
  EXPECT_EQ(results[0].attempts, 2);
}

TEST(Campaign, PersistentFailureRecordedAfterRetry) {
  CampaignRunner runner(
      [](int) { return std::make_unique<FlakyBackend>(1000); },
      quickOptions(1));
  std::vector<CampaignVariant> variants{{"broken", "asm", "", "microkernel"}};
  std::vector<VariantResult> results = runner.run(variants, KernelRequest{});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, "error");
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_NE(results[0].error.find("transient fake failure"),
            std::string::npos);
}

TEST(Campaign, TimeoutMarksVariantWithoutRetry) {
  CampaignOptions options = quickOptions(1);
  options.variantTimeoutMs = 5;
  CampaignRunner runner(
      [](int) {
        auto backend = std::make_unique<FlakyBackend>(0);
        backend->setSleepMs(20);  // every invocation overshoots the budget
        return backend;
      },
      options);
  std::vector<CampaignVariant> variants{{"slow", "asm", "", "microkernel"}};
  std::vector<VariantResult> results = runner.run(variants, KernelRequest{});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, "timeout");
  EXPECT_EQ(results[0].attempts, 1);
}

TEST(Campaign, SimCannotLoadCKernels) {
  CampaignRunner runner(simFactory(), quickOptions(1));
  std::vector<CampaignVariant> variants{
      {"c_kernel", "c", "int microkernel(int n){return n;}", "microkernel"}};
  std::vector<VariantResult> results = runner.run(variants, smallRequest());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, "error");
  EXPECT_NE(results[0].error.find("cannot load"), std::string::npos);
}

TEST(Campaign, ValidatesConstruction) {
  EXPECT_THROW(CampaignRunner(nullptr, CampaignOptions{}), McError);
  CampaignOptions bad;
  bad.jobs = 0;
  EXPECT_THROW(CampaignRunner(simFactory(), bad), McError);
}

// ---------------------------------------------------------------------------
// Streaming CSV sink
// ---------------------------------------------------------------------------

TEST(Campaign, StreamsRowsToFileAppendSafely) {
  std::string path = uniqueTempDir("campaign") + "/campaign.csv";
  std::vector<CampaignVariant> variants = eightVariants();
  {
    CampaignCsvSink sink(path);
    CampaignRunner runner(simFactory(), quickOptions(4));
    runner.run(variants, smallRequest(), &sink);
  }
  auto countLines = [&] {
    std::ifstream in(path);
    std::string line;
    int header = 0, rows = 0;
    while (std::getline(in, line)) {
      if (strings::startsWith(line, "sequence,")) {
        ++header;
      } else if (!line.empty()) {
        ++rows;
      }
    }
    return std::make_pair(header, rows);
  };
  auto [headers1, rows1] = countLines();
  EXPECT_EQ(headers1, 1);
  EXPECT_EQ(rows1, static_cast<int>(variants.size()));

  // Re-running appends rows without duplicating the header (crash-resume).
  {
    CampaignCsvSink sink(path);
    CampaignRunner runner(simFactory(), quickOptions(2));
    runner.run(variants, smallRequest(), &sink);
  }
  auto [headers2, rows2] = countLines();
  EXPECT_EQ(headers2, 1);
  EXPECT_EQ(rows2, 2 * static_cast<int>(variants.size()));
}

TEST(Campaign, SinkRowsCoverEverySequence) {
  std::ostringstream oss;
  CampaignCsvSink sink(oss);
  CampaignRunner runner(simFactory(), quickOptions(4));
  std::vector<CampaignVariant> variants = eightVariants();
  runner.run(variants, smallRequest(), &sink);
  std::set<std::string> sequences;
  std::istringstream in(oss.str());
  std::string line;
  std::getline(in, line);  // header
  EXPECT_TRUE(strings::startsWith(line, "sequence,round,variant,status"));
  while (std::getline(in, line)) {
    if (!line.empty()) sequences.insert(strings::split(line, ',')[0]);
  }
  EXPECT_EQ(sequences.size(), variants.size());
}

// ---------------------------------------------------------------------------
// Variant sources
// ---------------------------------------------------------------------------

TEST(Campaign, DirectoryLoaderPicksUpKernelsSorted) {
  std::string dir = uniqueTempDir("campaign_dir_test");
  std::vector<CampaignVariant> programs = eightVariants();
  std::ofstream(dir + "/b_second.s") << programs[1].source;
  std::ofstream(dir + "/a_first.s") << programs[0].source;
  std::ofstream(dir + "/c_kernel.c") << "int microkernel(int n){return n;}";
  std::ofstream(dir + "/notes.txt") << "ignored";

  std::vector<CampaignVariant> variants = loadCampaignDirectory(dir, "mk");
  ASSERT_EQ(variants.size(), 3u);
  EXPECT_EQ(variants[0].name, "a_first");
  EXPECT_EQ(variants[0].kind, "asm");
  EXPECT_EQ(variants[1].name, "b_second");
  EXPECT_EQ(variants[2].name, "c_kernel");
  EXPECT_EQ(variants[2].kind, "c");
  for (const CampaignVariant& v : variants) {
    EXPECT_EQ(v.functionName, "mk");
    EXPECT_FALSE(v.source.empty());
  }
}

TEST(Campaign, DirectoryLoaderRejectsMissingOrEmptyDirs) {
  EXPECT_THROW(loadCampaignDirectory("/nonexistent/campaign"), McError);
  std::string dir = uniqueTempDir("campaign_empty_test");
  EXPECT_THROW(loadCampaignDirectory(dir), McError);
}

// ---------------------------------------------------------------------------
// CSV resume
// ---------------------------------------------------------------------------

TEST(Campaign, ResumeSkipsVariantsAlreadyCompletedInCsv) {
  std::string path = uniqueTempDir("campaign") + "/campaign.csv";
  std::vector<CampaignVariant> variants = eightVariants();

  {
    CampaignCsvSink sink(path);
    CampaignRunner runner(simFactory(), quickOptions(2));
    runner.run(variants, smallRequest(), &sink);
  }
  std::set<std::pair<std::size_t, std::string>> completed =
      readCompletedVariants(path);
  ASSERT_EQ(completed.size(), variants.size());

  // Restart against the same CSV: every variant must be skipped without
  // ever touching a backend — the factory fails the test if invoked.
  CampaignOptions resume = quickOptions(2);
  resume.completed = completed;
  CampaignRunner runner(
      [](int) -> std::unique_ptr<Backend> {
        ADD_FAILURE() << "backend built for a fully resumed campaign";
        return std::make_unique<FlakyBackend>(0);
      },
      resume);
  {
    CampaignCsvSink sink(path);
    std::vector<VariantResult> results =
        runner.run(variants, smallRequest(), &sink);
    ASSERT_EQ(results.size(), variants.size());
    for (const VariantResult& r : results) {
      EXPECT_EQ(r.status, "skipped");
      EXPECT_NE(r.note.find("already completed"), std::string::npos);
    }
  }

  // Skipped rows are not re-appended: the file keeps header + N rows.
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, 1 + static_cast<int>(variants.size()));
}

TEST(Campaign, ResumeReRunsVariantsThatDidNotComplete) {
  std::vector<CampaignVariant> variants = eightVariants();
  // Pretend only variants 0 and 3 completed last time.
  CampaignOptions options = quickOptions(2);
  options.completed.insert({0, variants[0].name});
  options.completed.insert({3, variants[3].name});
  CampaignRunner runner(simFactory(), options);
  std::vector<VariantResult> results = runner.run(variants, smallRequest());
  ASSERT_EQ(results.size(), variants.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 0 || i == 3) {
      EXPECT_EQ(results[i].status, "skipped") << i;
    } else {
      EXPECT_EQ(results[i].status, "ok") << results[i].error;
    }
  }
}

TEST(Campaign, ResumingTwiceAppendsZeroNewRows) {
  // End-to-end resume loop over a campaign with BOTH ok and error rows: the
  // CSV must reach its final size after the first run and never grow again,
  // however often the campaign is rerun against the same file. (Error rows
  // used to be considered incomplete, so every rerun re-measured and
  // re-appended them.)
  std::string path = uniqueTempDir("campaign") + "/campaign.csv";
  std::vector<CampaignVariant> variants = eightVariants();
  CampaignVariant broken;
  broken.name = "zz_broken";
  broken.kind = "asm";
  broken.source = "this is not assembly\n";
  broken.functionName = "microkernel";
  variants.push_back(broken);

  auto countDataLines = [&] {
    std::ifstream in(path);
    std::string line;
    int n = 0;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] != '#') ++n;
    }
    return n;
  };

  int afterFirst = 0;
  for (int round = 0; round < 3; ++round) {
    CampaignOptions options = quickOptions(2);
    options.verify = VerifyMode::Off;  // let the broken variant reach load()
    options.completed = readCompletedVariants(path);
    CampaignCsvSink sink(path, "# env.test=resume\n");
    CampaignRunner runner(simFactory(), options);
    std::vector<VariantResult> results =
        runner.run(variants, smallRequest(), &sink);
    ASSERT_EQ(results.size(), variants.size());
    if (round == 0) {
      afterFirst = countDataLines();
      EXPECT_EQ(afterFirst, 1 + static_cast<int>(variants.size()));
      EXPECT_EQ(results.back().status, "error");
    } else {
      for (const VariantResult& r : results) {
        EXPECT_EQ(r.status, "skipped") << r.name;
      }
      EXPECT_EQ(countDataLines(), afterFirst) << "round " << round;
    }
  }
}

TEST(Campaign, TruncatedCsvIsRepairedOnResume) {
  // A campaign killed mid-row leaves a torn final line. Reopening the sink
  // must terminate that line before appending, so the next row cannot
  // concatenate onto it and the file stays parseable.
  std::string path = uniqueTempDir("campaign") + "/campaign.csv";
  std::vector<CampaignVariant> variants = eightVariants();
  {
    CampaignCsvSink sink(path);
    CampaignRunner runner(simFactory(), quickOptions(1));
    runner.run(variants, smallRequest(), &sink);
  }
  // Simulate the crash: chop the final row right after its sequence cell,
  // leaving a torn line with no status and no trailing newline.
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    content = oss.str();
  }
  ASSERT_FALSE(content.empty());
  ASSERT_EQ(content.back(), '\n');
  std::size_t lastRowStart = content.rfind('\n', content.size() - 2) + 1;
  std::size_t firstComma = content.find(',', lastRowStart);
  ASSERT_NE(firstComma, std::string::npos);
  fs::resize_file(path, firstComma);

  std::set<std::pair<std::size_t, std::string>> completed =
      readCompletedVariants(path);
  EXPECT_EQ(completed.size(), variants.size() - 1);  // torn row not counted

  CampaignOptions options = quickOptions(1);
  options.completed = completed;
  {
    CampaignCsvSink sink(path);
    CampaignRunner runner(simFactory(), options);
    runner.run(variants, smallRequest(), &sink);
  }
  // Every variant is terminal again, and each full row parses to the full
  // schema width (the torn row stays short but harmless).
  EXPECT_EQ(readCompletedVariants(path).size(), variants.size());
  std::ifstream in(path);
  std::string line;
  std::size_t fullRows = 0;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cells = csv::parseLine(line);
    if (cells.size() == CampaignRunner::csvHeader().size()) ++fullRows;
  }
  EXPECT_EQ(fullRows, variants.size());  // N-1 intact + 1 re-measured
}

TEST(Campaign, SinkRefusesMismatchedHeaderSchema) {
  std::string path = uniqueTempDir("campaign") + "/campaign.csv";
  {
    std::ofstream out(path);
    out << "# env.cpu_model=old machine\n";
    out << "sequence,variant,status,cycles\n";  // a pre-counter-era schema
    out << "0,v0,ok,2.5\n";
  }
  EXPECT_THROW(CampaignCsvSink sink(path), McError);
}

TEST(Campaign, ReadCompletedVariantsCountsEveryTerminalStatus) {
  // Every status the runner writes is terminal: resuming must skip ok rows,
  // error rows (they already consumed their retry), timeouts, and
  // verify-strict skips alike — otherwise each rerun re-appends them and
  // the CSV grows without bound. Only unknown statuses and rows narrower
  // than the schema (the runner always writes full-width rows; anything
  // shorter is a crash-torn remnant) are left for re-measurement.
  std::string path = uniqueTempDir("campaign") + "/campaign.csv";
  std::size_t width = CampaignRunner::csvHeader().size();
  // Pads a row's leading cells out to the schema's full width, the shape
  // every runner-written row has.
  auto fullRow = [width](const std::string& prefix, std::size_t given) {
    return prefix + std::string(width - given, ',') + "\n";
  };
  {
    std::ofstream out(path);
    out << "# env.cpu_model=test\n";  // preamble comments are skipped
    out << CampaignRunner::csvHeader()[0];  // build the real header
    for (std::size_t i = 1; i < CampaignRunner::csvHeader().size(); ++i) {
      out << ',' << CampaignRunner::csvHeader()[i];
    }
    out << "\n";
    out << fullRow("0,0,good_variant,ok,,2.5,2.5,2.5,2.5,0", 10);
    out << fullRow("1,0,failed_variant,error", 4);
    out << fullRow("2,0,\"quoted, name\",ok,,2.5,2.5,2.5,2.5,0", 10);
    out << fullRow("3,0,slow_variant,timeout", 4);
    out << fullRow("4,0,rejected_variant,skipped", 4);
    out << fullRow("5,0,foreign_variant,mystery_status", 4);  // unknown: re-run
    out << fullRow("not a number,0,bad_row,ok", 4);  // bad sequence: ignored
    out << "6,0,short_row,ok\n";  // narrower than the schema: torn, re-run
    out << "7,0,truncated_r";     // crash mid-write: re-run
  }
  std::set<std::pair<std::size_t, std::string>> completed =
      readCompletedVariants(path);
  EXPECT_EQ(completed.size(), 5u);
  EXPECT_TRUE(completed.count({0, "good_variant"}));
  EXPECT_TRUE(completed.count({1, "failed_variant"}));
  EXPECT_TRUE(completed.count({2, "quoted, name"}));
  EXPECT_TRUE(completed.count({3, "slow_variant"}));
  EXPECT_TRUE(completed.count({4, "rejected_variant"}));
  EXPECT_FALSE(completed.count({5, "foreign_variant"}));
  EXPECT_FALSE(completed.count({6, "short_row"}));
}

TEST(Campaign, ReadCompletedVariantsOfMissingFileIsEmpty) {
  EXPECT_TRUE(readCompletedVariants("/nonexistent/campaign.csv").empty());
}

TEST(Campaign, ReadCompletedVariantsFiltersByRound) {
  // A halving search resumes per round: only rows tagged with the round
  // being re-run may be skipped — a variant screened in round 0 still has
  // to be re-measured at round 1's higher fidelity.
  std::string path = uniqueTempDir("campaign") + "/campaign.csv";
  std::size_t width = CampaignRunner::csvHeader().size();
  auto fullRow = [width](const std::string& prefix, std::size_t given) {
    return prefix + std::string(width - given, ',') + "\n";
  };
  {
    std::ofstream out(path);
    out << CampaignRunner::csvHeader()[0];
    for (std::size_t i = 1; i < CampaignRunner::csvHeader().size(); ++i) {
      out << ',' << CampaignRunner::csvHeader()[i];
    }
    out << "\n";
    out << fullRow("0,0,u1,ok,,2.5,2.5,2.5,2.5,0", 10);
    out << fullRow("1,0,u2,ok,,3.5,3.5,3.5,3.5,0", 10);
    out << fullRow("0,1,u1,ok,,2.4,2.4,2.4,2.4,0", 10);
    out << fullRow("1,torn,u9,ok", 4);  // unparsable round: re-measure
  }

  std::set<std::pair<std::size_t, std::string>> round0 =
      readCompletedVariants(path, 0);
  EXPECT_EQ(round0.size(), 2u);
  EXPECT_TRUE(round0.count({0, "u1"}));
  EXPECT_TRUE(round0.count({1, "u2"}));

  std::set<std::pair<std::size_t, std::string>> round1 =
      readCompletedVariants(path, 1);
  EXPECT_EQ(round1.size(), 1u);
  EXPECT_TRUE(round1.count({0, "u1"}));
  EXPECT_TRUE(readCompletedVariants(path, 2).empty());

  // The round-agnostic overload still sees every terminal row.
  EXPECT_EQ(readCompletedVariants(path).size(), 3u);
  EXPECT_THROW(readCompletedVariants(path, -1), McError);
}

TEST(Campaign, ReadCompletedVariantsTreatsLegacyFilesAsRoundZero) {
  // Pre-round-column CSVs (exhaustive sweeps from older builds) are all
  // baseline-fidelity rows: a round-0 filter accepts them, any later
  // round re-measures.
  std::string path = uniqueTempDir("campaign") + "/campaign.csv";
  {
    std::ofstream out(path);
    out << "sequence,variant,status\n";
    out << "0,old_a,ok\n";
    out << "1,old_b,error\n";
  }
  EXPECT_EQ(readCompletedVariants(path, 0).size(), 2u);
  EXPECT_TRUE(readCompletedVariants(path, 1).empty());
}

TEST(Campaign, RoundTagStampsResultsAndCsvRows) {
  std::vector<CampaignVariant> variants = eightVariants();
  variants.resize(2);
  CampaignOptions options = quickOptions(1);
  options.round = 3;
  std::ostringstream csv;
  std::vector<VariantResult> results;
  {
    CampaignCsvSink sink(csv);
    CampaignRunner runner(simFactory(), options);
    results = runner.run(variants, smallRequest(), &sink);
  }
  ASSERT_EQ(results.size(), 2u);
  for (const VariantResult& r : results) EXPECT_EQ(r.round, 3);

  // The round lands in the CSV's second column, where resume reads it back.
  std::istringstream in(csv.str());
  std::string line;
  std::getline(in, line);
  EXPECT_TRUE(strings::startsWith(line, "sequence,round,variant,"));
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty() || strings::startsWith(line, "#")) continue;
    EXPECT_EQ(csv::parseLine(line)[1], "3") << line;
    ++rows;
  }
  EXPECT_EQ(rows, 2u);

  // Cache hits carry the tag too: a hit row must resume under its round.
  options.cacheLookup = [](const CampaignVariant&, VariantResult& out) {
    out.status = "ok";
    out.measurement.cyclesPerIteration.min = 1.25;
    out.repetitions = 3;
    return true;
  };
  CampaignRunner cached(
      [](int) -> std::unique_ptr<Backend> {
        ADD_FAILURE() << "backend built despite 100% cache hits";
        return std::make_unique<FlakyBackend>(0);
      },
      options);
  for (const VariantResult& r : cached.run(variants, smallRequest())) {
    EXPECT_EQ(r.round, 3);
    EXPECT_TRUE(r.cached);
  }
}

// ---------------------------------------------------------------------------
// Cache hooks
// ---------------------------------------------------------------------------

TEST(Campaign, CacheLookupSatisfiesVariantsWithoutBackendWork) {
  std::vector<CampaignVariant> variants = eightVariants();
  CampaignOptions options = quickOptions(2);
  options.cacheLookup = [](const CampaignVariant&, VariantResult& out) {
    out.status = "ok";
    out.measurement.cyclesPerIteration.min = 1.25;
    out.repetitions = 3;
    return true;
  };
  CampaignRunner runner(
      [](int) -> std::unique_ptr<Backend> {
        ADD_FAILURE() << "backend built despite 100% cache hits";
        return std::make_unique<FlakyBackend>(0);
      },
      options);
  std::vector<VariantResult> results = runner.run(variants, smallRequest());
  ASSERT_EQ(results.size(), variants.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].cached);
    EXPECT_EQ(results[i].status, "ok");
    // The runner re-labels the cached payload with this run's identity.
    EXPECT_EQ(results[i].sequence, i);
    EXPECT_EQ(results[i].name, variants[i].name);
    EXPECT_DOUBLE_EQ(results[i].measurement.cyclesPerIteration.min, 1.25);
  }
}

TEST(Campaign, CacheStoreSeesEveryOkResult) {
  std::vector<CampaignVariant> variants = eightVariants();
  CampaignOptions options = quickOptions(2);
  std::mutex mutex;
  std::set<std::string> stored;
  options.cacheStore = [&](const CampaignVariant& v, const VariantResult& r) {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(r.status, "ok");
    stored.insert(v.name);
  };
  CampaignRunner runner(simFactory(), options);
  runner.run(variants, smallRequest());
  EXPECT_EQ(stored.size(), variants.size());
}

// ---------------------------------------------------------------------------
// Degenerate CV (zero-mean samples)
// ---------------------------------------------------------------------------

/// Returns 0 cycles for every invocation: the cycles/iteration mean is 0,
/// so the CV is undefined rather than perfectly stable.
class ZeroCycleBackend final : public Backend {
 public:
  struct FakeKernel final : KernelHandle {};
  std::string name() const override { return "zero"; }
  std::unique_ptr<KernelHandle> load(const std::string&,
                                     const std::string&) override {
    return std::make_unique<FakeKernel>();
  }
  InvokeResult invoke(KernelHandle&, const KernelRequest&) override {
    return InvokeResult{0.0, 10};
  }
  double timerOverheadCycles() const override { return 0.0; }
  std::vector<InvokeResult> invokeFork(KernelHandle&, const KernelRequest&,
                                       int, int, PinPolicy) override {
    throw ExecutionError("no fork mode");
  }
  InvokeResult invokeOpenMp(KernelHandle&, const KernelRequest&, int,
                            int) override {
    throw ExecutionError("no OpenMP mode");
  }
};

TEST(Campaign, ZeroMeanSamplesAreNotReportedAsConverged) {
  CampaignRunner runner(
      [](int) { return std::make_unique<ZeroCycleBackend>(); },
      quickOptions(1));
  std::vector<CampaignVariant> variants{{"zero", "asm", "", "microkernel"}};
  std::vector<VariantResult> results = runner.run(variants, KernelRequest{});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, "ok");
  // The old bug: cv() returned 0.0 for a zero mean, which read as "perfectly
  // stable" and stopped the adaptive loop claiming convergence.
  EXPECT_TRUE(std::isnan(results[0].finalCv));
  EXPECT_FALSE(results[0].converged);
  EXPECT_NE(results[0].note.find("cv undefined"), std::string::npos);
  // And the CSV row must not pretend otherwise.
  std::vector<std::string> row = CampaignRunner::csvRow(results[0]);
  std::vector<std::string> header = CampaignRunner::csvHeader();
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "converged") {
      EXPECT_EQ(row[i], "0");
    }
    if (header[i] == "note") {
      EXPECT_NE(row[i].find("cv undefined"), std::string::npos);
    }
  }
}

TEST(Campaign, VariantsFromProgramsKeepNamesAndEntryPoints) {
  auto programs = generate(figure6Xml(1, 4, false));
  auto variants = variantsFromPrograms(programs);
  ASSERT_EQ(variants.size(), programs.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_EQ(variants[i].name, programs[i].name);
    EXPECT_EQ(variants[i].source, programs[i].asmText);
    EXPECT_EQ(variants[i].functionName, programs[i].functionName);
    EXPECT_EQ(variants[i].kind, "asm");
  }
}

// ---------------------------------------------------------------------------
// Pipelined compile stage
// ---------------------------------------------------------------------------

/// Delegates everything to an inner SimBackend (whose origin-checked handles
/// it passes straight through) while counting prepareBatch calls and the
/// units they carried — instrumentation for the compile pipeline.
class PreparationCountingBackend final : public Backend {
 public:
  PreparationCountingBackend(std::shared_ptr<std::atomic<int>> batchCalls,
                             std::shared_ptr<std::atomic<int>> preparedUnits)
      : inner_(sim::nehalemX5650DualSocket()),
        batchCalls_(std::move(batchCalls)),
        preparedUnits_(std::move(preparedUnits)) {}

  std::string name() const override { return inner_.name(); }
  std::unique_ptr<KernelHandle> load(const std::string& asmText,
                                     const std::string& fn) override {
    return inner_.load(asmText, fn);
  }
  std::vector<SourceUnit> prepareBatch(
      std::vector<SourceUnit> units) override {
    batchCalls_->fetch_add(1);
    preparedUnits_->fetch_add(static_cast<int>(units.size()));
    return units;
  }
  InvokeResult invoke(KernelHandle& kernel,
                      const KernelRequest& request) override {
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
  InvokeResult invokeOpenMp(KernelHandle& kernel, const KernelRequest& request,
                            int threads, int repetitions) override {
    return inner_.invokeOpenMp(kernel, request, threads, repetitions);
  }
  void reset() override { inner_.reset(); }

 private:
  SimBackend inner_;
  std::shared_ptr<std::atomic<int>> batchCalls_;
  std::shared_ptr<std::atomic<int>> preparedUnits_;
};

TEST(Campaign, PipelinedResultsBitIdenticalAcrossCompileJobGrid) {
  std::vector<CampaignVariant> variants = sixtyFourVariants();
  KernelRequest request = smallRequest();

  CampaignRunner baselineRunner(simFactory(), quickOptions(1));
  std::vector<VariantResult> baseline =
      baselineRunner.run(variants, request);
  ASSERT_EQ(baseline.size(), 64u);
  for (const VariantResult& r : baseline) {
    ASSERT_EQ(r.status, "ok") << r.error;
  }

  struct Grid {
    int jobs, compileJobs, compileBatch;
  };
  for (const Grid& g : {Grid{1, 1, 1}, Grid{2, 2, 3}, Grid{4, 3, 8},
                        Grid{3, 1, 64}}) {
    CampaignOptions options = quickOptions(g.jobs);
    options.compileJobs = g.compileJobs;
    options.compileBatch = g.compileBatch;
    CampaignRunner runner(simFactory(), options);
    std::vector<VariantResult> results = runner.run(variants, request);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].sequence, i);
      EXPECT_EQ(CampaignRunner::csvRow(baseline[i]),
                CampaignRunner::csvRow(results[i]))
          << "jobs=" << g.jobs << " compileJobs=" << g.compileJobs
          << " compileBatch=" << g.compileBatch << " variant " << i;
    }
  }
}

TEST(Campaign, PipelinedPathRoutesEveryVariantThroughPrepareBatch) {
  auto batchCalls = std::make_shared<std::atomic<int>>(0);
  auto preparedUnits = std::make_shared<std::atomic<int>>(0);
  BackendFactory factory = [batchCalls, preparedUnits](int) {
    return std::make_unique<PreparationCountingBackend>(batchCalls,
                                                        preparedUnits);
  };

  std::vector<CampaignVariant> variants = eightVariants();
  CampaignOptions options = quickOptions(2);
  options.compileJobs = 2;
  options.compileBatch = 3;
  CampaignRunner runner(factory, options);
  std::vector<VariantResult> results =
      runner.run(variants, smallRequest());

  int expectedBatches = static_cast<int>(
      (variants.size() + 2) / 3);  // ceil(variants / compileBatch)
  EXPECT_EQ(batchCalls->load(), expectedBatches);
  EXPECT_EQ(preparedUnits->load(), static_cast<int>(variants.size()));
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].sequence, i);
    EXPECT_EQ(results[i].status, "ok") << results[i].error;
  }
}

/// Like PreparationCountingBackend, but prepareBatch always throws a
/// non-McError exception — the shape of an out-of-memory or bad_alloc-style
/// failure inside a compile producer. The campaign must degrade to inline
/// compilation instead of losing the producer thread (which used to leave
/// the bounded queue open and the measurement workers blocked forever).
class ThrowingPrepareBackend final : public Backend {
 public:
  ThrowingPrepareBackend() : inner_(sim::nehalemX5650DualSocket()) {}

  std::string name() const override { return inner_.name(); }
  std::unique_ptr<KernelHandle> load(const std::string& asmText,
                                     const std::string& fn) override {
    return inner_.load(asmText, fn);
  }
  std::vector<SourceUnit> prepareBatch(std::vector<SourceUnit>) override {
    throw std::runtime_error("simulated compiler driver crash");
  }
  InvokeResult invoke(KernelHandle& kernel,
                      const KernelRequest& request) override {
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
  InvokeResult invokeOpenMp(KernelHandle& kernel, const KernelRequest& request,
                            int threads, int repetitions) override {
    return inner_.invokeOpenMp(kernel, request, threads, repetitions);
  }
  void reset() override { inner_.reset(); }

 private:
  SimBackend inner_;
};

TEST(Campaign, ThrowingPrepareBatchDoesNotDeadlockTheCampaign) {
  BackendFactory factory = [](int) {
    return std::make_unique<ThrowingPrepareBackend>();
  };
  std::vector<CampaignVariant> variants = eightVariants();
  CampaignOptions options = quickOptions(2);
  options.compileJobs = 2;
  options.compileBatch = 3;
  CampaignRunner runner(factory, options);
  std::vector<VariantResult> results = runner.run(variants, smallRequest());

  ASSERT_EQ(results.size(), variants.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].sequence, i);
    EXPECT_EQ(results[i].status, "ok") << results[i].error;
  }
}

TEST(Campaign, PipelineOptionsAreValidated) {
  CampaignOptions options = quickOptions(1);
  options.compileJobs = -1;
  EXPECT_THROW(CampaignRunner(simFactory(), options), McError);
  options.compileJobs = 0;
  options.compileBatch = 0;
  EXPECT_THROW(CampaignRunner(simFactory(), options), McError);
}

TEST(Campaign, PipelinedCacheStoreSeesOriginalVariantSources) {
  // The cache must be keyed by what the user asked to measure, not by the
  // prepared artifact a compile producer happened to substitute.
  std::vector<CampaignVariant> variants = eightVariants();
  std::mutex mu;
  std::set<std::string> storedSources;
  CampaignOptions options = quickOptions(2);
  options.compileJobs = 1;
  options.compileBatch = 4;
  options.cacheStore = [&](const CampaignVariant& v, const VariantResult&) {
    std::lock_guard<std::mutex> lock(mu);
    storedSources.insert(v.source);
  };
  CampaignRunner runner(simFactory(), options);
  runner.run(variants, smallRequest());

  std::set<std::string> originalSources;
  for (const CampaignVariant& v : variants) originalSources.insert(v.source);
  EXPECT_EQ(storedSources, originalSources);
}

// ---------------------------------------------------------------------------
// Pre-flight verification
// ---------------------------------------------------------------------------

/// A syntactically valid kernel that clobbers the callee-saved %rbx without
/// saving it — exactly the kind of variant that crashes its host process
/// after dlopen; the strict gate must skip it before any backend sees it.
CampaignVariant abiClobberingVariant() {
  CampaignVariant v;
  v.name = "clobbers_rbx";
  v.kind = "asm";
  v.source =
      "microkernel:\n"
      "  mov $7, %rbx\n"
      "  mov $5, %eax\n"
      "  ret\n";
  v.functionName = "microkernel";
  return v;
}

TEST(CampaignVerify, StrictSkipsAbiClobberingVariantWithReasonInCsv) {
  std::vector<CampaignVariant> variants = eightVariants();
  variants.push_back(abiClobberingVariant());
  std::size_t badIndex = variants.size() - 1;

  CampaignOptions options = quickOptions(2);
  options.verify = VerifyMode::Strict;
  std::ostringstream csv;
  CampaignCsvSink sink(csv);
  CampaignRunner runner(simFactory(), options);
  std::vector<VariantResult> results =
      runner.run(variants, smallRequest(), &sink);

  // The campaign completes: every clean variant is measured normally.
  // Pure-load kernels legitimately carry dead-load warnings; strict mode
  // only gates on errors.
  for (std::size_t i = 0; i < badIndex; ++i) {
    EXPECT_EQ(results[i].status, "ok") << results[i].error;
    EXPECT_FALSE(results[i].verify.empty());
    EXPECT_EQ(results[i].verify.find("E:"), std::string::npos)
        << results[i].verify;
  }

  // The bad one is skipped with the rule in both the verdict and the error.
  const VariantResult& bad = results[badIndex];
  EXPECT_EQ(bad.status, "skipped");
  EXPECT_NE(bad.verify.find("MT-ABI01"), std::string::npos) << bad.verify;
  EXPECT_NE(bad.error.find("MT-ABI01"), std::string::npos) << bad.error;
  EXPECT_EQ(bad.attempts, 1);

  // Its CSV row exists, carries the verdict, and the header has the column.
  std::string text = csv.str();
  EXPECT_NE(text.find(",verify,"), std::string::npos);
  std::string row;
  std::istringstream lines(text);
  while (std::getline(lines, row)) {
    if (row.find("clobbers_rbx") != std::string::npos) break;
  }
  EXPECT_NE(row.find("skipped"), std::string::npos) << row;
  EXPECT_NE(row.find("MT-ABI01"), std::string::npos) << row;
}

TEST(CampaignVerify, WarnModeMeasuresFlaggedVariantsAndAnnotates) {
  std::vector<CampaignVariant> variants = {abiClobberingVariant()};
  CampaignOptions options = quickOptions(1);
  options.verify = VerifyMode::Warn;
  CampaignRunner runner(simFactory(), options);
  std::vector<VariantResult> results = runner.run(variants, smallRequest());
  ASSERT_EQ(results.size(), 1u);
  // Warn does not gate: the simulator still measures the variant...
  EXPECT_EQ(results[0].status, "ok") << results[0].error;
  // ...but the verdict lands in the CSV column.
  EXPECT_NE(results[0].verify.find("MT-ABI01"), std::string::npos);
}

TEST(CampaignVerify, OffModeLeavesVerdictEmpty) {
  std::vector<CampaignVariant> variants = {abiClobberingVariant()};
  CampaignOptions options = quickOptions(1);  // verify defaults to Off
  CampaignRunner runner(simFactory(), options);
  std::vector<VariantResult> results = runner.run(variants, smallRequest());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, "ok") << results[0].error;
  EXPECT_TRUE(results[0].verify.empty());
}

TEST(CampaignVerify, ModeNamesParse) {
  EXPECT_EQ(verifyModeFromName("off"), VerifyMode::Off);
  EXPECT_EQ(verifyModeFromName("warn"), VerifyMode::Warn);
  EXPECT_EQ(verifyModeFromName("strict"), VerifyMode::Strict);
  EXPECT_THROW(verifyModeFromName("lenient"), McError);
}

TEST(CampaignVerify, VerifierSlackMatchesLauncherSlack) {
  // verify::LaunchContext promises its default slack equals the launcher's
  // guaranteed over-allocation; a drift here would let the verifier accept
  // accesses the backends do not actually pad for.
  EXPECT_EQ(verify::LaunchContext{}.slackBytes,
            static_cast<std::size_t>(kArraySlackBytes));
}

}  // namespace
}  // namespace microtools::launcher
