// Tests of the successive-halving exploration planner: budget parsing, the
// round schedule, survivor selection (ranking, tie guard, failure handling),
// and the end-to-end contracts — same top-1 as the exhaustive sweep at
// <= 50% of the variant-measurement work, graceful budget exhaustion,
// cache-hit-only warm reruns, and resume of an interrupted halving CSV.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "launcher/explore.hpp"
#include "launcher/planner.hpp"
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

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Per-factory invocation counters shared by every backend it builds.
struct BackendCounters {
  std::atomic<int> constructed{0};
  std::atomic<int> loads{0};
  std::atomic<int> invokes{0};
};

/// SimBackend wrapper that counts construction and invocations — the proof
/// that a fully cached halving rerun performs zero backend work.
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

/// Figure-6 exploration at the baseline Figure-10 protocol (outer 10), the
/// geometry the <= 50% work contract is stated against.
ExploreOptions halvingOptions(std::shared_ptr<BackendCounters> counters) {
  ExploreOptions options;
  options.descriptionText = figure6Xml(1, 8, false);  // 8 unroll variants
  options.arrayBytes = 16 * 1024;
  options.campaign.protocol.innerRepetitions = 1;
  options.campaign.protocol.outerRepetitions = 10;
  options.campaign.maxCv = 0.05;
  options.campaign.maxRepetitions = 40;
  options.useCache = false;
  options.search = SearchMode::Halving;
  options.backendFactory = [counters](int) {
    return std::make_unique<CountingBackend>(counters);
  };
  options.backendId = "counting-sim";
  return options;
}

VariantResult okRow(const std::string& name, double median, double cv) {
  VariantResult r;
  r.name = name;
  r.status = "ok";
  r.measurement.cyclesPerIteration =
      stats::Summary{3, median, median, median, median, cv * median, cv};
  r.finalCv = cv;
  r.repetitions = 3;
  r.converged = true;
  return r;
}

// ---------------------------------------------------------------------------
// Budget / mode parsing and the round schedule
// ---------------------------------------------------------------------------

TEST(Planner, ParseBudgetSecondsVariantsAndNone) {
  Budget none = parseBudget("");
  EXPECT_EQ(none.kind, Budget::Kind::None);

  Budget seconds = parseBudget("30s");
  EXPECT_EQ(seconds.kind, Budget::Kind::Seconds);
  EXPECT_DOUBLE_EQ(seconds.seconds, 30.0);
  EXPECT_DOUBLE_EQ(parseBudget("2.5s").seconds, 2.5);

  Budget variants = parseBudget("16");
  EXPECT_EQ(variants.kind, Budget::Kind::Variants);
  EXPECT_EQ(variants.variants, 16);

  EXPECT_THROW(parseBudget("0"), McError);
  EXPECT_THROW(parseBudget("-3"), McError);
  EXPECT_THROW(parseBudget("0s"), McError);
  EXPECT_THROW(parseBudget("-1.5s"), McError);
  EXPECT_THROW(parseBudget("soon"), McError);
  EXPECT_THROW(parseBudget("s"), McError);
}

TEST(Planner, SearchModeFromNameValidatesInput) {
  EXPECT_EQ(searchModeFromName("full"), SearchMode::Full);
  EXPECT_EQ(searchModeFromName("halving"), SearchMode::Halving);
  EXPECT_THROW(searchModeFromName("binary"), McError);
}

TEST(Planner, HalvingBudgetsDoubleUpToTheBaseline) {
  EXPECT_EQ(halvingBudgets(1, 10), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(halvingBudgets(3, 10), (std::vector<int>{3, 6}));
  // Screening at or past the baseline degenerates to the final round only.
  EXPECT_TRUE(halvingBudgets(10, 10).empty());
  EXPECT_TRUE(halvingBudgets(16, 10).empty());
}

// ---------------------------------------------------------------------------
// Survivor selection
// ---------------------------------------------------------------------------

TEST(Planner, SelectSurvivorsKeepsTheBestHalfByMedian) {
  std::vector<VariantResult> rows = {
      okRow("slow", 8.0, 0.0), okRow("fastest", 1.0, 0.0),
      okRow("mid", 4.0, 0.0), okRow("fast", 2.0, 0.0)};
  std::vector<std::size_t> keep = selectSurvivors(rows, 3.0);
  ASSERT_EQ(keep.size(), 2u);  // floor(4/2)
  EXPECT_EQ(rows[keep[0]].name, "fastest");
  EXPECT_EQ(rows[keep[1]].name, "fast");
}

TEST(Planner, SelectSurvivorsAlwaysKeepsAtLeastOne) {
  std::vector<VariantResult> rows = {okRow("only", 1.0, 0.0)};
  EXPECT_EQ(selectSurvivors(rows, 3.0).size(), 1u);
}

TEST(Planner, SelectSurvivorsDropsFailuresAndRanksNanLast) {
  std::vector<VariantResult> rows = {okRow("good", 2.0, 0.0),
                                     okRow("undefined", kNan, 0.0),
                                     okRow("better", 1.0, 0.0)};
  rows.push_back(okRow("failed", 0.5, 0.0));
  rows.back().status = "error";
  std::vector<std::size_t> keep = selectSurvivors(rows, 3.0);
  // 3 rankable rows -> keep 1 (floor(3/2)); NaN medians and failed rows
  // must never beat a measured number.
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(rows[keep[0]].name, "better");
}

TEST(Planner, SelectSurvivorsEmptyWhenEveryVariantFailed) {
  std::vector<VariantResult> rows = {okRow("a", 1.0, 0.0),
                                     okRow("b", 2.0, 0.0)};
  rows[0].status = "error";
  rows[1].status = "timeout";
  EXPECT_TRUE(selectSurvivors(rows, 3.0).empty());
}

TEST(Planner, SelectSurvivorsCvTieGuardKeepsIndistinguishableVariants) {
  // 10.0 vs 10.2 at 5% CV: |delta| = 0.2 <= 3 * sqrt(0.5^2 + 0.51^2), so
  // eliminating "close" would be a coin flip — it must survive the cut.
  std::vector<VariantResult> rows = {okRow("best", 1.0, 0.0),
                                     okRow("edge", 10.0, 0.05),
                                     okRow("close", 10.2, 0.05),
                                     okRow("far", 30.0, 0.05)};
  std::vector<std::size_t> keep = selectSurvivors(rows, 3.0);
  ASSERT_EQ(keep.size(), 3u);
  EXPECT_EQ(rows[keep[2]].name, "close");

  // An undefined (NaN) CV past the cut makes the comparison undecidable:
  // never eliminate on it.
  std::vector<VariantResult> nanCv = {okRow("best", 1.0, 0.0),
                                      okRow("edge", 10.0, 0.0),
                                      okRow("undecidable", 10.5, kNan),
                                      okRow("far", 30.0, 0.0)};
  keep = selectSurvivors(nanCv, 3.0);
  ASSERT_GE(keep.size(), 3u);
  EXPECT_EQ(nanCv[keep[2]].name, "undecidable");

  // With zero CV everywhere, only exact ties extend the cut.
  std::vector<VariantResult> crisp = {okRow("best", 1.0, 0.0),
                                      okRow("edge", 10.0, 0.0),
                                      okRow("close", 10.2, 0.0),
                                      okRow("far", 30.0, 0.0)};
  EXPECT_EQ(selectSurvivors(crisp, 3.0).size(), 2u);
}

// ---------------------------------------------------------------------------
// End-to-end: the <= 50% work contract
// ---------------------------------------------------------------------------

TEST(Planner, HalvingMatchesExhaustiveTopOneAtHalfTheWork) {
  auto fullCounters = std::make_shared<BackendCounters>();
  ExploreOptions full = halvingOptions(fullCounters);
  full.search = SearchMode::Full;
  ExploreResult exhaustive = runExplore(full);
  ASSERT_EQ(exhaustive.results.size(), 8u);
  ASSERT_EQ(exhaustive.failures, 0u);
  ASSERT_GT(exhaustive.workRepetitions, 0);

  auto halvingCounters = std::make_shared<BackendCounters>();
  ExploreResult halved = runExplore(halvingOptions(halvingCounters));
  EXPECT_EQ(halved.stopReason, "complete");
  EXPECT_FALSE(halved.budgetExhausted);
  ASSERT_FALSE(halved.results.empty());
  ASSERT_FALSE(halved.rounds.empty());
  EXPECT_TRUE(halved.rounds.back().finalRound);

  // Same winner as the exhaustive sweep...
  csv::Table fullReport = topKReport(exhaustive.results, 1);
  csv::Table halvedReport = topKReport(halved.results, 1);
  ASSERT_EQ(fullReport.rowCount(), 1u);
  ASSERT_EQ(halvedReport.rowCount(), 1u);
  EXPECT_EQ(halvedReport.row(0)[1], fullReport.row(0)[1]);

  // ...for at most half the variant-measurement work, measuring strictly
  // fewer variants at full fidelity.
  EXPECT_LE(halved.workRepetitions * 2, exhaustive.workRepetitions);
  EXPECT_LT(halved.fullFidelityVariants, exhaustive.results.size());
  EXPECT_LT(halvingCounters->invokes.load(), fullCounters->invokes.load());
}

TEST(Planner, BudgetSmallerThanOneScreeningRoundReportsBestSoFar) {
  auto counters = std::make_shared<BackendCounters>();
  ExploreOptions options = halvingOptions(counters);
  options.planner.budget = parseBudget("3");  // 8 variants to screen
  ExploreResult out = runExplore(options);
  EXPECT_TRUE(out.budgetExhausted);
  EXPECT_EQ(out.stopReason, "budget exhausted (variants)");
  ASSERT_EQ(out.rounds.size(), 1u);
  EXPECT_TRUE(out.rounds[0].truncated);
  EXPECT_EQ(out.rounds[0].measured, 3u);
  EXPECT_EQ(out.results.size(), 3u);  // best-so-far: the screened prefix
  EXPECT_EQ(out.fullFidelityVariants, 0u);
  // The ranking still works on what was measured.
  EXPECT_GT(topKReport(out.results, 1).rowCount(), 0u);
}

TEST(Planner, VariantBudgetStopsBetweenRounds) {
  auto counters = std::make_shared<BackendCounters>();
  ExploreOptions options = halvingOptions(counters);
  options.planner.budget = parseBudget("8");  // exactly one screening round
  ExploreResult out = runExplore(options);
  EXPECT_TRUE(out.budgetExhausted);
  ASSERT_EQ(out.rounds.size(), 1u);
  EXPECT_FALSE(out.rounds[0].truncated);
  EXPECT_EQ(out.measured, 8u);
  EXPECT_EQ(out.results.size(), 8u);
}

TEST(Planner, AllVariantsFailingStopsWithoutSurvivors) {
  std::vector<CampaignVariant> variants = {
      {"broken_a", "asm", "not assembly at all\n", "microkernel", ""},
      {"broken_b", "asm", "neither is this\n", "microkernel", ""}};
  KernelRequest request;
  request.n = 64;
  request.arrays.push_back(ArraySpec{1024, 64, 0});
  CampaignOptions base;
  base.protocol.innerRepetitions = 1;
  base.protocol.outerRepetitions = 10;
  auto counters = std::make_shared<BackendCounters>();
  BackendFactory factory = [counters](int) {
    return std::make_unique<CountingBackend>(counters);
  };
  PlannerResult out =
      runSuccessiveHalving(variants, request, factory, base, PlannerOptions{});
  EXPECT_EQ(out.stopReason, "all variants failed");
  EXPECT_FALSE(out.budgetExhausted);
  ASSERT_EQ(out.rounds.size(), 1u);
  EXPECT_EQ(out.failures, 2u);
  for (const VariantResult& r : out.results) EXPECT_EQ(r.status, "error");
}

TEST(Planner, WarmCacheRerunPerformsZeroBackendWork) {
  std::string cacheDir = uniqueTempDir("planner_warm_cache");
  auto coldCounters = std::make_shared<BackendCounters>();
  ExploreOptions options = halvingOptions(coldCounters);
  options.useCache = true;
  options.cacheDir = cacheDir;
  ExploreResult cold = runExplore(options);
  EXPECT_EQ(cold.stopReason, "complete");
  EXPECT_GT(coldCounters->invokes.load(), 0);

  auto warmCounters = std::make_shared<BackendCounters>();
  ExploreOptions warm = halvingOptions(warmCounters);
  warm.useCache = true;
  warm.cacheDir = cacheDir;
  ExploreResult rerun = runExplore(warm);
  // Every round resolves from the cache up front: no backend is ever
  // constructed, loaded, or invoked, and the final ranking is unchanged.
  EXPECT_EQ(warmCounters->constructed.load(), 0);
  EXPECT_EQ(warmCounters->invokes.load(), 0);
  EXPECT_EQ(rerun.measured, 0u);
  EXPECT_EQ(rerun.workRepetitions, 0);
  EXPECT_EQ(rerun.cacheHits, cold.measured);
  EXPECT_EQ(rerun.stopReason, "complete");
  csv::Table coldReport = topKReport(cold.results, 1);
  csv::Table warmReport = topKReport(rerun.results, 1);
  ASSERT_GT(warmReport.rowCount(), 0u);
  EXPECT_EQ(warmReport.row(0)[1], coldReport.row(0)[1]);

  // A variant budget never truncates a warm rerun: cache hits are free.
  auto budgeted = std::make_shared<BackendCounters>();
  ExploreOptions capped = halvingOptions(budgeted);
  capped.useCache = true;
  capped.cacheDir = cacheDir;
  capped.planner.budget = parseBudget("1");
  ExploreResult cappedOut = runExplore(capped);
  EXPECT_EQ(cappedOut.stopReason, "complete");
  EXPECT_FALSE(cappedOut.budgetExhausted);
  EXPECT_EQ(budgeted->invokes.load(), 0);
}

// ---------------------------------------------------------------------------
// Static-prediction hooks: stability-reduced screening
// ---------------------------------------------------------------------------

TEST(Planner, StableVariantsScreenCheaperWithoutChangingTheWinner) {
  // Reference: halving with the cost model off, screening at 4 outer reps.
  auto plainCounters = std::make_shared<BackendCounters>();
  ExploreOptions plain = halvingOptions(plainCounters);
  plain.predict = false;
  plain.planner.screenRepetitions = 4;
  ExploreResult reference = runExplore(plain);
  ASSERT_EQ(reference.stopReason, "complete");
  ASSERT_FALSE(reference.rounds.empty());

  // Directed run: predictions on. The Figure-6 kernels are regular
  // L1-resident streaming loops (one 16 KiB array against a 32 KiB L1), so
  // every variant proves stable and screens with 1 rep instead of 4.
  auto directedCounters = std::make_shared<BackendCounters>();
  ExploreOptions directed = halvingOptions(directedCounters);
  directed.planner.screenRepetitions = 4;
  directed.planner.stableScreenRepetitions = 1;
  ExploreResult out = runExplore(directed);
  ASSERT_EQ(out.stopReason, "complete");
  ASSERT_FALSE(out.rounds.empty());

  // Same winner...
  EXPECT_EQ(topKReport(out.results, 1).row(0)[1],
            topKReport(reference.results, 1).row(0)[1]);

  // ...with >= 25% fewer fresh screening repetitions in round 0 (here it
  // is 8 vs 32, a 75% reduction) and strictly less total work.
  long long plainScreen = reference.rounds[0].workRepetitions;
  long long directedScreen = out.rounds[0].workRepetitions;
  ASSERT_GT(plainScreen, 0);
  EXPECT_LE(directedScreen * 4, plainScreen * 3);
  EXPECT_LT(out.workRepetitions, reference.workRepetitions);
  EXPECT_LT(directedCounters->invokes.load(), plainCounters->invokes.load());

  // Later rounds are untouched: the final round runs the full baseline
  // protocol either way, so the verdict fidelity is identical.
  EXPECT_TRUE(out.rounds.back().finalRound);
  EXPECT_EQ(out.rounds.back().outerRepetitions,
            reference.rounds.back().outerRepetitions);

  // Every surviving row carries its prediction.
  for (const VariantResult& r : out.results) {
    if (r.status != "ok") continue;
    EXPECT_TRUE(std::isfinite(r.predCpiLo)) << r.name;
    EXPECT_FALSE(r.predBound.empty()) << r.name;
  }
}

TEST(Planner, PredictedOrderSeedsScreeningSoBudgetCutsTheSlowTail) {
  // A 2-variant budget with predictions on must screen the two variants
  // with the lowest predicted cycles/iteration, not an arbitrary prefix.
  auto counters = std::make_shared<BackendCounters>();
  ExploreOptions options = halvingOptions(counters);
  options.planner.budget = parseBudget("2");
  ExploreResult out = runExplore(options);
  EXPECT_TRUE(out.budgetExhausted);
  ASSERT_EQ(out.results.size(), 2u);
  // Fewer micro-ops per element is never predicted slower: the screened
  // pair must be at least as fast (by prediction) as everything dropped.
  double worstKept = 0.0;
  for (const VariantResult& r : out.results) {
    ASSERT_TRUE(std::isfinite(r.predCpiLo)) << r.name;
    worstKept = std::max(worstKept, r.predCpiLo);
  }
  ExploreOptions all = halvingOptions(counters);
  all.search = SearchMode::Full;
  ExploreResult sweep = runExplore(all);
  std::vector<double> preds;
  for (const VariantResult& r : sweep.results) {
    ASSERT_TRUE(std::isfinite(r.predCpiLo)) << r.name;
    preds.push_back(r.predCpiLo);
  }
  std::sort(preds.begin(), preds.end());
  ASSERT_GE(preds.size(), 2u);
  // The worst kept prediction is no worse than the 2nd-smallest overall:
  // the budget dropped the predicted-slow tail, not an arbitrary suffix.
  EXPECT_LE(worstKept, preds[1] + 1e-12);
}

TEST(Planner, ResumesInterruptedHalvingCsv) {
  std::string csvPath = uniqueTempDir("planner_resume") + "/halving.csv";

  // The uninterrupted reference run.
  auto refCounters = std::make_shared<BackendCounters>();
  ExploreResult reference = runExplore(halvingOptions(refCounters));
  std::string winner = topKReport(reference.results, 1).row(0)[1];

  // First run: the variant budget deterministically "interrupts" the
  // search after the screening round, with every row streamed to the CSV.
  auto firstCounters = std::make_shared<BackendCounters>();
  ExploreOptions first = halvingOptions(firstCounters);
  first.planner.budget = parseBudget("8");
  {
    CampaignCsvSink sink(csvPath);
    ExploreResult out = runExplore(first, &sink);
    EXPECT_TRUE(out.budgetExhausted);
  }

  // Second run resumes the file: round 0 is backfilled from the CSV (not
  // re-measured), later rounds run fresh, and the winner matches the
  // uninterrupted search.
  auto secondCounters = std::make_shared<BackendCounters>();
  ExploreOptions second = halvingOptions(secondCounters);
  second.planner.resumeCsv = csvPath;
  ExploreResult resumed;
  {
    CampaignCsvSink sink(csvPath);
    resumed = runExplore(second, &sink);
  }
  EXPECT_EQ(resumed.stopReason, "complete");
  EXPECT_EQ(resumed.skipped, 8u);  // the whole screening round came back
  EXPECT_LT(secondCounters->invokes.load(), refCounters->invokes.load());
  EXPECT_EQ(topKReport(resumed.results, 1).row(0)[1], winner);
  EXPECT_EQ(resumed.workRepetitions + 8, reference.workRepetitions);

  // Resume never duplicates rows: every (round, sequence) pair is unique.
  std::ifstream in(csvPath, std::ios::binary);
  std::string line;
  std::set<std::pair<std::string, std::string>> seen;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty() || strings::startsWith(line, "#")) continue;
    std::vector<std::string> cells = csv::parseLine(line);
    ASSERT_GE(cells.size(), 2u);
    EXPECT_TRUE(seen.insert({cells[1], cells[0]}).second)
        << "duplicate row for round " << cells[1] << " sequence " << cells[0];
  }
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(reference.measured));
}

}  // namespace
}  // namespace microtools::launcher
