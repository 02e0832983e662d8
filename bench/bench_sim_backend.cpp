// Throughput bench of the simulated backend's fast path: runs the same
// cold-cache exploration twice — once with warm-invoke memoization (the
// default), once with `--sim-exact` full cycle simulation — and reports
// wall-clock seconds, variants/second, the speedup, and whether the two
// runs were bit-identical (they must be; the fast path is an
// exactness-preserving optimization, see DESIGN.md "Warm-invoke
// memoization").
//
// Emits BENCH_sim_backend.json next to the working directory for CI's
// regression gate, and exits non-zero if bit-identity is violated.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "launcher/explore.hpp"

using namespace microtools;

namespace {

double secondsOf(launcher::ExploreResult& out,
                 const launcher::ExploreOptions& options) {
  auto t0 = std::chrono::steady_clock::now();
  out = launcher::runExplore(options);
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

bool bitIdentical(const launcher::ExploreResult& a,
                  const launcher::ExploreResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const launcher::VariantResult& x = a.results[i];
    const launcher::VariantResult& y = b.results[i];
    if (x.name != y.name || x.status != y.status) return false;
    if (x.repetitions != y.repetitions || x.converged != y.converged) {
      return false;
    }
    // Exact floating-point comparison on purpose: the fast path promises
    // the same bits, not "close enough".
    if (x.measurement.cyclesPerIteration.min !=
            y.measurement.cyclesPerIteration.min ||
        x.measurement.cyclesPerIteration.mean !=
            y.measurement.cyclesPerIteration.mean ||
        x.measurement.cyclesPerIteration.cv !=
            y.measurement.cyclesPerIteration.cv ||
        x.measurement.totalCycles != y.measurement.totalCycles ||
        x.measurement.iterationsPerCall != y.measurement.iterationsPerCall) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string description = argc > 1
                                ? argv[1]
                                : "examples/descriptions/loadstore_small.xml";
  std::string jsonPath = argc > 2 ? argv[2] : "BENCH_sim_backend.json";

  launcher::ExploreOptions options;
  options.descriptionFile = description;
  options.useCache = false;  // cold end-to-end cost is what we measure

  bench::header("sim backend throughput (fast vs --sim-exact)", options.arch,
                "warm-invoke memoization gives a >= 10x cold-cache speedup "
                "with bit-identical results");

  launcher::ExploreResult fast, exact;
  options.simExact = false;
  double fastSeconds = secondsOf(fast, options);
  options.simExact = true;
  double exactSeconds = secondsOf(exact, options);

  std::size_t variants = fast.results.size();
  double speedup = fastSeconds > 0 ? exactSeconds / fastSeconds : 0.0;
  bool identical = bitIdentical(fast, exact);

  std::printf("variants: %zu\n", variants);
  std::printf("fast:  %.3f s  (%.2f variants/s)\n", fastSeconds,
              fastSeconds > 0 ? variants / fastSeconds : 0.0);
  std::printf("exact: %.3f s  (%.2f variants/s)\n", exactSeconds,
              exactSeconds > 0 ? variants / exactSeconds : 0.0);
  std::printf("speedup: %.2fx\n", speedup);
  bench::expectShape(identical, "fast-path results bit-identical to exact");
  bench::expectShape(speedup >= 10.0, "fast path >= 10x faster than exact");

  // Successive-halving search on the same description: same winner as the
  // exhaustive sweep for a fraction of the variant-measurement work.
  launcher::ExploreResult halved;
  options.simExact = false;
  options.search = launcher::SearchMode::Halving;
  double halvingSeconds = secondsOf(halved, options);
  double workRatio =
      fast.workRepetitions > 0
          ? static_cast<double>(halved.workRepetitions) /
                static_cast<double>(fast.workRepetitions)
          : 0.0;
  csv::Table fullTop = launcher::topKReport(fast.results, 1);
  csv::Table halvedTop = launcher::topKReport(halved.results, 1);
  bool sameWinner = fullTop.rowCount() == 1 && halvedTop.rowCount() == 1 &&
                    fullTop.row(0)[1] == halvedTop.row(0)[1];

  std::printf("halving: %.3f s, %lld of %lld work repetitions (%.0f%%), "
              "stop: %s\n",
              halvingSeconds, halved.workRepetitions, fast.workRepetitions,
              workRatio * 100.0, halved.stopReason.c_str());
  bench::expectShape(sameWinner, "halving selects the exhaustive top-1");
  bench::expectShape(workRatio <= 0.5,
                     "halving does <= 50% of the exhaustive work");

  std::ofstream json(jsonPath, std::ios::binary);
  json.setf(std::ios::fixed);
  json.precision(6);
  json << "{\n"
       << "  \"description\": \"" << description << "\",\n"
       << "  \"variants\": " << variants << ",\n"
       << "  \"fast_seconds\": " << fastSeconds << ",\n"
       << "  \"exact_seconds\": " << exactSeconds << ",\n"
       << "  \"fast_variants_per_sec\": "
       << (fastSeconds > 0 ? variants / fastSeconds : 0.0) << ",\n"
       << "  \"exact_variants_per_sec\": "
       << (exactSeconds > 0 ? variants / exactSeconds : 0.0) << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"halving_seconds\": " << halvingSeconds << ",\n"
       << "  \"halving_work_repetitions\": " << halved.workRepetitions
       << ",\n"
       << "  \"exhaustive_work_repetitions\": " << fast.workRepetitions
       << ",\n"
       << "  \"halving_work_ratio\": " << workRatio << ",\n"
       << "  \"halving_same_winner\": " << (sameWinner ? "true" : "false")
       << ",\n"
       << "  \"env\": " << bench::envJsonObject() << "\n"
       << "}\n";
  std::printf("wrote %s\n", jsonPath.c_str());

  bench::finish();
  // Bit-identity is a hard contract, not a shape expectation: fail the run.
  return identical ? 0 : 1;
}
