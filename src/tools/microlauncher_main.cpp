// The `microlauncher` command-line tool: executes kernels in a stable,
// controlled environment and reports cycles/iteration as CSV (§4).

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "launcher/arch_registry.hpp"
#include "launcher/campaign.hpp"
#include "launcher/launcher.hpp"
#include "launcher/options.hpp"
#include "launcher/planner.hpp"
#include "launcher/predict.hpp"
#include "launcher/remote_store.hpp"
#include "launcher/sim_backend.hpp"
#include "native/affinity.hpp"
#include "native/compile.hpp"
#include "native/native_backend.hpp"
#include "native/timing.hpp"
#include "support/envinfo.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

using namespace microtools;
using launcher::LauncherOptions;

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw McError("cannot open input file: " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

std::string detectKind(const LauncherOptions& options) {
  if (options.inputKind != "auto") return options.inputKind;
  if (strings::endsWith(options.inputFile, ".s")) return "asm";
  if (strings::endsWith(options.inputFile, ".c")) return "c";
  if (strings::endsWith(options.inputFile, ".so")) return "so";
  return "asm";
}

std::unique_ptr<launcher::Backend> makeBackend(const LauncherOptions& o) {
  if (o.backend == "native") {
    native::NativeBackendOptions nb;
    nb.compileCacheDir = o.compileCacheDir;
    nb.perfCounters = o.perfCounters;
    return std::make_unique<native::NativeBackend>(std::move(nb));
  }
  sim::MachineConfig config = launcher::archByName(o.arch).config;
  if (o.coreGHz) config.coreGHz = *o.coreGHz;
  return std::make_unique<launcher::SimBackend>(config);
}

std::unique_ptr<launcher::KernelHandle> loadKernel(
    launcher::Backend& backend, const LauncherOptions& options) {
  std::string kind = detectKind(options);
  if (kind == "asm") {
    return backend.load(readFile(options.inputFile), options.function);
  }
  auto* nb = dynamic_cast<native::NativeBackend*>(&backend);
  if (!nb) {
    throw McError("input kind '" + kind +
                  "' requires --backend native (the simulator executes "
                  "assembly kernels)");
  }
  if (kind == "c") {
    return nb->loadCSource(readFile(options.inputFile), options.function);
  }
  if (kind == "so") {
    return nb->loadSharedObject(options.inputFile, options.function);
  }
  throw McError("unknown input kind: " + kind);
}

int runStandalone(const LauncherOptions& options) {
  // §4.1: "In the case of an application, MicroLauncher forks its execution
  // to run the program as a stand-alone application and times it."
  int processes = std::max(1, options.processes);
  std::uint64_t t0 = native::readTsc();
  std::vector<pid_t> pids;
  for (int p = 0; p < processes; ++p) {
    pid_t pid = fork();
    if (pid < 0) throw McError("fork failed");
    if (pid == 0) {
      native::pinToCore(p);
      execl("/bin/sh", "sh", "-c", options.standaloneProgram.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    pids.push_back(pid);
  }
  int failures = 0;
  for (pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failures;
  }
  std::uint64_t t1 = native::readTsc();
  std::printf("processes,%d\nelapsed_tsc_cycles,%llu\nfailures,%d\n",
              processes, static_cast<unsigned long long>(t1 - t0), failures);
  return failures == 0 ? 0 : 1;
}

int runCampaign(const LauncherOptions& options) {
  std::vector<launcher::CampaignVariant> variants =
      launcher::loadCampaignDirectory(options.campaignDir, options.function);

  launcher::CampaignOptions campaign;
  campaign.jobs = options.jobs;
  campaign.protocol = options.toProtocol();
  campaign.maxCv = options.maxCv;
  campaign.maxRepetitions = options.maxRepetitions;
  campaign.variantTimeoutMs = options.variantTimeoutMs;
  campaign.compileJobs = options.compileJobs;
  campaign.compileBatch = options.compileBatch;
  campaign.verify = launcher::verifyModeFromName(options.verifyMode);
  // Native workers time on real cores: spread them so they don't fight
  // over one. The simulator pins inside its own machine model instead.
  campaign.pinWorkers = options.backend == "native";

  // Static cost-model annotation (pred_cpi_lo/pred_bound/pred_err CSV
  // columns), priced against --arch; --no-predict turns it off.
  std::shared_ptr<launcher::StaticAnnotator> annotator;
  if (options.predict) {
    annotator =
        launcher::makeStaticAnnotator(options.arch, options.toRequest());
  }
  launcher::installPredict(campaign, annotator);

  bool halving = options.searchMode == "halving";
  if (!options.connectAddr.empty() && halving) {
    throw McError(
        "--connect requires the full sweep: the halving planner adapts the "
        "protocol per round, which sharded workers cannot coordinate");
  }

  // Resuming into an existing CSV: rows already completed there are
  // skipped, so an interrupted campaign restart pays only for what is
  // missing. A halving search resumes per round instead — the planner
  // reads the file round by round.
  if (!options.csvOutput.empty() && !halving) {
    campaign.completed = launcher::readCompletedVariants(options.csvOutput);
  }

  // Stream rows as variants finish — to the CSV file when given (append-safe
  // across reruns), to stdout otherwise.
  std::unique_ptr<launcher::CampaignCsvSink> sink;
  if (!options.csvOutput.empty()) {
    // New files get an environment-snapshot preamble so two campaign CSVs
    // are comparable on their face (bench-diff reports drift).
    env::EnvSnapshot snapshot = env::captureEnv();
    if (options.backend == "native") {
      snapshot.set("compiler",
                   native::compilerIdentity(options.compileCacheDir));
    }
    sink = std::make_unique<launcher::CampaignCsvSink>(
        options.csvOutput, env::toCsvComments(snapshot));
  } else {
    sink = std::make_unique<launcher::CampaignCsvSink>(std::cout);
  }

  launcher::BackendFactory factory = [&options](int) {
    return makeBackend(options);
  };

  std::vector<launcher::VariantResult> results;
  if (!options.connectAddr.empty()) {
    // Sharded worker against a `microtools serve` daemon. The backend
    // identity mirrors the explore driver's so both kinds of worker (and a
    // single-process run over the daemon's cache directory) share keys.
    std::string backendId = options.backend == "sim"
                                ? "sim:" + options.arch
                                : options.backend;
    if (options.coreGHz) {
      backendId += strings::format("@%.3fGHz", *options.coreGHz);
    }
    launcher::RemoteOptions remote;
    remote.worker = options.workerName;
    remote.jobs = campaign.jobs;
    std::shared_ptr<launcher::RemoteResultStore> store =
        launcher::bindRemoteCampaign(options.connectAddr, remote, variants,
                                     backendId, options.toRequest(),
                                     campaign);
    launcher::CampaignRunner runner(factory, campaign);
    // Rotated traversal: the daemon's joining ordinal staggers where each
    // fleet member starts, so workers lease disjoint stretches; the row
    // observer rewrites sequences back to the canonical order.
    std::size_t offset =
        launcher::shardOffset(store->ordinal(), variants.size());
    std::size_t next = 0;
    results = runner.run(
        [&variants, &next, offset]() -> std::optional<launcher::CampaignVariant> {
          if (next >= variants.size()) return std::nullopt;
          return variants[(offset + next++) % variants.size()];
        },
        options.toRequest(), sink.get());
    const launcher::CacheTelemetry t = store->telemetry();
    std::fprintf(stderr, "service: %s (%llu hit(s), %llu lease(s) "
                 "measured)\n",
                 options.connectAddr.c_str(),
                 static_cast<unsigned long long>(t.hits),
                 static_cast<unsigned long long>(t.misses));
  } else if (halving) {
    launcher::PlannerOptions planner;
    planner.screenRepetitions = options.screenRepetitions;
    planner.stableScreenRepetitions = options.stableScreenRepetitions;
    planner.budget = launcher::parseBudget(options.budget);
    if (!options.csvOutput.empty()) planner.resumeCsv = options.csvOutput;
    launcher::installPlannerHooks(planner, annotator);
    launcher::PlannerResult planned = launcher::runSuccessiveHalving(
        variants, options.toRequest(), factory, campaign, planner,
        /*bindCache=*/nullptr, sink.get());
    results = std::move(planned.results);
    if (!options.csvOutput.empty()) {
      std::printf("halving: %zu of %zu variant(s) at full fidelity after "
                  "%zu round(s), %lld work repetition(s), stop: %s\n",
                  planned.fullFidelityVariants, variants.size(),
                  planned.rounds.size(), planned.workRepetitions,
                  planned.stopReason.c_str());
    }
  } else {
    launcher::CampaignRunner runner(factory, campaign);
    results = runner.run(variants, options.toRequest(), sink.get());
  }

  int failures = 0, skipped = 0;
  for (const launcher::VariantResult& r : results) {
    if (r.status == "skipped") {
      ++skipped;
    } else if (r.status != "ok") {
      ++failures;
    }
  }
  if (!options.csvOutput.empty()) {
    std::printf("campaign: %zu variant(s), %d skipped (resumed or failed "
                "verification), %d failed\n",
                results.size(), skipped, failures);
  }
  if (failures > 0) {
    log::warn(std::to_string(failures) + " of " +
              std::to_string(results.size()) + " variants did not complete");
  }
  return 0;
}

void emitCsv(const LauncherOptions& options, const csv::Table& table) {
  if (options.csvOutput.empty()) {
    table.write(std::cout);
    return;
  }
  std::ofstream out(options.csvOutput, std::ios::binary);
  if (!out) throw McError("cannot write CSV file: " + options.csvOutput);
  table.write(out);
}

}  // namespace

int main(int argc, char** argv) {
  cli::Parser parser = launcher::makeLauncherParser();
  try {
    if (!parser.parse(argc, argv)) return 0;
    LauncherOptions options = launcher::optionsFromParser(parser);
    if (options.verbose) log::setLevel(log::Level::Info);

    if (options.listArch) {
      for (const launcher::ArchEntry& entry : launcher::table1()) {
        std::string figs;
        for (int f : entry.figures) {
          figs += (figs.empty() ? "" : ", ") + std::to_string(f);
        }
        std::printf("%-22s %s [figures %s]\n", entry.config.name.c_str(),
                    entry.description.c_str(), figs.c_str());
      }
      return 0;
    }
    if (!options.standaloneProgram.empty()) return runStandalone(options);
    if (!options.campaignDir.empty()) return runCampaign(options);
    if (options.inputFile.empty()) {
      std::fprintf(stderr, "error: no --input kernel (see --help)\n");
      return 2;
    }

    launcher::MicroLauncher ml(makeBackend(options));
    auto kernel = loadKernel(ml.backend(), options);
    launcher::KernelRequest request = options.toRequest();
    launcher::ProtocolOptions protocol = options.toProtocol();

    if (options.useOpenMp) {
      launcher::InvokeResult r = ml.openmp(*kernel, request, options.threads,
                                           options.ompRepetitions);
      csv::Table table({"threads", "repetitions", "tsc_cycles", "iterations",
                        "cycles_per_iteration"});
      table.beginRow()
          .add(options.threads)
          .add(options.ompRepetitions)
          .add(r.tscCycles, 0)
          .add(static_cast<std::uint64_t>(r.iterations))
          .add(r.iterations ? r.tscCycles / static_cast<double>(r.iterations)
                            : 0.0)
          .commit();
      emitCsv(options, table);
      return 0;
    }

    if (options.processes > 1) {
      auto results = ml.fork(*kernel, request, options.processes,
                             options.forkCalls,
                             options.pinPolicy == "compact"
                                 ? launcher::PinPolicy::Compact
                                 : launcher::PinPolicy::Scatter);
      csv::Table table({"process", "tsc_cycles", "iterations",
                        "cycles_per_iteration"});
      for (std::size_t p = 0; p < results.size(); ++p) {
        table.beginRow()
            .add(static_cast<std::uint64_t>(p))
            .add(results[p].tscCycles, 0)
            .add(static_cast<std::uint64_t>(results[p].iterations))
            .add(results[p].iterations
                     ? results[p].tscCycles /
                           static_cast<double>(results[p].iterations)
                     : 0.0)
            .commit();
      }
      emitCsv(options, table);
      return 0;
    }

    if (options.sweepAlignment) {
      launcher::AlignmentSweepSpec spec;
      spec.minOffset = options.alignMin;
      spec.maxOffset = options.alignMax;
      spec.step = options.alignStep;
      spec.maxConfigs = options.maxAlignConfigs;
      auto samples = ml.alignmentSweep(*kernel, request, spec, protocol);
      std::vector<std::string> header;
      for (std::size_t a = 0; a < request.arrays.size(); ++a) {
        header.push_back("offset" + std::to_string(a));
      }
      header.insert(header.end(),
                    {"cycles_per_iteration_min", "cycles_per_iteration_max"});
      csv::Table table(header);
      for (const auto& sample : samples) {
        auto row = table.beginRow();
        for (std::uint64_t off : sample.offsets) row.add(off);
        row.add(sample.measurement.cyclesPerIteration.min)
            .add(sample.measurement.cyclesPerIteration.max)
            .commit();
      }
      emitCsv(options, table);
      return 0;
    }

    launcher::Measurement m = ml.measure(*kernel, request, protocol);
    if (options.reportFullKernelTime) {
      csv::Table table({"configuration", "total_tsc_cycles"});
      table.beginRow().add(options.inputFile).add(m.totalCycles, 0).commit();
      emitCsv(options, table);
    } else {
      emitCsv(options, launcher::MicroLauncher::toCsv(
                           {{options.inputFile, m}}));
    }
    return 0;
  } catch (const McError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
