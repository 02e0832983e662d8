// The `microlauncher` command-line tool: executes kernels in a stable,
// controlled environment and reports cycles/iteration as CSV (§4).

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "launcher/arch_registry.hpp"
#include "launcher/campaign_flags.hpp"
#include "launcher/launcher.hpp"
#include "launcher/options.hpp"
#include "native/affinity.hpp"
#include "native/native_backend.hpp"
#include "native/timing.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "tools/campaign_front.hpp"

using namespace microtools;
using launcher::CampaignFlags;
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

/// The request every mode runs: the shared launch geometry over the
/// launcher's own array count, per-array sizes and pinned core.
launcher::KernelRequest toRequest(const LauncherOptions& options,
                                  const CampaignFlags& flags) {
  launcher::KernelRequest request = launcher::buildRequest(
      flags.sweep, options.nbVectors, options.arrayBytesPerVector);
  request.core = options.pinCore;
  return request;
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

int runCampaign(const LauncherOptions& options, CampaignFlags& flags) {
  std::vector<launcher::CampaignVariant> variants =
      launcher::loadCampaignDirectory(options.campaignDir, options.function);
  // Rows stream as variants finish: to the --csv file when given
  // (append-safe across reruns), to stdout otherwise.
  std::unique_ptr<launcher::CampaignCsvSink> sink =
      tools::openCampaignCsv(flags);
  if (!sink) sink = std::make_unique<launcher::CampaignCsvSink>(std::cout);
  flags.sweep.useCache = false;
  launcher::ExploreResult result =
      launcher::runSweep(std::move(variants), toRequest(options, flags),
                         flags.sweep, sink.get());

  bool toFile = !flags.csvPath.empty();
  if (!flags.sweep.connectAddr.empty()) {
    const launcher::CacheTelemetry& t = result.cacheTelemetry;
    std::fprintf(stderr, "service: %s (%llu hit(s), %llu lease(s) "
                 "measured)\n",
                 flags.sweep.connectAddr.c_str(),
                 static_cast<unsigned long long>(t.hits),
                 static_cast<unsigned long long>(t.misses));
  } else if (flags.sweep.search == launcher::SearchMode::Halving && toFile) {
    std::printf("halving: %zu of %zu variant(s) at full fidelity after "
                "%zu round(s), %lld work repetition(s), stop: %s\n",
                result.fullFidelityVariants, result.generated,
                result.rounds.size(), result.workRepetitions,
                result.stopReason.c_str());
  }

  int failures = 0, skipped = 0;
  for (const launcher::VariantResult& r : result.results) {
    if (r.status == "skipped") {
      ++skipped;
    } else if (r.status != "ok") {
      ++failures;
    }
  }
  if (toFile) {
    std::printf("campaign: %zu variant(s), %d skipped (resumed or failed "
                "verification), %d failed\n",
                result.results.size(), skipped, failures);
  }
  if (failures > 0) {
    log::warn(std::to_string(failures) + " of " +
              std::to_string(result.results.size()) +
              " variants did not complete");
  }
  return 0;
}

void emitCsv(const CampaignFlags& flags, const csv::Table& table) {
  if (flags.csvPath.empty()) {
    table.write(std::cout);
    return;
  }
  std::ofstream out(flags.csvPath, std::ios::binary);
  if (!out) throw McError("cannot write CSV file: " + flags.csvPath);
  table.write(out);
}

}  // namespace

int main(int argc, char** argv) {
  cli::Parser parser = launcher::makeLauncherParser();
  try {
    if (!parser.parse(argc, argv)) return 0;
    LauncherOptions options = launcher::optionsFromParser(parser);
    CampaignFlags flags = launcher::campaignFlagsFrom(parser);
    if (flags.verbose) log::setLevel(log::Level::Info);
    tools::bindNativeBackend(flags);

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
    if (!options.campaignDir.empty()) return runCampaign(options, flags);
    if (options.inputFile.empty()) {
      std::fprintf(stderr, "error: no --input kernel (see --help)\n");
      return 2;
    }

    launcher::MicroLauncher ml(launcher::sweepBackendFactory(flags.sweep)(0));
    auto kernel = loadKernel(ml.backend(), options);
    launcher::KernelRequest request = toRequest(options, flags);
    const launcher::ProtocolOptions& protocol = flags.sweep.campaign.protocol;

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
      emitCsv(flags, table);
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
      emitCsv(flags, table);
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
      emitCsv(flags, table);
      return 0;
    }

    launcher::Measurement m = ml.measure(*kernel, request, protocol);
    if (options.reportFullKernelTime) {
      csv::Table table({"configuration", "total_tsc_cycles"});
      table.beginRow().add(options.inputFile).add(m.totalCycles, 0).commit();
      emitCsv(flags, table);
    } else {
      emitCsv(flags, launcher::MicroLauncher::toCsv(
                           {{options.inputFile, m}}));
    }
    return 0;
  } catch (const McError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
