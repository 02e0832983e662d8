// The `microtools` command-line driver: subcommands that combine both halves
// of the toolchain. `microtools explore` is the paper's full loop in one
// command — MicroCreator generates every variant in memory, MicroLauncher
// measures them, and a content-addressed cache makes reruns pay only for
// new work.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "creator/creator.hpp"
#include "launcher/arch_registry.hpp"
#include "launcher/bench_diff.hpp"
#include "launcher/campaign_flags.hpp"
#include "launcher/explore.hpp"
#include "launcher/serve.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "verify/costmodel.hpp"
#include "verify/stability.hpp"
#include "tools/campaign_front.hpp"
#include "verify/verify.hpp"

using namespace microtools;

namespace {

void printUsage() {
  std::printf(
      "usage: microtools <subcommand> [options]\n"
      "\n"
      "subcommands:\n"
      "  explore   generate every variant of an XML kernel description and\n"
      "            measure them in one run, with a content-addressed result\n"
      "            cache (use `microtools explore --help` for options)\n"
      "  lint      statically verify kernel assembly (.s files, or every\n"
      "            variant generated from an XML description) against the\n"
      "            MT-* rule catalog without executing anything (use\n"
      "            `microtools lint --help` for options)\n"
      "  analyze   statically predict each kernel's cycles/iteration lower\n"
      "            bound from the port-level cost model (frontend, port\n"
      "            pressure, dependence recurrence) plus its stability\n"
      "            verdict, without executing anything (use `microtools\n"
      "            analyze --help` for options)\n"
      "  bench-diff  compare two campaign CSV files variant by variant with\n"
      "            a noise-aware regression threshold; exits nonzero when a\n"
      "            regression exceeds the combined measurement noise (use\n"
      "            `microtools bench-diff --help` for options)\n"
      "  serve     run the campaign-service daemon: owns the shared\n"
      "            measurement cache, hands out work leases to `explore\n"
      "            --connect` workers, and merges their rows into one\n"
      "            canonical CSV + ranked report (use `microtools serve\n"
      "            --help` for options)\n");
}

cli::Parser makeExploreParser() {
  cli::Parser parser(
      "microtools explore",
      "Generates all variants of an XML kernel description, measures them "
      "in-memory as one campaign, and reports the top-K fastest. A "
      "content-addressed cache skips every measurement already on disk.");
  parser.addString("input", "XML kernel description file");
  parser.addInt("nbvectors",
                "Arrays passed to the kernel (0 = derive from the generated "
                "programs)",
                0);
  parser.addInt("max", "Override <maximum_benchmarks>");
  parser.addInt("seed", "Override <seed>");
  parser.addString("cache", "Measurement cache directory",
                   ".microtools-cache");
  parser.addFlag("no-cache", "Disable the measurement cache");
  parser.addFlag("sim-exact",
                 "Force full cycle simulation of every invoke (no "
                 "warm-invoke memoization); bit-identical, only slower");
  parser.addInt("top", "Rank the K best variants (0 = all)", 10);
  parser.addString("report", "Write the ranked report here instead of stdout");
  launcher::addCampaignFlags(parser);
  return parser;
}

// argv[0] is the subcommand name itself; Parser::parse skips it.
int runExploreCommand(int argc, char** argv) {
  cli::Parser parser = makeExploreParser();
  if (!parser.parse(argc, argv)) return 0;  // --help handled

  launcher::CampaignFlags flags = launcher::campaignFlagsFrom(parser);
  launcher::ExploreOptions& options = flags.sweep;
  if (parser.has("input")) {
    options.descriptionFile = parser.getString("input");
  } else if (!parser.positional().empty()) {
    options.descriptionFile = parser.positional().front();
  } else {
    std::fprintf(stderr, "error: no kernel description (see --help)\n");
    return 2;
  }
  options.nbVectors = static_cast<int>(parser.getInt("nbvectors"));
  if (parser.has("max")) {
    options.maxVariants = static_cast<std::size_t>(parser.getInt("max"));
  }
  if (parser.has("seed")) {
    options.seed = static_cast<std::uint64_t>(parser.getInt("seed"));
  }
  options.cacheDir = parser.getString("cache");
  options.useCache = !parser.getFlag("no-cache");
  options.simExact = parser.getFlag("sim-exact");
  if (flags.verbose) log::setLevel(log::Level::Info);
  // One --cache flag governs both caches: the compile cache defaults to a
  // "so" subdirectory of the measurement cache, off under --no-cache.
  if (!parser.has("compile-cache-dir") && options.useCache) {
    flags.compileCacheDir = options.cacheDir + "/so";
  }
  tools::bindNativeBackend(flags);
  std::unique_ptr<launcher::CampaignCsvSink> sink =
      tools::openCampaignCsv(flags);

  launcher::ExploreResult result =
      launcher::runExplore(options, sink.get());

  csv::Table report =
      launcher::topKReport(result.results,
                           static_cast<int>(parser.getInt("top")));
  if (parser.has("report")) {
    std::ofstream out(parser.getString("report"), std::ios::binary);
    if (!out) {
      throw McError("cannot write report file: " +
                    parser.getString("report"));
    }
    report.write(out);
  } else {
    report.write(std::cout);
  }

  std::printf(
      "explored %zu variant(s) on %s: %zu cache hit(s), %zu measured, "
      "%zu skipped, %zu failure(s)\n",
      options.search == launcher::SearchMode::Halving ? result.generated
                                                      : result.results.size(),
      result.backendId.c_str(), result.cacheHits, result.measured,
      result.skipped, result.failures);
  if (options.search == launcher::SearchMode::Halving) {
    std::printf(
        "halving: %zu of %zu variant(s) at full fidelity after %zu "
        "round(s), %lld work repetition(s), stop: %s\n",
        result.fullFidelityVariants, result.generated, result.rounds.size(),
        result.workRepetitions, result.stopReason.c_str());
  }
  if (!options.connectAddr.empty()) {
    // In connect mode the daemon owns the cache; the worker-side telemetry
    // counts acquires answered inline (hits) vs leases this worker measured.
    const launcher::CacheTelemetry& t = result.cacheTelemetry;
    std::printf("service: %s (%llu hit(s), %llu lease(s) measured)\n",
                options.connectAddr.c_str(),
                static_cast<unsigned long long>(t.hits),
                static_cast<unsigned long long>(t.misses));
  } else if (options.useCache) {
    const launcher::CacheTelemetry& t = result.cacheTelemetry;
    std::printf("cache: %s (%llu hit(s), %llu miss(es), %llu corrupt, "
                "%llu record file read(s))\n",
                options.cacheDir.c_str(),
                static_cast<unsigned long long>(t.hits),
                static_cast<unsigned long long>(t.misses),
                static_cast<unsigned long long>(t.corrupt),
                static_cast<unsigned long long>(t.recordFileReads));
  }
  return result.failures == 0 ? 0 : 1;
}

cli::Parser makeLintParser() {
  cli::Parser parser(
      "microtools lint",
      "Statically verifies kernel assembly against the MT-* rule catalog "
      "(control flow and loop termination, SysV ABI compliance, register "
      "def/use dataflow, symbolic bounds and alignment of every array "
      "access) without assembling or executing anything. Inputs are .s "
      "files, or .xml descriptions whose generated variants are each "
      "verified. Exits 0 when no error-level diagnostic was reported, 1 "
      "otherwise.");
  parser.addString("input", "Kernel assembly (.s) or description (.xml); "
                            "extra positional paths are linted too");
  parser.addFlag("json", "Emit one JSON object per diagnostic (JSON lines)");
  parser.addInt("nbvectors",
                "Arrays passed to the kernel (0 = derive from the generated "
                "program, or assume the SysV maximum for .s files)",
                0);
  launcher::addGeometryFlags(parser);
  parser.addFlag("verbose", "Enable info logging");
  return parser;
}

int runLintCommand(int argc, char** argv) {
  cli::Parser parser = makeLintParser();
  if (!parser.parse(argc, argv)) return 0;  // --help handled

  std::vector<std::string> inputs = parser.positional();
  if (parser.has("input")) {
    inputs.insert(inputs.begin(), parser.getString("input"));
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "error: no input (.s or .xml) to lint "
                         "(see --help)\n");
    return 2;
  }
  if (parser.getFlag("verbose")) log::setLevel(log::Level::Info);

  bool json = parser.getFlag("json");
  launcher::KernelGeometry geometry = launcher::geometryFrom(parser);
  int nbVectors = static_cast<int>(parser.getInt("nbvectors"));
  std::int64_t tripCount =
      geometry.tripCount
          ? *geometry.tripCount
          : static_cast<std::int64_t>(geometry.arrayBytes /
                                      geometry.elementBytes);

  std::size_t totalErrors = 0;
  std::size_t totalWarnings = 0;
  std::size_t totalUnits = 0;

  // Lints one assembly unit under the same launch geometry the explore
  // driver would use (so lint verdicts match the campaign pre-flight).
  auto lintUnit = [&](const std::string& label, const std::string& asmText,
                      int arrayCount) {
    verify::VerifyOptions options;
    if (arrayCount > 0) options.arrayCount = arrayCount;
    verify::LaunchContext context;
    context.tripCount = tripCount;
    int arrays = arrayCount > 0 ? arrayCount : 5;
    for (int i = 0; i < arrays; ++i) {
      context.arrays.push_back(verify::ArrayExtent{geometry.arrayBytes,
                                                   geometry.alignment,
                                                   geometry.alignOffset});
    }
    options.context = std::move(context);
    verify::VerifyReport report = verify::verifyAssembly(asmText, options);
    totalErrors += report.errorCount();
    totalWarnings += report.warningCount();
    ++totalUnits;
    std::string rendered = json ? verify::renderJsonLines(report, label)
                                : verify::renderText(report, label);
    std::fputs(rendered.c_str(), stdout);
  };

  for (const std::string& path : inputs) {
    if (strings::endsWith(path, ".xml")) {
      creator::MicroCreator creator;
      // The pipeline's own Verification pass would silently drop the very
      // variants lint exists to report on; run the raw emitted programs.
      creator.passManager().removePass("Verification");
      std::vector<creator::GeneratedProgram> programs =
          creator.generateFromFile(path);
      for (const creator::GeneratedProgram& p : programs) {
        int arrays = nbVectors > 0 ? nbVectors : p.arrayCount;
        lintUnit(path + ":" + p.name, p.asmText, arrays);
      }
    } else {
      std::ifstream in(path, std::ios::binary);
      if (!in) throw McError("cannot open input file: " + path);
      std::ostringstream oss;
      oss << in.rdbuf();
      lintUnit(path, oss.str(), nbVectors);
    }
  }
  if (!json) {
    std::printf("lint: %zu unit(s), %zu error(s), %zu warning(s)\n",
                totalUnits, totalErrors, totalWarnings);
  }
  return totalErrors == 0 ? 0 : 1;
}

cli::Parser makeAnalyzeParser() {
  cli::Parser parser(
      "microtools analyze",
      "Statically predicts each kernel's steady-state cycles/iteration "
      "lower bound from the port-level cost model: the dispatch-width "
      "(frontend), port-pressure (throughput) and dependence-recurrence "
      "(latency) bounds, the binding resource, and the muOpTime-style "
      "stability verdict the halving planner uses to cut screening "
      "repetitions. Inputs are .s files, or .xml descriptions whose "
      "generated variants are each analyzed. Nothing is assembled or "
      "executed. Exits 0 when every unit got a valid bound, 1 otherwise.");
  parser.addString("input", "Kernel assembly (.s) or description (.xml); "
                            "extra positional paths are analyzed too");
  parser.addString("arch",
                   "Machine whose port geometry and L1 size the bounds are "
                   "priced against (see microlauncher --list-arch)",
                   "nehalem_x5650_2s");
  parser.addInt("nbvectors",
                "Arrays passed to the kernel (0 = derive from the generated "
                "program; bare .s files then score fits_l1 as unknown)",
                0);
  parser.addInt("array-bytes", "Size of each array in bytes", 1 << 20);
  parser.addFlag("json", "Emit one JSON object per analyzed unit "
                         "(JSON lines)");
  parser.addFlag("verbose", "Enable info logging");
  return parser;
}

std::string analyzeJsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strings::format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

int runAnalyzeCommand(int argc, char** argv) {
  cli::Parser parser = makeAnalyzeParser();
  if (!parser.parse(argc, argv)) return 0;  // --help handled

  std::vector<std::string> inputs = parser.positional();
  if (parser.has("input")) {
    inputs.insert(inputs.begin(), parser.getString("input"));
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "error: no input (.s or .xml) to analyze "
                         "(see --help)\n");
    return 2;
  }
  if (parser.getFlag("verbose")) log::setLevel(log::Level::Info);

  bool json = parser.getFlag("json");
  auto arrayBytes = static_cast<std::uint64_t>(parser.getInt("array-bytes"));
  int nbVectors = static_cast<int>(parser.getInt("nbvectors"));
  verify::CoreModel model = verify::coreModelFromMachine(
      launcher::archByName(parser.getString("arch")).config);

  std::size_t totalUnits = 0;
  std::size_t unbounded = 0;  // units without a valid prediction
  bool headerPrinted = false;

  auto analyzeUnit = [&](const std::string& label, const std::string& asmText,
                         int arrayCount) {
    ++totalUnits;
    verify::CyclePrediction p = verify::predictAssembly(asmText, model);
    verify::StabilityOptions geometry;
    if (arrayCount > 0) {
      geometry.footprintBytes =
          static_cast<std::uint64_t>(arrayCount) * arrayBytes;
    }
    verify::StabilityReport s =
        verify::analyzeStability(asmText, model, geometry);
    if (!p.valid) ++unbounded;

    if (json) {
      std::ostringstream out;
      out << "{\"source\":\"" << analyzeJsonEscape(label) << "\"";
      if (p.valid) {
        out << ",\"pred_cpi_lo\":" << strings::format("%.6g", p.cyclesLowerBound())
            << ",\"bound\":\"" << analyzeJsonEscape(p.binding) << "\""
            << ",\"frontend_bound\":" << strings::format("%.6g", p.frontendBound)
            << ",\"throughput_bound\":"
            << strings::format("%.6g", p.throughputBound)
            << ",\"latency_bound\":" << strings::format("%.6g", p.latencyBound)
            << ",\"load_carried\":" << (p.loadCarried ? "true" : "false");
        out << ",\"ports\":[";
        for (std::size_t i = 0; i < p.pressure.size(); ++i) {
          const verify::PortPressure& port = p.pressure[i];
          out << (i ? "," : "") << "{\"unit\":\""
              << analyzeJsonEscape(port.unit) << "\",\"occupancy\":"
              << strings::format("%.6g", port.occupancy)
              << ",\"ports\":" << port.ports
              << ",\"bound\":" << strings::format("%.6g", port.bound()) << "}";
        }
        out << "]";
      } else {
        out << ",\"pred_cpi_lo\":null";
      }
      out << ",\"stability\":{\"regular_loop\":"
          << (s.regularLoop ? "true" : "false")
          << ",\"fits_l1\":" << (s.fitsL1 ? "true" : "false")
          << ",\"steady_dependences\":"
          << (s.steadyDependences ? "true" : "false")
          << ",\"score\":" << strings::format("%.6g", s.score())
          << ",\"stable\":" << (s.stable() ? "true" : "false") << "}";
      out << ",\"warnings\":[";
      for (std::size_t i = 0; i < p.warnings.size(); ++i) {
        out << (i ? "," : "") << "\"" << analyzeJsonEscape(p.warnings[i])
            << "\"";
      }
      out << "]}\n";
      std::fputs(out.str().c_str(), stdout);
      return;
    }

    if (!headerPrinted) {
      std::printf("%-42s %9s %-10s %8s %8s %8s %6s\n", "unit", "pred_cpi",
                  "bound", "frontend", "port", "latency", "stable");
      headerPrinted = true;
    }
    if (p.valid) {
      std::printf("%-42s %9.4f %-10s %8.4f %8.4f %8.4f %3d/3\n",
                  label.c_str(), p.cyclesLowerBound(), p.binding.c_str(),
                  p.frontendBound, p.throughputBound, p.latencyBound,
                  static_cast<int>(s.regularLoop) +
                      static_cast<int>(s.fitsL1) +
                      static_cast<int>(s.steadyDependences));
    } else {
      std::printf("%-42s %9s %-10s %8s %8s %8s %3d/3\n", label.c_str(), "-",
                  "-", "-", "-", "-",
                  static_cast<int>(s.regularLoop) +
                      static_cast<int>(s.fitsL1) +
                      static_cast<int>(s.steadyDependences));
    }
    for (const std::string& warning : p.warnings) {
      std::printf("  warning: %s\n", warning.c_str());
    }
  };

  for (const std::string& path : inputs) {
    if (strings::endsWith(path, ".xml")) {
      // Analyze the variants explore would measure: the pipeline's own
      // Verification pass stays on, so the unit set matches the campaign.
      creator::MicroCreator creator;
      std::vector<creator::GeneratedProgram> programs =
          creator.generateFromFile(path);
      for (const creator::GeneratedProgram& p : programs) {
        int arrays = nbVectors > 0 ? nbVectors : p.arrayCount;
        analyzeUnit(path + ":" + p.name, p.asmText, arrays);
      }
    } else {
      std::ifstream in(path, std::ios::binary);
      if (!in) throw McError("cannot open input file: " + path);
      std::ostringstream oss;
      oss << in.rdbuf();
      analyzeUnit(path, oss.str(), nbVectors);
    }
  }
  if (!json) {
    std::printf("analyze: %zu unit(s), %zu without a valid bound\n",
                totalUnits, unbounded);
  }
  return unbounded == 0 ? 0 : 1;
}

cli::Parser makeBenchDiffParser() {
  cli::Parser parser(
      "microtools bench-diff",
      "Compares two campaign CSV files (old, then new) variant by variant. "
      "Rows are joined by variant name and rolled up (median, p95, CV); a "
      "delta only counts as a regression when it exceeds "
      "max(--threshold, --cv-mult * sqrt(cvOld^2 + cvNew^2)) — a change "
      "inside the combined measurement noise proves nothing. Environment "
      "drift between the files' snapshot headers is reported alongside. "
      "Exits 0 when no regression was flagged, 1 on regression, 2 on usage "
      "errors or when the files share no comparable variant.");
  parser.addString("metric", "Campaign CSV column to compare",
                   "cycles_per_iteration_median");
  parser.addDouble("threshold",
                   "Minimum relative delta flagged at all (0.05 = 5%)", 0.05);
  parser.addDouble("cv-mult",
                   "Noise multiplier applied to the pooled CV", 3.0);
  parser.addFlag("json", "Emit the full report as JSON instead of a table");
  return parser;
}

int runBenchDiffCommand(int argc, char** argv) {
  cli::Parser parser = makeBenchDiffParser();
  if (!parser.parse(argc, argv)) return 0;  // --help handled

  if (parser.positional().size() != 2) {
    std::fprintf(stderr,
                 "error: bench-diff needs exactly two CSV files: "
                 "<old.csv> <new.csv> (see --help)\n");
    return 2;
  }
  launcher::BenchDiffOptions options;
  options.metric = parser.getString("metric");
  options.relThreshold = parser.getDouble("threshold");
  options.cvMultiplier = parser.getDouble("cv-mult");

  launcher::BenchDiffReport report;
  try {
    report = launcher::benchDiff(parser.positional()[0],
                                 parser.positional()[1], options);
  } catch (const McError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::string rendered = parser.getFlag("json")
                             ? launcher::renderBenchDiffJson(report)
                             : launcher::renderBenchDiffTable(report);
  std::fputs(rendered.c_str(), stdout);
  return report.regressions == 0 ? 0 : 1;
}

cli::Parser makeServeParser() {
  cli::Parser parser(
      "microtools serve",
      "Runs the campaign-service daemon: owns the shared content-addressed "
      "measurement cache, hands out idempotent work leases to `microtools "
      "explore --connect` workers sharding one campaign, and merges every "
      "worker's rows into the canonical campaign CSV and ranked report — "
      "byte-identical to a single-process run. Scheduling is cache-first: "
      "warm variants are answered inline with zero backend work. Runs until "
      "SIGINT/SIGTERM, then drains in-flight leases and prints per-worker "
      "cache telemetry.");
  parser.addString("listen",
                   "Bind address: host:port (port 0 = ephemeral, printed on "
                   "startup) or unix:/path",
                   "127.0.0.1:0");
  parser.addString("cache", "Shared measurement cache directory",
                   ".microtools-cache");
  parser.addString("csv",
                   "Write the canonical merged campaign CSV here when a "
                   "campaign completes (rows in sequence order)");
  parser.addString("report",
                   "Write the canonical ranked report here when a campaign "
                   "completes");
  parser.addInt("top", "Ranked-report size (0 = all)", 0);
  parser.addInt("lease-deadline-ms",
                "A lease not acknowledged within this window is re-issued "
                "to the next worker that asks",
                30000);
  parser.addInt("max-leases",
                "Outstanding leases one worker may hold (0 = twice its "
                "announced measurement jobs, at least 2)",
                0);
  parser.addInt("drain-timeout-ms",
                "On shutdown, wait this long for in-flight leases before "
                "cutting connections",
                10000);
  parser.addFlag("verbose", "Enable info logging");
  return parser;
}

int runServeCommand(int argc, char** argv) {
  cli::Parser parser = makeServeParser();
  if (!parser.parse(argc, argv)) return 0;  // --help handled

  launcher::ServeOptions options;
  options.listen = parser.getString("listen");
  options.cacheDir = parser.getString("cache");
  if (parser.has("csv")) options.csvPath = parser.getString("csv");
  if (parser.has("report")) options.reportPath = parser.getString("report");
  options.topK = static_cast<int>(parser.getInt("top"));
  options.leaseDeadlineMs =
      static_cast<int>(parser.getInt("lease-deadline-ms"));
  options.maxLeasesPerWorker = static_cast<int>(parser.getInt("max-leases"));
  options.drainTimeoutMs =
      static_cast<int>(parser.getInt("drain-timeout-ms"));
  if (parser.getFlag("verbose")) log::setLevel(log::Level::Info);
  return launcher::serveMain(options);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "help") == 0) {
    printUsage();
    return argc < 2 ? 2 : 0;
  }
  try {
    if (std::strcmp(argv[1], "explore") == 0) {
      return runExploreCommand(argc - 1, argv + 1);
    }
    if (std::strcmp(argv[1], "lint") == 0) {
      return runLintCommand(argc - 1, argv + 1);
    }
    if (std::strcmp(argv[1], "analyze") == 0) {
      return runAnalyzeCommand(argc - 1, argv + 1);
    }
    if (std::strcmp(argv[1], "bench-diff") == 0) {
      return runBenchDiffCommand(argc - 1, argv + 1);
    }
    if (std::strcmp(argv[1], "serve") == 0) {
      return runServeCommand(argc - 1, argv + 1);
    }
    std::fprintf(stderr, "error: unknown subcommand '%s'\n\n", argv[1]);
    printUsage();
    return 2;
  } catch (const McError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
