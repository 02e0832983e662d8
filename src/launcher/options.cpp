#include "launcher/options.hpp"

#include "launcher/campaign_flags.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace microtools::launcher {

cli::Parser makeLauncherParser() {
  cli::Parser parser(
      "microlauncher",
      "Executes microbenchmark kernels in a stable, controlled environment "
      "and reports cycles per iteration as CSV.");
  parser.addString("input", "Kernel file (assembly, C, or shared object)");
  parser.addString("input-kind", "Input kind: auto|asm|c|so", "auto");
  parser.addString("function", "Kernel entry-point symbol", "microkernel");
  parser.addString("standalone", "Fork and time a stand-alone program");
  parser.addInt("nbvectors", "Number of arrays passed to the kernel", 1);
  parser.addRepeated("array-bytes-n", "Per-array size override (repeatable)");
  parser.addFlag("sweep-alignment", "Sweep array alignment offsets");
  parser.addInt("align-min", "Sweep: first offset", 0);
  parser.addInt("align-max", "Sweep: last offset (exclusive)", 4096);
  parser.addInt("align-step", "Sweep: offset step", 64);
  parser.addInt("max-align-configs", "Sweep: configuration cap", 2500);
  parser.addFlag("full-time", "Report full kernel time, not cycles/iteration");
  parser.addInt("pin", "Core to pin the kernel to", 0);
  parser.addInt("cores", "Fork mode: number of processes/cores", 1);
  parser.addString("pin-policy", "Fork pinning: scatter|compact", "scatter");
  parser.addInt("fork-calls", "Fork mode: kernel calls per process", 4);
  parser.addFlag("openmp", "Run the kernel as an OpenMP parallel-for");
  parser.addInt("threads", "OpenMP threads", 4);
  parser.addInt("omp-repetitions", "OpenMP parallel regions to time", 10);
  parser.addString("campaign",
                   "Run every .s/.c kernel in this directory as a campaign");
  parser.addFlag("list-arch", "List the Table-1 architectures and exit");
  addCampaignFlags(parser);
  return parser;
}

LauncherOptions optionsFromParser(const cli::Parser& parser) {
  LauncherOptions o;
  if (parser.has("input")) o.inputFile = parser.getString("input");
  o.inputKind = parser.getString("input-kind");
  o.function = parser.getString("function");
  if (parser.has("standalone")) {
    o.standaloneProgram = parser.getString("standalone");
  }
  o.nbVectors = static_cast<int>(parser.getInt("nbvectors"));
  for (const std::string& v : parser.getRepeated("array-bytes-n")) {
    auto parsed = strings::parseInt(v);
    if (!parsed || *parsed <= 0) {
      throw ParseError("--array-bytes-n expects a positive integer");
    }
    o.arrayBytesPerVector.push_back(static_cast<std::uint64_t>(*parsed));
  }
  o.sweepAlignment = parser.getFlag("sweep-alignment");
  o.alignMin = static_cast<std::uint64_t>(parser.getInt("align-min"));
  o.alignMax = static_cast<std::uint64_t>(parser.getInt("align-max"));
  o.alignStep = static_cast<std::uint64_t>(parser.getInt("align-step"));
  o.maxAlignConfigs =
      static_cast<std::uint64_t>(parser.getInt("max-align-configs"));
  o.reportFullKernelTime = parser.getFlag("full-time");
  o.pinCore = static_cast<int>(parser.getInt("pin"));
  o.processes = static_cast<int>(parser.getInt("cores"));
  o.pinPolicy = parser.getString("pin-policy");
  o.forkCalls = static_cast<int>(parser.getInt("fork-calls"));
  o.useOpenMp = parser.getFlag("openmp");
  o.threads = static_cast<int>(parser.getInt("threads"));
  o.ompRepetitions = static_cast<int>(parser.getInt("omp-repetitions"));
  if (parser.has("campaign")) o.campaignDir = parser.getString("campaign");
  o.listArch = parser.getFlag("list-arch");

  if (o.nbVectors < 0 || o.nbVectors > 5) {
    throw ParseError("--nbvectors must be between 0 and 5");
  }
  if (o.pinPolicy != "scatter" && o.pinPolicy != "compact") {
    throw ParseError("--pin-policy must be scatter or compact");
  }
  return o;
}

}  // namespace microtools::launcher
