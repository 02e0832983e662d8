#include "launcher/options.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace microtools::launcher {

int LauncherOptions::effectiveTripCount() const {
  if (tripCount) return *tripCount;
  if (elementBytes == 0) throw McError("--element-bytes must be > 0");
  std::uint64_t bytes = arrayBytesPerVector.empty()
                            ? arrayBytes
                            : arrayBytesPerVector.front();
  std::uint64_t elements = bytes / elementBytes;
  if (elements == 0 || elements > 0x7fffffffull) {
    throw McError("array size yields an invalid trip count");
  }
  return static_cast<int>(elements);
}

KernelRequest LauncherOptions::toRequest() const {
  KernelRequest request;
  request.n = effectiveTripCount();
  request.core = pinCore;
  request.chunkStrideBytes = elementBytes;
  for (int i = 0; i < nbVectors; ++i) {
    ArraySpec spec;
    spec.bytes = static_cast<std::size_t>(i) < arrayBytesPerVector.size()
                     ? arrayBytesPerVector[static_cast<std::size_t>(i)]
                     : arrayBytes;
    spec.alignment = alignment;
    spec.offset = alignOffset;
    request.arrays.push_back(spec);
  }
  return request;
}

ProtocolOptions LauncherOptions::toProtocol() const {
  ProtocolOptions p;
  p.innerRepetitions = innerRepetitions;
  p.outerRepetitions = outerRepetitions;
  p.warmup = !noWarmup;
  p.subtractOverhead = !noOverheadSubtraction;
  return p;
}

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
  parser.addInt("array-bytes", "Size of each array in bytes", 1 << 20);
  parser.addRepeated("array-bytes-n", "Per-array size override (repeatable)");
  parser.addInt("alignment", "Array base alignment in bytes", 4096);
  parser.addInt("align-offset", "Extra offset added to each array base", 0);
  parser.addInt("element-bytes",
                "Bytes per array element (4 = float, 8 = double)", 4);
  parser.addFlag("sweep-alignment", "Sweep array alignment offsets");
  parser.addInt("align-min", "Sweep: first offset", 0);
  parser.addInt("align-max", "Sweep: last offset (exclusive)", 4096);
  parser.addInt("align-step", "Sweep: offset step", 64);
  parser.addInt("max-align-configs", "Sweep: configuration cap", 2500);
  parser.addInt("n", "Kernel trip count (default: first array's elements)");
  parser.addInt("inner", "Inner repetitions per timed experiment", 8);
  parser.addInt("outer", "Outer (stability) repetitions", 10);
  parser.addFlag("no-warmup", "Skip the cache warm-up call");
  parser.addFlag("no-overhead", "Do not subtract timer overhead");
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
  parser.addInt("jobs", "Campaign: parallel worker threads", 1);
  parser.addDouble("max-cv",
                   "Campaign: re-run a variant while its cycles/iteration CV "
                   "exceeds this (0 disables)",
                   0.05);
  parser.addInt("max-repetitions",
                "Campaign: total outer-repetition budget per variant", 40);
  parser.addInt("variant-timeout-ms",
                "Campaign: per-variant wall-clock budget (0 = none)", 0);
  parser.addInt("compile-jobs",
                "Campaign: compile-pipeline producer threads that batch-"
                "compile variants ahead of the measurement workers (0 = "
                "compile inline, as --connect always does)",
                0);
  parser.addInt("compile-batch",
                "Campaign: variants grouped into one compiler invocation", 8);
  parser.addString("compile-cache-dir",
                   "Content-addressed cache of compiled .so artifacts "
                   "(native backend; empty = no cache)");
  parser.addString("verify",
                   "Campaign: static pre-flight verification of assembly "
                   "variants — strict skips variants with error-level "
                   "diagnostics (ABI clobbers, provable out-of-bounds) "
                   "before they can crash the campaign; warn only annotates "
                   "the CSV; off disables the check",
                   "strict");
  parser.addString("search",
                   "Campaign: variant-space walk — full measures every "
                   "variant at the baseline protocol; halving screens "
                   "everything cheaply, keeps the best half per round, and "
                   "finishes the survivors at full fidelity",
                   "full");
  parser.addString("budget",
                   "Campaign halving budget: '<seconds>s' wall-clock (e.g. "
                   "30s) or a count of fresh variant measurements; on "
                   "exhaustion the best-so-far ranking is reported");
  parser.addInt("screen-reps",
                "Campaign halving: outer repetitions of the round-0 "
                "screening pass",
                1);
  parser.addInt("stable-screen-reps",
                "Campaign halving: screening repetitions for variants the "
                "static stability analysis proves tight; only applies when "
                "below --screen-reps",
                1);
  parser.addFlag("no-predict",
                 "Disable the static cost model: no pred_cpi_lo/pred_bound "
                 "CSV columns, no predicted screening order, no "
                 "stability-reduced screening repetitions");
  parser.addString("connect",
                   "Campaign: shard against a `microtools serve` daemon at "
                   "host:port or unix:/path — the daemon owns the "
                   "measurement cache and hands out work leases (full "
                   "sweeps only)");
  parser.addString("worker-name",
                   "Name reported in the serve daemon's telemetry "
                   "(default: the worker's pid)");
  parser.addString("backend", "Execution backend: sim|native", "sim");
  parser.addFlag("no-perf-counters",
                 "Do not open perf_event counter groups around native "
                 "kernel calls (rdtsc timing only; counter-derived CSV "
                 "columns stay empty)");
  parser.addString("arch", "Simulated machine (see --list-arch)",
                   "nehalem_x5650_2s");
  parser.addDouble("core-ghz", "Override the core frequency (DVFS study)");
  parser.addInt("seed", "Deterministic seed", 1);
  parser.addString("csv", "Write CSV to this file instead of stdout");
  parser.addFlag("verbose", "Enable info logging");
  parser.addFlag("list-arch", "List the Table-1 architectures and exit");
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
  o.arrayBytes = static_cast<std::uint64_t>(parser.getInt("array-bytes"));
  for (const std::string& v : parser.getRepeated("array-bytes-n")) {
    auto parsed = strings::parseInt(v);
    if (!parsed || *parsed <= 0) {
      throw ParseError("--array-bytes-n expects a positive integer");
    }
    o.arrayBytesPerVector.push_back(static_cast<std::uint64_t>(*parsed));
  }
  o.alignment = static_cast<std::uint64_t>(parser.getInt("alignment"));
  o.alignOffset = static_cast<std::uint64_t>(parser.getInt("align-offset"));
  o.elementBytes = static_cast<std::uint64_t>(parser.getInt("element-bytes"));
  o.sweepAlignment = parser.getFlag("sweep-alignment");
  o.alignMin = static_cast<std::uint64_t>(parser.getInt("align-min"));
  o.alignMax = static_cast<std::uint64_t>(parser.getInt("align-max"));
  o.alignStep = static_cast<std::uint64_t>(parser.getInt("align-step"));
  o.maxAlignConfigs =
      static_cast<std::uint64_t>(parser.getInt("max-align-configs"));
  if (parser.has("n")) o.tripCount = static_cast<int>(parser.getInt("n"));
  o.innerRepetitions = static_cast<int>(parser.getInt("inner"));
  o.outerRepetitions = static_cast<int>(parser.getInt("outer"));
  o.noWarmup = parser.getFlag("no-warmup");
  o.noOverheadSubtraction = parser.getFlag("no-overhead");
  o.reportFullKernelTime = parser.getFlag("full-time");
  o.pinCore = static_cast<int>(parser.getInt("pin"));
  o.processes = static_cast<int>(parser.getInt("cores"));
  o.pinPolicy = parser.getString("pin-policy");
  o.forkCalls = static_cast<int>(parser.getInt("fork-calls"));
  o.useOpenMp = parser.getFlag("openmp");
  o.threads = static_cast<int>(parser.getInt("threads"));
  o.ompRepetitions = static_cast<int>(parser.getInt("omp-repetitions"));
  if (parser.has("campaign")) o.campaignDir = parser.getString("campaign");
  o.jobs = static_cast<int>(parser.getInt("jobs"));
  o.maxCv = parser.getDouble("max-cv");
  o.maxRepetitions = static_cast<int>(parser.getInt("max-repetitions"));
  o.variantTimeoutMs = static_cast<int>(parser.getInt("variant-timeout-ms"));
  o.compileJobs = static_cast<int>(parser.getInt("compile-jobs"));
  o.compileBatch = static_cast<int>(parser.getInt("compile-batch"));
  if (parser.has("compile-cache-dir")) {
    o.compileCacheDir = parser.getString("compile-cache-dir");
  }
  o.verifyMode = parser.getString("verify");
  o.searchMode = parser.getString("search");
  if (parser.has("budget")) o.budget = parser.getString("budget");
  o.screenRepetitions = static_cast<int>(parser.getInt("screen-reps"));
  o.stableScreenRepetitions =
      static_cast<int>(parser.getInt("stable-screen-reps"));
  o.predict = !parser.getFlag("no-predict");
  if (parser.has("connect")) o.connectAddr = parser.getString("connect");
  if (parser.has("worker-name")) o.workerName = parser.getString("worker-name");
  o.backend = parser.getString("backend");
  o.perfCounters = !parser.getFlag("no-perf-counters");
  o.arch = parser.getString("arch");
  if (parser.has("core-ghz")) o.coreGHz = parser.getDouble("core-ghz");
  o.seed = static_cast<std::uint64_t>(parser.getInt("seed"));
  if (parser.has("csv")) o.csvOutput = parser.getString("csv");
  o.verbose = parser.getFlag("verbose");
  o.listArch = parser.getFlag("list-arch");

  if (o.nbVectors < 0 || o.nbVectors > 5) {
    throw ParseError("--nbvectors must be between 0 and 5");
  }
  if (o.pinPolicy != "scatter" && o.pinPolicy != "compact") {
    throw ParseError("--pin-policy must be scatter or compact");
  }
  if (o.backend != "sim" && o.backend != "native") {
    throw ParseError("--backend must be sim or native");
  }
  if (o.elementBytes == 0) {
    throw ParseError("--element-bytes must be > 0");
  }
  if (o.jobs < 1) {
    throw ParseError("--jobs must be >= 1");
  }
  if (o.variantTimeoutMs < 0) {
    throw ParseError("--variant-timeout-ms must be >= 0");
  }
  if (o.compileJobs < 0) {
    throw ParseError("--compile-jobs must be >= 0");
  }
  if (o.compileBatch < 1) {
    throw ParseError("--compile-batch must be >= 1");
  }
  if (o.verifyMode != "off" && o.verifyMode != "warn" &&
      o.verifyMode != "strict") {
    throw ParseError("--verify must be off, warn, or strict");
  }
  if (o.searchMode != "full" && o.searchMode != "halving") {
    throw ParseError("--search must be full or halving");
  }
  if (o.screenRepetitions < 1) {
    throw ParseError("--screen-reps must be >= 1");
  }
  if (o.stableScreenRepetitions < 1) {
    throw ParseError("--stable-screen-reps must be >= 1");
  }
  return o;
}

}  // namespace microtools::launcher
