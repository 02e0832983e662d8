#include "launcher/campaign_flags.hpp"

#include "support/error.hpp"

namespace microtools::launcher {

void addGeometryFlags(cli::Parser& parser) {
  parser.addInt("array-bytes", "Size of each array in bytes", 1 << 20);
  parser.addInt("alignment", "Array base alignment in bytes", 4096);
  parser.addInt("align-offset", "Extra offset added to each array base", 0);
  parser.addInt("element-bytes",
                "Bytes per array element (4 = float, 8 = double)", 4);
  parser.addInt("n", "Kernel trip count (default: first array's elements)");
}

KernelGeometry geometryFrom(const cli::Parser& parser) {
  KernelGeometry g;
  g.arrayBytes = static_cast<std::uint64_t>(parser.getInt("array-bytes"));
  g.alignment = static_cast<std::uint64_t>(parser.getInt("alignment"));
  g.alignOffset = static_cast<std::uint64_t>(parser.getInt("align-offset"));
  g.elementBytes = static_cast<std::uint64_t>(parser.getInt("element-bytes"));
  if (parser.has("n")) g.tripCount = static_cast<int>(parser.getInt("n"));
  if (g.elementBytes == 0) throw ParseError("--element-bytes must be > 0");
  return g;
}

void addCampaignFlags(cli::Parser& parser) {
  parser.addString("backend", "Execution backend: sim|native", "sim");
  parser.addString("arch", "Simulated machine (see microlauncher --list-arch)",
                   "nehalem_x5650_2s");
  parser.addDouble("core-ghz", "Override the core frequency (DVFS study)");
  addGeometryFlags(parser);
  parser.addInt("jobs", "Campaign: parallel worker threads", 1);
  parser.addInt("inner", "Inner repetitions per timed experiment", 8);
  parser.addInt("outer", "Outer (stability) repetitions", 10);
  parser.addFlag("no-warmup", "Skip the cache warm-up call");
  parser.addFlag("no-overhead", "Do not subtract timer overhead");
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
                "compile variants ahead of the measurement workers (native "
                "backend; 0 = compile inline, as --connect always does)",
                0);
  parser.addInt("compile-batch",
                "Campaign: variants grouped into one compiler invocation", 8);
  parser.addString("compile-cache-dir",
                   "Persistent .so compile cache for the native backend "
                   "(explore default: <--cache>/so, off under --no-cache; "
                   "microlauncher default: no cache)");
  parser.addString("search",
                   "Campaign: variant-space walk — full measures every "
                   "variant at the baseline protocol; halving screens "
                   "everything cheaply, keeps the best half per round, and "
                   "finishes the survivors at full fidelity",
                   "full");
  parser.addString("budget",
                   "Campaign halving budget: '<seconds>s' wall-clock (e.g. "
                   "30s) or a count of fresh variant measurements (cache "
                   "hits are free); on exhaustion the best-so-far ranking "
                   "is reported");
  parser.addInt("screen-reps",
                "Campaign halving: outer repetitions of the round-0 "
                "screening pass",
                1);
  parser.addInt("stable-screen-reps",
                "Campaign halving: screening repetitions for variants the "
                "static stability analysis proves tight (regular L1-resident "
                "loop, no loop-carried load); only applies when below "
                "--screen-reps",
                1);
  parser.addFlag("no-predict",
                 "Disable the static cost model: no pred_cpi_lo/pred_bound "
                 "CSV columns, no predicted screening order, no "
                 "stability-reduced screening repetitions");
  parser.addString("verify",
                   "Campaign: static pre-flight verification of assembly "
                   "variants — strict skips variants with error-level "
                   "diagnostics (ABI clobbers, provable out-of-bounds) "
                   "before they can crash the campaign; warn only annotates "
                   "the CSV; off disables the check",
                   "strict");
  parser.addFlag("no-perf-counters",
                 "Do not open perf_event counter groups around native "
                 "kernel calls (rdtsc timing only; counter-derived CSV "
                 "columns stay empty)");
  parser.addString("csv",
                   "Stream the campaign CSV to this file (append-safe; "
                   "variants already terminal in the file are resumed, not "
                   "re-measured or re-appended)");
  parser.addString("connect",
                   "Campaign: shard against a `microtools serve` daemon at "
                   "host:port or unix:/path — the daemon owns the "
                   "measurement cache and hands out work leases, so several "
                   "workers split one campaign without duplicating "
                   "measurements (full sweeps only)");
  parser.addString("worker-name",
                   "Name reported in the serve daemon's telemetry (default: "
                   "the worker's pid)");
  parser.addFlag("verbose", "Enable info logging");
}

CampaignFlags campaignFlagsFrom(const cli::Parser& parser) {
  CampaignFlags flags;
  ExploreOptions& s = flags.sweep;
  static_cast<KernelGeometry&>(s) = geometryFrom(parser);
  s.backend = parser.getString("backend");
  s.arch = parser.getString("arch");
  if (parser.has("core-ghz")) s.coreGHz = parser.getDouble("core-ghz");

  CampaignOptions& c = s.campaign;
  c.jobs = static_cast<int>(parser.getInt("jobs"));
  c.protocol.innerRepetitions = static_cast<int>(parser.getInt("inner"));
  c.protocol.outerRepetitions = static_cast<int>(parser.getInt("outer"));
  c.protocol.warmup = !parser.getFlag("no-warmup");
  c.protocol.subtractOverhead = !parser.getFlag("no-overhead");
  c.maxCv = parser.getDouble("max-cv");
  c.maxRepetitions = static_cast<int>(parser.getInt("max-repetitions"));
  c.variantTimeoutMs = static_cast<int>(parser.getInt("variant-timeout-ms"));
  c.compileJobs = static_cast<int>(parser.getInt("compile-jobs"));
  c.compileBatch = static_cast<int>(parser.getInt("compile-batch"));
  // Native workers time on real cores: spread them so they don't fight
  // over one. The simulator pins inside its own machine model instead.
  c.pinWorkers = s.backend == "native";

  s.planner.screenRepetitions = static_cast<int>(parser.getInt("screen-reps"));
  s.planner.stableScreenRepetitions =
      static_cast<int>(parser.getInt("stable-screen-reps"));
  s.predict = !parser.getFlag("no-predict");
  if (parser.has("connect")) s.connectAddr = parser.getString("connect");
  if (parser.has("worker-name")) s.workerName = parser.getString("worker-name");
  if (parser.has("csv")) flags.csvPath = parser.getString("csv");
  if (parser.has("compile-cache-dir")) {
    flags.compileCacheDir = parser.getString("compile-cache-dir");
  }
  flags.perfCounters = !parser.getFlag("no-perf-counters");
  flags.verbose = parser.getFlag("verbose");

  if (s.backend != "sim" && s.backend != "native") {
    throw ParseError("--backend must be sim or native");
  }
  if (c.jobs < 1) throw ParseError("--jobs must be >= 1");
  if (c.variantTimeoutMs < 0) {
    throw ParseError("--variant-timeout-ms must be >= 0");
  }
  if (c.compileJobs < 0) throw ParseError("--compile-jobs must be >= 0");
  if (c.compileBatch < 1) throw ParseError("--compile-batch must be >= 1");
  if (s.planner.screenRepetitions < 1) {
    throw ParseError("--screen-reps must be >= 1");
  }
  if (s.planner.stableScreenRepetitions < 1) {
    throw ParseError("--stable-screen-reps must be >= 1");
  }
  try {
    c.verify = verifyModeFromName(parser.getString("verify"));
    s.search = searchModeFromName(parser.getString("search"));
    if (parser.has("budget")) {
      s.planner.budget = parseBudget(parser.getString("budget"));
    }
  } catch (const McError& e) {
    throw ParseError(e.message());
  }
  return flags;
}

}  // namespace microtools::launcher
