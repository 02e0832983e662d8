#include <gtest/gtest.h>

#include <set>

#include "launcher/arch_registry.hpp"
#include "launcher/campaign_flags.hpp"
#include "launcher/launcher.hpp"
#include "launcher/options.hpp"
#include "launcher/sim_backend.hpp"
#include "support/error.hpp"
#include "test_helpers.hpp"

namespace microtools::launcher {
namespace {

using testing::figure6Xml;
using testing::generate;

std::unique_ptr<SimBackend> makeBackend() {
  return std::make_unique<SimBackend>(sim::nehalemX5650DualSocket());
}

creator::GeneratedProgram loadStoreProgram(int unroll) {
  auto programs = generate(figure6Xml(unroll, unroll, false));
  return programs.at(0);
}

KernelRequest basicRequest(std::uint64_t bytes) {
  KernelRequest request;
  request.arrays.push_back(ArraySpec{bytes, 4096, 0});
  request.n = static_cast<int>(bytes / 4);
  return request;
}

/// Scripted backend for protocol edge-case tests: `behavior` maps the
/// 0-based invocation index to the result of that call.
class FakeBackend final : public Backend {
 public:
  struct FakeKernel final : KernelHandle {};

  std::function<InvokeResult(int call)> behavior =
      [](int) { return InvokeResult{100.0, 10}; };
  double overhead = 0.0;
  int invokeCount = 0;

  std::string name() const override { return "fake"; }
  std::unique_ptr<KernelHandle> load(const std::string&,
                                     const std::string&) override {
    return std::make_unique<FakeKernel>();
  }
  InvokeResult invoke(KernelHandle&, const KernelRequest&) override {
    return behavior(invokeCount++);
  }
  double timerOverheadCycles() const override { return overhead; }
  std::vector<InvokeResult> invokeFork(KernelHandle&, const KernelRequest&,
                                       int, int, PinPolicy) override {
    throw ExecutionError("fake backend has no fork mode");
  }
  InvokeResult invokeOpenMp(KernelHandle&, const KernelRequest&, int,
                            int) override {
    throw ExecutionError("fake backend has no OpenMP mode");
  }
};

// ---------------------------------------------------------------------------
// Protocol (Figure 10)
// ---------------------------------------------------------------------------

TEST(Protocol, ProducesStableSamples) {
  auto backend = makeBackend();
  auto kernel = backend->load(loadStoreProgram(8).asmText, "microkernel");
  ProtocolOptions protocol;
  protocol.innerRepetitions = 4;
  protocol.outerRepetitions = 6;
  Measurement m =
      measureKernel(*backend, *kernel, basicRequest(16 * 1024), protocol);
  EXPECT_EQ(m.cyclesPerIteration.count, 6u);
  EXPECT_GT(m.cyclesPerIteration.min, 0.0);
  // Warm, deterministic simulator: outer samples must be nearly identical.
  EXPECT_LT(m.cyclesPerIteration.cv, 0.05);
}

TEST(Protocol, WarmupLowersMeasuredCycles) {
  auto measureWith = [](bool warmup) {
    auto backend = makeBackend();
    auto kernel = backend->load(loadStoreProgram(8).asmText, "microkernel");
    ProtocolOptions protocol;
    protocol.warmup = warmup;
    protocol.innerRepetitions = 1;
    protocol.outerRepetitions = 1;
    KernelRequest request;
    request.arrays.push_back(ArraySpec{512 * 1024, 4096, 0});
    request.n = 512 * 1024 / 4;
    return measureKernel(*backend, *kernel, request, protocol)
        .cyclesPerIteration.min;
  };
  EXPECT_LT(measureWith(true), measureWith(false));
}

TEST(Protocol, OverheadSubtractionLowersResult) {
  auto run = [](bool subtract) {
    auto backend = makeBackend();
    auto kernel = backend->load(loadStoreProgram(1).asmText, "microkernel");
    ProtocolOptions protocol;
    protocol.subtractOverhead = subtract;
    return measureKernel(*backend, *kernel, basicRequest(4096), protocol)
        .cyclesPerIteration.mean;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Protocol, ValidatesRepetitions) {
  auto backend = makeBackend();
  auto kernel = backend->load(loadStoreProgram(1).asmText, "microkernel");
  ProtocolOptions protocol;
  protocol.innerRepetitions = 0;
  EXPECT_THROW(
      measureKernel(*backend, *kernel, basicRequest(4096), protocol),
      McError);
}

TEST(Protocol, IterationsPerCallReported) {
  auto backend = makeBackend();
  auto kernel = backend->load(loadStoreProgram(4).asmText, "microkernel");
  Measurement m = measureKernel(*backend, *kernel, basicRequest(16 * 1024),
                                ProtocolOptions{});
  EXPECT_EQ(m.iterationsPerCall, 16u * 1024 / 4 / 16 + 1);
}

TEST(Protocol, ZeroIterationsRaisesExecutionError) {
  FakeBackend backend;
  backend.behavior = [](int) { return InvokeResult{100.0, 0}; };
  auto kernel = backend.load("", "microkernel");
  ProtocolOptions protocol;
  protocol.warmup = false;
  EXPECT_THROW(measureKernel(backend, *kernel, KernelRequest{}, protocol),
               ExecutionError);
}

TEST(Protocol, WarmupOffSkipsTheExtraInvocation) {
  FakeBackend backend;
  ProtocolOptions protocol;
  protocol.warmup = false;
  protocol.innerRepetitions = 2;
  protocol.outerRepetitions = 3;
  auto kernel = backend.load("", "microkernel");
  measureKernel(backend, *kernel, KernelRequest{}, protocol);
  EXPECT_EQ(backend.invokeCount, 6);  // exactly inner * outer, no warm-up

  backend.invokeCount = 0;
  protocol.warmup = true;
  measureKernel(backend, *kernel, KernelRequest{}, protocol);
  EXPECT_EQ(backend.invokeCount, 7);  // + the untimed cache-warming call
}

TEST(Protocol, NegativeSamplesClampToZero) {
  // A fast kernel on a noisy host: subtracted overhead exceeds elapsed.
  FakeBackend backend;
  backend.behavior = [](int) { return InvokeResult{10.0, 8}; };
  backend.overhead = 1000.0;
  ProtocolOptions protocol;
  protocol.warmup = false;
  auto kernel = backend.load("", "microkernel");
  Measurement m = measureKernel(backend, *kernel, KernelRequest{}, protocol);
  EXPECT_EQ(m.cyclesPerIteration.min, 0.0);
  EXPECT_EQ(m.cyclesPerIteration.max, 0.0);
  EXPECT_GE(m.cyclesPerIteration.mean, 0.0);
}

// ---------------------------------------------------------------------------
// Adaptive repetition
// ---------------------------------------------------------------------------

TEST(Adaptive, StableSamplesStopAtBaseline) {
  FakeBackend backend;
  ProtocolOptions protocol;
  protocol.warmup = false;
  protocol.innerRepetitions = 1;
  protocol.outerRepetitions = 5;
  AdaptivePolicy policy{0.05, 50};
  auto kernel = backend.load("", "microkernel");
  AdaptiveMeasurement am = measureKernelAdaptive(
      backend, *kernel, KernelRequest{}, protocol, policy);
  EXPECT_EQ(am.repetitions, 5);  // constant samples: CV 0, no extras
  EXPECT_TRUE(am.converged);
  EXPECT_EQ(am.measurement.cyclesPerIteration.count, 5u);
}

TEST(Adaptive, NoisySamplesExtendToBudget) {
  FakeBackend backend;
  backend.behavior = [](int call) {
    return InvokeResult{call % 2 ? 300.0 : 100.0, 10};  // CV stays high
  };
  ProtocolOptions protocol;
  protocol.warmup = false;
  protocol.innerRepetitions = 1;
  protocol.outerRepetitions = 4;
  AdaptivePolicy policy{0.01, 12};
  auto kernel = backend.load("", "microkernel");
  AdaptiveMeasurement am = measureKernelAdaptive(
      backend, *kernel, KernelRequest{}, protocol, policy);
  EXPECT_EQ(am.repetitions, 12);  // the full budget was spent
  EXPECT_FALSE(am.converged);
  EXPECT_GT(am.measurement.cyclesPerIteration.cv, 0.01);
}

TEST(Adaptive, ConvergesOnceNoiseSubsides) {
  FakeBackend backend;
  backend.behavior = [](int call) {
    return InvokeResult{call < 3 ? 100.0 + 60.0 * call : 100.0, 10};
  };
  ProtocolOptions protocol;
  protocol.warmup = false;
  protocol.innerRepetitions = 1;
  protocol.outerRepetitions = 3;
  AdaptivePolicy policy{0.10, 100};
  auto kernel = backend.load("", "microkernel");
  AdaptiveMeasurement am = measureKernelAdaptive(
      backend, *kernel, KernelRequest{}, protocol, policy);
  EXPECT_GT(am.repetitions, 3);    // the noisy prefix forced extra runs
  EXPECT_LT(am.repetitions, 100);  // but nowhere near the budget
  EXPECT_TRUE(am.converged);
  EXPECT_LE(am.measurement.cyclesPerIteration.cv, 0.10);
}

TEST(Adaptive, DeadlineAbortsWithTimeoutError) {
  FakeBackend backend;
  ProtocolOptions protocol;
  protocol.warmup = false;
  auto kernel = backend.load("", "microkernel");
  EXPECT_THROW(
      measureKernelAdaptive(backend, *kernel, KernelRequest{}, protocol,
                            AdaptivePolicy{}, [] { return true; }),
      TimeoutError);
}

// ---------------------------------------------------------------------------
// SimBackend
// ---------------------------------------------------------------------------

TEST(SimBackend, HierarchyLevelsOrdered) {
  // The §5.1 claim: deeper levels cost more cycles per iteration.
  auto backend = makeBackend();
  auto kernel = backend->load(loadStoreProgram(8).asmText, "microkernel");
  ProtocolOptions protocol;
  protocol.innerRepetitions = 2;
  protocol.outerRepetitions = 3;
  double previous = 0.0;
  for (std::uint64_t bytes :
       {16ull * 1024, 64ull * 1024, 512ull * 1024, 24ull * 1024 * 1024}) {
    backend->reset();
    Measurement m =
        measureKernel(*backend, *kernel, basicRequest(bytes), protocol);
    EXPECT_GT(m.cyclesPerIteration.min, previous) << bytes;
    previous = m.cyclesPerIteration.min;
  }
}

TEST(SimBackend, FrequencySweepKeepsOffcoreConstant) {
  // Figure 13: in rdtsc cycles, L1 timing scales with core frequency while
  // RAM timing stays roughly constant.
  auto measure = [](double ghz, std::uint64_t bytes) {
    sim::MachineConfig cfg = sim::nehalemX5650DualSocket();
    cfg.coreGHz = ghz;
    SimBackend backend(cfg);
    auto kernel = backend.load(loadStoreProgram(8).asmText, "microkernel");
    ProtocolOptions protocol;
    protocol.innerRepetitions = 2;
    protocol.outerRepetitions = 2;
    KernelRequest request;
    request.arrays.push_back(ArraySpec{bytes, 4096, 0});
    request.n = static_cast<int>(bytes / 4);
    return measureKernel(backend, *kernel, request, protocol)
        .cyclesPerIteration.min;
  };
  double l1Fast = measure(2.67, 16 * 1024);
  double l1Slow = measure(1.60, 16 * 1024);
  // L1 kernels: constant core cycles => TSC cycles grow as the clock drops.
  EXPECT_GT(l1Slow, l1Fast * 1.3);
  double ramFast = measure(2.67, 24ull * 1024 * 1024);
  double ramSlow = measure(1.60, 24ull * 1024 * 1024);
  EXPECT_LT(std::abs(ramSlow - ramFast) / ramFast, 0.25);
}

TEST(SimBackend, ForkScalesAndSaturates) {
  auto backend = makeBackend();
  auto kernel = backend->load(loadStoreProgram(8).asmText, "microkernel");
  KernelRequest request;
  request.arrays.push_back(ArraySpec{2ull * 1024 * 1024, 4096, 0});
  request.n = 2 * 1024 * 1024 / 4;
  auto one = backend->invokeFork(*kernel, request, 1, 1, PinPolicy::Scatter);
  auto twelve =
      backend->invokeFork(*kernel, request, 12, 1, PinPolicy::Scatter);
  ASSERT_EQ(one.size(), 1u);
  ASSERT_EQ(twelve.size(), 12u);
  double onePer = one[0].tscCycles / static_cast<double>(one[0].iterations);
  double worst = 0;
  for (const auto& r : twelve) {
    worst = std::max(worst, r.tscCycles / static_cast<double>(r.iterations));
  }
  EXPECT_GT(worst, onePer * 1.5);  // saturation visible at full machine
}

TEST(SimBackend, ForkValidation) {
  auto backend = makeBackend();
  auto kernel = backend->load(loadStoreProgram(1).asmText, "microkernel");
  KernelRequest request = basicRequest(4096);
  EXPECT_THROW(backend->invokeFork(*kernel, request, 0, 1,
                                   PinPolicy::Scatter),
               McError);
  EXPECT_THROW(backend->invokeFork(*kernel, request, 99, 1,
                                   PinPolicy::Scatter),
               McError);
}

TEST(SimBackend, OpenMpReturnsAllIterations) {
  auto backend = makeBackend();
  auto kernel = backend->load(loadStoreProgram(1).asmText, "microkernel");
  KernelRequest request = basicRequest(64 * 1024);
  InvokeResult r = backend->invokeOpenMp(*kernel, request, 4, 5);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_GT(r.tscCycles, 0.0);
}

TEST(SimBackend, ResetDropsWarmState) {
  auto backend = makeBackend();
  auto kernel = backend->load(loadStoreProgram(4).asmText, "microkernel");
  KernelRequest request = basicRequest(64 * 1024);
  backend->invoke(*kernel, request);               // cold
  InvokeResult warm = backend->invoke(*kernel, request);
  backend->reset();
  InvokeResult cold = backend->invoke(*kernel, request);
  EXPECT_GT(cold.tscCycles, warm.tscCycles);
}

TEST(SimBackend, MachineSwapReconfigures) {
  SimBackend backend(sim::nehalemX5650DualSocket());
  EXPECT_EQ(backend.name(), "sim:nehalem_x5650_2s");
  backend.setMachine(sim::sandyBridgeE31240());
  EXPECT_EQ(backend.name(), "sim:sandy_bridge_e31240");
}

// ---------------------------------------------------------------------------
// Alignment sweeps
// ---------------------------------------------------------------------------

TEST(Alignment, ConfigurationsCoverSmallProductExactly) {
  AlignmentSweepSpec spec;
  spec.minOffset = 0;
  spec.maxOffset = 256;
  spec.step = 64;  // 4 offsets per array
  spec.maxConfigs = 100;
  auto configs = alignmentConfigurations(2, spec);
  EXPECT_EQ(configs.size(), 16u);  // 4^2, under the cap
  std::set<std::vector<std::uint64_t>> unique(configs.begin(), configs.end());
  EXPECT_EQ(unique.size(), configs.size());
}

TEST(Alignment, CapSamplesEveryArrayDimension) {
  AlignmentSweepSpec spec;
  spec.minOffset = 0;
  spec.maxOffset = 4096;
  spec.step = 64;  // 64 offsets per array -> 64^4 total
  spec.maxConfigs = 2500;
  auto configs = alignmentConfigurations(4, spec);
  EXPECT_EQ(configs.size(), 2500u);
  for (std::size_t arrayIdx = 0; arrayIdx < 4; ++arrayIdx) {
    std::set<std::uint64_t> seen;
    for (const auto& c : configs) seen.insert(c[arrayIdx]);
    EXPECT_GT(seen.size(), 8u) << "array " << arrayIdx << " offsets frozen";
  }
}

TEST(Alignment, OffsetsRespectRange) {
  AlignmentSweepSpec spec;
  spec.minOffset = 128;
  spec.maxOffset = 512;
  spec.step = 128;
  auto configs = alignmentConfigurations(3, spec);
  for (const auto& c : configs) {
    for (std::uint64_t off : c) {
      EXPECT_GE(off, 128u);
      EXPECT_LT(off, 512u);
      EXPECT_EQ(off % 128, 0u);
    }
  }
}

TEST(Alignment, SaturatedProductStillSweepsEveryArray) {
  // 65536 offsets per array ^ 4 arrays saturates the uint64 product; the
  // old stride-1 fallback froze every digit but the lowest, so only the
  // first array's offset ever varied.
  AlignmentSweepSpec spec;
  spec.minOffset = 0;
  spec.maxOffset = 65536;
  spec.step = 1;
  spec.maxConfigs = 2048;
  auto configs = alignmentConfigurations(4, spec);
  ASSERT_EQ(configs.size(), 2048u);
  for (std::size_t arrayIdx = 0; arrayIdx < 4; ++arrayIdx) {
    std::set<std::uint64_t> seen;
    for (const auto& c : configs) seen.insert(c[arrayIdx]);
    EXPECT_GT(seen.size(), 8u) << "array " << arrayIdx << " offsets frozen";
  }
}

TEST(Alignment, SaturatedConfigurationsAreDistinct) {
  AlignmentSweepSpec spec;
  spec.minOffset = 0;
  spec.maxOffset = 65536;
  spec.step = 1;
  spec.maxConfigs = 2048;
  auto configs = alignmentConfigurations(4, spec);
  std::set<std::vector<std::uint64_t>> unique(configs.begin(), configs.end());
  EXPECT_EQ(unique.size(), configs.size());
}

TEST(Alignment, Validation) {
  AlignmentSweepSpec bad;
  bad.step = 0;
  EXPECT_THROW(alignmentConfigurations(1, bad), McError);
  EXPECT_THROW(alignmentConfigurations(0, AlignmentSweepSpec{}), McError);
  AlignmentSweepSpec noBudget;
  noBudget.maxConfigs = 0;
  EXPECT_THROW(alignmentConfigurations(1, noBudget), McError);
}

TEST(Alignment, SweepMeasuresEveryConfiguration) {
  MicroLauncher ml(makeBackend());
  auto programs = generate(testing::movssLoadXml(4, 4, 2));
  auto kernel = ml.load(programs[0]);
  KernelRequest request;
  request.arrays.push_back(ArraySpec{64 * 1024, 4096, 0});
  request.arrays.push_back(ArraySpec{64 * 1024, 4096, 0});
  request.n = 64 * 1024 / 4;
  AlignmentSweepSpec spec;
  spec.maxOffset = 256;
  spec.step = 64;
  spec.maxConfigs = 16;
  ProtocolOptions protocol;
  protocol.innerRepetitions = 1;
  protocol.outerRepetitions = 2;
  auto samples = ml.alignmentSweep(*kernel, request, spec, protocol);
  EXPECT_EQ(samples.size(), 16u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.offsets.size(), 2u);
    EXPECT_GT(s.measurement.cyclesPerIteration.min, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Options / CSV / registry
// ---------------------------------------------------------------------------

TEST(Options, ParserRoundTrip) {
  cli::Parser parser = makeLauncherParser();
  ASSERT_TRUE(parser.parse(
      {"--input", "k.s", "--nbvectors", "3", "--array-bytes", "8192",
       "--alignment", "64", "--align-offset", "16", "--inner", "5",
       "--outer", "7", "--pin", "2", "--cores", "6",
       "--pin-policy", "compact", "--backend", "sim",
       "--arch", "nehalem_x7550_4s", "--core-ghz", "1.6", "--openmp",
       "--threads", "8", "--no-warmup"}));
  LauncherOptions o = optionsFromParser(parser);
  CampaignFlags shared = campaignFlagsFrom(parser);
  EXPECT_EQ(o.inputFile, "k.s");
  EXPECT_EQ(o.nbVectors, 3);
  EXPECT_EQ(shared.sweep.arrayBytes, 8192u);
  EXPECT_EQ(shared.sweep.alignment, 64u);
  EXPECT_EQ(shared.sweep.alignOffset, 16u);
  EXPECT_EQ(shared.sweep.campaign.protocol.innerRepetitions, 5);
  EXPECT_EQ(shared.sweep.campaign.protocol.outerRepetitions, 7);
  EXPECT_EQ(o.pinCore, 2);
  EXPECT_EQ(o.processes, 6);
  EXPECT_EQ(o.pinPolicy, "compact");
  EXPECT_EQ(shared.sweep.arch, "nehalem_x7550_4s");
  ASSERT_TRUE(shared.sweep.coreGHz);
  EXPECT_DOUBLE_EQ(*shared.sweep.coreGHz, 1.6);
  EXPECT_TRUE(o.useOpenMp);
  EXPECT_EQ(o.threads, 8);
  EXPECT_FALSE(shared.sweep.campaign.protocol.warmup);  // --no-warmup
}

TEST(Options, LauncherHasAtLeastThirtyOptions) {
  // §4.2: "more than thirty options in the MicroLauncher tool".
  cli::Parser parser = makeLauncherParser();
  std::string help = parser.helpText();
  int count = 0;
  std::size_t pos = 0;
  while ((pos = help.find("\n  --", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_GE(count, 30);
}

TEST(Options, DerivedRequest) {
  KernelGeometry g;
  g.arrayBytes = 8192;
  g.alignment = 128;
  g.alignOffset = 32;
  KernelRequest r = buildRequest(g, 2, {4096});
  ASSERT_EQ(r.arrays.size(), 2u);
  EXPECT_EQ(r.arrays[0].bytes, 4096u);   // per-vector override
  EXPECT_EQ(r.arrays[1].bytes, 8192u);   // default
  EXPECT_EQ(r.arrays[0].alignment, 128u);
  EXPECT_EQ(r.arrays[0].offset, 32u);
  EXPECT_EQ(r.n, 1024);  // first array's float elements
}

TEST(Options, ExplicitTripCountWins) {
  KernelGeometry g;
  g.tripCount = 777;
  EXPECT_EQ(buildRequest(g, 1).n, 777);
}

TEST(Options, ElementBytesDrivesTripCountAndStride) {
  // The old code hard-coded 4-byte elements, a 2x trip-count error for
  // double-precision kernels.
  KernelGeometry g;
  g.arrayBytes = 8192;
  g.elementBytes = 8;
  KernelRequest r = buildRequest(g, 1);
  EXPECT_EQ(r.n, 1024);
  EXPECT_EQ(r.chunkStrideBytes, 8u);

  g.elementBytes = 4;
  EXPECT_EQ(buildRequest(g, 1).n, 2048);
  EXPECT_EQ(buildRequest(g, 1).chunkStrideBytes, 4u);
}

TEST(Options, ElementBytesParsedAndValidated) {
  {
    cli::Parser p = makeLauncherParser();
    ASSERT_TRUE(p.parse({"--input", "k.s", "--element-bytes", "8"}));
    EXPECT_EQ(campaignFlagsFrom(p).sweep.elementBytes, 8u);
  }
  {
    cli::Parser p = makeLauncherParser();
    ASSERT_TRUE(p.parse({"--element-bytes", "0"}));
    EXPECT_THROW(campaignFlagsFrom(p), ParseError);
  }
}

/// A parser holding only the shared campaign flags, as both campaign CLIs
/// register them.
cli::Parser campaignParser() {
  cli::Parser parser("campaign");
  addCampaignFlags(parser);
  return parser;
}

TEST(Options, CampaignFlagsParsed) {
  const std::vector<std::string> args = {
      "--jobs", "4", "--max-cv", "0.02", "--max-repetitions", "24",
      "--variant-timeout-ms", "500"};
  std::vector<std::string> launcherArgs = {"--campaign", "/tmp/variants"};
  launcherArgs.insert(launcherArgs.end(), args.begin(), args.end());
  cli::Parser launcher = makeLauncherParser();
  ASSERT_TRUE(launcher.parse(launcherArgs));
  EXPECT_EQ(optionsFromParser(launcher).campaignDir, "/tmp/variants");
  cli::Parser shared = campaignParser();
  ASSERT_TRUE(shared.parse(args));
  for (const cli::Parser* p : {&launcher, &shared}) {
    CampaignOptions c = campaignFlagsFrom(*p).sweep.campaign;
    EXPECT_EQ(c.jobs, 4);
    EXPECT_DOUBLE_EQ(c.maxCv, 0.02);
    EXPECT_EQ(c.maxRepetitions, 24);
    EXPECT_EQ(c.variantTimeoutMs, 500);
  }
}

TEST(Options, CampaignFlagsValidated) {
  const std::vector<std::vector<std::string>> invalid = {
      {"--jobs", "0"},          {"--variant-timeout-ms", "-1"},
      {"--compile-batch", "0"}, {"--verify", "bogus"},
      {"--search", "bogus"},    {"--budget", "soon"}};
  for (const std::vector<std::string>& args : invalid) {
    for (cli::Parser p : {makeLauncherParser(), campaignParser()}) {
      ASSERT_TRUE(p.parse(args));
      EXPECT_THROW(campaignFlagsFrom(p), ParseError) << args[0];
    }
  }
}

TEST(Options, InvalidCombinationsRejected) {
  {
    cli::Parser p = makeLauncherParser();
    ASSERT_TRUE(p.parse({"--nbvectors", "9"}));
    EXPECT_THROW(optionsFromParser(p), ParseError);
  }
  {
    cli::Parser p = makeLauncherParser();
    ASSERT_TRUE(p.parse({"--backend", "gpu"}));
    EXPECT_THROW(campaignFlagsFrom(p), ParseError);
  }
  {
    cli::Parser p = makeLauncherParser();
    ASSERT_TRUE(p.parse({"--pin-policy", "random"}));
    EXPECT_THROW(optionsFromParser(p), ParseError);
  }
}

TEST(ArchRegistry, Table1Complete) {
  const auto& entries = table1();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].config.name, "sandy_bridge_e31240");
  EXPECT_EQ(entries[0].figures, (std::vector<int>{17, 18}));
  EXPECT_EQ(entries[1].figures,
            (std::vector<int>{2, 3, 4, 5, 11, 12, 13, 14}));
  EXPECT_EQ(entries[2].figures, (std::vector<int>{15, 16}));
  EXPECT_EQ(entries[1].config.totalCores(), 12);
  EXPECT_EQ(entries[2].config.totalCores(), 32);
}

TEST(ArchRegistry, LookupByName) {
  EXPECT_EQ(archByName("nehalem_x5650_2s").config.sockets, 2);
  EXPECT_THROW(archByName("pentium4"), McError);
}

TEST(Csv, MeasurementRowsRender) {
  Measurement m;
  m.cyclesPerIteration = stats::summarize({2.0, 2.5, 3.0});
  m.iterationsPerCall = 128;
  csv::Table table = MicroLauncher::toCsv({{"kernel_u8", m}});
  std::string text = table.toString();
  EXPECT_NE(text.find("configuration"), std::string::npos);
  EXPECT_NE(text.find("kernel_u8"), std::string::npos);
  EXPECT_NE(text.find("2.0000"), std::string::npos);
  EXPECT_NE(text.find("3.0000"), std::string::npos);
}

TEST(Launcher, RequiresBackend) {
  EXPECT_THROW(MicroLauncher(nullptr), McError);
}

}  // namespace
}  // namespace microtools::launcher
