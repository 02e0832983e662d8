// Tests of the static performance analyzer (verify/costmodel.*): the
// port-level throughput/latency/frontend bounds against hand-built loops
// with known answers, the muOpTime-style stability verdict, and the
// soundness property the whole design rests on — the predicted
// cycles/iteration is a LOWER bound on what the exact simulator measures,
// for every variant of every example description.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "asmparse/asmparse.hpp"
#include "launcher/explore.hpp"
#include "sim/arch.hpp"
#include "verify/costmodel.hpp"
#include "verify/stability.hpp"

namespace microtools::verify {
namespace {

namespace fs = std::filesystem;

/// Hand-written counted loop: one load, one store, induction update,
/// compare, branch. 5 dispatch slots at issue width 4 -> 2 frontend
/// cycles; no port pool above 1.0; recurrence is the 1-cycle induction add.
constexpr const char* kLoadStoreLoop = R"(
  .globl kernel
kernel:
  xorq %rcx, %rcx
.L0:
  movss (%rsi,%rcx,4), %xmm0
  movss %xmm0, (%rdi,%rcx,4)
  addq $1, %rcx
  cmpq %rdx, %rcx
  jl .L0
  ret
)";

constexpr const char* kDivLoop = R"(
  .globl kernel
kernel:
  xorq %rcx, %rcx
.L0:
  divss %xmm1, %xmm0
  addq $1, %rcx
  cmpq %rdx, %rcx
  jl .L0
  ret
)";

constexpr const char* kPointerChaseLoop = R"(
  .globl kernel
kernel:
  xorq %rcx, %rcx
.L0:
  movq (%rsi), %rsi
  addq $1, %rcx
  cmpq %rdx, %rcx
  jl .L0
  ret
)";

CyclePrediction predict(const char* asmText) {
  return predictAssembly(asmText, CoreModel{});
}

TEST(CoreModelFromMachine, MirrorsTheSimulatorGeometry) {
  sim::MachineConfig machine = sim::machineByName("nehalem_x5650_2s");
  CoreModel model = coreModelFromMachine(machine);
  EXPECT_EQ(model.issueWidth, machine.issueWidth);
  EXPECT_EQ(model.loadPorts, machine.loadPorts);
  EXPECT_EQ(model.storePorts, machine.storePorts);
  EXPECT_EQ(model.aluPorts, machine.aluPorts);
  EXPECT_EQ(model.fpAddPorts, machine.fpAddPorts);
  EXPECT_EQ(model.fpMulPorts, machine.fpMulPorts);
  EXPECT_EQ(model.branchPorts, machine.branchPorts);
  EXPECT_EQ(model.loadLatency, machine.l1.latencyCycles);
  EXPECT_EQ(model.l1SizeBytes, machine.l1.sizeBytes);
}

TEST(CostModel, LoadStoreLoopIsFrontendBound) {
  CyclePrediction p = predict(kLoadStoreLoop);
  ASSERT_TRUE(p.valid) << (p.warnings.empty() ? "" : p.warnings.front());
  // 5 micro-op slots (load, store, add, cmp, branch) at issue width 4.
  EXPECT_DOUBLE_EQ(p.frontendBound, 2.0);
  // No pool is oversubscribed: load 1/1, store 1/1, alu 2/3, branch 1/1.
  EXPECT_DOUBLE_EQ(p.throughputBound, 1.0);
  // The only recurrence is the induction add (latency 1, distance 1); the
  // binary search stays a hair below the true ratio, never above.
  EXPECT_LE(p.latencyBound, 1.0);
  EXPECT_GT(p.latencyBound, 0.99);
  EXPECT_EQ(p.binding, "frontend");
  EXPECT_DOUBLE_EQ(p.cyclesLowerBound(), 2.0);
  EXPECT_FALSE(p.loadCarried);
}

TEST(CostModel, LoadStorePortPressureIsReported) {
  CyclePrediction p = predict(kLoadStoreLoop);
  ASSERT_TRUE(p.valid);
  double loadOcc = 0.0, storeOcc = 0.0, aluOcc = 0.0, branchOcc = 0.0;
  for (const PortPressure& port : p.pressure) {
    if (port.unit == "load") loadOcc = port.occupancy;
    if (port.unit == "store") storeOcc = port.occupancy;
    if (port.unit == "alu") aluOcc = port.occupancy;
    if (port.unit == "branch") branchOcc = port.occupancy;
  }
  EXPECT_DOUBLE_EQ(loadOcc, 1.0);
  EXPECT_DOUBLE_EQ(storeOcc, 1.0);
  EXPECT_DOUBLE_EQ(aluOcc, 2.0);   // add + cmp
  EXPECT_DOUBLE_EQ(branchOcc, 1.0);
}

TEST(CostModel, UnpipelinedDividerBindsTheSharedFpMulPort) {
  CyclePrediction p = predict(kDivLoop);
  ASSERT_TRUE(p.valid);
  // divss occupies the shared FpMul port for its full 14-cycle latency.
  EXPECT_DOUBLE_EQ(p.throughputBound, 14.0);
  EXPECT_EQ(p.binding, "fp-mul");
  // xmm0 is read-modify-write: the recurrence is the 14-cycle divide.
  EXPECT_GT(p.latencyBound, 13.9);
  EXPECT_LE(p.latencyBound, 14.0);
  EXPECT_DOUBLE_EQ(p.cyclesLowerBound(), 14.0);
  EXPECT_FALSE(p.loadCarried);
}

TEST(CostModel, PointerChaseIsLatencyBoundAndLoadCarried) {
  CyclePrediction p = predict(kPointerChaseLoop);
  ASSERT_TRUE(p.valid);
  // The load feeds its own address: recurrence = L1 load-to-use latency.
  EXPECT_TRUE(p.loadCarried);
  EXPECT_GT(p.latencyBound, 3.9);
  EXPECT_LE(p.latencyBound, 4.0);
  EXPECT_EQ(p.binding, "latency");
}

TEST(CostModel, UnmodeledOpcodeWarnsOncePerMnemonicAndInvalidates) {
  asmparse::Program program = asmparse::parseAssembly(kLoadStoreLoop);
  static const isa::InstrDesc kMystery = [] {
    isa::InstrDesc d;
    d.mnemonic = "mystery";
    d.kind = isa::InstrKind::IntAlu;
    d.unmodeled = true;
    return d;
  }();
  // Two occurrences of the same unmodeled mnemonic: the warning must not
  // repeat, and the prediction must decline instead of guessing.
  program.instructions[2].desc = &kMystery;
  program.instructions[3].desc = &kMystery;
  EXPECT_EQ(unmodeledMnemonics(program),
            std::vector<std::string>{"mystery"});
  CyclePrediction p = predictProgram(program, CoreModel{});
  EXPECT_FALSE(p.valid);
  int mentions = 0;
  for (const std::string& w : p.warnings) {
    if (w.find("mystery") != std::string::npos) ++mentions;
  }
  EXPECT_EQ(mentions, 1);
}

TEST(CostModel, ParseFailureComesBackAsWarningNotThrow) {
  CyclePrediction p = predictAssembly("this is not assembly !!!",
                                      CoreModel{});
  EXPECT_FALSE(p.valid);
  ASSERT_FALSE(p.warnings.empty());
  EXPECT_NE(p.warnings.front().find("parse error"), std::string::npos);
}

TEST(CostModel, StraightLineCodeHasNoRecognizedLoop) {
  CyclePrediction p = predictAssembly(
      "  .globl kernel\nkernel:\n  ret\n", CoreModel{});
  EXPECT_FALSE(p.valid);
  ASSERT_FALSE(p.warnings.empty());
  EXPECT_NE(p.warnings.front().find("no recognized single-block loop"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// stability
// ---------------------------------------------------------------------------

TEST(Stability, RegularL1ResidentLoadStoreLoopIsStable) {
  StabilityOptions geometry;
  geometry.footprintBytes = 8 * 1024;  // two 4 KiB arrays: inside 32 KiB L1
  StabilityReport s = analyzeStability(kLoadStoreLoop, CoreModel{}, geometry);
  EXPECT_TRUE(s.regularLoop);
  EXPECT_TRUE(s.fitsL1);
  EXPECT_TRUE(s.steadyDependences);
  EXPECT_TRUE(s.stable());
  EXPECT_DOUBLE_EQ(s.score(), 1.0);
}

TEST(Stability, UnknownOrOversizedFootprintIsNotProvablyStable) {
  StabilityReport unknown =
      analyzeStability(kLoadStoreLoop, CoreModel{}, StabilityOptions{});
  EXPECT_FALSE(unknown.fitsL1);
  EXPECT_FALSE(unknown.stable());

  StabilityOptions big;
  big.footprintBytes = 1 << 20;  // 1 MiB streams far past L1
  StabilityReport streaming =
      analyzeStability(kLoadStoreLoop, CoreModel{}, big);
  EXPECT_FALSE(streaming.fitsL1);
  EXPECT_FALSE(streaming.stable());
}

TEST(Stability, LoadCarriedDependenceFailsSteadiness) {
  StabilityOptions geometry;
  geometry.footprintBytes = 8 * 1024;
  StabilityReport s =
      analyzeStability(kPointerChaseLoop, CoreModel{}, geometry);
  EXPECT_TRUE(s.regularLoop);
  EXPECT_TRUE(s.fitsL1);
  EXPECT_FALSE(s.steadyDependences);
  EXPECT_FALSE(s.stable());
  EXPECT_NEAR(s.score(), 2.0 / 3.0, 1e-12);
}

TEST(Stability, ParseFailureScoresZero) {
  StabilityReport s =
      analyzeStability("garbage $$$", CoreModel{}, StabilityOptions{});
  EXPECT_FALSE(s.regularLoop);
  EXPECT_FALSE(s.fitsL1);
  EXPECT_FALSE(s.steadyDependences);
  EXPECT_DOUBLE_EQ(s.score(), 0.0);
}

// ---------------------------------------------------------------------------
// soundness property: prediction <= exact simulation
// ---------------------------------------------------------------------------

// For every variant of every example description, the predicted
// cycles/iteration must lower-bound what the exact simulator measures.
// --sim-exact cycle-simulates every invoke (no warm-invoke memoization),
// so the measured minimum is the true simulated cost including pipeline
// fill — anything the static model misses (ROB stalls, mispredicts, cache
// effects) only ADDS cycles on top of the bound.
TEST(CostModelProperty, PredictionLowerBoundsExactSimulation) {
  std::vector<std::string> descriptions;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(MT_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".xml") {
      descriptions.push_back(entry.path().string());
    }
  }
  ASSERT_FALSE(descriptions.empty());

  for (const std::string& description : descriptions) {
    launcher::ExploreOptions options;
    options.descriptionFile = description;
    options.simExact = true;  // exact per-invoke cycle simulation
    options.useCache = false;
    options.arrayBytes = 16 * 1024;  // L1-resident geometry
    options.campaign.protocol.innerRepetitions = 1;
    options.campaign.protocol.outerRepetitions = 2;
    options.campaign.maxRepetitions = 2;
    launcher::ExploreResult result = launcher::runExplore(options);
    ASSERT_FALSE(result.results.empty()) << description;
    for (const launcher::VariantResult& r : result.results) {
      if (r.status != "ok") continue;
      ASSERT_TRUE(std::isfinite(r.predCpiLo))
          << description << ":" << r.name << " has no prediction";
      EXPECT_FALSE(r.predBound.empty()) << description << ":" << r.name;
      EXPECT_LE(r.predCpiLo,
                r.measurement.cyclesPerIteration.min + 1e-9)
          << description << ":" << r.name
          << " bound above exact simulation";
      EXPECT_GT(r.predCpiLo, 0.0) << description << ":" << r.name;
    }
  }
}

}  // namespace
}  // namespace microtools::verify
