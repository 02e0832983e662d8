// End-to-end integration tests: XML description -> MicroCreator ->
// (assembly) -> MicroLauncher on both backends, covering the paper's
// workflows at reduced scale.

#include <gtest/gtest.h>

#include <fstream>

#include "creator/creator.hpp"
#include "launcher/launcher.hpp"
#include "launcher/sim_backend.hpp"
#include "native/native_backend.hpp"
#include "test_helpers.hpp"

namespace microtools {
namespace {

using launcher::ArraySpec;
using launcher::KernelRequest;
using launcher::Measurement;
using launcher::ProtocolOptions;
using testing::uniqueTempDir;

TEST(Integration, FullSection51StudyAtReducedScale) {
  // Generate the (Load|Store)+ family (unroll 1..4 -> 30 variants), run
  // every variant on the simulator in L1, and verify that every
  // measurement is positive and programs with more memory operations per
  // iteration cost more cycles per iteration.
  auto programs = testing::generate(testing::figure6Xml(1, 4));
  ASSERT_EQ(programs.size(), 30u);

  launcher::MicroLauncher ml(
      std::make_unique<launcher::SimBackend>(sim::nehalemX5650DualSocket()));
  ProtocolOptions protocol;
  protocol.innerRepetitions = 2;
  protocol.outerRepetitions = 2;

  double maxPerIterU1 = 0.0, minPerIterU4 = 1e9;
  for (const auto& program : programs) {
    ml.backend().reset();
    auto kernel = ml.load(program);
    KernelRequest request;
    request.arrays.push_back(ArraySpec{16 * 1024, 4096, 0});
    request.n = 16 * 1024 / 4;
    Measurement m = ml.measure(*kernel, request, protocol);
    ASSERT_GT(m.cyclesPerIteration.min, 0.0) << program.name;
    if (program.kernel.unrollFactor == 1) {
      maxPerIterU1 = std::max(maxPerIterU1, m.cyclesPerIteration.min);
    }
    if (program.kernel.unrollFactor == 4) {
      minPerIterU4 = std::min(minPerIterU4, m.cyclesPerIteration.min);
    }
  }
  // 4 memory ops per iteration cost more than 1 memory op per iteration.
  EXPECT_GT(minPerIterU4, maxPerIterU1);
}

TEST(Integration, SimAndNativeAgreeOnIterationCounts) {
  auto programs = testing::generate(testing::figure6Xml(1, 8, false));
  launcher::SimBackend simBackend(sim::nehalemX5650DualSocket());
  native::NativeBackend nativeBackend;
  for (const auto& program : programs) {
    KernelRequest request;
    request.arrays.push_back(ArraySpec{32 * 1024, 4096, 0});
    request.n = 32 * 1024 / 4;
    auto simKernel = simBackend.load(program);
    auto nativeKernel = nativeBackend.load(program);
    auto simResult = simBackend.invoke(*simKernel, request);
    auto nativeResult = nativeBackend.invoke(*nativeKernel, request);
    EXPECT_EQ(simResult.iterations, nativeResult.iterations) << program.name;
  }
}

TEST(Integration, MoveSemanticStudyMatchesPaperGrouping) {
  // §5.1 groups 510 variants into movss/movsd/movaps/movapd families via
  // move semantics; with both aligned spellings and unroll 1..2 the fan-out
  // is (2 moves) x (2+4 sequences) = 12 programs.
  const char* xml = R"(<description>
  <benchmark_name>mv</benchmark_name>
  <kernel>
    <instruction>
      <move_semantic><bytes>16</bytes><aligned/></move_semantic>
      <memory><register><name>r1</name></register><offset>0</offset></memory>
      <register><phyName>%xmm</phyName><min>0</min><max>8</max></register>
      <swap_after_unroll/>
    </instruction>
    <unrolling><min>1</min><max>2</max></unrolling>
    <induction><register><name>r1</name></register>
      <increment>16</increment><offset>16</offset></induction>
    <induction><register><name>r0</name></register><increment>-1</increment>
      <linked><register><name>r1</name></register></linked>
      <last_induction/></induction>
    <branch_information><label>L6</label><test>jge</test>
    </branch_information>
  </kernel>
</description>)";
  auto programs = testing::generate(xml);
  EXPECT_EQ(programs.size(), 12u);
  int movaps = 0, movapd = 0;
  for (const auto& p : programs) {
    if (p.name.find("movaps") != std::string::npos) ++movaps;
    if (p.name.find("movapd") != std::string::npos) ++movapd;
  }
  EXPECT_EQ(movaps, 6);
  EXPECT_EQ(movapd, 6);
}

TEST(Integration, WrittenProgramsLoadFromDisk) {
  auto programs = testing::generate(testing::figure6Xml(2, 2, false));
  std::string dir = uniqueTempDir("mt_integration_out");
  auto written = creator::writePrograms(programs, dir);
  ASSERT_EQ(written.size(), 1u);
  // The file round-trips through the launcher's file-based loader path.
  std::ifstream in(written[0]);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  launcher::SimBackend backend(sim::nehalemX5650DualSocket());
  auto kernel = backend.load(text, "microkernel");
  KernelRequest request;
  request.arrays.push_back(ArraySpec{4096, 4096, 0});
  request.n = 1024;
  EXPECT_EQ(backend.invoke(*kernel, request).iterations, 1024u / 8 + 1);
}

TEST(Integration, SanitizeFileStemNeutralizesHostilePaths) {
  EXPECT_EQ(creator::sanitizeFileStem("plain_name"), "plain_name");
  EXPECT_EQ(creator::sanitizeFileStem("a/b/c"), "a_b_c");
  EXPECT_EQ(creator::sanitizeFileStem("..\\up"), ".._up");
  EXPECT_EQ(creator::sanitizeFileStem("tab\there"), "tab_here");
  // Names that would resolve to the directory itself (or its parent) are
  // replaced wholesale, not merely escaped.
  EXPECT_EQ(creator::sanitizeFileStem(""), "variant");
  EXPECT_EQ(creator::sanitizeFileStem("."), "variant");
  EXPECT_EQ(creator::sanitizeFileStem(".."), "variant");
}

TEST(Integration, WriteProgramsSanitizesStemsInsideOutputDir) {
  auto programs = testing::generate(testing::figure6Xml(2, 2, false));
  ASSERT_EQ(programs.size(), 1u);
  programs[0].name = "evil/../../escape";
  std::string dir = uniqueTempDir("mt_sanitize_out");
  auto written = creator::writePrograms(programs, dir);
  ASSERT_EQ(written.size(), 1u);
  // The separators became '_', so the file stays inside `dir`.
  EXPECT_NE(written[0].find("evil_.._.._escape.s"), std::string::npos)
      << written[0];
  std::ifstream in(written[0]);
  EXPECT_TRUE(in.good());
}

TEST(Integration, WriteProgramsRejectsDuplicateStems) {
  auto programs = testing::generate(testing::figure6Xml(2, 2, false));
  ASSERT_EQ(programs.size(), 1u);
  programs.push_back(programs[0]);
  programs[0].name = "same/name";
  programs[1].name = "same_name";  // sanitizes to the same stem
  std::string dir = uniqueTempDir("mt_duplicate_out");
  EXPECT_THROW(creator::writePrograms(programs, dir), McError);
}

TEST(Integration, AlignmentSweepShowsAliasingSpread) {
  // §5.2.2's mechanism at small scale: a load+store kernel over two arrays
  // whose relative 4 KiB placement varies shows a cycles/iteration spread.
  const char* xml = R"(<kernel>
    <instruction>
      <operation>movss</operation>
      <memory><register><name>a</name></register><offset>0</offset></memory>
      <register><phyName>%xmm0</phyName></register>
    </instruction>
    <instruction>
      <operation>movss</operation>
      <register><phyName>%xmm0</phyName></register>
      <memory><register><name>b</name></register><offset>0</offset></memory>
    </instruction>
    <induction><register><name>a</name></register>
      <increment>4</increment><offset>4</offset></induction>
    <induction><register><name>b</name></register>
      <increment>4</increment><offset>4</offset></induction>
    <induction><register><name>r0</name></register><increment>-1</increment>
      <linked><register><name>a</name></register></linked>
      <last_induction/></induction>
    <branch_information><label>L2</label><test>jge</test>
    </branch_information>
  </kernel>)";
  auto programs = testing::generate(xml);
  ASSERT_EQ(programs.size(), 1u);
  launcher::MicroLauncher ml(
      std::make_unique<launcher::SimBackend>(sim::nehalemX5650DualSocket()));
  auto kernel = ml.load(programs[0]);
  KernelRequest request;
  request.arrays.push_back(ArraySpec{8 * 1024, 4096, 0});
  request.arrays.push_back(ArraySpec{8 * 1024, 4096, 0});
  request.n = 8 * 1024 / 4;
  launcher::AlignmentSweepSpec spec;
  spec.maxOffset = 4096;
  spec.step = 256;
  spec.maxConfigs = 48;
  ProtocolOptions protocol;
  protocol.innerRepetitions = 1;
  protocol.outerRepetitions = 2;
  auto samples = ml.alignmentSweep(*kernel, request, spec, protocol);
  double lo = 1e18, hi = 0;
  for (const auto& s : samples) {
    lo = std::min(lo, s.measurement.cyclesPerIteration.min);
    hi = std::max(hi, s.measurement.cyclesPerIteration.min);
  }
  EXPECT_GT(hi, lo);  // alignment matters
}

TEST(Integration, CEmissionPathRunsOnNativeBackend) {
  std::string xml = testing::figure6Xml(2, 2, false);
  xml.insert(xml.find("<kernel>"), "<emit_c/>");
  auto programs = testing::generate(xml);
  ASSERT_FALSE(programs[0].cText.empty());
  native::NativeBackend backend;
  auto kernel = backend.loadCSource(programs[0].cText, "microkernel");
  KernelRequest request;
  request.arrays.push_back(ArraySpec{16 * 1024, 4096, 0});
  request.n = 16 * 1024 / 4;
  auto r = backend.invoke(*kernel, request);
  EXPECT_EQ(r.iterations, 16u * 1024 / 4 / 8 + 1);
}

TEST(Integration, PluginAlteredPipelineStillProducesRunnablePrograms) {
  creator::MicroCreator mc;
  mc.loadPlugin(MT_TEST_PLUGIN_PATH);
  auto programs = mc.generateFromText(testing::figure6Xml(2, 2, false));
  ASSERT_EQ(programs.size(), 1u);
  launcher::SimBackend backend(sim::nehalemX5650DualSocket());
  auto kernel = backend.load(programs[0]);
  KernelRequest request;
  request.arrays.push_back(ArraySpec{4096, 4096, 0});
  request.n = 1024;
  EXPECT_GT(backend.invoke(*kernel, request).iterations, 0u);
}

}  // namespace
}  // namespace microtools
