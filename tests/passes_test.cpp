#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "creator/creator.hpp"
#include "creator/passes.hpp"
#include "support/error.hpp"
#include "test_helpers.hpp"

namespace microtools::creator {
namespace {

using testing::figure6Xml;
using testing::generate;

// ---------------------------------------------------------------------------
// End-to-end variant counting (§5.1: 510 programs from one file)
// ---------------------------------------------------------------------------

TEST(Pipeline, PaperGenerates510Variants) {
  EXPECT_EQ(generate(figure6Xml(1, 8)).size(), 510u);
}

class VariantCount : public ::testing::TestWithParam<int> {};

TEST_P(VariantCount, SumOfTwoToTheU) {
  int maxUnroll = GetParam();
  std::size_t expected = 0;
  for (int u = 1; u <= maxUnroll; ++u) expected += std::size_t{1} << u;
  EXPECT_EQ(generate(figure6Xml(1, maxUnroll)).size(), expected);
}

INSTANTIATE_TEST_SUITE_P(UnrollBounds, VariantCount, ::testing::Range(1, 8));

TEST(Pipeline, NoSwapGivesOneVariantPerUnroll) {
  EXPECT_EQ(generate(figure6Xml(1, 8, /*swapAfter=*/false)).size(), 8u);
}

TEST(Pipeline, VariantNamesAreUnique) {
  auto programs = generate(figure6Xml(1, 6));
  std::set<std::string> names;
  for (const auto& p : programs) names.insert(p.name);
  EXPECT_EQ(names.size(), programs.size());
}

TEST(Pipeline, MaximumBenchmarksCapsOutput) {
  std::string xml = figure6Xml(1, 8);
  xml.insert(xml.find("<kernel>"),
             "<maximum_benchmarks>25</maximum_benchmarks>");
  EXPECT_EQ(generate(xml).size(), 25u);
}

TEST(Pipeline, SwapAfterSequencesCoverAllCombinations) {
  auto programs = generate(figure6Xml(3, 3));
  ASSERT_EQ(programs.size(), 8u);
  std::set<std::string> sequences;
  for (const auto& p : programs) {
    int loads = p.kernel.loadCount();
    int stores = p.kernel.storeCount();
    EXPECT_EQ(loads + stores, 3);
    sequences.insert(p.name.substr(p.name.find("seq")));
  }
  EXPECT_EQ(sequences.size(), 8u);  // LLL, LLS, ..., SSS
}

// §3.2: swapping before unrolling yields only homogeneous kernels; swapping
// after also yields the mixed sequences.
TEST(Pipeline, SwapBeforeYieldsHomogeneousKernels) {
  std::string xml = figure6Xml(2, 2);
  std::size_t pos = xml.find("<swap_after_unroll/>");
  xml.replace(pos, std::string("<swap_after_unroll/>").size(),
              "<swap_before_unroll/>");
  auto programs = generate(xml);
  ASSERT_EQ(programs.size(), 2u);
  for (const auto& p : programs) {
    bool allLoads = p.kernel.loadCount() == 2 && p.kernel.storeCount() == 0;
    bool allStores = p.kernel.storeCount() == 2 && p.kernel.loadCount() == 0;
    EXPECT_TRUE(allLoads || allStores) << p.name;
  }
}

// ---------------------------------------------------------------------------
// Unrolling
// ---------------------------------------------------------------------------

TEST(Unrolling, MemoryOffsetsAdvancePerCopy) {
  auto programs = generate(figure6Xml(3, 3, /*swapAfter=*/false));
  ASSERT_EQ(programs.size(), 1u);
  const ir::Kernel& kernel = programs[0].kernel;
  ASSERT_EQ(kernel.body.size(), 3u);
  for (int copy = 0; copy < 3; ++copy) {
    const auto& instr = kernel.body[static_cast<std::size_t>(copy)];
    EXPECT_EQ(instr.unrollCopy, copy);
    const auto& mem = std::get<ir::MemOperand>(instr.operands[0]);
    EXPECT_EQ(mem.offset, 16 * copy);
  }
  EXPECT_EQ(kernel.unrollFactor, 3);
}

TEST(Unrolling, TagsRecordFactor) {
  auto programs = generate(figure6Xml(2, 4, false));
  ASSERT_EQ(programs.size(), 3u);
  EXPECT_NE(programs[0].name.find("u2"), std::string::npos);
  EXPECT_NE(programs[2].name.find("u4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// RegisterRotation
// ---------------------------------------------------------------------------

TEST(RegisterRotation, DistinctXmmPerCopy) {
  auto programs = generate(figure6Xml(3, 3, false));
  const ir::Kernel& kernel = programs[0].kernel;
  for (int copy = 0; copy < 3; ++copy) {
    const auto& reg = std::get<ir::RegOperand>(
        kernel.body[static_cast<std::size_t>(copy)].operands[1]);
    ASSERT_TRUE(reg.phys);
    EXPECT_EQ(reg.phys->cls, isa::RegClass::Xmm);
    EXPECT_EQ(reg.phys->index, copy);  // min 0, max 8 -> xmm0,1,2
  }
}

TEST(RegisterRotation, WrapsAroundRange) {
  // Range [0, 2) with unroll 5 -> xmm0, xmm1, xmm0, xmm1, xmm0.
  std::string xml = figure6Xml(5, 5, false);
  std::size_t pos = xml.find("<max>8</max>");
  xml.replace(pos, std::string("<max>8</max>").size(), "<max>2</max>");
  auto programs = generate(xml);
  const ir::Kernel& kernel = programs[0].kernel;
  for (int copy = 0; copy < 5; ++copy) {
    const auto& reg = std::get<ir::RegOperand>(
        kernel.body[static_cast<std::size_t>(copy)].operands[1]);
    EXPECT_EQ(reg.phys->index, copy % 2);
  }
}

// ---------------------------------------------------------------------------
// RegisterAllocation, LoopCounterSetup, PrologueEpilogue
// ---------------------------------------------------------------------------

TEST(RegisterAllocation, CounterGetsRdiPointerGetsRsi) {
  auto programs = generate(figure6Xml(1, 1, false));
  const ir::Kernel& kernel = programs[0].kernel;
  const auto& mem = std::get<ir::MemOperand>(kernel.body[0].operands[0]);
  ASSERT_TRUE(mem.base.phys);
  EXPECT_EQ(mem.base.phys->index, isa::kRsi);
  const ir::InductionVar* last = kernel.lastInduction();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->reg.phys->index, isa::kRdi);
  EXPECT_EQ(kernel.arrayCount, 1);
}

TEST(RegisterAllocation, MultipleArraysUseArgumentOrder) {
  auto programs = generate(testing::movssLoadXml(1, 1, 3));
  const ir::Kernel& kernel = programs[0].kernel;
  EXPECT_EQ(kernel.arrayCount, 3);
  std::vector<int> expected{isa::kRsi, isa::kRdx, isa::kRcx};
  for (int a = 0; a < 3; ++a) {
    const auto& mem = std::get<ir::MemOperand>(
        kernel.body[static_cast<std::size_t>(a)].operands[0]);
    EXPECT_EQ(mem.base.phys->index, expected[static_cast<std::size_t>(a)]);
  }
}

TEST(LoopCounterSetup, SynthesizesEaxCounter) {
  auto programs = generate(figure6Xml(1, 1, false));
  const ir::Kernel& kernel = programs[0].kernel;
  bool hasEax = false;
  for (const ir::InductionVar& iv : kernel.inductions) {
    if (iv.reg.phys && iv.reg.phys->index == isa::kRax) {
      hasEax = true;
      EXPECT_TRUE(iv.notAffectedByUnroll);
      EXPECT_EQ(iv.increment, 1);
    }
  }
  EXPECT_TRUE(hasEax);
}

TEST(PrologueEpilogue, SignExtendZeroAndRet) {
  auto programs = generate(figure6Xml(1, 1, false));
  const ir::Kernel& kernel = programs[0].kernel;
  ASSERT_GE(kernel.prologue.size(), 2u);
  EXPECT_EQ(kernel.prologue[0].operation, "movslq");
  EXPECT_EQ(kernel.prologue[1].operation, "xor");
  ASSERT_EQ(kernel.epilogue.size(), 1u);
  EXPECT_EQ(kernel.epilogue[0].operation, "ret");
}

// ---------------------------------------------------------------------------
// InductionLinking / InductionInsertion (Figure 8 semantics)
// ---------------------------------------------------------------------------

TEST(InductionLinking, Figure8Increments) {
  auto programs = generate(figure6Xml(3, 3, false));
  const ir::Kernel& kernel = programs[0].kernel;
  // add $48, %rsi / add $1, %eax / sub $12, %rdi
  ASSERT_EQ(kernel.loopMaintenance.size(), 3u);
  EXPECT_EQ(kernel.loopMaintenance[0].render(), "add $48, %rsi");
  EXPECT_EQ(kernel.loopMaintenance[1].render(), "add $1, %eax");
  EXPECT_EQ(kernel.loopMaintenance[2].render(), "sub $12, %rdi");
}

TEST(InductionLinking, ElementSizeScalesLink) {
  // element_size 8 -> counter steps by offset/8 = 2 per copy.
  std::string xml = figure6Xml(4, 4, false);
  std::size_t pos = xml.find("<last_induction/>");
  xml.insert(pos, "<element_size>8</element_size>");
  auto programs = generate(xml);
  const ir::Kernel& kernel = programs[0].kernel;
  // -1 * 4 (unroll) * (16/8) = -8
  EXPECT_EQ(kernel.loopMaintenance.back().render(), "sub $8, %rdi");
}

TEST(InductionLinking, NotAffectedUnrollKeepsIncrement) {
  auto programs = generate(figure6Xml(8, 8, false));
  const ir::Kernel& kernel = programs[0].kernel;
  // The synthesized %eax counter stays at +1 regardless of unroll.
  EXPECT_EQ(kernel.loopMaintenance[1].render(), "add $1, %eax");
}

TEST(InductionInsertion, LastInductionComesLast) {
  auto programs = generate(figure6Xml(2, 2, false));
  const ir::Kernel& kernel = programs[0].kernel;
  const ir::Instruction& last = kernel.loopMaintenance.back();
  const auto& reg = std::get<ir::RegOperand>(last.operands[1]);
  EXPECT_EQ(reg.phys->index, isa::kRdi);
}

// ---------------------------------------------------------------------------
// Selection passes
// ---------------------------------------------------------------------------

TEST(MoveSemantics, AlignedSixteenFansOutTwoMoves) {
  auto programs = generate(
      R"(<kernel>
           <instruction>
             <move_semantic><bytes>16</bytes><aligned/></move_semantic>
             <memory><register><name>r1</name></register></memory>
             <register><phyName>%xmm0</phyName></register>
           </instruction>
           <induction><register><name>r1</name></register>
             <increment>16</increment></induction>
           <induction><register><name>r0</name></register>
             <increment>-1</increment><last_induction/></induction>
           <branch_information><label>L1</label><test>jge</test>
           </branch_information>
         </kernel>)");
  ASSERT_EQ(programs.size(), 2u);
  EXPECT_EQ(programs[0].kernel.body[0].operation, "movaps");
  EXPECT_EQ(programs[1].kernel.body[0].operation, "movapd");
}

TEST(MoveSemantics, AlignedPlusUnalignedGivesFour) {
  auto programs = generate(
      R"(<kernel>
           <instruction>
             <move_semantic><bytes>16</bytes><aligned/><unaligned/>
             </move_semantic>
             <memory><register><name>r1</name></register></memory>
             <register><phyName>%xmm0</phyName></register>
           </instruction>
           <induction><register><name>r1</name></register>
             <increment>16</increment></induction>
           <induction><register><name>r0</name></register>
             <increment>-1</increment><last_induction/></induction>
           <branch_information><label>L1</label><test>jge</test>
           </branch_information>
         </kernel>)");
  EXPECT_EQ(programs.size(), 4u);
}

TEST(OperationChoices, ExhaustiveFanOutWithoutRandom) {
  auto programs = generate(
      R"(<kernel>
           <instruction>
             <operation>movss</operation>
             <operation>movsd</operation>
             <operation>movaps</operation>
             <memory><register><name>r1</name></register></memory>
             <register><phyName>%xmm0</phyName></register>
           </instruction>
           <induction><register><name>r1</name></register>
             <increment>16</increment></induction>
           <induction><register><name>r0</name></register>
             <increment>-1</increment><last_induction/></induction>
           <branch_information><label>L1</label><test>jge</test>
           </branch_information>
         </kernel>)");
  ASSERT_EQ(programs.size(), 3u);
}

TEST(RandomSelection, DeterministicAcrossRunsWithSameSeed) {
  const char* xml =
      R"(<description><seed>7</seed><kernel>
           <instruction>
             <operation>movss</operation>
             <operation>movsd</operation>
             <random_choice/>
             <memory><register><name>r1</name></register></memory>
             <register><phyName>%xmm0</phyName></register>
           </instruction>
           <induction><register><name>r1</name></register>
             <increment>16</increment></induction>
           <induction><register><name>r0</name></register>
             <increment>-1</increment><last_induction/></induction>
           <branch_information><label>L1</label><test>jge</test>
           </branch_information>
         </kernel></description>)";
  auto a = generate(xml);
  auto b = generate(xml);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].kernel.body[0].operation, b[0].kernel.body[0].operation);
}

TEST(ImmediateSelection, FansOutEveryValue) {
  auto programs = generate(
      R"(<kernel>
           <instruction>
             <operation>add</operation>
             <immediate><min>0</min><max>24</max><step>8</step></immediate>
             <register><name>r1</name></register>
           </instruction>
           <induction><register><name>r1</name></register>
             <increment>16</increment></induction>
           <induction><register><name>r0</name></register>
             <increment>-1</increment><last_induction/></induction>
           <branch_information><label>L1</label><test>jge</test>
           </branch_information>
         </kernel>)");
  EXPECT_EQ(programs.size(), 4u);  // 0, 8, 16, 24
}

TEST(StrideSelection, FansOutEveryStride) {
  auto programs = generate(
      R"(<kernel>
           <instruction>
             <operation>movss</operation>
             <memory><register><name>r1</name></register></memory>
             <register><phyName>%xmm0</phyName></register>
           </instruction>
           <induction><register><name>r1</name></register>
             <increment>4</increment><increment>8</increment>
             <increment>16</increment></induction>
           <induction><register><name>r0</name></register>
             <increment>-1</increment><last_induction/></induction>
           <branch_information><label>L1</label><test>jge</test>
           </branch_information>
         </kernel>)");
  ASSERT_EQ(programs.size(), 3u);
  std::set<std::string> tails;
  for (const auto& p : programs) {
    const ir::Instruction& inc = p.kernel.loopMaintenance[0];
    tails.insert(inc.render());
  }
  EXPECT_EQ(tails, (std::set<std::string>{"add $4, %rsi", "add $8, %rsi",
                                          "add $16, %rsi"}));
}

TEST(InstructionRepetition, RepeatsFanOut) {
  auto programs = generate(
      R"(<kernel>
           <instruction>
             <operation>movss</operation>
             <memory><register><name>r1</name></register></memory>
             <register><phyName>%xmm0</phyName></register>
             <repeat><min>1</min><max>3</max></repeat>
           </instruction>
           <induction><register><name>r1</name></register>
             <increment>4</increment></induction>
           <induction><register><name>r0</name></register>
             <increment>-1</increment><last_induction/></induction>
           <branch_information><label>L1</label><test>jge</test>
           </branch_information>
         </kernel>)");
  ASSERT_EQ(programs.size(), 3u);
  EXPECT_EQ(programs[0].kernel.body.size(), 1u);
  EXPECT_EQ(programs[1].kernel.body.size(), 2u);
  EXPECT_EQ(programs[2].kernel.body.size(), 3u);
}

// ---------------------------------------------------------------------------
// Scheduling & Peephole
// ---------------------------------------------------------------------------

TEST(Scheduling, InterleavesLoadsAndStores) {
  std::string xml = figure6Xml(4, 4);
  xml.insert(xml.find("<kernel>"), "<schedule>interleave</schedule>");
  auto programs = generate(xml);
  // Find the LLSS variant; after interleaving it should read L,S,L,S.
  for (const auto& p : programs) {
    if (p.name.find("seqLLSS") == std::string::npos) continue;
    ASSERT_NE(p.name.find("sched_il"), std::string::npos);
    const auto& body = p.kernel.body;
    ASSERT_EQ(body.size(), 4u);
    EXPECT_TRUE(body[0].isLoad());
    EXPECT_TRUE(body[1].isStore());
    EXPECT_TRUE(body[2].isLoad());
    EXPECT_TRUE(body[3].isStore());
    return;
  }
  FAIL() << "seqLLSS variant not found";
}

TEST(Peephole, DropsZeroIncrements) {
  auto programs = generate(
      R"(<kernel>
           <instruction>
             <operation>movss</operation>
             <memory><register><name>r1</name></register></memory>
             <register><phyName>%xmm0</phyName></register>
           </instruction>
           <induction><register><name>r1</name></register>
             <increment>0</increment></induction>
           <induction><register><name>r0</name></register>
             <increment>-1</increment><last_induction/></induction>
           <branch_information><label>L1</label><test>jge</test>
           </branch_information>
         </kernel>)");
  const ir::Kernel& kernel = programs[0].kernel;
  for (const ir::Instruction& instr : kernel.loopMaintenance) {
    if (instr.operands.size() == 2) {
      const auto* imm = std::get_if<ir::ImmOperand>(&instr.operands[0]);
      if (imm) EXPECT_NE(imm->value, 0) << instr.render();
    }
  }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(Validation, RejectsUnknownOperation) {
  EXPECT_THROW(generate(
                   R"(<kernel>
                        <instruction><operation>frobnicate</operation>
                        </instruction>
                      </kernel>)"),
               DescriptionError);
}

TEST(Validation, RejectsNonBranchTest) {
  std::string xml = figure6Xml();
  std::size_t pos = xml.find("<test>jge</test>");
  xml.replace(pos, std::string("<test>jge</test>").size(),
              "<test>add</test>");
  EXPECT_THROW(generate(xml), DescriptionError);
}

TEST(Validation, RejectsLinkToUnknownRegister) {
  std::string xml = figure6Xml();
  std::size_t pos = xml.find("<linked><register><name>r1</name>");
  xml.replace(pos, std::string("<linked><register><name>r1</name>").size(),
              "<linked><register><name>rZ</name>");
  EXPECT_THROW(generate(xml), DescriptionError);
}

TEST(Validation, DefaultsLastInductionToFinalOne) {
  // Without an explicit <last_induction/>, the final induction drives the
  // loop (matching Figure 6's layout).
  auto programs = generate(
      R"(<kernel>
           <instruction>
             <operation>movss</operation>
             <memory><register><name>r1</name></register></memory>
             <register><phyName>%xmm0</phyName></register>
           </instruction>
           <induction><register><name>r1</name></register>
             <increment>4</increment></induction>
           <induction><register><name>r0</name></register>
             <increment>-1</increment></induction>
           <branch_information><label>L1</label><test>jge</test>
           </branch_information>
         </kernel>)");
  const ir::InductionVar* last = programs[0].kernel.lastInduction();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->reg.phys->index, isa::kRdi);
}

// ---------------------------------------------------------------------------
// PassManager surface
// ---------------------------------------------------------------------------

TEST(PassManager, StandardPipelineHasTwentyPasses) {
  PassManager pm = PassManager::standardPipeline();
  EXPECT_EQ(pm.size(), 20u);
  EXPECT_EQ(pm.passNames().front(), "ValidateDescription");
  EXPECT_EQ(pm.passNames().back(), "Verification");
}

TEST(PassManager, AddBeforeAfterRemoveReplace) {
  PassManager pm = PassManager::standardPipeline();
  pm.addPassAfter("Unrolling", std::make_unique<LambdaPass>(
                                   "After", [](GenerationState&) {}));
  pm.addPassBefore("Unrolling", std::make_unique<LambdaPass>(
                                    "Before", [](GenerationState&) {}));
  auto names = pm.passNames();
  auto find = [&names](const std::string& n) {
    return std::find(names.begin(), names.end(), n) - names.begin();
  };
  EXPECT_EQ(find("Before") + 1, find("Unrolling"));
  EXPECT_EQ(find("Unrolling") + 1, find("After"));

  pm.removePass("Before");
  EXPECT_EQ(pm.find("Before"), nullptr);

  pm.replacePass("After", std::make_unique<LambdaPass>(
                              "Replacement", [](GenerationState&) {}));
  EXPECT_EQ(pm.find("After"), nullptr);
  EXPECT_NE(pm.find("Replacement"), nullptr);
  EXPECT_EQ(pm.size(), 21u);  // 20 standard + the surviving added pass
}

TEST(PassManager, UnknownAnchorsThrow) {
  PassManager pm = PassManager::standardPipeline();
  EXPECT_THROW(pm.removePass("NoSuchPass"), McError);
  EXPECT_THROW(pm.addPassAfter("NoSuchPass",
                               std::make_unique<LambdaPass>(
                                   "X", [](GenerationState&) {})),
               McError);
}

TEST(PassManager, DuplicateNamesRejected) {
  PassManager pm = PassManager::standardPipeline();
  EXPECT_THROW(
      pm.addPass(std::make_unique<LambdaPass>("Unrolling",
                                              [](GenerationState&) {})),
      McError);
}

TEST(PassManager, GateOverrideSkipsPass) {
  MicroCreator mc;
  // Gating off Unrolling leaves the kernel at factor 1 even though the
  // description asks for 4.
  mc.passManager().setGate("Unrolling",
                           [](const GenerationState&) { return false; });
  // OperandSwapAfterUnroll would still fan out; disable it too.
  mc.passManager().setGate("OperandSwapAfterUnroll",
                           [](const GenerationState&) { return false; });
  auto programs = mc.generateFromText(figure6Xml(4, 4));
  ASSERT_EQ(programs.size(), 1u);
  EXPECT_EQ(programs[0].kernel.body.size(), 1u);
  EXPECT_EQ(programs[0].kernel.unrollFactor, 1);
}

TEST(PassManager, CustomPassObservesKernels) {
  MicroCreator mc;
  int observed = -1;
  mc.passManager().addPassAfter(
      "OperandSwapAfterUnroll",
      std::make_unique<LambdaPass>("Counter",
                                   [&observed](GenerationState& state) {
                                     observed = static_cast<int>(
                                         state.kernels.size());
                                   }));
  auto programs = mc.generateFromText(figure6Xml(1, 4));
  EXPECT_EQ(observed, 2 + 4 + 8 + 16);
  EXPECT_EQ(programs.size(), 30u);
}

// ---------------------------------------------------------------------------
// Naming contract
// ---------------------------------------------------------------------------

TEST(AssignVariantNames, FirstOccurrenceBareThenNumberedSuffixes) {
  std::vector<std::string> names =
      assignVariantNames({"a", "b", "a", "a", "b", "c"});
  std::vector<std::string> expected = {"a", "b", "a_v2", "a_v3", "b_v2", "c"};
  EXPECT_EQ(names, expected);
}

TEST(AssignVariantNames, DependsOnlyOnPositionAmongEqualBases) {
  // Inserting an unrelated base name must not shift anyone else's suffix.
  std::vector<std::string> before = assignVariantNames({"k", "k", "k"});
  std::vector<std::string> after = assignVariantNames({"k", "x", "k", "k"});
  EXPECT_EQ(before[0], after[0]);
  EXPECT_EQ(before[1], after[2]);
  EXPECT_EQ(before[2], after[3]);
}

TEST(AssignVariantNames, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(assignVariantNames({}).empty());
}

}  // namespace
}  // namespace microtools::creator
