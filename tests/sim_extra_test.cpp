// Additional simulator edge-case coverage: branch-condition sweeps, split
// accesses, trace output, frequency conversions and config invariants.

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

#include "asmparse/asmparse.hpp"
#include "sim/core.hpp"
#include "sim/machine.hpp"
#include "support/error.hpp"
#include "test_helpers.hpp"

namespace microtools::sim {
namespace {

using testing::uniqueTempDir;

RunResult runProgram(const std::string& text, int n = 0,
                     std::vector<std::uint64_t> arrays = {}) {
  MachineConfig machine = nehalemX5650DualSocket();
  MemorySystem ms(machine);
  CoreSim core(machine, ms, 0);
  return core.run(asmparse::parseAssembly(text), n, arrays);
}

// Parameterized sweep over every conditional branch: a count-down loop
// built around the condition must terminate with the architecturally
// correct trip count.
struct BranchCase {
  const char* test;
  int n;
  std::uint64_t expectedIterations;
};

// Printed as the branch and start count. The default printer dumps the raw
// struct bytes, a pointer among them, and the discovered test names embed it.
void PrintTo(const BranchCase& c, std::ostream* os) {
  *os << c.test << "_from_" << c.n;
}

class BranchSemantics : public ::testing::TestWithParam<BranchCase> {};

TEST_P(BranchSemantics, LoopTripCountExact) {
  const BranchCase& c = GetParam();
  std::string text = std::string("f:\n") +
                     " movslq %edi, %rdi\n"
                     " xor %eax, %eax\n"
                     ".L1:\n"
                     " add $1, %eax\n"
                     " sub $1, %rdi\n " +
                     c.test + " .L1\n ret\n";
  EXPECT_EQ(runProgram(text, c.n).iterations, c.expectedIterations)
      << c.test;
}

INSTANTIATE_TEST_SUITE_P(
    ConditionCodes, BranchSemantics,
    ::testing::Values(BranchCase{"jge", 10, 11},  // runs down to -1
                      BranchCase{"jg", 10, 10},
                      BranchCase{"jne", 10, 10},
                      BranchCase{"jnz", 10, 10},
                      BranchCase{"jns", 7, 8},
                      BranchCase{"jg", 1, 1},
                      BranchCase{"jge", 0, 1}));

TEST(BranchSemantics, JsLoopsWhileNegative) {
  // Counter starts negative and increments to zero: js keeps looping while
  // the sub/add result is negative.
  std::string text =
      "f:\n"
      " xor %eax, %eax\n"
      " mov $-5, %rcx\n"
      ".L1:\n"
      " add $1, %eax\n"
      " add $1, %rcx\n"
      " js .L1\n"
      " ret\n";
  EXPECT_EQ(runProgram(text).iterations, 5u);
}

TEST(SplitAccess, UnalignedMovupsCrossesLines) {
  MachineConfig machine = nehalemX5650DualSocket();
  MemorySystem ms(machine);
  ms.touch(0, 0x100000, 4096);
  // 16-byte access at line offset 56 crosses into the next line.
  AccessResult aligned = ms.load(0, 0x100000, 16, 1000);
  AccessResult split = ms.load(0, 0x100000 + 56, 16, 1000);
  EXPECT_FALSE(aligned.splitLine);
  EXPECT_TRUE(split.splitLine);
  EXPECT_EQ(split.completeCycle - aligned.completeCycle,
            static_cast<std::uint64_t>(machine.splitLinePenalty));
}

TEST(Trace, EmitsIssueEvents) {
  MachineConfig machine = nehalemX5650DualSocket();
  MemorySystem ms(machine);
  CoreSim core(machine, ms, 0);
  std::string path = uniqueTempDir("trace") + "/trace.txt";
  std::FILE* f = std::fopen(path.c_str(), "w+");
  ASSERT_NE(f, nullptr);
  core.setTrace(f);
  core.run(asmparse::parseAssembly(
               "f:\n xor %eax, %eax\n add $1, %eax\n ret\n"),
           0, {});
  std::fflush(f);
  std::rewind(f);
  char buffer[256] = {};
  ASSERT_NE(std::fgets(buffer, sizeof buffer, f), nullptr);
  EXPECT_NE(std::strstr(buffer, "ALU issue="), nullptr);
  std::fclose(f);
}

TEST(Config, TscConversionIdentityAtNominal) {
  MachineConfig m = nehalemX5650DualSocket();
  EXPECT_DOUBLE_EQ(m.coreCyclesToTsc(1000.0), 1000.0);
  m.coreGHz = m.nominalGHz / 2;
  EXPECT_DOUBLE_EQ(m.coreCyclesToTsc(1000.0), 2000.0);
}

TEST(Config, NsConversionRounds) {
  MachineConfig m;
  m.coreGHz = 2.0;
  EXPECT_EQ(m.nsToCoreCycles(10.0), 20u);
  EXPECT_EQ(m.nsToCoreCycles(10.3), 21u);  // rounds to nearest
}

TEST(Config, ChannelOccupancyPositive) {
  for (const std::string& name : machineNames()) {
    MachineConfig m = machineByName(name);
    EXPECT_GE(m.channelOccupancyCycles(), 1u) << name;
    EXPECT_GT(m.totalCores(), 0) << name;
  }
}

TEST(Config, UnknownMachineThrows) {
  EXPECT_THROW(machineByName("itanium"), McError);
}

TEST(MultiCall, ClockMonotoneAcrossBackToBackCalls) {
  // The multi-core runner's `calls` chaining must keep per-call state
  // consistent: iterations scale linearly, cycles stay positive.
  MachineConfig machine = nehalemX5650DualSocket();
  asmparse::Program program = asmparse::parseAssembly(
      "f:\n movslq %edi, %rdi\n xor %eax, %eax\n"
      ".L1:\n movss (%rsi), %xmm0\n add $4, %rsi\n add $1, %eax\n"
      " sub $1, %rdi\n jge .L1\n ret\n");
  for (int calls : {1, 2, 5}) {
    MultiCoreRunner runner(machine);
    CoreWork w;
    w.program = &program;
    w.n = 512;
    w.arrayAddrs = {0x100000000ull};
    w.calls = calls;
    auto results = runner.run({w});
    EXPECT_EQ(results[0].iterations,
              static_cast<std::uint64_t>(calls) * 513u);
  }
}

TEST(Dispatch, EmptyProgramStillReturns) {
  RunResult r = runProgram("f:\n ret\n");
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.instructions, 1u);
}

TEST(Dispatch, NopsRetireWithoutUops) {
  RunResult r = runProgram("f:\n nop\n nop\n nop\n ret\n");
  EXPECT_EQ(r.instructions, 4u);
  EXPECT_EQ(r.uops, 0u);
}

TEST(FpLogic, XorpsZeroIdiomExecutes) {
  RunResult r = runProgram(
      "f:\n"
      " xorps %xmm1, %xmm1\n"
      " pxor %xmm2, %xmm2\n"
      " mov $3, %rax\n"
      " ret\n");
  EXPECT_EQ(r.iterations, 3u);
}

TEST(Prologue, ArgumentRegistersArriveInOrder) {
  // f(n, a0, a1): return (int)(a1 - a0) via GPR arithmetic on the pointer
  // arguments — verifies rsi/rdx carry the arrays.
  MachineConfig machine = nehalemX5650DualSocket();
  MemorySystem ms(machine);
  CoreSim core(machine, ms, 0);
  RunResult r = core.run(asmparse::parseAssembly(
                             "f:\n"
                             " mov %rdx, %rax\n"
                             " sub %rsi, %rax\n"
                             " ret\n"),
                         0, {1000, 1420});
  EXPECT_EQ(r.iterations, 420u);
}

}  // namespace
}  // namespace microtools::sim
