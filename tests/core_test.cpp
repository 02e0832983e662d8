#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "asmparse/asmparse.hpp"
#include "sim/core.hpp"
#include "support/error.hpp"
#include "test_helpers.hpp"

namespace microtools::sim {
namespace {

MachineConfig cfg() { return nehalemX5650DualSocket(); }

RunResult runAsm(const std::string& asmText, int n,
                 std::vector<std::uint64_t> arrays,
                 MachineConfig machine = cfg(), bool warm = true,
                 std::uint64_t warmBytes = 0) {
  asmparse::Program program = asmparse::parseAssembly(asmText);
  MemorySystem ms(machine);
  if (warm) {
    for (std::uint64_t base : arrays) {
      ms.touch(0, base,
               warmBytes ? warmBytes
                         : static_cast<std::uint64_t>(n) * 16 + 64);
    }
  }
  CoreSim core(machine, ms, 0);
  return core.run(program, n, arrays);
}

// ---------------------------------------------------------------------------
// Functional correctness
// ---------------------------------------------------------------------------

TEST(CoreFunctional, CountsLoopIterations) {
  RunResult r = runAsm(
      "f:\n"
      " movslq %edi, %rdi\n"
      " xor %eax, %eax\n"
      ".L1:\n"
      " add $1, %eax\n"
      " sub $1, %rdi\n"
      " jge .L1\n"
      " ret\n",
      99, {});
  EXPECT_EQ(r.iterations, 100u);  // do-while semantics: 99 down to -1
}

TEST(CoreFunctional, JgStopsAtZero) {
  RunResult r = runAsm(
      "f:\n"
      " movslq %edi, %rdi\n"
      " xor %eax, %eax\n"
      ".L1:\n"
      " add $1, %eax\n"
      " sub $1, %rdi\n"
      " jg .L1\n"
      " ret\n",
      100, {});
  EXPECT_EQ(r.iterations, 100u);
}

TEST(CoreFunctional, JneExactCount) {
  RunResult r = runAsm(
      "f:\n"
      " movslq %edi, %rdi\n"
      " xor %eax, %eax\n"
      ".L1:\n"
      " add $1, %eax\n"
      " sub $1, %rdi\n"
      " jne .L1\n"
      " ret\n",
      42, {});
  EXPECT_EQ(r.iterations, 42u);
}

TEST(CoreFunctional, RegisterArithmetic) {
  // Compute ((5 << 2) | 3) & 14 ^ 1 - into eax via mov/shl/or/and/xor.
  RunResult r = runAsm(
      "f:\n"
      " mov $5, %rax\n"
      " shl $2, %rax\n"   // 20
      " or $3, %rax\n"    // 23
      " and $14, %rax\n"  // 6
      " xor $1, %rax\n"   // 7
      " ret\n",
      0, {});
  EXPECT_EQ(r.iterations, 7u);
}

TEST(CoreFunctional, LeaComputesAddress) {
  RunResult r = runAsm(
      "f:\n"
      " mov $10, %rax\n"
      " mov $3, %rcx\n"
      " lea 5(%rax,%rcx,4), %rax\n"  // 10 + 12 + 5 = 27
      " ret\n",
      0, {});
  EXPECT_EQ(r.iterations, 27u);
}

TEST(CoreFunctional, ImulAndIncDec) {
  RunResult r = runAsm(
      "f:\n"
      " mov $6, %rax\n"
      " imul $7, %rax\n"  // 42
      " inc %rax\n"       // 43
      " dec %rax\n"
      " dec %rax\n"       // 41
      " ret\n",
      0, {});
  EXPECT_EQ(r.iterations, 41u);
}

TEST(CoreFunctional, ThirtyTwoBitWritesZeroExtend) {
  RunResult r = runAsm(
      "f:\n"
      " mov $-1, %rax\n"
      " mov $7, %eax\n"  // clears the upper half
      " ret\n",
      0, {});
  EXPECT_EQ(r.iterations, 7u);
}

TEST(CoreFunctional, MovslqSignExtends) {
  // n arrives in %edi; movslq must preserve negative trip counts.
  asmparse::Program p = asmparse::parseAssembly(
      "f:\n"
      " movslq %edi, %rdi\n"
      " xor %eax, %eax\n"
      ".L1:\n"
      " add $1, %eax\n"
      " sub $1, %rdi\n"
      " jge .L1\n"
      " ret\n");
  MachineConfig machine = cfg();
  MemorySystem ms(machine);
  CoreSim core(machine, ms, 0);
  RunResult r = core.run(p, -5, {});
  EXPECT_EQ(r.iterations, 1u);  // loop body executes once (do-while)
}

TEST(CoreFunctional, CmpBranchUnsigned) {
  RunResult r = runAsm(
      "f:\n"
      " xor %eax, %eax\n"
      " mov $5, %rcx\n"
      " cmp $3, %rcx\n"
      " ja .Lbig\n"
      " mov $1, %rax\n"
      " ret\n"
      ".Lbig:\n"
      " mov $2, %rax\n"
      " ret\n",
      0, {});
  EXPECT_EQ(r.iterations, 2u);
}

TEST(CoreFunctional, GeneratedKernelIterations) {
  // Property: for every unroll factor, the Figure-6 kernel executes
  // floor(n / (4u)) + 1 loop trips (movaps counts 4 elements per copy).
  for (int u = 1; u <= 8; ++u) {
    auto programs =
        microtools::testing::generate(microtools::testing::figure6Xml(u, u,
                                                                      false));
    ASSERT_EQ(programs.size(), 1u);
    int n = 4096;
    RunResult r = runAsm(programs[0].asmText, n, {0x100000});
    EXPECT_EQ(r.iterations,
              static_cast<std::uint64_t>(n / (4 * u)) + 1)
        << "unroll " << u;
  }
}

TEST(CoreFunctional, InstructionAndUopCounts) {
  RunResult r = runAsm(
      "f:\n"
      " xor %eax, %eax\n"
      " add $1, %eax\n"
      " ret\n",
      0, {});
  EXPECT_EQ(r.instructions, 3u);  // xor, add, ret
  EXPECT_EQ(r.uops, 2u);          // ret dispatches no uop
}

// ---------------------------------------------------------------------------
// Timing behaviour
// ---------------------------------------------------------------------------

std::string loadKernel(int loads, const char* mnemonic, int stride) {
  std::string body;
  for (int i = 0; i < loads; ++i) {
    body += " " + std::string(mnemonic) + " " +
            std::to_string(i * stride) + "(%rsi), %xmm" +
            std::to_string(i % 8) + "\n";
  }
  return "f:\n movslq %edi, %rdi\n xor %eax, %eax\n.L1:\n" + body +
         " add $" + std::to_string(loads * stride) + ", %rsi\n" +
         " add $1, %eax\n sub $1, %rdi\n jge .L1\n ret\n";
}

TEST(CoreTiming, L1LoadThroughputIsOnePerCycle) {
  // Nehalem has one load port: 8 independent L1 loads take ~8 cycles/iter.
  // The traversal (100 iterations x 128 bytes) fits L1 and is pre-warmed.
  RunResult r = runAsm(loadKernel(8, "movaps", 16), 100, {0x100000}, cfg(),
                       true, 100 * 128 + 128);
  double perIter = static_cast<double>(r.coreCycles) /
                   static_cast<double>(r.iterations);
  EXPECT_GT(perIter, 7.5);
  EXPECT_LT(perIter, 9.5);
}

TEST(CoreTiming, SandyBridgeDualLoadPortsAreFaster) {
  MachineConfig sb = sandyBridgeE31240();
  std::string k = loadKernel(8, "movaps", 16);
  RunResult nh = runAsm(k, 100, {0x100000}, cfg(), true, 100 * 128 + 128);
  RunResult sbr = runAsm(k, 100, {0x100000}, sb, true, 100 * 128 + 128);
  double nhPer = static_cast<double>(nh.coreCycles) / nh.iterations;
  double sbPer = static_cast<double>(sbr.coreCycles) / sbr.iterations;
  EXPECT_LT(sbPer, nhPer);
}

TEST(CoreTiming, LoadOfAJustFilledLineNeedsNoFillBuffer) {
  // Two load ports and one fill buffer: the first load misses and takes the
  // buffer; the second, to the same line, now hits L1 and must issue in the
  // same cycle rather than wait for a buffer.
  MachineConfig sb = sandyBridgeE31240();
  sb.fillBuffers = 1;
  MemorySystem ms(sb);
  CoreSim core(sb, ms, 0);
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* log = open_memstream(&buffer, &size);
  ASSERT_NE(log, nullptr);
  core.setTrace(log);
  core.run(asmparse::parseAssembly(
               "f:\n movaps (%rsi), %xmm0\n movaps 16(%rsi), %xmm1\n ret\n"),
           0, {0x100000});
  std::fclose(log);
  std::string trace(buffer, size);
  std::free(buffer);
  EXPECT_NE(trace.find("id=0 LD issue=1 "), std::string::npos) << trace;
  EXPECT_NE(trace.find("id=1 LD issue=1 "), std::string::npos) << trace;
}

TEST(CoreTiming, ColdRunSlowerThanWarm) {
  std::string k = loadKernel(4, "movaps", 16);
  RunResult cold = runAsm(k, 4000, {0x100000}, cfg(), /*warm=*/false);
  RunResult warm = runAsm(k, 4000, {0x100000}, cfg(), /*warm=*/true);
  EXPECT_GT(cold.coreCycles, warm.coreCycles);
}

TEST(CoreTiming, DependencyChainLimitsThroughput) {
  // addsd chain: 3-cycle latency each, fully serialized.
  std::string chained =
      "f:\n movslq %edi, %rdi\n xor %eax, %eax\n.L1:\n"
      " addsd %xmm0, %xmm1\n"
      " addsd %xmm0, %xmm1\n"
      " addsd %xmm0, %xmm1\n"
      " addsd %xmm0, %xmm1\n"
      " add $1, %eax\n sub $1, %rdi\n jge .L1\n ret\n";
  std::string independent =
      "f:\n movslq %edi, %rdi\n xor %eax, %eax\n.L1:\n"
      " addsd %xmm0, %xmm1\n"
      " addsd %xmm0, %xmm2\n"
      " addsd %xmm0, %xmm3\n"
      " addsd %xmm0, %xmm4\n"
      " add $1, %eax\n sub $1, %rdi\n jge .L1\n ret\n";
  RunResult serial = runAsm(chained, 1000, {});
  RunResult parallel = runAsm(independent, 1000, {});
  double serialPer = static_cast<double>(serial.coreCycles) / serial.iterations;
  double parallelPer =
      static_cast<double>(parallel.coreCycles) / parallel.iterations;
  EXPECT_GT(serialPer, 11.0);  // 4 x 3-cycle chain
  EXPECT_LT(parallelPer, serialPer / 2.0);
}

TEST(CoreTiming, FpDivIsExpensive) {
  std::string divs =
      "f:\n movslq %edi, %rdi\n xor %eax, %eax\n.L1:\n"
      " divsd %xmm0, %xmm1\n"
      " add $1, %eax\n sub $1, %rdi\n jge .L1\n ret\n";
  RunResult r = runAsm(divs, 500, {});
  double perIter = static_cast<double>(r.coreCycles) / r.iterations;
  EXPECT_GT(perIter, 15.0);
}

TEST(CoreTiming, UnrollingAmortizesLoopOverhead) {
  // Paper §5.1: "for the general case, unrolling is advantageous".
  // cycles per LOAD must drop monotonically-ish from u=1 to u=8 in L1.
  double first = 0, last = 0;
  for (int u : {1, 8}) {
    auto programs = microtools::testing::generate(
        microtools::testing::figure6Xml(u, u, false));
    RunResult r = runAsm(programs[0].asmText, 8000, {0x100000});
    double perLoad = static_cast<double>(r.coreCycles) /
                     static_cast<double>(r.iterations) / u;
    if (u == 1) first = perLoad;
    if (u == 8) last = perLoad;
  }
  EXPECT_LT(last, first);
}

TEST(CoreTiming, Aliasing4kPenaltyApplies) {
  // A store followed by a load 4096 bytes away on every iteration triggers
  // the MOB false-dependence penalty; offsetting the load avoids it.
  auto kernel = [](int delta) {
    return
        "f:\n movslq %edi, %rdi\n xor %eax, %eax\n.L1:\n"
        " movaps %xmm0, (%rsi)\n"
        " movaps " + std::to_string(4096 + delta) + "(%rsi), %xmm1\n"
        " add $16, %rsi\n"
        " add $1, %eax\n sub $1, %rdi\n jge .L1\n ret\n";
  };
  // Footprint (8 KiB store stream + 8 KiB load stream at +4 KiB) fits L1,
  // so the MOB penalty is the only difference between the two variants.
  MachineConfig machine = cfg();
  MemorySystem ms1(machine);
  ms1.touch(0, 0x100000, 16 * 1024);
  CoreSim core1(machine, ms1, 0);
  RunResult aliased = core1.run(asmparse::parseAssembly(kernel(0)), 500,
                                {0x100000});
  MemorySystem ms2(machine);
  ms2.touch(0, 0x100000, 16 * 1024);
  CoreSim core2(machine, ms2, 0);
  RunResult clean = core2.run(asmparse::parseAssembly(kernel(512)), 500,
                              {0x100000});
  EXPECT_GT(aliased.coreCycles, clean.coreCycles);
}

TEST(CoreTiming, TscConversionUsesFrequencyRatio) {
  MachineConfig machine = cfg();
  machine.coreGHz = machine.nominalGHz / 2.0;  // halve the core clock
  MemorySystem ms(machine);
  ms.touch(0, 0x100000, 1 << 16);
  CoreSim core(machine, ms, 0);
  RunResult r = core.run(asmparse::parseAssembly(loadKernel(4, "movss", 4)),
                         4000, {0x100000});
  EXPECT_NEAR(r.tscCycles, static_cast<double>(r.coreCycles) * 2.0, 1.0);
}

TEST(CoreTiming, ResultBeforeCompletionThrows) {
  MachineConfig machine = cfg();
  MemorySystem ms(machine);
  CoreSim core(machine, ms, 0);
  EXPECT_THROW(core.result(), McError);
}

TEST(CoreTiming, DeterministicAcrossRuns) {
  std::string k = loadKernel(6, "movss", 4);
  RunResult a = runAsm(k, 5000, {0x100000});
  RunResult b = runAsm(k, 5000, {0x100000});
  EXPECT_EQ(a.coreCycles, b.coreCycles);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(CoreTiming, MonotonicInTripCount) {
  std::string k = loadKernel(4, "movss", 4);
  std::uint64_t prev = 0;
  for (int n : {1000, 2000, 4000, 8000}) {
    RunResult r = runAsm(k, n, {0x100000});
    EXPECT_GT(r.coreCycles, prev);
    prev = r.coreCycles;
  }
}

TEST(CoreTiming, IndirectBranchRejected) {
  EXPECT_THROW(runAsm("f:\n jmp 8(%rax)\n ret\n", 0, {}), McError);
}

}  // namespace
}  // namespace microtools::sim
