#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "asmparse/asmparse.hpp"
#include "launcher/sim_backend.hpp"
#include "sim/core.hpp"
#include "test_helpers.hpp"

// The fast path of the simulated backend (warm-invoke memoization in
// SimBackend, plus its fork and OpenMP memos) promises *bit-identical*
// results to full cycle simulation — not approximately equal. These tests
// drive both paths over the interesting kernel shapes (loadstore, strided
// scalar loads, alignment offsets, L1-resident and streaming working sets)
// and in every invoke mode (plain, fork, OpenMP), comparing exact doubles.

namespace microtools::launcher {
namespace {

using testing::figure6Xml;
using testing::generate;
using testing::movssLoadXml;

SimBackendOptions exactOptions() {
  SimBackendOptions o;
  o.steadyState = false;
  o.memoize = false;
  return o;
}

KernelRequest requestFor(std::uint64_t bytes, std::uint64_t offset,
                         std::uint64_t elementBytes) {
  KernelRequest request;
  request.arrays.push_back(ArraySpec{bytes, 4096, offset});
  request.n = static_cast<int>(bytes / elementBytes);
  return request;
}

/// Runs `invokes` identical calls on a fresh backend; returns the results.
std::vector<InvokeResult> runSequence(const std::string& asmText,
                                      const KernelRequest& request,
                                      SimBackendOptions options,
                                      int invokes,
                                      std::uint64_t* replayed = nullptr) {
  SimBackend backend(sim::nehalemX5650DualSocket(), options);
  auto kernel = backend.load(asmText, "microkernel");
  std::vector<InvokeResult> out;
  for (int i = 0; i < invokes; ++i) {
    out.push_back(backend.invoke(*kernel, request));
  }
  if (replayed) *replayed = backend.replayedInvokes();
  return out;
}

void expectBitIdentical(const std::vector<InvokeResult>& fast,
                        const std::vector<InvokeResult>& exact) {
  ASSERT_EQ(fast.size(), exact.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    // Exact comparison on purpose: same bits, not "close enough".
    EXPECT_EQ(fast[i].tscCycles, exact[i].tscCycles) << "invoke " << i;
    EXPECT_EQ(fast[i].iterations, exact[i].iterations) << "invoke " << i;
  }
}

// ---------------------------------------------------------------------------
// Property: fast path == --sim-exact, across kernels/sizes/alignments
// ---------------------------------------------------------------------------

TEST(SimBackendExactness, LoadStoreKernelsAllSizesAndAlignments) {
  struct Case {
    std::string xml;
    std::uint64_t elementBytes;
    std::uint64_t offset;
  };
  // movaps needs 16-byte alignment; the scalar movss kernel probes the
  // odd-offset space.
  std::vector<Case> cases = {
      {figure6Xml(1, 1, false), 16, 0},   {figure6Xml(4, 4, false), 16, 16},
      {figure6Xml(8, 8, false), 16, 32},  {movssLoadXml(1, 1), 4, 0},
      {movssLoadXml(2, 2), 4, 4},
  };
  // 16 KiB stays L1-resident; 1 MiB streams through L2/L3. Both settle
  // into warm states the warm-invoke memo replays.
  std::vector<std::uint64_t> sizes = {16 * 1024, 1 << 20};
  for (const Case& c : cases) {
    std::string asmText = generate(c.xml).at(0).asmText;
    for (std::uint64_t bytes : sizes) {
      KernelRequest request = requestFor(bytes, c.offset, c.elementBytes);
      std::vector<InvokeResult> fast =
          runSequence(asmText, request, SimBackendOptions{}, 12);
      std::vector<InvokeResult> exact =
          runSequence(asmText, request, exactOptions(), 12);
      SCOPED_TRACE("bytes=" + std::to_string(bytes) +
                   " offset=" + std::to_string(c.offset));
      expectBitIdentical(fast, exact);
    }
  }
}

TEST(SimBackendExactness, ForkMode) {
  std::string asmText = generate(figure6Xml(2, 2, false)).at(0).asmText;
  KernelRequest request = requestFor(64 * 1024, 0, 16);
  SimBackend fast(sim::nehalemX5650DualSocket(), SimBackendOptions{});
  SimBackend exact(sim::nehalemX5650DualSocket(), exactOptions());
  auto kf = fast.load(asmText, "microkernel");
  auto ke = exact.load(asmText, "microkernel");
  std::vector<InvokeResult> rf =
      fast.invokeFork(*kf, request, 2, 2, PinPolicy::Scatter);
  std::vector<InvokeResult> re =
      exact.invokeFork(*ke, request, 2, 2, PinPolicy::Scatter);
  expectBitIdentical(rf, re);
  // Second identical fork: served from the pure-function memo, same bits.
  expectBitIdentical(fast.invokeFork(*kf, request, 2, 2, PinPolicy::Scatter),
                     re);
}

TEST(SimBackendExactness, OpenMpMode) {
  std::string asmText = generate(movssLoadXml(1, 1)).at(0).asmText;
  KernelRequest request = requestFor(128 * 1024, 0, 4);
  SimBackend fast(sim::nehalemX5650DualSocket(), SimBackendOptions{});
  SimBackend exact(sim::nehalemX5650DualSocket(), exactOptions());
  auto kf = fast.load(asmText, "microkernel");
  auto ke = exact.load(asmText, "microkernel");
  InvokeResult rf = fast.invokeOpenMp(*kf, request, 4, 2);
  InvokeResult re = exact.invokeOpenMp(*ke, request, 4, 2);
  EXPECT_EQ(rf.tscCycles, re.tscCycles);
  EXPECT_EQ(rf.iterations, re.iterations);
  // Memoized repeat.
  InvokeResult again = fast.invokeOpenMp(*kf, request, 4, 2);
  EXPECT_EQ(again.tscCycles, re.tscCycles);
}

// ---------------------------------------------------------------------------
// The optimizations must actually fire (not just silently fall back)
// ---------------------------------------------------------------------------

TEST(SimBackendExactness, WarmInvokeMemoizationFires) {
  // 1 MiB streaming loadstore: every invoke misses into L2/L3 —
  // warm-invoke memoization must carry the speedup once the machine state
  // starts cycling.
  std::string asmText = generate(figure6Xml(1, 1, false)).at(0).asmText;
  KernelRequest request = requestFor(1 << 20, 0, 16);
  std::uint64_t replayed = 0;
  std::vector<InvokeResult> fast =
      runSequence(asmText, request, SimBackendOptions{}, 12, &replayed);
  std::vector<InvokeResult> exact =
      runSequence(asmText, request, exactOptions(), 12);
  expectBitIdentical(fast, exact);
  EXPECT_GT(replayed, 0u);
}

// ---------------------------------------------------------------------------
// reset() contract: memoized results must not survive into the cold machine
// ---------------------------------------------------------------------------

TEST(SimBackendReset, ResetWorkerReproducesColdNumbers) {
  std::string asmText = generate(figure6Xml(2, 2, false)).at(0).asmText;
  KernelRequest request = requestFor(1 << 20, 0, 16);

  SimBackend fresh(sim::nehalemX5650DualSocket());
  auto kFresh = fresh.load(asmText, "microkernel");
  std::vector<InvokeResult> cold;
  for (int i = 0; i < 4; ++i) cold.push_back(fresh.invoke(*kFresh, request));

  SimBackend worker(sim::nehalemX5650DualSocket());
  auto kWorker = worker.load(asmText, "microkernel");
  for (int i = 0; i < 8; ++i) worker.invoke(*kWorker, request);  // warm it up
  worker.reset();
  EXPECT_EQ(worker.replayedInvokes(), 0u);
  // A reset worker is indistinguishable from a brand-new backend: the first
  // invokes replay the cold-machine transient, not the memoized warm state.
  std::vector<InvokeResult> after;
  for (int i = 0; i < 4; ++i) after.push_back(worker.invoke(*kWorker, request));
  expectBitIdentical(after, cold);
}

TEST(SimBackendReset, SetMachineInvalidatesMemo) {
  std::string asmText = generate(figure6Xml(1, 1, false)).at(0).asmText;
  KernelRequest request = requestFor(1 << 20, 0, 16);
  sim::MachineConfig machine = sim::nehalemX5650DualSocket();

  SimBackend backend(machine);
  auto kernel = backend.load(asmText, "microkernel");
  for (int i = 0; i < 8; ++i) backend.invoke(*kernel, request);
  backend.setMachine(machine);  // same config, still a full cold reset
  EXPECT_EQ(backend.replayedInvokes(), 0u);

  SimBackend fresh(machine);
  auto kFresh = fresh.load(asmText, "microkernel");
  EXPECT_EQ(backend.invoke(*kernel, request).tscCycles,
            fresh.invoke(*kFresh, request).tscCycles);
}

}  // namespace
}  // namespace microtools::launcher
