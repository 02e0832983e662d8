#include "launcher/sim_backend.hpp"

#include <atomic>

#include "sim/core.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"

namespace microtools::launcher {

namespace {

constexpr std::uint64_t kRegionBase = 0x100000000ull;   // 4 GiB
constexpr std::uint64_t kProcessStride = 0x400000000ull;  // 16 GiB apart
constexpr std::uint64_t kArrayPadding = 2ull * 1024 * 1024;

std::uint64_t alignUp(std::uint64_t v, std::uint64_t a) {
  if (a == 0) a = 1;
  return (v + a - 1) / a * a;
}

/// Derives the byte distance the kernel advances per counted iteration by
/// comparing the pointer increment with the counter decrement in the loop
/// maintenance code (e.g. `add $48, %rsi` + `sub $12, %rdi` -> 4 bytes per
/// counted element). Falls back to 4 when the pattern is not found.
std::uint64_t analyzeChunkStride(const asmparse::Program& program) {
  std::int64_t pointerStep = 0;
  std::int64_t counterStep = 0;
  for (const asmparse::DecodedInsn& insn : program.instructions) {
    if (insn.desc->kind != isa::InstrKind::IntAlu) continue;
    if (insn.operands.size() != 2) continue;
    if (insn.operands[0].kind != asmparse::DecodedOperand::Kind::Imm) continue;
    if (insn.operands[1].kind != asmparse::DecodedOperand::Kind::Reg) continue;
    const isa::PhysReg& reg = insn.operands[1].reg;
    if (reg.cls != isa::RegClass::Gpr) continue;
    bool isAdd = insn.desc->mnemonic == "add";
    bool isSub = insn.desc->mnemonic == "sub";
    if (!isAdd && !isSub) continue;
    std::int64_t step = insn.operands[0].imm * (isSub ? -1 : 1);
    if (reg.index == isa::kRdi) {
      counterStep = step;
    } else if (reg.index == isa::argumentRegister(1).index) {
      pointerStep = step;
    }
  }
  if (pointerStep > 0 && counterStep < 0 &&
      pointerStep % (-counterStep) == 0) {
    return static_cast<std::uint64_t>(pointerStep / (-counterStep));
  }
  // The fallback silently mis-splits OpenMP chunks for kernels with exotic
  // induction code, so say so — once per process, not per variant.
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    log::warn(
        "analyzeChunkStride: no pointer/counter induction pattern found; "
        "assuming 4 bytes per counted iteration");
  }
  return 4;
}

void hashRequest(hash::Fnv1a& h, const KernelRequest& request) {
  h.i64(request.n);
  h.i64(request.core);
  h.u64(request.chunkStrideBytes);
  h.u64(request.arrays.size());
  for (const ArraySpec& spec : request.arrays) {
    h.u64(spec.bytes).u64(spec.alignment).u64(spec.offset);
  }
}

}  // namespace

SimBackend::SimBackend(sim::MachineConfig config, SimBackendOptions options)
    : config_(std::move(config)),
      options_(options),
      memsys_(std::make_unique<sim::MemorySystem>(config_)) {}

void SimBackend::setMachine(sim::MachineConfig config) {
  config_ = std::move(config);
  memsys_ = std::make_unique<sim::MemorySystem>(config_);
  reset();
}

std::unique_ptr<KernelHandle> SimBackend::load(
    const std::string& asmText, const std::string& functionName) {
  auto handle = std::make_unique<SimKernel>();
  asmparse::CachedProgram cached =
      asmparse::ProgramCache::global().get(asmText, functionName);
  handle->program = std::move(cached.program);
  handle->contentId = cached.contentId;
  handle->origin = this;
  return handle;
}

SimBackend::SimKernel& SimBackend::checkedHandle(KernelHandle& kernel) const {
  if (kernel.origin != this) {
    throw McError("kernel handle was not loaded by this simulator backend");
  }
  return static_cast<SimKernel&>(kernel);
}

std::vector<std::uint64_t> SimBackend::planAddresses(
    const KernelRequest& request, int processIndex) {
  std::vector<std::uint64_t> addrs;
  std::uint64_t cursor =
      kRegionBase + static_cast<std::uint64_t>(processIndex) * kProcessStride;
  for (const ArraySpec& spec : request.arrays) {
    std::uint64_t base = alignUp(cursor, spec.alignment) + spec.offset;
    addrs.push_back(base);
    cursor = base + spec.bytes + kArrayPadding;
  }
  return addrs;
}

std::uint64_t SimBackend::invokeKey(const SimKernel& handle,
                                    const KernelRequest& request) const {
  hash::Fnv1a h;
  h.u64(handle.contentId);
  hashRequest(h, request);
  return h.value();
}

std::uint64_t SimBackend::stateKey() {
  if (!stateKeyCache_) stateKeyCache_ = memsys_->stateFingerprint(clock_);
  return *stateKeyCache_;
}

InvokeResult SimBackend::invoke(KernelHandle& kernel,
                                const KernelRequest& request) {
  SimKernel& handle = checkedHandle(kernel);

  std::uint64_t memoKey = 0;
  if (options_.memoize) {
    hash::Fnv1a mh;
    mh.u64(invokeKey(handle, request)).u64(stateKey());
    memoKey = mh.value();
    auto it = memo_.find(memoKey);
    if (it != memo_.end()) {
      // Same program + request from a fingerprint-equal machine state:
      // deterministic simulation would reproduce the recorded run bit for
      // bit, ending in a state that is the recorded post-state shifted
      // forward in time by however much later we are starting. So restore
      // the snapshot, shift its in-flight busy-times by that difference
      // (cache contents and LRU ranks are time-free and restore verbatim),
      // and splice the statistics: current counters plus the recorded
      // run's deltas.
      const MemoEntry& e = it->second;
      memsys_->restore(e.postState);
      memsys_->translateInFlight(clock_ - e.preClock);
      memsys_->creditReplayedAccesses(e.levelDeltas, e.prefetchDelta);
      clock_ += e.coreCycles + static_cast<std::uint64_t>(kCallOverhead);
      stateKeyCache_ = e.postStateKey;
      ++replayedInvokes_;
      return e.result;
    }
  }

  std::uint64_t levelsBefore[5] = {0, 0, 0, 0, 0};
  for (int level = 1; level < 5; ++level) {
    levelsBefore[level] =
        memsys_->levelCount(static_cast<sim::MemLevel>(level));
  }
  std::uint64_t prefetchBefore = memsys_->prefetchCount();
  std::vector<std::uint64_t> addrs = planAddresses(request, 0);
  sim::CoreSim core(config_, *memsys_, request.core);
  std::uint64_t preClock = clock_;
  sim::RunResult r = core.run(*handle.program, request.n, addrs, clock_);
  clock_ += r.coreCycles + static_cast<std::uint64_t>(kCallOverhead);
  stateKeyCache_.reset();  // simulation moved the machine

  InvokeResult out;
  out.tscCycles = r.tscCycles + kCallOverhead + kTimerOverhead;
  out.iterations = r.iterations;

  if (options_.memoize && memo_.size() < kMaxMemoEntries) {
    MemoEntry memo;
    memo.coreCycles = r.coreCycles;
    memo.preClock = preClock;
    for (int level = 1; level < 5; ++level) {
      memo.levelDeltas[level] =
          memsys_->levelCount(static_cast<sim::MemLevel>(level)) -
          levelsBefore[level];
    }
    memo.prefetchDelta = memsys_->prefetchCount() - prefetchBefore;
    // Order matters: the snapshot holds the cache sets changed since the
    // last fingerprint (taken at or before this invoke's start), and
    // stateKey() clears that list. Snapshot first, then fingerprint.
    memo.postState = memsys_->snapshotTouched();
    memo.postStateKey = stateKey();
    memo.result = out;
    memo_.emplace(memoKey, std::move(memo));
  }
  return out;
}

std::vector<InvokeResult> SimBackend::invokeFork(KernelHandle& kernel,
                                                 const KernelRequest& request,
                                                 int processes, int calls,
                                                 PinPolicy policy) {
  SimKernel& handle = checkedHandle(kernel);
  if (processes < 1) throw McError("fork mode requires processes >= 1");
  if (processes > config_.totalCores()) {
    throw McError("more forked processes than cores");
  }
  std::uint64_t key = 0;
  if (options_.memoize) {
    hash::Fnv1a h;
    h.u64(handle.contentId);
    hashRequest(h, request);
    h.i64(processes).i64(calls).i64(static_cast<int>(policy));
    key = h.value();
    auto it = forkMemo_.find(key);
    if (it != forkMemo_.end()) return it->second;
  }
  // Fresh processes, fresh machine state: a dedicated runner (its own
  // MemorySystem) models the post-fork, post-synchronization start — which
  // also makes the result a pure function of (machine, program, request).
  sim::MultiCoreRunner runner(config_);
  std::vector<sim::CoreWork> work(static_cast<std::size_t>(processes));
  for (int p = 0; p < processes; ++p) {
    sim::CoreWork& w = work[static_cast<std::size_t>(p)];
    w.program = handle.program.get();
    w.n = request.n;
    w.arrayAddrs = planAddresses(request, p);
    w.physicalCore = policy == PinPolicy::Scatter
                         ? sim::MultiCoreRunner::scatterPin(config_, p)
                         : sim::MultiCoreRunner::compactPin(config_, p);
    w.calls = calls;
    // First-touch allocation: each process's arrays live on its socket.
    std::uint64_t regionBase =
        kRegionBase + static_cast<std::uint64_t>(p) * kProcessStride;
    runner.memory().setHomeSocket(regionBase, kProcessStride,
                                  runner.memory().socketOfCore(w.physicalCore));
  }
  std::vector<sim::RunResult> results = runner.run(work);
  std::vector<InvokeResult> out;
  out.reserve(results.size());
  for (const sim::RunResult& r : results) {
    out.push_back(InvokeResult{r.tscCycles, r.iterations});
  }
  if (options_.memoize) forkMemo_.emplace(key, out);
  return out;
}

InvokeResult SimBackend::invokeOpenMp(KernelHandle& kernel,
                                      const KernelRequest& request,
                                      int threads, int repetitions) {
  SimKernel& handle = checkedHandle(kernel);
  std::uint64_t key = 0;
  if (options_.memoize) {
    hash::Fnv1a h;
    h.u64(handle.contentId);
    hashRequest(h, request);
    h.i64(threads).i64(repetitions);
    key = h.value();
    auto it = ompMemo_.find(key);
    if (it != ompMemo_.end()) return it->second;
  }
  // A fresh model per call: pure function of (machine, program, request).
  sim::OpenMpModel model(config_);
  std::vector<std::uint64_t> addrs = planAddresses(request, 0);
  std::uint64_t stride = analyzeChunkStride(*handle.program);
  sim::OmpRegionResult region = model.runRepeated(
      *handle.program, request.n, addrs, stride, threads, repetitions);
  InvokeResult out;
  out.tscCycles = region.regionTscCycles;
  out.iterations = region.totalIterations;
  if (options_.memoize) ompMemo_.emplace(key, out);
  return out;
}

void SimBackend::reset() {
  // Full machine reset (memory system as freshly constructed, clock at 0),
  // not just a cache flush: the campaign runner resets before every variant
  // and relies on results being bit-identical regardless of which worker
  // ran what before. That contract extends to memoized results — they
  // describe the previous machine and must not survive into the cold one.
  // Resetting in place rather than constructing anew skips re-allocating
  // and zeroing ~11 MB of cache ways per variant.
  memsys_->reset();
  clock_ = 0;
  memo_.clear();
  stateKeyCache_.reset();
  forkMemo_.clear();
  ompMemo_.clear();
  replayedInvokes_ = 0;
}

}  // namespace microtools::launcher
