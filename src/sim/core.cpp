#include "sim/core.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

#include "support/error.hpp"

namespace microtools::sim {

namespace {
constexpr std::uint64_t kFar = std::numeric_limits<std::uint64_t>::max();
}  // namespace

CoreSim::CoreSim(const MachineConfig& config, MemorySystem& memsys,
                 int coreId)
    : config_(config), memsys_(memsys), coreId_(coreId) {
  auto setPorts = [this](Unit unit, int count) {
    portFree_[static_cast<int>(unit)].assign(
        static_cast<std::size_t>(std::max(count, 1)), 0);
  };
  setPorts(Unit::Load, config_.loadPorts);
  setPorts(Unit::Store, config_.storePorts);
  setPorts(Unit::Alu, config_.aluPorts);
  setPorts(Unit::FpAdd, config_.fpAddPorts);
  setPorts(Unit::FpMul, config_.fpMulPorts);
  setPorts(Unit::FpDiv, config_.fpMulPorts);  // divider shares the mul port
  setPorts(Unit::Branch, config_.branchPorts);
  fillBufferFree_.assign(static_cast<std::size_t>(config_.fillBuffers), 0);
  lastWriter_.fill(-1);
  // dispatch() keeps at most max(robSize, 2) uops in flight.
  std::size_t ring = std::bit_ceil(
      static_cast<std::size_t>(std::max(config_.robSize, 2)));
  lineShift_ = std::countr_zero(static_cast<unsigned>(config_.lineBytes));
  rob_.resize(ring);
  waiting_.resize(ring);
  robMask_ = ring - 1;
}

void CoreSim::start(const asmparse::Program& program, int n,
                    const std::vector<std::uint64_t>& arrayAddrs,
                    std::uint64_t startCycle) {
  program_ = &program;
  pc_ = 0;
  gprs_.fill(0);
  gprs_[isa::kRdi] = n;
  for (std::size_t i = 0; i < arrayAddrs.size(); ++i) {
    if (static_cast<int>(i) + 1 >= isa::kNumArgumentRegisters) {
      throw McError("too many array arguments for the SysV registers");
    }
    gprs_[static_cast<std::size_t>(
        isa::argumentRegister(static_cast<int>(i) + 1).index)] =
        static_cast<std::int64_t>(arrayAddrs[i]);
  }
  flagsResult_ = 0;
  flagsA_ = flagsB_ = 0;
  headId_ = tailId_ = 0;
  waitHead_ = waitTail_ = 0;
  completions_.clear();
  lastWriter_.fill(-1);
  for (auto& ports : portFree_) {
    std::fill(ports.begin(), ports.end(), startCycle);
  }
  std::fill(fillBufferFree_.begin(), fillBufferFree_.end(), startCycle);
  recentStores_.fill(RecentStore{});
  recentStoreNext_ = 0;
  dispatchStallUntil_ = startCycle;
  doneDispatching_ = false;
  finished_ = false;
  startCycle_ = startCycle;
  endCycle_ = startCycle;
  lastCompletion_ = startCycle;
  nextEvent_ = startCycle;
  instructions_ = 0;
  uopCount_ = 0;
  for (auto& c : levelAccesses_) c = 0;
  // Jump to the entry label when the function name is a known label.
  if (!program.functionName.empty()) {
    auto it = program.labels.find(program.functionName);
    if (it != program.labels.end()) pc_ = it->second;
  }
}

int CoreSim::regId(const isa::PhysReg& reg) {
  if (reg.cls == isa::RegClass::Gpr) return reg.index;
  if (reg.cls == isa::RegClass::Xmm) return 16 + reg.index;
  throw McError("unsupported register class in simulator");
}

std::int64_t CoreSim::readGpr(const isa::PhysReg& reg) const {
  std::int64_t raw = gprs_[static_cast<std::size_t>(reg.index)];
  switch (reg.widthBits) {
    case 64: return raw;
    case 32: return static_cast<std::int64_t>(static_cast<std::int32_t>(raw));
    case 16: return static_cast<std::int64_t>(static_cast<std::int16_t>(raw));
    case 8: return static_cast<std::int64_t>(static_cast<std::int8_t>(raw));
    default: throw McError("bad register width");
  }
}

void CoreSim::writeGpr(const isa::PhysReg& reg, std::int64_t value) {
  std::int64_t& slot = gprs_[static_cast<std::size_t>(reg.index)];
  switch (reg.widthBits) {
    case 64:
      slot = value;
      break;
    case 32:
      // x86-64: 32-bit writes zero-extend into the full register.
      slot = static_cast<std::int64_t>(
          static_cast<std::uint32_t>(value));
      break;
    case 16:
      slot = (slot & ~0xffffll) | (value & 0xffff);
      break;
    case 8:
      slot = (slot & ~0xffll) | (value & 0xff);
      break;
    default:
      throw McError("bad register width");
  }
}

std::uint64_t CoreSim::effectiveAddress(const asmparse::DecodedMem& mem) const {
  std::int64_t addr = mem.disp;
  if (mem.base) {
    if (mem.base->cls == isa::RegClass::Rip) {
      // RIP-relative: treat the displacement as absolute.
    } else {
      addr += readGpr(*mem.base);
    }
  }
  if (mem.index) {
    addr += readGpr(*mem.index) * mem.scale;
  }
  return static_cast<std::uint64_t>(addr);
}

std::int64_t CoreSim::operandValue(const asmparse::DecodedOperand& op) const {
  using Kind = asmparse::DecodedOperand::Kind;
  switch (op.kind) {
    case Kind::Imm: return op.imm;
    case Kind::Reg:
      if (op.reg.cls == isa::RegClass::Gpr) return readGpr(op.reg);
      return 0;  // XMM data values are not tracked
    case Kind::Mem: return 0;  // loaded values are not tracked
    case Kind::Label: return 0;
  }
  return 0;
}

bool CoreSim::evaluateCondition(isa::Condition cond) const {
  switch (cond) {
    case isa::Condition::E: return flagsResult_ == 0;
    case isa::Condition::NE: return flagsResult_ != 0;
    case isa::Condition::L: return flagsResult_ < 0;
    case isa::Condition::LE: return flagsResult_ <= 0;
    case isa::Condition::G: return flagsResult_ > 0;
    case isa::Condition::GE: return flagsResult_ >= 0;
    case isa::Condition::S: return flagsResult_ < 0;
    case isa::Condition::NS: return flagsResult_ >= 0;
    case isa::Condition::B: return flagsA_ < flagsB_;
    case isa::Condition::BE: return flagsA_ <= flagsB_;
    case isa::Condition::A: return flagsA_ > flagsB_;
    case isa::Condition::AE: return flagsA_ >= flagsB_;
    case isa::Condition::None: break;
  }
  throw McError("branch without a condition");
}

void CoreSim::executeFunctional(const asmparse::DecodedInsn& insn,
                                bool& branchTaken) {
  using Kind = asmparse::DecodedOperand::Kind;
  const auto& ops = insn.operands;
  branchTaken = false;

  auto setFlags = [this](std::int64_t result, std::uint64_t a,
                         std::uint64_t b) {
    flagsResult_ = result;
    flagsA_ = a;
    flagsB_ = b;
  };

  switch (insn.desc->kind) {
    case isa::InstrKind::Move: {
      if (ops.size() != 2) throw McError("move needs two operands");
      if (ops[1].kind == Kind::Reg && ops[1].reg.cls == isa::RegClass::Gpr) {
        writeGpr(ops[1].reg, operandValue(ops[0]));
      }
      // XMM destinations and stores: no tracked value.
      return;
    }
    case isa::InstrKind::IntAlu: {
      // inc/dec/neg/not have one operand; the rest have two (src, dst).
      if (ops.size() == 1) {
        if (ops[0].kind != Kind::Reg) return;  // memory forms: timing only
        std::int64_t v = readGpr(ops[0].reg);
        std::string_view m = insn.desc->mnemonic;
        std::int64_t r = v;
        if (m == "inc") r = v + 1;
        else if (m == "dec") r = v - 1;
        else if (m == "neg") r = -v;
        else if (m == "not") r = ~v;
        writeGpr(ops[0].reg, r);
        if (m != "not") {
          setFlags(r, static_cast<std::uint64_t>(r), 0);
        }
        return;
      }
      if (ops.size() != 2 || ops[1].kind != Kind::Reg) return;
      std::int64_t src = operandValue(ops[0]);
      std::int64_t dst = readGpr(ops[1].reg);
      std::string_view m = insn.desc->mnemonic;
      std::int64_t r = dst;
      if (m == "add") r = dst + src;
      else if (m == "sub") r = dst - src;
      else if (m == "and") r = dst & src;
      else if (m == "or") r = dst | src;
      else if (m == "xor") r = dst ^ src;
      else if (m == "shl") r = dst << (src & 63);
      else if (m == "shr") {
        r = static_cast<std::int64_t>(static_cast<std::uint64_t>(dst) >>
                                      (src & 63));
      } else if (m == "sar") {
        r = dst >> (src & 63);
      }
      writeGpr(ops[1].reg, r);
      setFlags(r, static_cast<std::uint64_t>(dst),
               static_cast<std::uint64_t>(src));
      return;
    }
    case isa::InstrKind::IntMul: {
      if (ops.size() == 2 && ops[1].kind == Kind::Reg) {
        std::int64_t r = readGpr(ops[1].reg) * operandValue(ops[0]);
        writeGpr(ops[1].reg, r);
        setFlags(r, static_cast<std::uint64_t>(r), 0);
      }
      return;
    }
    case isa::InstrKind::Lea: {
      if (ops.size() == 2 && ops[0].kind == Kind::Mem &&
          ops[1].kind == Kind::Reg) {
        writeGpr(ops[1].reg,
                 static_cast<std::int64_t>(effectiveAddress(ops[0].mem)));
      }
      return;
    }
    case isa::InstrKind::Compare: {
      if (ops.size() != 2) throw McError("compare needs two operands");
      std::int64_t src = operandValue(ops[0]);
      std::int64_t dst = ops[1].kind == Kind::Reg ? readGpr(ops[1].reg)
                                                  : operandValue(ops[1]);
      if (insn.desc->mnemonic == "test") {
        setFlags(dst & src, static_cast<std::uint64_t>(dst),
                 static_cast<std::uint64_t>(src));
      } else {
        setFlags(dst - src, static_cast<std::uint64_t>(dst),
                 static_cast<std::uint64_t>(src));
      }
      return;
    }
    case isa::InstrKind::CondBranch:
      branchTaken = evaluateCondition(insn.desc->condition);
      return;
    case isa::InstrKind::Jump:
      branchTaken = true;
      return;
    case isa::InstrKind::FpAdd:
    case isa::InstrKind::FpMul:
    case isa::InstrKind::FpDiv:
    case isa::InstrKind::FpLogic:
      return;  // FP values are not tracked
    case isa::InstrKind::Ret:
    case isa::InstrKind::Nop:
      return;
  }
}

void CoreSim::addDep(Uop& uop, int reg) const {
  std::int64_t writer = lastWriter_[static_cast<std::size_t>(reg)];
  if (writer < 0) return;
  if (uop.depCount >= static_cast<int>(uop.deps.size())) {
    throw McError("uop dependency list overflow");
  }
  uop.deps[static_cast<std::size_t>(uop.depCount++)] = static_cast<int>(writer);
}

void CoreSim::noteWrite(int reg, std::uint64_t producerId) {
  lastWriter_[static_cast<std::size_t>(reg)] =
      static_cast<std::int64_t>(producerId);
}

std::uint64_t CoreSim::pushUop(Uop uop) {
  std::uint64_t id = tailId_++;
  uopAt(id) = uop;
  waiting_[waitTail_++ & robMask_] = id;
  ++uopCount_;
  return id;
}

bool CoreSim::depsReady(const Uop& uop, std::uint64_t cycle) const {
  for (int i = 0; i < uop.depCount; ++i) {
    std::uint64_t depId = static_cast<std::uint64_t>(
        uop.deps[static_cast<std::size_t>(i)]);
    if (depId < headId_) continue;  // retired => complete
    const Uop& producer = uopAt(depId);
    if (!producer.issued || producer.completeCycle > cycle) return false;
  }
  return true;
}

bool CoreSim::allPortsBusy(int unit, std::uint64_t cycle) const {
  for (std::uint64_t f : portFree_[unit]) {
    if (f <= cycle) return false;
  }
  return true;
}

bool CoreSim::allFillBuffersBusy(std::uint64_t cycle) const {
  for (std::uint64_t f : fillBufferFree_) {
    if (f <= cycle) return false;
  }
  return true;
}

void CoreSim::issueOne(Uop& uop, std::uint64_t globalId, std::uint64_t cycle,
                       bool needsFillBuffer) {
  // issue() checked that a port (and, if needed, a fill buffer) is free.
  auto& ports = portFree_[static_cast<int>(uop.unit)];
  auto portIt = std::min_element(ports.begin(), ports.end());

  std::uint64_t completion = cycle + static_cast<std::uint64_t>(uop.latency);
  std::uint64_t portBusyUntil = cycle + 1;

  if (uop.isMem) {
    std::vector<std::uint64_t>::iterator fb = fillBufferFree_.end();
    if (needsFillBuffer) {
      fb = std::min_element(fillBufferFree_.begin(), fillBufferFree_.end());
    }
    if (uop.unit == Unit::Load) {
      AccessResult res = memsys_.load(coreId_, uop.addr, uop.bytes, cycle);
      completion = res.completeCycle;
      ++levelAccesses_[static_cast<int>(res.level)];
      // 4 KiB aliasing: a recent store whose address matches the load's low
      // twelve bits (different line) triggers a false MOB dependence and a
      // load replay — the load port stays busy for the penalty, costing
      // real throughput, and the data arrives late.
      bool aliased = false;
      std::uint64_t pageOff = uop.addr & 0xfffull;
      for (const RecentStore& st : recentStores_) {
        if (st.cycle == 0 || st.cycle + 32 < cycle) continue;
        std::uint64_t stOff = st.addr & 0xfffull;
        std::uint64_t distance = stOff > pageOff ? stOff - pageOff
                                                 : pageOff - stOff;
        if (distance < 64 && (st.addr / 64) != (uop.addr / 64)) {
          aliased = true;
          break;
        }
      }
      if (aliased) {
        completion += static_cast<std::uint64_t>(config_.aliasing4kPenalty);
        portBusyUntil = cycle +
            static_cast<std::uint64_t>(config_.aliasing4kPenalty);
      }
      if (fb != fillBufferFree_.end()) *fb = completion;
    } else {  // Store
      AccessResult res = memsys_.store(coreId_, uop.addr, uop.bytes, cycle);
      ++levelAccesses_[static_cast<int>(res.level)];
      // The pipeline does not wait for the RFO; the fill buffer does.
      if (fb != fillBufferFree_.end()) *fb = res.completeCycle;
      completion = cycle + 1;
      recentStores_[recentStoreNext_] = {uop.addr, cycle};
      recentStoreNext_ = (recentStoreNext_ + 1) % recentStores_.size();
    }
  }

  *portIt = uop.unit == Unit::FpDiv
                ? cycle + static_cast<std::uint64_t>(uop.latency)
                : portBusyUntil;
  uop.issued = true;
  uop.completeCycle = completion;
  completions_.push_back(completion);
  std::push_heap(completions_.begin(), completions_.end(),
                 std::greater<>());
  lastCompletion_ = std::max(lastCompletion_, completion);
  if (trace_) {
    static const char* kUnitNames[] = {"LD", "ST", "ALU", "FPA",
                                       "FPM", "FPD", "BR"};
    std::fprintf(trace_, "core%d id=%llu %s issue=%llu complete=%llu addr=%llx\n",
                 coreId_, static_cast<unsigned long long>(globalId),
                 kUnitNames[static_cast<int>(uop.unit)],
                 static_cast<unsigned long long>(cycle),
                 static_cast<unsigned long long>(completion),
                 static_cast<unsigned long long>(uop.addr));
  }
}

void CoreSim::retire(std::uint64_t cycle) {
  int retired = 0;
  while (headId_ != tailId_ && retired < config_.issueWidth) {
    const Uop& head = uopAt(headId_);
    if (!head.issued || head.completeCycle > cycle) break;
    ++headId_;
    ++retired;
  }
}

void CoreSim::issue(std::uint64_t cycle) {
  // A uop issues when a port of its unit is free, its producers have
  // completed, and, if its line is not in L1, a fill buffer is free. The
  // unit check comes first and is kept per cycle as a bitmask, since within
  // a cycle ports and fill buffers only get busier; checking in any order
  // is exact, because a uop that cannot issue changes nothing.
  constexpr unsigned kAllUnits = (1u << kNumUnits) - 1;
  unsigned busy = 0;
  for (int unit = 0; unit < kNumUnits; ++unit) {
    if (allPortsBusy(unit, cycle)) busy |= 1u << unit;
  }
  bool fillBuffersBusy = allFillBuffersBusy(cycle);
  // The last line found missing from L1. The loads of a stream share
  // lines, and L1 changes only when a memory uop issues, which forgets it.
  std::uint64_t missLine = kNoLine;
  int issued = 0;
  bool olderStorePending = false;
  // Only the oldest rsEntries un-issued uops are visible to the scheduler
  // (Nehalem's 36-entry reservation station); this also bounds the scan.
  std::uint64_t window =
      waitHead_ + static_cast<std::uint64_t>(std::max(config_.rsEntries, 0));
  std::uint64_t k = waitHead_;
  for (; k != waitTail_ && k != window && busy != kAllUnits &&
         issued < config_.issueWidth;
       ++k) {
    std::uint64_t id = waiting_[k & robMask_];
    Uop& uop = uopAt(id);
    // Stores issue in order among themselves (store-buffer FIFO).
    if (uop.unit == Unit::Store && olderStorePending) continue;
    int unit = static_cast<int>(uop.unit);
    bool ready = !((busy >> unit) & 1u) && depsReady(uop, cycle);
    bool needsFillBuffer = false;
    if (ready && uop.isMem) {
      std::uint64_t line = uop.addr >> lineShift_;
      needsFillBuffer = line == missLine || !memsys_.inL1(coreId_, uop.addr);
      if (needsFillBuffer) missLine = line;
      ready = !(needsFillBuffer && fillBuffersBusy);  // MLP limit
    }
    if (ready) {
      issueOne(uop, id, cycle, needsFillBuffer);
      ++issued;
      if (allPortsBusy(unit, cycle)) busy |= 1u << unit;
      if (uop.isMem) {
        fillBuffersBusy = allFillBuffersBusy(cycle);
        missLine = kNoLine;
      }
    } else if (uop.unit == Unit::Store) {
      olderStorePending = true;
    }
  }
  if (issued == 0) return;
  // Drop the issued ids from the visited prefix [waitHead_, k), keeping the
  // rest in program order against the unvisited tail.
  std::uint64_t keep = k;
  for (std::uint64_t j = k; j-- != waitHead_;) {
    std::uint64_t id = waiting_[j & robMask_];
    if (!uopAt(id).issued) waiting_[--keep & robMask_] = id;
  }
  waitHead_ = keep;
}

void CoreSim::dispatch(std::uint64_t cycle) {
  if (doneDispatching_ || cycle < dispatchStallUntil_) return;
  int dispatched = 0;
  while (dispatched < config_.issueWidth && !doneDispatching_) {
    if (tailId_ - headId_ + 2 > static_cast<std::uint64_t>(config_.robSize)) {
      break;
    }
    if (pc_ >= program_->instructions.size()) {
      doneDispatching_ = true;
      break;
    }
    const asmparse::DecodedInsn& insn = program_->instructions[pc_];
    const isa::InstrDesc& desc = *insn.desc;

    if (desc.kind == isa::InstrKind::Ret) {
      ++instructions_;
      doneDispatching_ = true;
      break;
    }
    if (desc.kind == isa::InstrKind::Nop) {
      ++instructions_;
      ++pc_;
      ++dispatched;
      continue;
    }

    // ---- build uops (before functional update so deps see old writers,
    //      but addresses need current values: compute them now) -------------
    const asmparse::DecodedOperand* memOp = nullptr;
    bool memIsDest = false;
    for (std::size_t i = 0; i < insn.operands.size(); ++i) {
      if (insn.operands[i].kind == asmparse::DecodedOperand::Kind::Mem) {
        memOp = &insn.operands[i];
        memIsDest = (i + 1 == insn.operands.size()) &&
                    desc.kind != isa::InstrKind::Compare &&
                    desc.kind != isa::InstrKind::Lea;
      }
    }
    std::uint64_t addr = memOp ? effectiveAddress(memOp->mem) : 0;
    int accessBytes = insn.accessBytes();

    auto depOnMemRegs = [&](Uop& uop) {
      if (!memOp) return;
      if (memOp->mem.base && memOp->mem.base->cls == isa::RegClass::Gpr) {
        addDep(uop, regId(*memOp->mem.base));
      }
      if (memOp->mem.index && memOp->mem.index->cls == isa::RegClass::Gpr) {
        addDep(uop, regId(*memOp->mem.index));
      }
    };

    int loadUopId = -1;
    int neededUops = 1;
    bool isLoad = memOp && !memIsDest && desc.kind != isa::InstrKind::Lea;
    bool isStore = memOp && memIsDest;
    bool fusedLoadOp = isLoad && desc.kind != isa::InstrKind::Move;
    if (fusedLoadOp) neededUops = 2;
    if (dispatched + neededUops > config_.issueWidth) break;

    if (isLoad) {
      Uop load;
      load.unit = Unit::Load;
      load.isMem = true;
      load.addr = addr;
      load.bytes = accessBytes;
      load.latency = config_.l1.latencyCycles;
      depOnMemRegs(load);
      if (!fusedLoadOp) {
        // Plain move load: destination register is the last operand.
        const auto& dst = insn.operands.back();
        if (dst.kind == asmparse::DecodedOperand::Kind::Reg) {
          load.dst = regId(dst.reg);
        }
      }
      std::uint64_t id = pushUop(load);
      if (fusedLoadOp) {
        loadUopId = static_cast<int>(id);
      } else if (load.dst >= 0) {
        noteWrite(load.dst, id);
      }
      ++dispatched;
    }

    if (isStore) {
      Uop store;
      store.unit = Unit::Store;
      store.isMem = true;
      store.addr = addr;
      store.bytes = accessBytes;
      store.latency = 1;
      depOnMemRegs(store);
      // Data source: every non-memory source operand.
      for (std::size_t i = 0; i + 1 < insn.operands.size(); ++i) {
        if (insn.operands[i].kind == asmparse::DecodedOperand::Kind::Reg) {
          addDep(store, regId(insn.operands[i].reg));
        }
      }
      pushUop(store);
      ++dispatched;
    } else if (!isLoad || fusedLoadOp) {
      // Compute uop (also covers reg-reg moves and branches).
      Uop compute;
      compute.latency = std::max(desc.latency, 1);
      switch (desc.kind) {
        case isa::InstrKind::FpAdd: compute.unit = Unit::FpAdd; break;
        case isa::InstrKind::FpMul: compute.unit = Unit::FpMul; break;
        case isa::InstrKind::FpDiv: compute.unit = Unit::FpDiv; break;
        case isa::InstrKind::CondBranch:
        case isa::InstrKind::Jump: compute.unit = Unit::Branch; break;
        default: compute.unit = Unit::Alu; break;
      }
      if (loadUopId >= 0) {
        compute.deps[static_cast<std::size_t>(compute.depCount++)] = loadUopId;
      }
      // Register sources: all register operands (AT&T: dst is read-modify-
      // write except for plain moves).
      bool isPlainMove = desc.kind == isa::InstrKind::Move ||
                         desc.kind == isa::InstrKind::Lea;
      for (std::size_t i = 0; i < insn.operands.size(); ++i) {
        const auto& op = insn.operands[i];
        if (op.kind != asmparse::DecodedOperand::Kind::Reg) continue;
        bool isDst = (i + 1 == insn.operands.size());
        if (isDst && isPlainMove) continue;  // pure overwrite
        addDep(compute, regId(op.reg));
      }
      if (desc.kind == isa::InstrKind::Lea && memOp) depOnMemRegs(compute);
      if (desc.kind == isa::InstrKind::CondBranch) {
        addDep(compute, kFlagsReg);
      }
      // Destination register.
      if (!insn.operands.empty() &&
          insn.operands.back().kind == asmparse::DecodedOperand::Kind::Reg &&
          desc.kind != isa::InstrKind::Compare &&
          desc.kind != isa::InstrKind::CondBranch &&
          desc.kind != isa::InstrKind::Jump) {
        compute.dst = regId(insn.operands.back().reg);
      }
      std::uint64_t id = pushUop(compute);
      if (compute.dst >= 0) noteWrite(compute.dst, id);
      bool writesFlags = desc.kind == isa::InstrKind::IntAlu ||
                         desc.kind == isa::InstrKind::IntMul ||
                         desc.kind == isa::InstrKind::Compare;
      if (writesFlags) noteWrite(kFlagsReg, id);
      ++dispatched;
    }

    // ---- functional execution & control flow -------------------------------
    bool branchTaken = false;
    executeFunctional(insn, branchTaken);
    ++instructions_;

    if (desc.kind == isa::InstrKind::CondBranch ||
        desc.kind == isa::InstrKind::Jump) {
      if (branchTaken) {
        const auto& target = insn.operands.at(0);
        if (target.kind != asmparse::DecodedOperand::Kind::Label) {
          throw McError("indirect branches are not supported");
        }
        std::size_t targetPc = program_->labelTarget(target.label);
        bool backward = targetPc <= pc_;
        pc_ = targetPc;
        if (!backward) {
          // Forward taken branches are modeled as predicted not-taken.
          dispatchStallUntil_ =
              cycle + static_cast<std::uint64_t>(config_.mispredictPenalty);
        }
        // The frontend cannot dispatch past a taken branch in the same
        // cycle; this also caps tiny loops at one iteration per cycle.
        break;
      } else {
        // Loop exit: the backward branch was predicted taken; pay the
        // mispredict bubble once.
        ++pc_;
        dispatchStallUntil_ =
            cycle + static_cast<std::uint64_t>(config_.mispredictPenalty);
        break;
      }
    } else {
      ++pc_;
    }
  }
}

void CoreSim::tick(std::uint64_t cycle) {
  if (finished_) return;
  std::uint64_t tailBefore = tailId_;
  std::uint64_t headBefore = headId_;
  retire(cycle);
  issue(cycle);
  dispatch(cycle);
  bool progressed = headId_ != headBefore || tailId_ != tailBefore;
  if (doneDispatching_ && headId_ == tailId_) {
    finished_ = true;
    endCycle_ = std::max(lastCompletion_, cycle);
    nextEvent_ = kFar;
    return;
  }
  computeNextEvent(cycle, progressed);
}

void CoreSim::computeNextEvent(std::uint64_t cycle, bool progressed) {
  // Completions at or before `cycle` belong to uops that can already
  // retire or feed a dependant; the rest are exactly the in-flight ones.
  while (!completions_.empty() && completions_.front() <= cycle) {
    std::pop_heap(completions_.begin(), completions_.end(), std::greater<>());
    completions_.pop_back();
  }
  if (progressed) {
    nextEvent_ = cycle + 1;
    return;
  }
  // The earliest cycle at which anything can change: a completion, the
  // end of a dispatch stall, or a port or fill buffer coming free. It is
  // never later than the next cycle tick() could make progress in; an
  // earlier one would only cost a tick that changes nothing.
  std::uint64_t next = completions_.empty() ? kFar : completions_.front();
  if (dispatchStallUntil_ > cycle) {
    next = std::min(next, dispatchStallUntil_);
  }
  for (const auto& ports : portFree_) {
    for (std::uint64_t f : ports) {
      if (f > cycle) next = std::min(next, f);
    }
  }
  for (std::uint64_t f : fillBufferFree_) {
    if (f > cycle) next = std::min(next, f);
  }
  if (next == kFar) next = cycle + 1;  // safety: never stall forever
  nextEvent_ = std::max(next, cycle + 1);
}

RunResult CoreSim::result() const {
  if (!finished_) throw McError("CoreSim::result before completion");
  RunResult r;
  r.coreCycles = endCycle_ - startCycle_;
  r.instructions = instructions_;
  r.uops = uopCount_;
  r.iterations = static_cast<std::uint32_t>(gprs_[isa::kRax]);
  r.tscCycles = config_.coreCyclesToTsc(static_cast<double>(r.coreCycles));
  r.energyPj =
      static_cast<double>(r.uops) * config_.uopEnergyPj +
      static_cast<double>(levelAccesses_[1]) * config_.l1AccessPj +
      static_cast<double>(levelAccesses_[2]) * config_.l2AccessPj +
      static_cast<double>(levelAccesses_[3]) * config_.l3AccessPj +
      static_cast<double>(levelAccesses_[4]) * config_.dramAccessPj +
      static_cast<double>(r.coreCycles) * config_.staticEnergyPjPerCycle();
  return r;
}

RunResult CoreSim::run(const asmparse::Program& program, int n,
                       const std::vector<std::uint64_t>& arrayAddrs,
                       std::uint64_t startCycle) {
  start(program, n, arrayAddrs, startCycle);
  std::uint64_t cycle = startCycle;
  while (!finished_) {
    tick(cycle);
    if (finished_) break;
    cycle = std::max(cycle + 1, nextEvent_);
  }
  return result();
}

}  // namespace microtools::sim
