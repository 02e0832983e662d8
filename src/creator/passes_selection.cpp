// Passes 1-6: validation plus the variant fan-out passes that resolve the
// description's "what instruction / what constant / what stride" freedoms
// (the paper's instruction-selection stage, §3.2).

#include <bit>

#include "creator/passes.hpp"
#include "isa/instructions.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace microtools::creator::passes {

namespace {

using ir::Instruction;
using ir::Kernel;

// ---------------------------------------------------------------------------
// 1. ValidateDescription
// ---------------------------------------------------------------------------

class ValidateDescription final : public Pass {
 public:
  ValidateDescription() : Pass("ValidateDescription") {}

  void run(GenerationState& state) override {
    for (Kernel& kernel : state.kernels) validate(kernel);
  }

 private:
  static void validate(Kernel& kernel) {
    checkDescription(!kernel.body.empty(),
                     "kernel has no instructions");
    checkDescription(kernel.unrollMin >= 1,
                     "unrolling <min> must be at least 1");
    checkDescription(kernel.unrollMax >= kernel.unrollMin,
                     "unrolling <max> must be >= <min>");
    const isa::InstrDesc* branch = isa::findInstruction(kernel.branch.test);
    checkDescription(branch != nullptr &&
                         branch->kind == isa::InstrKind::CondBranch,
                     "branch test '" + kernel.branch.test +
                         "' is not a conditional jump");
    checkDescription(std::has_single_bit(
                         static_cast<unsigned>(kernel.loopAlignment)),
                     "loop alignment must be a power of two");

    int lastCount = 0;
    for (const ir::InductionVar& iv : kernel.inductions) {
      lastCount += iv.lastInduction ? 1 : 0;
      if (iv.linkedTo) {
        checkDescription(kernel.inductionFor(*iv.linkedTo) != nullptr,
                         "induction linked to unknown register '" +
                             *iv.linkedTo + "'");
        checkDescription(*iv.linkedTo != iv.reg.logicalName,
                         "induction cannot be linked to itself");
      }
    }
    checkDescription(lastCount <= 1,
                     "at most one induction may be <last_induction/>");
    // Default: the final declared induction drives the loop exit, matching
    // Figure 6 where <last_induction/> appears on the last node.
    if (lastCount == 0 && !kernel.inductions.empty()) {
      kernel.inductions.back().lastInduction = true;
    }

    for (const Instruction& instr : kernel.body) {
      if (!instr.operation.empty()) {
        checkDescription(isa::findInstruction(instr.operation) != nullptr,
                         "unknown operation '" + instr.operation + "'");
      }
      for (const std::string& choice : instr.operationChoices) {
        checkDescription(isa::findInstruction(choice) != nullptr,
                         "unknown operation '" + choice + "'");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// 2. InstructionRepetition
// ---------------------------------------------------------------------------

class InstructionRepetition final : public Pass {
 public:
  InstructionRepetition() : Pass("InstructionRepetition") {}

  void run(GenerationState& state) override {
    // Iterate until no instruction carries a pending repetition range; each
    // round resolves the first pending instruction in every kernel.
    bool changed = true;
    while (changed) {
      changed = false;
      fanOut(state, [&changed](const Kernel& kernel) {
        return expandFirstRepeat(kernel, changed);
      });
    }
  }

 private:
  static std::vector<Kernel> expandFirstRepeat(const Kernel& kernel,
                                               bool& changed) {
    for (std::size_t i = 0; i < kernel.body.size(); ++i) {
      const Instruction& instr = kernel.body[i];
      if (instr.repeatMin == 1 && instr.repeatMax == 1) continue;
      changed = true;
      std::vector<Kernel> out;
      for (int count = instr.repeatMin; count <= instr.repeatMax; ++count) {
        Kernel variant = kernel;
        Instruction resolved = instr;
        resolved.repeatMin = resolved.repeatMax = 1;
        variant.body.erase(variant.body.begin() +
                           static_cast<std::ptrdiff_t>(i));
        for (int c = 0; c < count; ++c) {
          variant.body.insert(
              variant.body.begin() + static_cast<std::ptrdiff_t>(i),
              resolved);
        }
        variant.tag(strings::format("rep%zux%d", i, count));
        out.push_back(std::move(variant));
      }
      return out;
    }
    return {kernel};
  }
};

// ---------------------------------------------------------------------------
// 3. RandomSelection (and exhaustive operation-choice fan-out)
// ---------------------------------------------------------------------------

class RandomSelection final : public Pass {
 public:
  RandomSelection() : Pass("RandomSelection") {}

  void run(GenerationState& state) override {
    // Random choices draw from the single shared Rng in kernel order; the
    // draw order is part of the deterministic output.
    Rng& rng = state.rng;
    fanOut(state, [&rng](const Kernel& kernel) { return expand(kernel, rng); });
  }

 private:
  static std::vector<Kernel> expand(const Kernel& kernel, Rng& rng) {
    std::vector<Kernel> work{kernel};
    for (std::size_t i = 0; i < kernel.body.size(); ++i) {
      if (kernel.body[i].operationChoices.empty()) continue;
      std::vector<Kernel> next;
      for (const Kernel& k : work) {
        const Instruction& instr = k.body[i];
        if (instr.chooseRandomly) {
          Kernel variant = k;
          std::size_t pick = static_cast<std::size_t>(
              rng.nextBelow(instr.operationChoices.size()));
          resolve(variant, i, instr.operationChoices[pick]);
          next.push_back(std::move(variant));
        } else {
          for (const std::string& choice : instr.operationChoices) {
            Kernel variant = k;
            resolve(variant, i, choice);
            next.push_back(std::move(variant));
          }
        }
      }
      work = std::move(next);
    }
    return work;
  }

  static void resolve(Kernel& kernel, std::size_t index,
                      const std::string& operation) {
    Instruction& instr = kernel.body[index];
    instr.operation = operation;
    instr.operationChoices.clear();
    instr.chooseRandomly = false;
    kernel.tag(strings::format("op%zu_%s", index, operation.c_str()));
  }
};

// ---------------------------------------------------------------------------
// 4. MoveSemanticExpansion
// ---------------------------------------------------------------------------

class MoveSemanticExpansion final : public Pass {
 public:
  MoveSemanticExpansion() : Pass("MoveSemanticExpansion") {}

  void run(GenerationState& state) override {
    fanOut(state, [](const Kernel& kernel) { return expand(kernel); });
  }

 private:
  static std::vector<Kernel> expand(const Kernel& kernel) {
    std::vector<Kernel> work{kernel};
    for (std::size_t i = 0; i < kernel.body.size(); ++i) {
      if (!kernel.body[i].semantics) continue;
      const ir::MoveSemantics sem = *kernel.body[i].semantics;
      std::vector<std::string> candidates;
      if (sem.bytes < 16) {
        candidates = isa::moveCandidates(sem.bytes, true, sem.allowDouble);
      } else {
        if (sem.tryAligned) {
          for (auto& m : isa::moveCandidates(16, true, sem.allowDouble)) {
            candidates.push_back(std::move(m));
          }
        }
        if (sem.tryUnaligned) {
          for (auto& m : isa::moveCandidates(16, false, sem.allowDouble)) {
            candidates.push_back(std::move(m));
          }
        }
      }
      checkDescription(!candidates.empty(),
                       "move semantics produced no candidate instructions");
      std::vector<Kernel> next;
      for (const Kernel& k : work) {
        for (const std::string& mnemonic : candidates) {
          Kernel variant = k;
          Instruction& instr = variant.body[i];
          instr.operation = mnemonic;
          instr.semantics.reset();
          variant.tag(strings::format("mv%zu_%s", i, mnemonic.c_str()));
          next.push_back(std::move(variant));
        }
      }
      work = std::move(next);
    }
    return work;
  }
};

// ---------------------------------------------------------------------------
// 5. ImmediateSelection
// ---------------------------------------------------------------------------

class ImmediateSelection final : public Pass {
 public:
  ImmediateSelection() : Pass("ImmediateSelection") {}

  void run(GenerationState& state) override {
    fanOut(state, [](const Kernel& kernel) { return expand(kernel); });
  }

 private:
  static std::vector<Kernel> expand(const Kernel& kernel) {
    std::vector<Kernel> work{kernel};
    for (std::size_t i = 0; i < kernel.body.size(); ++i) {
      for (std::size_t o = 0; o < kernel.body[i].operands.size(); ++o) {
        const auto* imm = std::get_if<ir::ImmOperand>(&kernel.body[i].operands[o]);
        if (!imm || imm->choices.empty()) continue;
        std::vector<Kernel> next;
        for (const Kernel& k : work) {
          const auto& pending =
              std::get<ir::ImmOperand>(k.body[i].operands[o]);
          for (std::int64_t value : pending.choices) {
            Kernel variant = k;
            auto& target =
                std::get<ir::ImmOperand>(variant.body[i].operands[o]);
            target.value = value;
            target.choices.clear();
            variant.tag(strings::format("imm%zu_%lld", i,
                                        static_cast<long long>(value)));
            next.push_back(std::move(variant));
          }
        }
        work = std::move(next);
      }
    }
    return work;
  }
};

// ---------------------------------------------------------------------------
// 6. StrideSelection
// ---------------------------------------------------------------------------

class StrideSelection final : public Pass {
 public:
  StrideSelection() : Pass("StrideSelection") {}

  void run(GenerationState& state) override {
    fanOut(state, [](const Kernel& kernel) { return expand(kernel); });
  }

 private:
  static std::vector<Kernel> expand(const Kernel& kernel) {
    std::vector<Kernel> work{kernel};
    for (std::size_t i = 0; i < kernel.inductions.size(); ++i) {
      if (kernel.inductions[i].strideChoices.empty()) continue;
      std::vector<Kernel> next;
      for (const Kernel& k : work) {
        for (std::int64_t stride : k.inductions[i].strideChoices) {
          Kernel variant = k;
          ir::InductionVar& iv = variant.inductions[i];
          iv.increment = stride;
          iv.strideChoices.clear();
          std::string regName = iv.reg.logicalName.empty()
                                    ? "phys"
                                    : iv.reg.logicalName;
          variant.tag(strings::format("stride_%s_%lld", regName.c_str(),
                                      static_cast<long long>(stride)));
          next.push_back(std::move(variant));
        }
      }
      work = std::move(next);
    }
    return work;
  }
};

}  // namespace

std::unique_ptr<Pass> makeValidateDescription() {
  return std::make_unique<ValidateDescription>();
}
std::unique_ptr<Pass> makeInstructionRepetition() {
  return std::make_unique<InstructionRepetition>();
}
std::unique_ptr<Pass> makeRandomSelection() {
  return std::make_unique<RandomSelection>();
}
std::unique_ptr<Pass> makeMoveSemanticExpansion() {
  return std::make_unique<MoveSemanticExpansion>();
}
std::unique_ptr<Pass> makeImmediateSelection() {
  return std::make_unique<ImmediateSelection>();
}
std::unique_ptr<Pass> makeStrideSelection() {
  return std::make_unique<StrideSelection>();
}

}  // namespace microtools::creator::passes
