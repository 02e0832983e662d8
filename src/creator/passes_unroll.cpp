// Passes 7-10: the unrolling group. The two operand-swap passes bracket the
// Unrolling pass exactly as §3.2 describes: swapping before unrolling yields
// homogeneous (all-load or all-store) unrolled kernels, swapping after
// unrolling yields every mixed load/store sequence — for the (Load|Store)+
// study of §5.1 this produces sum(2^u for u in 1..8) = 510 variants.

#include "creator/passes.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace microtools::creator::passes {

namespace {

using ir::Instruction;
using ir::Kernel;

char loadStoreLetter(const Instruction& instr) {
  if (instr.isLoad()) return 'L';
  if (instr.isStore()) return 'S';
  return 'X';
}

// ---------------------------------------------------------------------------
// 7. OperandSwapBeforeUnroll
// ---------------------------------------------------------------------------

class OperandSwapBeforeUnroll final : public Pass {
 public:
  OperandSwapBeforeUnroll() : Pass("OperandSwapBeforeUnroll") {}

  void run(GenerationState& state) override {
    fanOut(state, [](const Kernel& kernel) { return expand(kernel); });
  }

 private:
  static std::vector<Kernel> expand(const Kernel& kernel) {
    std::vector<Kernel> work{kernel};
    for (std::size_t i = 0; i < kernel.body.size(); ++i) {
      if (!kernel.body[i].swapBeforeUnroll) continue;
      std::vector<Kernel> next;
      for (const Kernel& k : work) {
        for (bool swap : {false, true}) {
          Kernel variant = k;
          Instruction& instr = variant.body[i];
          if (swap) instr = ir::swappedOperands(instr);
          instr.swapBeforeUnroll = false;
          variant.tag(strings::format("pre%zu_%c", i,
                                      loadStoreLetter(instr)));
          next.push_back(std::move(variant));
        }
      }
      work = std::move(next);
    }
    return work;
  }
};

// ---------------------------------------------------------------------------
// 8. Unrolling
// ---------------------------------------------------------------------------

class Unrolling final : public Pass {
 public:
  Unrolling() : Pass("Unrolling") {}

  void run(GenerationState& state) override {
    fanOut(state, [](const Kernel& kernel) { return expand(kernel); });
  }

 private:
  static std::vector<Kernel> expand(const Kernel& kernel) {
    std::vector<Kernel> out;
    for (int factor = kernel.unrollMin; factor <= kernel.unrollMax; ++factor) {
      out.push_back(unrollBy(kernel, factor));
    }
    return out;
  }

  static Kernel unrollBy(const Kernel& kernel, int factor) {
    Kernel variant = kernel;
    variant.body.clear();
    for (int copy = 0; copy < factor; ++copy) {
      for (const Instruction& original : kernel.body) {
        Instruction instr = original;
        instr.unrollCopy = copy;
        // Advance memory operands by the per-copy offset of the base
        // register's induction (Figure 6's <offset>16</offset> produces
        // 0(%rsi), 16(%rsi), 32(%rsi) for an unroll of 3).
        for (ir::Operand& op : instr.operands) {
          auto* mem = std::get_if<ir::MemOperand>(&op);
          if (!mem) continue;
          const ir::InductionVar* iv =
              kernel.inductionFor(mem->base.logicalName);
          if (iv) mem->offset += copy * iv->offsetStep;
        }
        variant.body.push_back(std::move(instr));
      }
    }
    variant.unrollFactor = factor;
    variant.unrollMin = variant.unrollMax = factor;
    variant.tag(strings::format("u%d", factor));
    return variant;
  }
};

// ---------------------------------------------------------------------------
// 9. OperandSwapAfterUnroll
// ---------------------------------------------------------------------------

class OperandSwapAfterUnroll final : public Pass {
 public:
  OperandSwapAfterUnroll() : Pass("OperandSwapAfterUnroll") {}

  void run(GenerationState& state) override {
    fanOut(state, [](const Kernel& kernel) { return expand(kernel); });
  }

 private:
  static std::vector<Kernel> expand(const Kernel& kernel) {
    std::vector<std::size_t> swappable;
    for (std::size_t i = 0; i < kernel.body.size(); ++i) {
      if (kernel.body[i].swapAfterUnroll) swappable.push_back(i);
    }
    if (swappable.empty()) return {kernel};
    checkDescription(swappable.size() <= 20,
                     "swap_after_unroll on " +
                         std::to_string(swappable.size()) +
                         " instructions would generate more than 2^20 "
                         "variants; lower the unroll factor or use "
                         "swap_before_unroll");
    std::vector<Kernel> out;
    std::size_t combinations = std::size_t{1} << swappable.size();
    for (std::size_t mask = 0; mask < combinations; ++mask) {
      Kernel variant = kernel;
      std::string sequence;
      for (std::size_t bit = 0; bit < swappable.size(); ++bit) {
        Instruction& instr = variant.body[swappable[bit]];
        if (mask & (std::size_t{1} << bit)) {
          instr = ir::swappedOperands(instr);
        }
        instr.swapAfterUnroll = false;
        sequence += loadStoreLetter(instr);
      }
      variant.tag("seq" + sequence);
      out.push_back(std::move(variant));
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// 10. RegisterRotation
// ---------------------------------------------------------------------------

class RegisterRotation final : public Pass {
 public:
  RegisterRotation() : Pass("RegisterRotation") {}

  void run(GenerationState& state) override {
    for (Kernel& kernel : state.kernels) {
      for (Instruction& instr : kernel.body) {
        for (ir::Operand& op : instr.operands) {
          if (auto* reg = std::get_if<ir::RegOperand>(&op)) {
            rotate(*reg, instr.unrollCopy);
          } else if (auto* mem = std::get_if<ir::MemOperand>(&op)) {
            rotate(mem->base, instr.unrollCopy);
            if (mem->index) rotate(*mem->index, instr.unrollCopy);
          }
        }
      }
    }
  }

 private:
  static void rotate(ir::RegOperand& reg, int unrollCopy) {
    if (!reg.isRotating()) return;
    std::string prefix = reg.rotatePrefix;
    if (!prefix.empty() && prefix.front() == '%') prefix.erase(0, 1);
    checkDescription(prefix == "xmm",
                     "rotating register class '" + reg.rotatePrefix +
                         "' is not supported (only %xmm)");
    int span = reg.rotateMax - reg.rotateMin;
    int index = reg.rotateMin + (unrollCopy % span);
    checkDescription(index >= 0 && index <= 15,
                     "rotating register index out of the xmm0-15 range");
    reg.phys = isa::xmm(index);
    reg.rotatePrefix.clear();
    reg.rotateMin = reg.rotateMax = 0;
  }
};

}  // namespace

std::unique_ptr<Pass> makeOperandSwapBeforeUnroll() {
  return std::make_unique<OperandSwapBeforeUnroll>();
}
std::unique_ptr<Pass> makeUnrolling() {
  return std::make_unique<Unrolling>();
}
std::unique_ptr<Pass> makeOperandSwapAfterUnroll() {
  return std::make_unique<OperandSwapAfterUnroll>();
}
std::unique_ptr<Pass> makeRegisterRotation() {
  return std::make_unique<RegisterRotation>();
}

}  // namespace microtools::creator::passes
