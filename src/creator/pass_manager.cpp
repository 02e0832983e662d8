#include "creator/pass_manager.hpp"

#include <map>

#include "creator/emit.hpp"
#include "creator/passes.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "verify/verify.hpp"

namespace microtools::creator {

void fanOut(GenerationState& state,
            const std::function<std::vector<ir::Kernel>(const ir::Kernel&)>&
                expand) {
  const std::size_t limit = state.description.maximumBenchmarks;
  std::vector<ir::Kernel> out;
  bool limited = false;
  for (const ir::Kernel& kernel : state.kernels) {
    if (out.size() >= limit) {
      limited = true;
      break;
    }
    std::vector<ir::Kernel> expanded = expand(kernel);
    for (ir::Kernel& k : expanded) {
      if (out.size() >= limit) {
        limited = true;
        break;
      }
      out.push_back(std::move(k));
    }
  }
  if (limited) {
    log::info("benchmark limit of " + std::to_string(limit) +
              " reached; dropping additional variants");
  }
  state.kernels = std::move(out);
}

std::vector<std::string> assignVariantNames(
    const std::vector<std::string>& baseNames) {
  std::vector<std::string> names;
  names.reserve(baseNames.size());
  std::map<std::string, int> seen;
  for (const std::string& base : baseNames) {
    int& count = seen[base];
    ++count;
    if (count > 1) {
      names.push_back(base + "_v" + std::to_string(count));
    } else {
      names.push_back(base);
    }
  }
  return names;
}

namespace {

/// Renders one kernel into its GeneratedProgram under an already-assigned
/// variant name.
GeneratedProgram renderProgram(const GenerationState& state,
                               const ir::Kernel& kernel,
                               const std::string& name) {
  GeneratedProgram program;
  program.name = name;
  program.functionName = state.description.functionName;
  program.asmText = emitAssembly(kernel, program.functionName);
  if (state.description.emitC) {
    program.cText = emitCSource(kernel, program.functionName);
  }
  program.arrayCount = kernel.arrayCount;
  program.kernel = kernel;
  program.contentId = hash::Fnv1a()
                          .str(program.functionName)
                          .str(program.asmText)
                          .str(program.cText)
                          .hex();
  return program;
}

/// Pass 19: renders every kernel into a GeneratedProgram.
class CodeEmission final : public Pass {
 public:
  CodeEmission() : Pass("CodeEmission") {}

  void run(GenerationState& state) override {
    // The stable naming contract: a kernel's position among equal base
    // names decides its _vN suffix.
    std::vector<std::string> baseNames;
    baseNames.reserve(state.kernels.size());
    for (const ir::Kernel& kernel : state.kernels) {
      baseNames.push_back(kernel.variantName());
    }
    std::vector<std::string> names = assignVariantNames(baseNames);
    state.programs.clear();
    state.programs.reserve(state.kernels.size());
    for (std::size_t i = 0; i < state.kernels.size(); ++i) {
      state.programs.push_back(
          renderProgram(state, state.kernels[i], names[i]));
    }
  }
};

/// Pass 20: static verification of every emitted program. A variant whose
/// assembly carries an error-level diagnostic (ABI clobber, provable
/// non-termination, uninitialized address register, ...) is dropped with a
/// warning; warnings-only reports pass. Plugins can disable the pass via
/// its gate ("Verification").
class Verification final : public Pass {
 public:
  Verification() : Pass("Verification") {}

  void run(GenerationState& state) override {
    if (state.programs.empty()) return;
    std::vector<GeneratedProgram> kept;
    kept.reserve(state.programs.size());
    for (GeneratedProgram& program : state.programs) {
      verify::VerifyOptions options;
      options.arrayCount = program.arrayCount;
      verify::VerifyReport report =
          verify::verifyAssembly(program.asmText, options);
      if (report.ok()) {
        kept.push_back(std::move(program));
        continue;
      }
      log::warn("variant '" + program.name +
                "' rejected by verification: " + report.shortSummary());
      for (const verify::Diagnostic& d : report.diagnostics) {
        if (d.severity == verify::Severity::Error) {
          log::warn("  [" + d.rule + "] " + d.message);
        }
      }
    }
    if (kept.empty()) {
      throw McError(
          "verification rejected every generated variant; see warnings "
          "above (disable the Verification pass gate to bypass)");
    }
    state.programs = std::move(kept);
  }
};

}  // namespace

namespace passes {
std::unique_ptr<Pass> makeCodeEmission() {
  return std::make_unique<CodeEmission>();
}
std::unique_ptr<Pass> makeVerification() {
  return std::make_unique<Verification>();
}
}  // namespace passes

PassManager PassManager::standardPipeline() {
  PassManager pm;
  pm.addPass(passes::makeValidateDescription());
  pm.addPass(passes::makeInstructionRepetition());
  pm.addPass(passes::makeRandomSelection());
  pm.addPass(passes::makeMoveSemanticExpansion());
  pm.addPass(passes::makeImmediateSelection());
  pm.addPass(passes::makeStrideSelection());
  pm.addPass(passes::makeOperandSwapBeforeUnroll());
  pm.addPass(passes::makeUnrolling());
  pm.addPass(passes::makeOperandSwapAfterUnroll());
  pm.addPass(passes::makeRegisterRotation());
  pm.addPass(passes::makeRegisterAllocation());
  pm.addPass(passes::makeLoopCounterSetup());
  pm.addPass(passes::makeInductionLinking());
  pm.addPass(passes::makeInductionInsertion());
  pm.addPass(passes::makeAlignmentDirectives());
  pm.addPass(passes::makePrologueEpilogue());
  pm.addPass(passes::makeScheduling());
  pm.addPass(passes::makePeephole());
  pm.addPass(passes::makeCodeEmission());
  pm.addPass(passes::makeVerification());
  return pm;
}

void PassManager::addPass(std::unique_ptr<Pass> pass) {
  if (find(pass->name())) {
    throw McError("pass '" + pass->name() + "' already registered");
  }
  passes_.push_back(std::move(pass));
}

std::size_t PassManager::indexOf(const std::string& name) const {
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    if (passes_[i]->name() == name) return i;
  }
  throw McError("no pass named '" + name + "'");
}

void PassManager::addPassBefore(const std::string& anchor,
                                std::unique_ptr<Pass> pass) {
  if (find(pass->name())) {
    throw McError("pass '" + pass->name() + "' already registered");
  }
  std::size_t i = indexOf(anchor);
  passes_.insert(passes_.begin() + static_cast<std::ptrdiff_t>(i),
                 std::move(pass));
}

void PassManager::addPassAfter(const std::string& anchor,
                               std::unique_ptr<Pass> pass) {
  if (find(pass->name())) {
    throw McError("pass '" + pass->name() + "' already registered");
  }
  std::size_t i = indexOf(anchor);
  passes_.insert(passes_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                 std::move(pass));
}

void PassManager::removePass(const std::string& name) {
  std::size_t i = indexOf(name);
  passes_.erase(passes_.begin() + static_cast<std::ptrdiff_t>(i));
}

void PassManager::replacePass(const std::string& name,
                              std::unique_ptr<Pass> pass) {
  std::size_t i = indexOf(name);
  passes_[i] = std::move(pass);
}

void PassManager::setGate(const std::string& name,
                          std::function<bool(const GenerationState&)> gate) {
  passes_[indexOf(name)]->setGateOverride(std::move(gate));
}

Pass* PassManager::find(const std::string& name) {
  for (auto& p : passes_) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

const Pass* PassManager::find(const std::string& name) const {
  for (const auto& p : passes_) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

std::vector<std::string> PassManager::passNames() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& p : passes_) names.push_back(p->name());
  return names;
}

void PassManager::run(GenerationState& state) const {
  for (const auto& pass : passes_) {
    if (!pass->gate(state)) {
      log::debug("pass " + pass->name() + " gated off");
      continue;
    }
    log::debug("running pass " + pass->name());
    pass->run(state);
    if (state.kernels.size() > state.description.maximumBenchmarks) {
      state.kernels.resize(state.description.maximumBenchmarks);
    }
  }
}

}  // namespace microtools::creator
