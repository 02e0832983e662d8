#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "creator/description.hpp"
#include "ir/kernel.hpp"
#include "support/rng.hpp"

namespace microtools::creator {

/// A generated benchmark program: the CodeEmission pass's output unit.
struct GeneratedProgram {
  std::string name;          ///< unique variant name (baseName + tags)
  std::string functionName;  ///< MicroLauncher entry point symbol
  std::string asmText;       ///< full AT&T assembly translation unit
  std::string cText;         ///< C translation unit ("" unless emit_c)
  int arrayCount = 0;        ///< pointer arguments after the trip count
  ir::Kernel kernel;         ///< final IR, kept for inspection/tests

  /// Stable content identity: 16-hex-digit FNV-1a digest over the emitted
  /// sources and entry point, independent of the variant *name*. Two
  /// variants with identical generated code share a contentId; renaming a
  /// variant does not change it. The measurement cache and exploration
  /// reports key on content, not labels.
  std::string contentId;
};

/// Mutable state threaded through the pass pipeline.
struct GenerationState {
  explicit GenerationState(Description desc)
      : description(std::move(desc)), rng(description.seed) {
    kernels.push_back(description.kernel);
  }

  Description description;
  std::vector<ir::Kernel> kernels;
  Rng rng;
  std::vector<GeneratedProgram> programs;  ///< filled by CodeEmission
};

/// One pass of the MicroCreator source-to-source compiler (§3.2).
///
/// Unlike general compiler passes, MicroCreator passes are entirely
/// independent: each consumes the current kernel set and produces a new one.
/// Every pass has a *gate* — "the function returning a boolean deciding
/// whether or not to execute the pass" (§3.3) — which plugins may override
/// without recompiling the tool.
class Pass {
 public:
  explicit Pass(std::string name) : name_(std::move(name)) {}
  virtual ~Pass() = default;

  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  const std::string& name() const { return name_; }

  /// Returns whether the pass should run. Honors a plugin gate override
  /// first, then the pass's own defaultGate().
  bool gate(const GenerationState& state) const {
    if (gateOverride_) return gateOverride_(state);
    return defaultGate(state);
  }

  /// Plugin hook: replaces the gate function (§3.3).
  void setGateOverride(std::function<bool(const GenerationState&)> gate) {
    gateOverride_ = std::move(gate);
  }

  /// Transforms the kernel set in place.
  virtual void run(GenerationState& state) = 0;

 protected:
  /// Default gate: most internal passes always execute (§3.3).
  virtual bool defaultGate(const GenerationState&) const { return true; }

 private:
  std::string name_;
  std::function<bool(const GenerationState&)> gateOverride_;
};

/// Convenience adaptor for plugin-provided passes written as plain
/// functions.
class LambdaPass final : public Pass {
 public:
  LambdaPass(std::string name, std::function<void(GenerationState&)> body)
      : Pass(std::move(name)), body_(std::move(body)) {}

  void run(GenerationState& state) override { body_(state); }

 private:
  std::function<void(GenerationState&)> body_;
};

/// Helper for variant-producing passes: applies `expand` to every kernel and
/// concatenates the results in kernel order, enforcing the description's
/// benchmark limit.
void fanOut(GenerationState& state,
            const std::function<std::vector<ir::Kernel>(const ir::Kernel&)>&
                expand);

/// Stable naming contract for emitted variants: the i-th program's name
/// depends only on the sequence of base names (kernel.variantName() in
/// kernel order), never on map iteration or emission schedule. The first
/// occurrence of a base name keeps it bare; the N-th occurrence (N >= 2)
/// becomes `<base>_vN`.
std::vector<std::string> assignVariantNames(
    const std::vector<std::string>& baseNames);

}  // namespace microtools::creator
