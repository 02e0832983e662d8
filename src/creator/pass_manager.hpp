#pragma once

#include <memory>
#include <string>
#include <vector>

#include "creator/pass.hpp"

namespace microtools::creator {

/// Ordered pipeline of MicroCreator passes with the plugin-facing
/// manipulation API of §3.3: passes can be added, removed, replaced or
/// re-gated without recompiling the tool.
class PassManager {
 public:
  /// Builds the default twenty-pass pipeline: the nineteen passes of §3.2 plus the final Verification pass.
  static PassManager standardPipeline();

  PassManager() = default;
  PassManager(PassManager&&) = default;
  PassManager& operator=(PassManager&&) = default;

  /// Appends a pass at the end of the pipeline.
  void addPass(std::unique_ptr<Pass> pass);

  /// Inserts a pass before/after the named pass; throws McError when the
  /// anchor does not exist.
  void addPassBefore(const std::string& anchor, std::unique_ptr<Pass> pass);
  void addPassAfter(const std::string& anchor, std::unique_ptr<Pass> pass);

  /// Removes the named pass; throws McError when absent.
  void removePass(const std::string& name);

  /// Replaces the named pass in place, keeping its pipeline position.
  void replacePass(const std::string& name, std::unique_ptr<Pass> pass);

  /// Overrides the gate of the named pass (§3.3).
  void setGate(const std::string& name,
               std::function<bool(const GenerationState&)> gate);

  /// Pass lookup; nullptr when absent.
  Pass* find(const std::string& name);
  const Pass* find(const std::string& name) const;

  /// Names in pipeline order.
  std::vector<std::string> passNames() const;

  std::size_t size() const { return passes_.size(); }

  /// Runs every gated-on pass in order, enforcing the benchmark limit after
  /// each pass.
  void run(GenerationState& state) const;

 private:
  std::size_t indexOf(const std::string& name) const;

  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace microtools::creator
