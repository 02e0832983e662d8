#pragma once

#include <string>
#include <vector>

#include "creator/description.hpp"
#include "creator/pass.hpp"
#include "creator/pass_manager.hpp"
#include "creator/plugin.hpp"

namespace microtools::creator {

/// MicroCreator facade: the "single description file in, set of benchmark
/// programs out" entry point (§3).
class MicroCreator {
 public:
  /// Constructs with the standard twenty-pass pipeline.
  MicroCreator();

  /// Direct access to the pipeline for programmatic customization (the same
  /// surface the plugin system exposes).
  PassManager& passManager() { return passManager_; }
  const PassManager& passManager() const { return passManager_; }

  /// Loads a plugin shared library (§3.3); see PluginLoader.
  void loadPlugin(const std::string& path);

  /// Runs the pipeline over a parsed description and returns the generated
  /// benchmark programs.
  std::vector<GeneratedProgram> generate(const Description& description) const;

  /// Convenience: parse XML text / a file, then generate.
  std::vector<GeneratedProgram> generateFromText(
      const std::string& xmlText) const;
  std::vector<GeneratedProgram> generateFromFile(
      const std::string& path) const;

 private:
  PassManager passManager_;
  std::unique_ptr<PluginLoader> pluginLoader_;
};

/// Maps a variant name onto a safe file stem: path separators and control
/// characters become '_', and an empty name becomes "variant". Variant
/// names come from user-supplied <benchmark_name> text, so they must never
/// be able to escape the output directory.
std::string sanitizeFileStem(const std::string& name);

/// Writes each program's assembly (and C source when present) into
/// `outputDir` as <stem>.s / <stem>.c, where stem = sanitizeFileStem(name).
/// Throws McError when two programs map to the same stem — one variant must
/// never silently overwrite another's output. Returns the written paths.
std::vector<std::string> writePrograms(
    const std::vector<GeneratedProgram>& programs,
    const std::string& outputDir);

}  // namespace microtools::creator
