#include "creator/creator.hpp"

#include <filesystem>
#include <fstream>
#include <map>

#include "creator/plugin.hpp"
#include "support/error.hpp"

namespace microtools::creator {

MicroCreator::MicroCreator()
    : passManager_(PassManager::standardPipeline()),
      pluginLoader_(std::make_unique<PluginLoader>()) {}

void MicroCreator::loadPlugin(const std::string& path) {
  pluginLoader_->load(path, passManager_);
}

std::vector<GeneratedProgram> MicroCreator::generate(
    const Description& description) const {
  GenerationState state(description);
  passManager_.run(state);
  return std::move(state.programs);
}

std::vector<GeneratedProgram> MicroCreator::generateFromText(
    const std::string& xmlText) const {
  return generate(parseDescriptionText(xmlText));
}

std::vector<GeneratedProgram> MicroCreator::generateFromFile(
    const std::string& path) const {
  return generate(parseDescriptionFile(path));
}

std::string sanitizeFileStem(const std::string& name) {
  std::string stem;
  stem.reserve(name.size());
  for (char c : name) {
    bool unsafe = c == '/' || c == '\\' ||
                  static_cast<unsigned char>(c) < 0x20 || c == 0x7f;
    stem += unsafe ? '_' : c;
  }
  // "." and ".." are directory references, not file stems.
  if (stem.empty() || stem == "." || stem == "..") stem = "variant";
  return stem;
}

std::vector<std::string> writePrograms(
    const std::vector<GeneratedProgram>& programs,
    const std::string& outputDir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(outputDir, ec);
  if (ec) {
    throw McError("cannot create output directory '" + outputDir +
                  "': " + ec.message());
  }
  std::map<std::string, std::string> stemOwner;  // stem -> variant name
  std::vector<std::string> written;
  auto writeFile = [&](const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw McError("cannot write file: " + path);
    out << content;
    written.push_back(path);
  };
  for (const GeneratedProgram& program : programs) {
    std::string stem = sanitizeFileStem(program.name);
    auto [it, inserted] = stemOwner.emplace(stem, program.name);
    if (!inserted) {
      throw McError("duplicate program file stem '" + stem + "': variant '" +
                    program.name + "' would overwrite '" + it->second + "'");
    }
    writeFile((fs::path(outputDir) / (stem + ".s")).string(),
              program.asmText);
    if (!program.cText.empty()) {
      writeFile((fs::path(outputDir) / (stem + ".c")).string(),
                program.cText);
    }
  }
  return written;
}

}  // namespace microtools::creator
