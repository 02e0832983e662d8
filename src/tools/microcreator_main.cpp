// The `microcreator` command-line tool: XML kernel description in, a set of
// benchmark programs out (§3 of the paper).

#include <cstdio>
#include <iostream>

#include "creator/creator.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

using namespace microtools;

int main(int argc, char** argv) {
  cli::Parser parser(
      "microcreator",
      "Generates microbenchmark program variations from an XML kernel "
      "description.");
  parser.addString("input", "XML kernel description file");
  parser.addString("output", "Output directory for generated programs",
                   "generated");
  parser.addRepeated("plugin", "Plugin shared library to load (repeatable)");
  parser.addFlag("list-passes", "Print the pass pipeline and exit");
  parser.addFlag("dry-run", "Generate but do not write files");
  parser.addFlag("names-only", "Print only the variant names");
  parser.addInt("max", "Override <maximum_benchmarks>");
  parser.addInt("seed", "Override <seed>");
  parser.addFlag("emit-c", "Also emit C source for each variant");
  parser.addFlag("verbose", "Enable info logging");

  try {
    if (!parser.parse(argc, argv)) return 0;
    if (parser.getFlag("verbose")) log::setLevel(log::Level::Info);

    creator::MicroCreator creator;
    for (const std::string& plugin : parser.getRepeated("plugin")) {
      creator.loadPlugin(plugin);
    }

    if (parser.getFlag("list-passes")) {
      int index = 1;
      for (const std::string& name : creator.passManager().passNames()) {
        std::printf("%2d. %s\n", index++, name.c_str());
      }
      return 0;
    }

    std::string input;
    if (parser.has("input")) {
      input = parser.getString("input");
    } else if (!parser.positional().empty()) {
      input = parser.positional().front();
    } else {
      std::fprintf(stderr, "error: no input file (see --help)\n");
      return 2;
    }

    creator::Description description = creator::parseDescriptionFile(input);
    if (parser.has("max")) {
      description.maximumBenchmarks =
          static_cast<std::size_t>(parser.getInt("max"));
    }
    if (parser.has("seed")) {
      description.seed = static_cast<std::uint64_t>(parser.getInt("seed"));
    }
    if (parser.getFlag("emit-c")) description.emitC = true;

    std::vector<creator::GeneratedProgram> programs =
        creator.generate(description);
    std::printf("generated %zu benchmark program(s)\n", programs.size());
    if (parser.getFlag("names-only")) {
      for (const auto& p : programs) std::printf("%s\n", p.name.c_str());
      return 0;
    }
    if (!parser.getFlag("dry-run")) {
      auto written =
          creator::writePrograms(programs, parser.getString("output"));
      std::printf("wrote %zu file(s) to %s\n", written.size(),
                  parser.getString("output").c_str());
    }
    return 0;
  } catch (const McError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
