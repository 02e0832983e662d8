#include <gtest/gtest.h>

#include "creator/emit.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "test_helpers.hpp"

namespace microtools::creator {
namespace {

using testing::figure6Xml;
using testing::generate;
using testing::uniqueTempDir;

std::vector<std::string> nonEmptyLines(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& line : strings::split(text, '\n')) {
    auto trimmed = strings::trim(line);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

TEST(EmitAsm, ReproducesPaperFigure8) {
  // The unroll-3 store/load/store variant must match Figure 8's loop.
  auto programs = generate(figure6Xml(3, 3));
  const GeneratedProgram* target = nullptr;
  for (const auto& p : programs) {
    if (p.name.find("seqSLS") != std::string::npos) target = &p;
  }
  ASSERT_NE(target, nullptr);
  const std::string& text = target->asmText;
  EXPECT_NE(text.find(".L6:"), std::string::npos);
  EXPECT_NE(text.find("movaps %xmm0, (%rsi)"), std::string::npos);
  EXPECT_NE(text.find("movaps 16(%rsi), %xmm1"), std::string::npos);
  EXPECT_NE(text.find("movaps %xmm2, 32(%rsi)"), std::string::npos);
  EXPECT_NE(text.find("add $48, %rsi"), std::string::npos);
  EXPECT_NE(text.find("sub $12, %rdi"), std::string::npos);
  EXPECT_NE(text.find("jge .L6"), std::string::npos);
}

TEST(EmitAsm, ContainsFunctionSymbolBoilerplate) {
  auto programs = generate(figure6Xml(1, 1, false));
  const std::string& text = programs[0].asmText;
  EXPECT_NE(text.find(".globl microkernel"), std::string::npos);
  EXPECT_NE(text.find(".type microkernel, @function"), std::string::npos);
  EXPECT_NE(text.find("microkernel:"), std::string::npos);
  EXPECT_NE(text.find(".size microkernel"), std::string::npos);
  EXPECT_NE(text.find(".note.GNU-stack"), std::string::npos);
}

TEST(EmitAsm, AlignmentDirectiveMatchesRequest) {
  std::string xml = figure6Xml(1, 1, false);
  xml.insert(xml.find("</kernel>"), "<alignment>64</alignment>");
  auto programs = generate(xml);
  EXPECT_NE(programs[0].asmText.find(".p2align 6"), std::string::npos);
}

TEST(EmitAsm, PrologueBeforeLabelBodyAfter) {
  auto programs = generate(figure6Xml(1, 1, false));
  auto lines = nonEmptyLines(programs[0].asmText);
  auto indexOf = [&lines](const std::string& needle) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find(needle) != std::string::npos) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    return static_cast<std::ptrdiff_t>(-1);
  };
  EXPECT_LT(indexOf("movslq %edi, %rdi"), indexOf(".L6:"));
  EXPECT_LT(indexOf(".L6:"), indexOf("movaps"));
  EXPECT_LT(indexOf("movaps"), indexOf("jge .L6"));
  EXPECT_LT(indexOf("jge .L6"), indexOf("ret"));
}

TEST(EmitAsm, CustomFunctionName) {
  std::string xml = figure6Xml(1, 1, false);
  xml.insert(xml.find("<kernel>"),
             "<function_name>my_kernel</function_name>");
  auto programs = generate(xml);
  EXPECT_EQ(programs[0].functionName, "my_kernel");
  EXPECT_NE(programs[0].asmText.find("my_kernel:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// C emission
// ---------------------------------------------------------------------------

std::string emitCFor(const std::string& xml) {
  std::string withC = xml;
  withC.insert(withC.find("<kernel>"), "<emit_c/>");
  auto programs = generate(withC);
  return programs.at(0).cText;
}

TEST(EmitC, ProducesFunctionWithArrayArguments) {
  std::string c = emitCFor(figure6Xml(2, 2, false));
  EXPECT_NE(c.find("int microkernel(int n, void* a0)"), std::string::npos);
  EXPECT_NE(c.find("do {"), std::string::npos);
  EXPECT_NE(c.find("} while (r_rdi >= 0);"), std::string::npos);
  EXPECT_NE(c.find("return (int)r_rax;"), std::string::npos);
}

TEST(EmitC, SixteenByteMovesUseVectorHelpers) {
  std::string c = emitCFor(figure6Xml(1, 1, false));
  EXPECT_NE(c.find("mc_load16"), std::string::npos);
}

TEST(EmitC, StoresEmitWhenSwapped) {
  // Generate both load and store variants at unroll 1.
  std::string withC = figure6Xml(1, 1, true);
  withC.insert(withC.find("<kernel>"), "<emit_c/>");
  auto programs = generate(withC);
  ASSERT_EQ(programs.size(), 2u);
  bool sawStore = false;
  for (const auto& p : programs) {
    if (p.cText.find("mc_store16") != std::string::npos) sawStore = true;
  }
  EXPECT_TRUE(sawStore);
}

TEST(EmitC, ScalarMovesUseVolatileTypedPointers) {
  std::string c = emitCFor(testing::movssLoadXml(1, 1));
  EXPECT_NE(c.find("volatile const float"), std::string::npos);
}

TEST(EmitC, InductionUpdatesPresent) {
  std::string c = emitCFor(figure6Xml(3, 3, false));
  EXPECT_NE(c.find("r_rsi += 48L;"), std::string::npos);
  EXPECT_NE(c.find("r_rdi -= 12L;"), std::string::npos);
  EXPECT_NE(c.find("r_rax += 1L;"), std::string::npos);
}

TEST(EmitC, EmptyByDefault) {
  auto programs = generate(figure6Xml(1, 1, false));
  EXPECT_TRUE(programs[0].cText.empty());
}

TEST(EmitC, CompilesStandalone) {
  // The emitted C must at least be valid C syntax for the system compiler.
  std::string c = emitCFor(figure6Xml(2, 2, false));
  std::string path = uniqueTempDir("emitc") + "/kernel.c";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(c.data(), 1, c.size(), f);
    std::fclose(f);
  }
  std::string cmd = "cc -std=c11 -O2 -fsyntax-only " + path + " 2>/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << c;
}

}  // namespace
}  // namespace microtools::creator
