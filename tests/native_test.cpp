#include <gtest/gtest.h>

#include <dlfcn.h>
#include <link.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <linux/perf_event.h>
#endif

#include "launcher/campaign.hpp"
#include "launcher/protocol.hpp"
#include "native/affinity.hpp"
#include "native/compile.hpp"
#include "native/native_backend.hpp"
#include "native/perf_counters.hpp"
#include "native/timing.hpp"
#include "support/error.hpp"
#include "test_helpers.hpp"

namespace microtools::native {
namespace {

namespace fs = std::filesystem;

using testing::figure6Xml;
using testing::generate;
using testing::uniqueTempDir;

/// Sets $CC for the scope and drops the identity memo on both edges, so the
/// override takes effect immediately and never leaks into later tests.
struct ScopedCc {
  explicit ScopedCc(const std::string& cc) {
    const char* old = std::getenv("CC");
    if (old) previous_ = old;
    setenv("CC", cc.c_str(), 1);
    clearCompilerIdentityMemo();
  }
  ~ScopedCc() {
    if (previous_.empty()) {
      unsetenv("CC");
    } else {
      setenv("CC", previous_.c_str(), 1);
    }
    clearCompilerIdentityMemo();
  }

 private:
  std::string previous_;
};

// These tests execute real machine code on the host. Functional assertions
// only — host timing is asserted merely to be positive/ordered loosely.

TEST(Timing, TscIsMonotonic) {
  std::uint64_t a = readTsc();
  std::uint64_t b = readTsc();
  EXPECT_GE(b, a);
}

TEST(Timing, OverheadIsSmallAndPositive) {
  double ov = tscOverheadCycles();
  EXPECT_GE(ov, 0.0);
  EXPECT_LT(ov, 10000.0);
}

TEST(Affinity, AvailableCoresPositive) {
  EXPECT_GE(availableCores(), 1);
}

TEST(Affinity, PinToCoreDoesNotCrash) {
  // May fail in restricted cpusets; either result is acceptable.
  (void)pinToCore(0);
  SUCCEED();
}

TEST(Compile, AssemblyKernelCompilesAndRuns) {
  auto programs = generate(figure6Xml(4, 4, false));
  CompiledKernel kernel(programs[0].asmText, "asm", "microkernel");
  std::vector<char> buffer(1 << 16, 0);
  void* ptrs[1] = {buffer.data()};
  int iterations = kernel.call(4096, ptrs, 1);
  EXPECT_EQ(iterations, 4096 / 16 + 1);
}

TEST(Compile, CSourceKernelCompilesAndRuns) {
  const char* src = R"(
int microkernel(int n, void* a) {
  volatile float* p = (volatile float*)a;
  int i;
  float acc = 0;
  for (i = 0; i < n; i++) acc += p[i];
  return n;
}
)";
  CompiledKernel kernel(src, "c", "microkernel");
  std::vector<float> buffer(1024, 1.0f);
  void* ptrs[1] = {buffer.data()};
  EXPECT_EQ(kernel.call(1024, ptrs, 1), 1024);
}

TEST(Compile, EmittedCSourceMatchesAssemblySemantics) {
  // The creator's C output must compute the same iteration count as its
  // assembly output when both run natively.
  std::string xml = figure6Xml(3, 3, false);
  xml.insert(xml.find("<kernel>"), "<emit_c/>");
  auto programs = generate(xml);
  ASSERT_FALSE(programs[0].cText.empty());
  CompiledKernel fromAsm(programs[0].asmText, "asm", "microkernel");
  CompiledKernel fromC(programs[0].cText, "c", "microkernel");
  std::vector<char> buffer(1 << 16, 0);
  void* ptrs[1] = {buffer.data()};
  EXPECT_EQ(fromAsm.call(8192, ptrs, 1), fromC.call(8192, ptrs, 1));
}

TEST(Compile, BadSourceReportsCompilerOutput) {
  try {
    CompiledKernel bad("this is not assembly", "asm", "f");
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    EXPECT_NE(std::string(e.what()).find("compiler failed"),
              std::string::npos);
  }
}

TEST(Compile, MissingSymbolThrows) {
  auto programs = generate(figure6Xml(1, 1, false));
  EXPECT_THROW(CompiledKernel(programs[0].asmText, "asm", "wrong_name"),
               ExecutionError);
}

TEST(Compile, UnsupportedLanguageThrows) {
  EXPECT_THROW(CompiledKernel("x", "fortran", "f"), ExecutionError);
}

TEST(Compile, MoveSemanticsTransferOwnership) {
  auto programs = generate(figure6Xml(4, 4, false));
  std::vector<char> buffer(1 << 16, 0);
  void* ptrs[1] = {buffer.data()};

  CompiledKernel a(programs[0].asmText, "asm", "microkernel");
  std::string soPath = a.sharedObjectPath();
  EXPECT_FALSE(soPath.empty());

  CompiledKernel b = std::move(a);  // move construction
  EXPECT_EQ(b.sharedObjectPath(), soPath);
  EXPECT_EQ(b.call(4096, ptrs, 1), 4096 / 16 + 1);

  CompiledKernel c(programs[0].asmText, "asm", "microkernel");
  c = std::move(b);  // move assignment over a live kernel
  EXPECT_EQ(c.sharedObjectPath(), soPath);
  EXPECT_EQ(c.call(4096, ptrs, 1), 4096 / 16 + 1);

  c = std::move(c);  // self-move must not destroy the kernel
  EXPECT_EQ(c.call(4096, ptrs, 1), 4096 / 16 + 1);
}

TEST(Compile, FailedCompilationLeavesNoTempFiles) {
  std::string tmp = fs::temp_directory_path().string();
  auto countTempFiles = [&tmp] {
    std::size_t count = 0;
    std::string prefix = "microtools_" + std::to_string(getpid()) + "_";
    for (const fs::directory_entry& entry : fs::directory_iterator(tmp)) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
    }
    return count;
  };
  std::size_t before = countTempFiles();
  EXPECT_THROW(CompiledKernel("this is not assembly", "asm", "f"),
               ExecutionError);
  EXPECT_THROW(CompiledKernel("not C either @!#", "c", "f"), ExecutionError);
  EXPECT_EQ(countTempFiles(), before);

  // A failing joined batch, then the per-unit fallback that isolates it.
  auto programs = generate(figure6Xml(1, 1, false));
  std::vector<launcher::SourceUnit> units = {
      {"asm", programs[0].asmText, "microkernel"},
      {"asm", "this is not assembly", "microkernel"},
  };
  EXPECT_THROW(CompileBatch().compile(units), ExecutionError);
  {
    NativeBackend backend;
    auto prepared = backend.prepareBatch(units);
    EXPECT_EQ(prepared[0].kind, "so");
    EXPECT_EQ(prepared[1].kind, "asm");
  }
  EXPECT_EQ(countTempFiles(), before);
}

TEST(Compile, SignalDeathIsDiagnosable) {
  // A compiler that dies by signal must produce an ExecutionError naming
  // the signal, not a generic failure (the old popen/pclose path compared
  // the raw status to 0 and lost that information).
  std::string dir = uniqueTempDir("killed_cc");
  std::string script = dir + "/killed-cc";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\nkill -SEGV $$\n";
  }
  chmod(script.c_str(), 0755);
  ScopedCc cc(script);
  try {
    CompiledKernel kernel("whatever", "asm", "f");
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("compiler failed"), std::string::npos) << message;
    EXPECT_NE(message.find("signal"), std::string::npos) << message;
  }
}

TEST(Compile, MissingCompilerReportsSpawnFailure) {
  ScopedCc cc("/nonexistent/compiler-binary");
  EXPECT_THROW(CompiledKernel("x", "asm", "f"), ExecutionError);
}

TEST(Compile, RenameIdentifierRespectsBoundaries) {
  EXPECT_EQ(CompileBatch::renameIdentifier(
                "\t.globl f\n\t.type f, @function\nf:\n\t.size f, .-f\n", "f",
                "f_mtb0"),
            "\t.globl f_mtb0\n\t.type f_mtb0, @function\nf_mtb0:\n"
            "\t.size f_mtb0, .-f_mtb0\n");
  // Substrings of longer identifiers must survive.
  EXPECT_EQ(CompileBatch::renameIdentifier("ff f fx _f f$", "f", "g"),
            "ff g fx _f f$");
  // '.' is a boundary (assembler directives and .-f expressions).
  EXPECT_EQ(CompileBatch::renameIdentifier(".f f.b", "f", "g"), ".g g.b");
}

TEST(Compile, BatchUniquifiesDuplicateFunctionNames) {
  // Two variants exporting the same entry symbol — the whole point of the
  // rename: one shared object cannot hold two globals named "microkernel".
  auto programs = generate(figure6Xml(2, 3, false));
  ASSERT_GE(programs.size(), 2u);
  std::vector<launcher::SourceUnit> units = {
      {"asm", programs[0].asmText, "microkernel"},
      {"asm", programs[1].asmText, "microkernel"},
  };

  compilerIdentity();  // resolve outside the measured window
  std::uint64_t spawns = spawnCount();
  CompileBatch batch;
  auto kernels = batch.compile(units);
  EXPECT_EQ(spawnCount() - spawns, 1u) << "batch must use ONE invocation";

  ASSERT_EQ(kernels.size(), 2u);
  ASSERT_TRUE(kernels[0].has_value());
  ASSERT_TRUE(kernels[1].has_value());
  EXPECT_EQ(kernels[0]->sharedObjectPath(), kernels[1]->sharedObjectPath());

  // Each batch kernel must behave exactly like its serially compiled twin.
  CompiledKernel ref0(programs[0].asmText, "asm", "microkernel");
  CompiledKernel ref1(programs[1].asmText, "asm", "microkernel");
  std::vector<char> buffer(1 << 16, 0);
  void* ptrs[1] = {buffer.data()};
  EXPECT_EQ(kernels[0]->call(4096, ptrs, 1), ref0.call(4096, ptrs, 1));
  EXPECT_EQ(kernels[1]->call(4096, ptrs, 1), ref1.call(4096, ptrs, 1));
  EXPECT_NE(kernels[0]->call(4096, ptrs, 1), kernels[1]->call(4096, ptrs, 1));
}

TEST(Compile, CacheHitMissAndCorruptionRoundTrip) {
  std::string cache = uniqueTempDir("compile_cache");
  auto programs = generate(figure6Xml(4, 4, false));
  launcher::SourceUnit unit{"asm", programs[0].asmText, "microkernel"};
  CompileOptions options{cache};
  std::vector<char> buffer(1 << 16, 0);
  void* ptrs[1] = {buffer.data()};

  // Scoped so the shared object is unloaded again before the corruption
  // stage below (a still-mapped library shares the inode the corruption
  // overwrites — the real-world corruption scenario is between processes).
  std::string cachedSo;
  {
    // Miss: compiles and publishes.
    std::uint64_t spawns = spawnCount();
    CompiledKernel cold = CompileBatch(options).compileOne(unit);
    EXPECT_GE(spawnCount() - spawns, 1u);
    EXPECT_EQ(cold.call(4096, ptrs, 1), 4096 / 16 + 1);
    cachedSo = cold.sharedObjectPath();
    EXPECT_EQ(fs::path(cachedSo).parent_path().string(), cache);

    // Hit, simulating a fresh process: zero spawns — even the --version
    // probe is served by the persisted compiler.id record.
    clearCompilerIdentityMemo();
    spawns = spawnCount();
    CompiledKernel warm = CompileBatch(options).compileOne(unit);
    EXPECT_EQ(spawnCount() - spawns, 0u);
    EXPECT_EQ(warm.sharedObjectPath(), cachedSo);
    EXPECT_EQ(warm.call(4096, ptrs, 1), 4096 / 16 + 1);

    // A different source is a different key, not a collision.
    auto other = generate(figure6Xml(2, 2, false));
    CompiledKernel different =
        CompileBatch(options).compileOne({"asm", other[0].asmText,
                                          "microkernel"});
    EXPECT_NE(different.sharedObjectPath(), cachedSo);
  }

  // Corruption: garbage where the .so was must recompile, never fail.
  {
    std::ofstream out(cachedSo, std::ios::binary | std::ios::trunc);
    out << "garbage, not an ELF shared object";
  }
  std::uint64_t spawns = spawnCount();
  CompiledKernel recompiled = CompileBatch(options).compileOne(unit);
  EXPECT_GE(spawnCount() - spawns, 1u);
  EXPECT_EQ(recompiled.call(4096, ptrs, 1), 4096 / 16 + 1);
}

TEST(Compile, BatchWarmCacheRerunSpawnsNothing) {
  std::string cache = uniqueTempDir("compile_cache");
  auto programs = generate(figure6Xml(1, 4, false));
  std::vector<launcher::SourceUnit> units;
  for (const auto& p : programs) {
    units.push_back({"asm", p.asmText, p.functionName});
  }
  CompileOptions options{cache};
  auto cold = CompileBatch(options).compile(units);
  ASSERT_EQ(cold.size(), units.size());

  clearCompilerIdentityMemo();  // simulate a fresh process
  std::uint64_t spawns = spawnCount();
  auto warm = CompileBatch(options).compile(units);
  EXPECT_EQ(spawnCount() - spawns, 0u);

  std::vector<char> buffer(1 << 16, 0);
  void* ptrs[1] = {buffer.data()};
  for (std::size_t i = 0; i < units.size(); ++i) {
    ASSERT_TRUE(cold[i].has_value());
    ASSERT_TRUE(warm[i].has_value());
    EXPECT_EQ(cold[i]->call(4096, ptrs, 1), warm[i]->call(4096, ptrs, 1));
  }
}

TEST(Compile, SuffixLocalSymbolsRenamesOnlyUnitLocalDefinitions) {
  const std::string text =
      "\t.globl f\n"
      "f:\n"
      ".L6:\n"
      ".Lfoo.bar: loop:\n"
      "\t.set N, 4\n"
      "\t.long .Lfoo.bar - .L6, N\n"
      "\t.loc 1 2 0\n"
      "\tjmp x.L6\n"
      "1:\n"
      "\tjmp 1b  # not .L6\n"
      "\tjge .L6\n"
      "\tjmp loop\n"
      "\t.ascii \".L6\"\n";
  EXPECT_EQ(CompileBatch::suffixLocalSymbols(text, 3),
            "\t.globl f\n"
            "f:\n"
            ".L6_mtb3:\n"
            ".Lfoo.bar_mtb3: loop_mtb3:\n"
            "\t.set N_mtb3, 4\n"
            "\t.long .Lfoo.bar_mtb3 - .L6_mtb3, N_mtb3\n"
            "\t.loc 1 2 0\n"
            "\tjmp x.L6\n"
            "1:\n"
            "\tjmp 1b  # not .L6\n"
            "\tjge .L6_mtb3\n"
            "\tjmp loop_mtb3\n"
            "\t.ascii \".L6\"\n");
  // A symbol the unit only references is another object's to define.
  EXPECT_EQ(CompileBatch::suffixLocalSymbols("\tjmp .L7\n", 0), "\tjmp .L7\n");
}

/// Entry `i`'s offset from entry 0, and the `st_size` bytes of its symbol.
struct EntryLayout {
  std::ptrdiff_t offset = 0;
  std::string bytes;
};

std::vector<EntryLayout> entryLayouts(const std::vector<void*>& entries) {
  std::vector<EntryLayout> out;
  for (void* entry : entries) {
    Dl_info info{};
    void* symEntry = nullptr;
    EXPECT_NE(dladdr1(entry, &info, &symEntry, RTLD_DL_SYMENT), 0);
    const auto* sym = static_cast<const ElfW(Sym)*>(symEntry);
    EntryLayout layout;
    layout.offset = static_cast<const char*>(entry) -
                    static_cast<const char*>(entries[0]);
    if (sym) layout.bytes.assign(static_cast<const char*>(entry), sym->st_size);
    EXPECT_FALSE(layout.bytes.empty());
    out.push_back(std::move(layout));
  }
  return out;
}

/// Compiles `units` as a batch and as the per-file link it replaces — one
/// renamed `.s` per unit, all given to one `$CC -O2 -shared -fPIC` — and
/// expects every entry at the same offset with the same bytes in both.
void expectLayoutParity(const std::vector<launcher::SourceUnit>& units) {
  std::string dir = uniqueTempDir("layout_parity");
  std::vector<std::string> argv = {compilerCommand(), "-O2", "-shared",
                                   "-fPIC", "-o", dir + "/reference.so"};
  for (std::size_t i = 0; i < units.size(); ++i) {
    std::string path = dir + "/unit" + std::to_string(i) + ".s";
    std::ofstream(path) << CompileBatch::renameIdentifier(
        units[i].text, units[i].functionName,
        CompileBatch::uniquifiedName(units[i].functionName, i));
    argv.push_back(path);
  }
  SpawnResult built = runProcess(argv);
  ASSERT_TRUE(built.ok()) << built.describe() << "\n" << built.output;
  SharedObject reference(dir + "/reference.so", /*ownsFile=*/false);

  auto kernels = CompileBatch().compile(units);
  std::vector<void*> joinedEntries, referenceEntries;
  for (std::size_t i = 0; i < units.size(); ++i) {
    ASSERT_TRUE(kernels[i].has_value()) << "unit " << i;
    std::string name = CompileBatch::uniquifiedName(units[i].functionName, i);
    joinedEntries.push_back(kernels[i]->sharedObject()->symbol(name));
    referenceEntries.push_back(reference.symbol(name));
  }
  std::vector<EntryLayout> joined = entryLayouts(joinedEntries);
  std::vector<EntryLayout> expected = entryLayouts(referenceEntries);
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(joined[i].offset, expected[i].offset) << "unit " << i;
    EXPECT_EQ(joined[i].bytes, expected[i].bytes) << "unit " << i;
  }
}

TEST(Compile, JoinedFigure6BatchMatchesPerFileLayout) {
  auto programs = generate(figure6Xml(1, 8, true));
  ASSERT_EQ(programs.size(), 510u);
  std::vector<launcher::SourceUnit> units;
  for (int unroll = 1; unroll <= 8; ++unroll) {  // one variant per factor
    std::string prefix = "loadstore_u" + std::to_string(unroll) + "_";
    auto p = std::find_if(programs.begin(), programs.end(), [&](auto& q) {
      return q.name.rfind(prefix, 0) == 0;
    });
    ASSERT_NE(p, programs.end()) << prefix;
    units.push_back({"asm", p->asmText, p->functionName});
  }
  expectLayoutParity(units);
}

TEST(Compile, JoinedExampleVariantsMatchPerFileLayout) {
  std::vector<launcher::SourceUnit> units;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(MT_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".xml") continue;
    std::stringstream xml;
    xml << std::ifstream(entry.path()).rdbuf();
    for (const auto& p : generate(xml.str())) {
      units.push_back({"asm", p.asmText, p.functionName});
    }
  }
  ASSERT_GE(units.size(), 2u);
  expectLayoutParity(units);
}

TEST(Compile, JoinedUnitsKeepTheirOwnAlignment) {
  // `.align` and `.balign` count bytes on x86 ELF. Every unit starts on
  // its largest alignment, as it would as a separate object. The joined
  // section starts on the batch's largest alignment, so offsets from
  // entry 0 equal the per-file link's when unit 0 asks for that much.
  auto unit = [](const std::string& align) {
    return launcher::SourceUnit{
        "asm",
        "\t.text\n\t.globl microkernel\n\t.type microkernel, @function\n"
        "microkernel:\n\tmov $1, %eax\n\t" +
            align +
            "\n\tret\n\t.size microkernel, .-microkernel\n"
            "\t.section .note.GNU-stack,\"\",@progbits\n",
        "microkernel"};
  };
  std::vector<launcher::SourceUnit> units = {
      unit(".p2align 2"), unit(".balign 64"), unit(".align 32"),
      unit(".p2align 3,,5")};
  const std::uintptr_t alignment[] = {4, 64, 32, 8};
  auto kernels = CompileBatch().compile(units);
  for (std::size_t i = 0; i < units.size(); ++i) {
    ASSERT_TRUE(kernels[i].has_value());
    void* entry = kernels[i]->sharedObject()->symbol(
        CompileBatch::uniquifiedName("microkernel", i));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(entry) % alignment[i], 0u)
        << "unit " << i;
  }
  std::rotate(units.begin(), units.begin() + 1, units.end());
  expectLayoutParity(units);
}

/// A kernel returning `value + 1` through a plain `loop:` and a `.L6:`
/// label that every unit built by this function defines.
std::string sharedLabelUnit(int value) {
  return "\t.text\n\t.globl microkernel\n\t.type microkernel, @function\n"
         "microkernel:\n\tmov $" +
         std::to_string(value) +
         ", %eax\n\tjmp loop\n\t.p2align 4\n.L6:\n\tadd $1, %eax\n\tret\n"
         "loop:\n\tjmp .L6\n\t.size microkernel, .-microkernel\n"
         "\t.section .note.GNU-stack,\"\",@progbits\n";
}

TEST(Compile, JoinedUnitsKeepTheirOwnLabels) {
  std::vector<launcher::SourceUnit> units = {
      {"asm", sharedLabelUnit(10), "microkernel"},
      {"asm", sharedLabelUnit(20), "microkernel"},
  };
  std::uint64_t spawns = spawnCount();
  auto kernels = CompileBatch().compile(units);
  EXPECT_EQ(spawnCount() - spawns, 1u);
  ASSERT_TRUE(kernels[0].has_value());
  ASSERT_TRUE(kernels[1].has_value());
  CompiledKernel twin0(units[0].text, "asm", "microkernel");
  CompiledKernel twin1(units[1].text, "asm", "microkernel");
  EXPECT_EQ(twin0.call(0, nullptr, 0), 11);
  EXPECT_EQ(twin1.call(0, nullptr, 0), 21);
  EXPECT_EQ(kernels[0]->call(0, nullptr, 0), twin0.call(0, nullptr, 0));
  EXPECT_EQ(kernels[1]->call(0, nullptr, 0), twin1.call(0, nullptr, 0));
}

TEST(Compile, UnitEndingInDataLeavesNextUnitInText) {
  // The second unit names no section and no syntax: alone it assembles
  // into .text as AT&T. The first leaves .data and Intel syntax behind.
  std::vector<launcher::SourceUnit> units = {
      {"asm",
       "\t.globl microkernel\nmicrokernel:\n\tmov $3, %eax\n\tret\n"
       "\t.data\n\t.long 5\n\t.intel_syntax noprefix\n",
       "microkernel"},
      {"asm",
       "\t.globl microkernel\nmicrokernel:\n\tmov $7, %eax\n\tret\n"
       "\t.section .note.GNU-stack,\"\",@progbits\n",
       "microkernel"},
  };
  auto kernels = CompileBatch().compile(units);
  ASSERT_TRUE(kernels[0].has_value());
  ASSERT_TRUE(kernels[1].has_value());
  const ElfW(Sym)* syms[2] = {nullptr, nullptr};
  for (int i = 0; i < 2; ++i) {
    Dl_info info{};
    void* symEntry = nullptr;
    void* entry = kernels[i]->sharedObject()->symbol(
        CompileBatch::uniquifiedName("microkernel", i));
    ASSERT_NE(dladdr1(entry, &info, &symEntry, RTLD_DL_SYMENT), 0);
    syms[i] = static_cast<const ElfW(Sym)*>(symEntry);
    ASSERT_NE(syms[i], nullptr);
  }
  ASSERT_EQ(syms[1]->st_shndx, syms[0]->st_shndx) << "left .text";
  EXPECT_EQ(kernels[0]->call(0, nullptr, 0), 3);
  EXPECT_EQ(kernels[1]->call(0, nullptr, 0), 7);
}

TEST(Compile, UnitMacrosDoNotReachNextUnit) {
  // A macro may shadow a mnemonic; the next unit's `xor` must stay an xor.
  const std::string tail =
      "\t.section .note.GNU-stack,\"\",@progbits\n";
  std::vector<launcher::SourceUnit> units = {
      {"asm",
       "\t.macro xor a, b\n\tmov $7, %eax\n\t.endm\n"
       "\t.text\n\t.globl microkernel\nmicrokernel:\n\txor %eax, %eax\n"
       "\tret\n" + tail,
       "microkernel"},
      {"asm",
       "\t.text\n\t.globl microkernel\nmicrokernel:\n\txor %eax, %eax\n"
       "\tret\n" + tail,
       "microkernel"},
  };
  auto kernels = CompileBatch().compile(units);
  ASSERT_TRUE(kernels[0].has_value());
  ASSERT_TRUE(kernels[1].has_value());
  EXPECT_EQ(kernels[0]->call(0, nullptr, 0), 7);
  EXPECT_EQ(kernels[1]->call(0, nullptr, 0), 0);
}

TEST(Compile, JoiningNeverBindsAJumpToAnotherUnitsLabel) {
  // Each case: unit `bad` uses a label only the other unit defines. Alone
  // it does not build or load; joined it must fail the same way, not bind
  // silently to its neighbour's label.
  const std::string head = "\t.text\n\t.globl microkernel\nmicrokernel:\n";
  const std::string note = "\t.section .note.GNU-stack,\"\",@progbits\n";
  struct Case {
    std::string first, second;
    std::size_t bad;
  };
  const Case cases[] = {
      {head + "\tmov $3, %eax\n\tjmp .L7\n" + note,
       head + "\tmov $5, %eax\n.L7:\n\tret\n" + note, 0},
      {head + "\tmov $3, %eax\n\tjmp loop\n" + note,
       head + "\tmov $5, %eax\nloop:\n\tret\n" + note, 0},
      {head + "\tmov $3, %eax\n\tjmp 1f\n" + note,
       head + "1:\n\tmov $5, %eax\n\tret\n" + note, 0},
      {head + "\tmov $3, %eax\n1:\n\tret\n" + note,
       head + "\tmov $5, %eax\n\tjmp 1b\n" + note, 1},
  };
  for (const Case& c : cases) {
    std::vector<launcher::SourceUnit> units = {
        {"asm", c.first, "microkernel"}, {"asm", c.second, "microkernel"}};
    SCOPED_TRACE(units[c.bad].text);
    EXPECT_THROW(CompiledKernel(units[c.bad].text, "asm", "microkernel"),
                 ExecutionError);
    EXPECT_THROW(CompileBatch().compile(units), ExecutionError);

    NativeBackend backend;
    auto handles = backend.loadBatch(units);
    ASSERT_EQ(handles.size(), 2u);
    EXPECT_EQ(handles[c.bad], nullptr);
    EXPECT_NE(handles[1 - c.bad], nullptr);
  }
}

TEST(Backend, PrepareBatchIsolatesAUnitThatSwallowsTheRest) {
  // An unterminated `.if` swallows every unit after it in the joined
  // translation unit; the others must still come back as loadable "so".
  auto programs = generate(figure6Xml(1, 2, false));
  std::vector<launcher::SourceUnit> units = {
      {"asm", programs[0].asmText, "microkernel"},
      {"asm", "\t.if 1\n", "microkernel"},
      {"asm", programs[1].asmText, "microkernel"},
  };
  NativeBackend compileBackend;
  auto prepared = compileBackend.prepareBatch(units);
  ASSERT_EQ(prepared.size(), 3u);
  EXPECT_EQ(prepared[0].kind, "so");
  EXPECT_EQ(prepared[1].kind, "asm");
  EXPECT_EQ(prepared[2].kind, "so");

  NativeBackend measureBackend;
  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{1 << 16, 4096, 0});
  request.n = 4096;
  for (std::size_t i : {0u, 2u}) {
    auto kernel = measureBackend.loadSource(
        prepared[i].kind, prepared[i].text, prepared[i].functionName);
    EXPECT_EQ(measureBackend.invoke(*kernel, request).iterations,
              static_cast<std::uint64_t>(4096 / (i == 0 ? 4 : 8) + 1));
  }
}

TEST(Backend, InvokeReturnsIterationsAndPositiveCycles) {
  NativeBackend backend;
  auto programs = generate(figure6Xml(8, 8, false));
  auto kernel = backend.load(programs[0].asmText, "microkernel");
  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{1 << 16, 4096, 0});
  request.n = (1 << 16) / 4;
  launcher::InvokeResult r = backend.invoke(*kernel, request);
  EXPECT_EQ(r.iterations, static_cast<std::uint64_t>((1 << 16) / 4 / 32 + 1));
  EXPECT_GT(r.tscCycles, 0.0);
}

TEST(Backend, ProtocolRunsEndToEnd) {
  NativeBackend backend;
  auto programs = generate(figure6Xml(4, 4, false));
  auto kernel = backend.load(programs[0].asmText, "microkernel");
  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{1 << 15, 4096, 0});
  request.n = (1 << 15) / 4;
  launcher::ProtocolOptions protocol;
  protocol.innerRepetitions = 4;
  protocol.outerRepetitions = 3;
  launcher::Measurement m =
      launcher::measureKernel(backend, *kernel, request, protocol);
  EXPECT_GT(m.cyclesPerIteration.min, 0.0);
  EXPECT_EQ(m.cyclesPerIteration.count, 3u);
}

TEST(Backend, AlignmentOffsetsHonored) {
  // The kernel must still run correctly with odd array placements.
  NativeBackend backend;
  auto programs = generate(testing::movssLoadXml(2, 2, 2));
  auto kernel = backend.load(programs[0].asmText, "microkernel");
  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{1 << 14, 4096, 48});
  request.arrays.push_back(launcher::ArraySpec{1 << 14, 4096, 1028});
  request.n = (1 << 14) / 4;
  launcher::InvokeResult r = backend.invoke(*kernel, request);
  EXPECT_GT(r.iterations, 0u);
}

TEST(Backend, ForkCollectsOneResultPerProcess) {
  NativeBackend backend;
  auto programs = generate(figure6Xml(2, 2, false));
  auto kernel = backend.load(programs[0].asmText, "microkernel");
  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{1 << 14, 4096, 0});
  request.n = (1 << 14) / 4;
  auto results = backend.invokeFork(*kernel, request, 2, 3,
                                    launcher::PinPolicy::Compact);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.iterations, 3u * ((1 << 14) / 4 / 8 + 1));
    EXPECT_GT(r.tscCycles, 0.0);
  }
}

TEST(Backend, OpenMpRunsAllIterations) {
  NativeBackend backend;
  auto programs = generate(testing::movssLoadXml(1, 1));
  auto kernel = backend.load(programs[0].asmText, "microkernel");
  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{1 << 16, 4096, 0});
  request.n = (1 << 16) / 4;
  launcher::InvokeResult r = backend.invokeOpenMp(*kernel, request, 2, 2);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_GT(r.tscCycles, 0.0);
}

TEST(Backend, LoadBatchIsolatesBadUnits) {
  NativeBackend backend;
  auto programs = generate(figure6Xml(4, 4, false));
  std::vector<launcher::SourceUnit> units = {
      {"asm", programs[0].asmText, "microkernel"},
      {"asm", "this is not assembly", "microkernel"},
      {"asm", programs[0].asmText, "microkernel"},
  };
  auto handles = backend.loadBatch(units);
  ASSERT_EQ(handles.size(), 3u);
  ASSERT_NE(handles[0], nullptr);
  EXPECT_EQ(handles[1], nullptr);  // the broken unit, not the whole batch
  ASSERT_NE(handles[2], nullptr);

  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{1 << 16, 4096, 0});
  request.n = 4096;
  launcher::InvokeResult a = backend.invoke(*handles[0], request);
  launcher::InvokeResult b = backend.invoke(*handles[2], request);
  EXPECT_EQ(a.iterations, static_cast<std::uint64_t>(4096 / 16 + 1));
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Backend, PrepareBatchYieldsLoadableSharedObjectUnits) {
  // The campaign pipeline's contract: units prepared on one backend must be
  // loadable by loadSource on ANOTHER backend instance (the measurement
  // worker's), and a unit that cannot be prepared comes back unchanged.
  NativeBackend compileBackend;
  auto programs = generate(figure6Xml(1, 2, false));
  std::vector<launcher::SourceUnit> units = {
      {"asm", programs[0].asmText, "microkernel"},
      {"asm", "broken (", "microkernel"},
      {"asm", programs[1].asmText, "microkernel"},
  };
  auto prepared = compileBackend.prepareBatch(units);
  ASSERT_EQ(prepared.size(), 3u);
  EXPECT_EQ(prepared[0].kind, "so");
  EXPECT_EQ(prepared[1].kind, "asm");  // unpreparable: unchanged
  EXPECT_EQ(prepared[1].text, "broken (");
  EXPECT_EQ(prepared[2].kind, "so");

  NativeBackend measureBackend;
  auto k0 = measureBackend.loadSource(prepared[0].kind, prepared[0].text,
                                      prepared[0].functionName);
  auto k2 = measureBackend.loadSource(prepared[2].kind, prepared[2].text,
                                      prepared[2].functionName);
  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{1 << 16, 4096, 0});
  request.n = 4096;
  EXPECT_EQ(measureBackend.invoke(*k0, request).iterations,
            static_cast<std::uint64_t>(4096 / 4 + 1));  // unroll 1
  EXPECT_EQ(measureBackend.invoke(*k2, request).iterations,
            static_cast<std::uint64_t>(4096 / 8 + 1));  // unroll 2
}

TEST(Backend, PipelinedNativeCampaignMatchesInlineCompilation) {
  auto programs = generate(figure6Xml(1, 6, false));
  std::vector<launcher::CampaignVariant> variants =
      launcher::variantsFromPrograms(programs);
  ASSERT_GE(variants.size(), 6u);

  std::string cache = uniqueTempDir("compile_cache");
  launcher::BackendFactory factory = [&cache](int) {
    NativeBackendOptions options;
    options.compileCacheDir = cache;
    return std::make_unique<NativeBackend>(std::move(options));
  };
  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{1 << 16, 4096, 0});
  request.n = 4096;

  auto runWith = [&](int compileJobs) {
    launcher::CampaignOptions options;
    options.jobs = 2;
    options.protocol.innerRepetitions = 1;
    options.protocol.outerRepetitions = 2;
    options.maxCv = 0;  // fixed repetitions: host timing never converges
    options.compileJobs = compileJobs;
    options.compileBatch = 4;
    launcher::CampaignRunner runner(factory, options);
    return runner.run(variants, request);
  };

  std::vector<launcher::VariantResult> inline_ = runWith(0);
  std::vector<launcher::VariantResult> pipelined = runWith(2);
  ASSERT_EQ(inline_.size(), pipelined.size());
  for (std::size_t i = 0; i < inline_.size(); ++i) {
    EXPECT_EQ(pipelined[i].sequence, i);
    EXPECT_EQ(inline_[i].status, "ok") << inline_[i].error;
    EXPECT_EQ(pipelined[i].status, "ok") << pipelined[i].error;
    // Host cycle counts jitter; the deterministic part — which kernel ran,
    // how many iterations it reported — must agree exactly.
    EXPECT_EQ(inline_[i].measurement.iterationsPerCall,
              pipelined[i].measurement.iterationsPerCall)
        << "variant " << i;
  }
}

TEST(Backend, ValidatesForkAndOmpArguments) {
  NativeBackend backend;
  auto programs = generate(figure6Xml(1, 1, false));
  auto kernel = backend.load(programs[0].asmText, "microkernel");
  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{4096, 4096, 0});
  request.n = 1024;
  EXPECT_THROW(backend.invokeFork(*kernel, request, 0, 1,
                                  launcher::PinPolicy::Compact),
               McError);
  EXPECT_THROW(backend.invokeOpenMp(*kernel, request, 0, 1), McError);
  EXPECT_THROW(backend.invokeOpenMp(*kernel, request, 2, 0), McError);
}

// ---------------------------------------------------------------------------
// Perf counter groups
// ---------------------------------------------------------------------------

TEST(PerfCounters, ValueLookupByNameHandlesMissingAndInvalid) {
  std::vector<perf::EventSpec> events;
  events.push_back({0, 0, "cycles", true});
  events.push_back({0, 1, "instructions", false});

  perf::CounterSample sample;  // invalid by default
  EXPECT_TRUE(std::isnan(sample.value(events, "cycles")));

  sample.valid = true;
  sample.values = {100.0, 250.0};
  EXPECT_DOUBLE_EQ(sample.value(events, "cycles"), 100.0);
  EXPECT_DOUBLE_EQ(sample.value(events, "instructions"), 250.0);
  EXPECT_TRUE(std::isnan(sample.value(events, "not_an_event")));
}

TEST(PerfCounters, DefaultHardwareGroupDegradesInsteadOfFailing) {
  // On a machine without a PMU (VMs, containers) or with perf_event access
  // forbidden, the group must come up unavailable with a reason — never
  // throw — and its start/stop must be harmless no-ops.
  perf::CounterGroup group(perf::CounterGroup::defaultHardwareEvents());
  if (!group.available()) {
    EXPECT_FALSE(group.unavailableReason().empty());
    group.start();
    perf::CounterSample sample = group.stop();
    EXPECT_FALSE(sample.valid);
    return;
  }
  // With a real PMU: a busy window must count a plausible number of cycles.
  group.start();
  volatile double sink = 1.0;
  for (int i = 0; i < 100000; ++i) sink = sink * 1.0000001 + 0.1;
  perf::CounterSample sample = group.stop();
  ASSERT_TRUE(sample.valid);
  EXPECT_EQ(sample.values.size(), group.events().size());
  EXPECT_GT(sample.value(group.events(), "cycles"), 1000.0);
}

#if defined(__linux__)
TEST(PerfCounters, SoftwareEventGroupCountsABusyWindow) {
  // Software events (task clock, page faults) need no PMU, so this exercises
  // the full open/calibrate/start/stop path even inside a VM — skipped only
  // when perf_event_open itself is forbidden (paranoid level, seccomp).
  std::vector<perf::EventSpec> events;
  events.push_back(
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, "task_clock", true});
  events.push_back(
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS, "page_faults", false});
  perf::CounterGroup group(events);
  if (!group.available()) {
    GTEST_SKIP() << "perf_event_open unavailable: "
                 << group.unavailableReason();
  }
  ASSERT_FALSE(group.events().empty());
  EXPECT_EQ(group.events()[0].name, "task_clock");
  EXPECT_EQ(group.overhead().size(), group.events().size());

  group.start();
  volatile double sink = 1.0;
  for (int i = 0; i < 2000000; ++i) sink = sink * 1.0000001 + 0.1;
  perf::CounterSample sample = group.stop();
  ASSERT_TRUE(sample.valid);
  EXPECT_GT(sample.timeEnabledNs, 0.0);
  // The spin burned real CPU time: task clock counts nanoseconds on-CPU.
  EXPECT_GT(sample.value(group.events(), "task_clock"), 10000.0);

  // A second window works too (the group is reusable).
  group.start();
  perf::CounterSample empty = group.stop();
  EXPECT_TRUE(empty.valid);
}
#endif

TEST(PerfCounters, BackendWithCountersDisabledLeavesMetricsInvalid) {
  NativeBackendOptions options;
  options.perfCounters = false;
  NativeBackend backend(std::move(options));
  auto programs = generate(figure6Xml(1, 1, false));
  auto kernel = backend.load(programs[0].asmText, "microkernel");
  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{1 << 16, 4096, 0});
  request.n = (1 << 16) / 4;
  launcher::InvokeResult r = backend.invoke(*kernel, request);
  EXPECT_GT(r.tscCycles, 0.0);
  EXPECT_FALSE(r.counters.valid);
  EXPECT_TRUE(std::isnan(r.counters.cycles));
}

TEST(PerfCounters, BackendCounterFieldsAreCoherent) {
  // Whether or not this machine grants perf access, the invariant holds:
  // valid counters carry finite cycle counts, invalid ones stay NaN so the
  // CSV layer renders empty cells instead of garbage.
  NativeBackend backend;
  auto programs = generate(figure6Xml(1, 1, false));
  auto kernel = backend.load(programs[0].asmText, "microkernel");
  launcher::KernelRequest request;
  request.arrays.push_back(launcher::ArraySpec{1 << 16, 4096, 0});
  request.n = (1 << 16) / 4;
  launcher::InvokeResult r = backend.invoke(*kernel, request);
  EXPECT_GT(r.tscCycles, 0.0);
  if (r.counters.valid) {
    EXPECT_TRUE(std::isfinite(r.counters.cycles));
    EXPECT_GT(r.counters.cycles, 0.0);
  } else {
    EXPECT_TRUE(std::isnan(r.counters.cycles));
    EXPECT_TRUE(std::isnan(r.counters.instructions));
  }
}

}  // namespace
}  // namespace microtools::native
