#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "launcher/backend.hpp"

namespace microtools::native {

/// Kernel function pointer type: int f(int n, void* a0, ..., void* a4)
/// (§4.4's prototype, up to five arrays). Callers use callKernel() to invoke
/// with the right arity.
using KernelFn = int (*)(...);

// ---------------------------------------------------------------------------
// Process runner (posix_spawn, no shell)
// ---------------------------------------------------------------------------

/// Outcome of one spawned process.
struct SpawnResult {
  bool exited = false;   ///< WIFEXITED: the process ran to an exit()
  int exitCode = -1;     ///< WEXITSTATUS when exited
  int termSignal = 0;    ///< WTERMSIG when killed by a signal
  std::string output;    ///< captured stdout + stderr, interleaved

  bool ok() const { return exited && exitCode == 0; }

  /// "exited with status 1" / "killed by signal 11 (Segmentation fault)".
  std::string describe() const;
};

/// Runs `argv` directly via posix_spawn — no shell is involved, so a $CC or
/// $TMPDIR value containing spaces or shell metacharacters is passed through
/// verbatim instead of being re-tokenized. stdout and stderr are captured
/// into one stream. Throws ExecutionError only when the process cannot be
/// started at all; a started process that fails is reported in the result.
SpawnResult runProcess(const std::vector<std::string>& argv);

/// Number of processes spawned through runProcess() since program start.
/// The compile cache's "a warm rerun performs zero compiler invocations"
/// guarantee is asserted by differencing this counter around a rerun.
std::uint64_t spawnCount();

/// The compiler command: $CC, or "cc" when unset. Used verbatim as argv[0]
/// (a path containing spaces is a valid executable name, not a word list).
std::string compilerCommand();

/// Resolved identity of the compiler (its name plus the first line of
/// `$CC --version`) — part of every compile-cache key, because a compiler
/// upgrade must invalidate cached shared objects. Memoized in-process; when
/// `cacheDir` is non-empty the identity is also persisted there keyed by the
/// compiler binary's (path, size, mtime), so a warm rerun in a fresh process
/// resolves it with a stat instead of spawning `--version`.
std::string compilerIdentity(const std::string& cacheDir = "");

/// Drops the in-process compiler-identity memo. Tests use this to simulate
/// a fresh process and prove the persisted identity record avoids the
/// `--version` probe on warm reruns.
void clearCompilerIdentityMemo();

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Knobs shared by CompiledKernel and CompileBatch.
struct CompileOptions {
  /// Content-addressed cache of compiled shared objects: `<key>.so` files
  /// keyed by FNV-1a over source text + language + resolved compiler
  /// identity + flags (see DESIGN.md "Compile cache key"). Empty = compile
  /// every time. A missing or corrupt entry is recompiled, never an error.
  std::string cacheDir;
};

/// A dlopen'd shared object, shared by every kernel that was compiled into
/// it (batch compilation places many kernels in one .so). dlclose and the
/// optional unlink happen when the last referencing kernel is destroyed.
class SharedObject {
 public:
  /// dlopens `path` (RTLD_NOW | RTLD_LOCAL). `ownsFile` = unlink the file
  /// when this object is destroyed (temporary, non-cached artifacts).
  /// Throws ExecutionError when the object cannot be loaded.
  SharedObject(std::string path, bool ownsFile);
  ~SharedObject();

  SharedObject(const SharedObject&) = delete;
  SharedObject& operator=(const SharedObject&) = delete;

  /// Resolves a symbol; throws ExecutionError when it is absent.
  void* symbol(const std::string& name) const;

  const std::string& path() const { return path_; }

 private:
  void* handle_ = nullptr;
  std::string path_;
  bool ownsFile_ = false;
};

/// A kernel compiled to a shared object and loaded with dlopen — exactly
/// MicroLauncher's run-time path (§4.1: "the launcher compiles the kernel
/// code, if necessary, into a dynamic library loaded at run-time").
class CompiledKernel {
 public:
  /// Compiles `sourceText` (assembly when `language` == "asm", C when "c")
  /// with the system compiler into a shared object (served from
  /// `options.cacheDir` when the same source was compiled before), loads it
  /// and resolves `functionName`. Throws ExecutionError with the compiler
  /// diagnostics on failure; every temporary file is removed on every exit
  /// path, thrown or not.
  CompiledKernel(const std::string& sourceText, const std::string& language,
                 const std::string& functionName,
                 const CompileOptions& options = {});

  /// Loads an existing shared object directly.
  static CompiledKernel fromSharedObject(const std::string& path,
                                         const std::string& functionName);

  ~CompiledKernel() = default;
  CompiledKernel(CompiledKernel&& other) noexcept;
  CompiledKernel& operator=(CompiledKernel&& other) noexcept;
  CompiledKernel(const CompiledKernel&) = delete;
  CompiledKernel& operator=(const CompiledKernel&) = delete;

  /// Invokes the kernel with `arrayCount` pointers from `arrays`.
  int call(int n, void* const* arrays, int arrayCount) const;

  const std::string& sharedObjectPath() const;

  /// The shared object this kernel lives in. Batch consumers retain it to
  /// keep a temporary .so on disk for later dlopen()s of the same path.
  const std::shared_ptr<SharedObject>& sharedObject() const { return so_; }

 private:
  friend class CompileBatch;
  CompiledKernel(std::shared_ptr<SharedObject> so, void* fn);

  std::shared_ptr<SharedObject> so_;
  void* fn_ = nullptr;
};

/// Batch compilation: K kernels, ONE compiler invocation, one shared object,
/// one dlopen — amortizing fork/exec and compiler startup across the batch.
/// The asm units are joined into ONE translation unit, so the invocation
/// runs one assembler; C units stay one file each in the same invocation.
/// Every unit's entry symbol is uniquified by rewriting each identifier
/// occurrence of its functionName. An asm unit is isolated from its
/// neighbours by a prologue (`.text`, `.code64`, `.att_syntax`, then
/// `.p2align` to the unit's largest alignment request, the alignment ld
/// would give it as a separate object), by suffixing every symbol it
/// defines without `.globl` (so two units' `.L6` never collide and a jump
/// to a label only another unit defines stays undefined), and by purging
/// its macros after it. Two units defining the same global still fail the
/// batch, as separate objects would fail the link.
class CompileBatch {
 public:
  explicit CompileBatch(CompileOptions options = {});

  /// Compiles every unit (kind "asm" or "c") with at most one compiler
  /// invocation — zero when `options.cacheDir` already holds the batch.
  /// All returned kernels share one dlopen'd shared object. Throws
  /// ExecutionError when the batched invocation itself fails, or before it
  /// when an asm unit uses a numeric label (`1f`, `1b`) it does not define,
  /// which joined would bind to a neighbour's (callers fall back to
  /// per-unit compilation to isolate the offending variant); a unit whose
  /// uniquified symbol cannot be resolved comes back as nullopt.
  std::vector<std::optional<CompiledKernel>> compile(
      const std::vector<launcher::SourceUnit>& units);

  /// Cache-aware single compilation (no symbol rename).
  CompiledKernel compileOne(const launcher::SourceUnit& unit);

  /// The entry symbol unit `index` of a batch is renamed to.
  static std::string uniquifiedName(const std::string& functionName,
                                    std::size_t index);

  /// Replaces every identifier-boundary occurrence of `from` with `to`
  /// (boundary characters are anything outside [A-Za-z0-9_$]), which covers
  /// `.globl f`, `.type f, @function`, `f:`, `.size f, .-f` and C
  /// definitions alike. Exposed for tests.
  static std::string renameIdentifier(const std::string& text,
                                      const std::string& from,
                                      const std::string& to);

  /// Renames every symbol an AT&T-syntax asm unit defines (`sym:`,
  /// `sym = ...`, `.set`/`.equ`/`.equiv`/`.eqv`/`.lcomm sym`) and does not
  /// declare `.globl`/`.global`/`.weak` to uniquifiedName(sym, index), at
  /// every occurrence outside comments and strings. Symbol characters are
  /// [A-Za-z0-9_.$], so `.L6` is renamed but `x.L6` is a different symbol;
  /// directives, `%registers` and numeric labels (`1:`, `1b`) are never
  /// touched. Exposed for tests.
  static std::string suffixLocalSymbols(const std::string& asmText,
                                        std::size_t index);

 private:
  CompileOptions options_;
};

}  // namespace microtools::native
