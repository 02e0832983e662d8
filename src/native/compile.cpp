#include "native/compile.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

extern char** environ;

namespace microtools::native {

namespace fs = std::filesystem;

namespace {

/// Bumped whenever the cached-.so key composition or on-disk layout
/// changes; entries written under another version can never be loaded
/// because their keys differ.
constexpr std::uint64_t kSoCacheVersion = 1;

/// The fixed compilation flags; part of the cache key because changing them
/// changes the generated code.
const char* const kCompileFlags[] = {"-O2", "-shared", "-fPIC"};

std::atomic<std::uint64_t> gSpawnCount{0};

std::string makeTempPath(const std::string& suffix) {
  // Atomic counter: campaign workers compile kernels concurrently, and two
  // threads handing out the same path would corrupt each other's .so.
  static std::atomic<int> counter{0};
  const char* tmpdir = std::getenv("TMPDIR");
  if (!tmpdir) tmpdir = "/tmp";
  return strings::format("%s/microtools_%d_%d%s", tmpdir,
                         static_cast<int>(getpid()),
                         counter.fetch_add(1, std::memory_order_relaxed),
                         suffix.c_str());
}

/// Removes a filesystem path at scope exit unless released — compilation
/// temporaries (the source file, a partially written .so) must disappear on
/// every exit path, thrown or not.
struct PathGuard {
  std::string path;
  bool active = true;

  explicit PathGuard(std::string p) : path(std::move(p)) {}
  PathGuard(PathGuard&& o) noexcept : path(std::move(o.path)), active(o.active) {
    o.active = false;
  }
  PathGuard(const PathGuard&) = delete;
  PathGuard& operator=(const PathGuard&) = delete;
  PathGuard& operator=(PathGuard&&) = delete;
  ~PathGuard() {
    if (active && !path.empty()) std::remove(path.c_str());
  }
  void release() { active = false; }
};

std::string joinArgv(const std::vector<std::string>& argv) {
  std::string out;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    if (i) out += ' ';
    out += argv[i];
  }
  return out;
}

std::string sourceSuffix(const std::string& language) {
  if (language == "asm") return ".s";
  if (language == "c") return ".c";
  throw ExecutionError("unsupported kernel language: " + language);
}

// -- compiler identity -------------------------------------------------------

std::mutex gIdentityMutex;
std::map<std::string, std::string>& identityMemo() {
  static std::map<std::string, std::string> memo;
  return memo;
}

/// PATH resolution of a bare command name, so the identity record can be
/// keyed by the binary's stat() without spawning it.
std::string resolveExecutablePath(const std::string& command) {
  if (command.find('/') != std::string::npos) return command;
  const char* pathEnv = std::getenv("PATH");
  if (!pathEnv) return "";
  for (const std::string& dir : strings::split(pathEnv, ':')) {
    if (dir.empty()) continue;
    std::string candidate = dir + "/" + command;
    if (access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return "";
}

/// "path:size:mtime" of the compiler binary — the validity condition of a
/// persisted identity record (a replaced compiler binary changes it).
std::string compilerStatKey(const std::string& command) {
  std::string path = resolveExecutablePath(command);
  if (path.empty()) return "";
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return "";
  return strings::format("%s:%lld:%lld.%09ld", path.c_str(),
                         static_cast<long long>(st.st_size),
                         static_cast<long long>(st.st_mtim.tv_sec),
                         static_cast<long>(st.st_mtim.tv_nsec));
}

std::string firstLine(const std::string& text) {
  std::size_t nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

}  // namespace

// ---------------------------------------------------------------------------
// Process runner
// ---------------------------------------------------------------------------

std::string SpawnResult::describe() const {
  if (exited) return "exited with status " + std::to_string(exitCode);
  const char* name = strsignal(termSignal);
  return strings::format("killed by signal %d (%s)", termSignal,
                         name ? name : "unknown");
}

SpawnResult runProcess(const std::vector<std::string>& argv) {
  if (argv.empty()) throw ExecutionError("runProcess: empty argument vector");

  int fds[2];
  if (pipe(fds) != 0) throw ExecutionError("runProcess: pipe failed");

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
  posix_spawn_file_actions_addclose(&actions, fds[1]);

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);

  pid_t pid = -1;
  int rc = posix_spawnp(&pid, argv[0].c_str(), &actions, nullptr,
                        cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw ExecutionError("cannot run " + argv[0] + ": " +
                         std::string(strerror(rc)));
  }
  gSpawnCount.fetch_add(1, std::memory_order_relaxed);

  SpawnResult result;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) {
    result.output.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);

  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) {
    result.exited = true;
    result.exitCode = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.exited = false;
    result.termSignal = WTERMSIG(status);
  }
  return result;
}

std::uint64_t spawnCount() {
  return gSpawnCount.load(std::memory_order_relaxed);
}

std::string compilerCommand() {
  const char* cc = std::getenv("CC");
  return cc && *cc ? cc : "cc";
}

void clearCompilerIdentityMemo() {
  std::lock_guard<std::mutex> lock(gIdentityMutex);
  identityMemo().clear();
}

namespace {

/// Atomically writes the "<statKey>\n<identity>\n" record; best effort.
void persistIdentity(const std::string& cacheDir, const std::string& idFile,
                     const std::string& statKey,
                     const std::string& identity) {
  std::error_code ec;
  fs::create_directories(cacheDir, ec);
  std::string tmp = idFile + ".tmp" + std::to_string(getpid());
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return;
  out << statKey << '\n' << identity << '\n';
  out.close();
  fs::rename(tmp, idFile, ec);
  if (ec) fs::remove(tmp, ec);
}

}  // namespace

std::string compilerIdentity(const std::string& cacheDir) {
  std::string cc = compilerCommand();
  std::string statKey = compilerStatKey(cc);
  std::string idFile =
      cacheDir.empty() ? "" : (fs::path(cacheDir) / "compiler.id").string();
  {
    std::lock_guard<std::mutex> lock(gIdentityMutex);
    auto it = identityMemo().find(cc);
    if (it != identityMemo().end()) {
      // Memo hit for a cache dir that may not hold the record yet: persist
      // it now, or the NEXT process would pay a --version spawn.
      if (!idFile.empty() && !statKey.empty() && !fs::exists(idFile)) {
        persistIdentity(cacheDir, idFile, statKey, it->second);
      }
      return it->second;
    }
  }

  // A persisted record whose stat key still matches the binary is current —
  // no --version spawn on a warm rerun. A damaged record is just a miss.
  if (!idFile.empty() && !statKey.empty()) {
    std::ifstream in(idFile, std::ios::binary);
    if (in) {
      std::string storedKey, identity;
      if (std::getline(in, storedKey) && std::getline(in, identity) &&
          storedKey == statKey && !identity.empty()) {
        std::lock_guard<std::mutex> lock(gIdentityMutex);
        identityMemo().emplace(cc, identity);
        return identity;
      }
    }
  }

  std::string identity = cc + " ";
  try {
    SpawnResult probe = runProcess({cc, "--version"});
    identity += probe.ok() ? firstLine(probe.output)
                           : "unidentified (" + probe.describe() + ")";
  } catch (const ExecutionError&) {
    identity += "unidentified (cannot spawn)";
  }

  {
    std::lock_guard<std::mutex> lock(gIdentityMutex);
    identityMemo().emplace(cc, identity);
  }
  if (!idFile.empty() && !statKey.empty()) {
    persistIdentity(cacheDir, idFile, statKey, identity);
  }
  return identity;
}

// ---------------------------------------------------------------------------
// SharedObject
// ---------------------------------------------------------------------------

SharedObject::SharedObject(std::string path, bool ownsFile)
    : path_(std::move(path)), ownsFile_(ownsFile) {
  handle_ = dlopen(path_.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle_) {
    const char* err = dlerror();
    // A failed open must not unlink the caller's file: ownership of the
    // path only transfers once the object is actually loaded.
    ownsFile_ = false;
    throw ExecutionError("dlopen failed: " +
                         std::string(err ? err : "unknown"));
  }
}

SharedObject::~SharedObject() {
  if (handle_) dlclose(handle_);
  if (ownsFile_ && !path_.empty()) std::remove(path_.c_str());
}

void* SharedObject::symbol(const std::string& name) const {
  dlerror();
  void* fn = dlsym(handle_, name.c_str());
  const char* err = dlerror();
  if (err || !fn) {
    throw ExecutionError("kernel function '" + name + "' not found in " +
                         path_);
  }
  return fn;
}

// ---------------------------------------------------------------------------
// Compilation core
// ---------------------------------------------------------------------------

namespace {

struct SourceText {
  std::string language;  // asm|c
  std::string text;
};

std::string soCacheKey(const std::vector<SourceText>& sources,
                       const std::string& identity) {
  hash::Fnv1a h;
  h.str("mtso").u64(kSoCacheVersion);
  h.str(identity);
  h.u64(std::size(kCompileFlags));
  for (const char* flag : kCompileFlags) h.str(flag);
  h.u64(sources.size());
  for (const SourceText& s : sources) h.str(s.language).str(s.text);
  return h.hex();
}

/// Compiles every source with ONE compiler invocation into one shared
/// object and loads it. With a cache directory, the artifact is served from
/// (and published to) `<cacheDir>/<key>.so`; a corrupt cached file is
/// recompiled in place. Temporary files never outlive this function on any
/// path.
std::shared_ptr<SharedObject> compileSources(
    const std::vector<SourceText>& sources, const CompileOptions& options) {
  std::string cachePath;
  if (!options.cacheDir.empty()) {
    std::error_code ec;
    fs::create_directories(options.cacheDir, ec);
    if (ec) {
      throw ExecutionError("cannot create compile cache directory '" +
                           options.cacheDir + "': " + ec.message());
    }
    std::string key = soCacheKey(sources, compilerIdentity(options.cacheDir));
    cachePath = (fs::path(options.cacheDir) / (key + ".so")).string();
    if (fs::exists(cachePath, ec)) {
      try {
        return std::make_shared<SharedObject>(cachePath, /*ownsFile=*/false);
      } catch (const ExecutionError&) {
        // Truncated or garbage cache entry: drop it and recompile — a
        // damaged cache can only cost time, never fail a campaign.
        log::warn("corrupt compile-cache entry, recompiling: " + cachePath);
        std::remove(cachePath.c_str());
      }
    }
  }

  std::vector<PathGuard> sourceGuards;
  std::vector<std::string> argv;
  argv.push_back(compilerCommand());
  for (const char* flag : kCompileFlags) argv.push_back(flag);

  // Unique temp name per writer: concurrent compile workers publish into
  // the same cache directory.
  static std::atomic<std::uint64_t> tmpCounter{0};
  std::string outPath =
      cachePath.empty()
          ? makeTempPath(".so")
          : cachePath + ".tmp" +
                std::to_string(tmpCounter.fetch_add(
                    1, std::memory_order_relaxed));
  PathGuard outGuard(outPath);
  argv.push_back("-o");
  argv.push_back(outPath);

  for (const SourceText& source : sources) {
    std::string srcPath = makeTempPath(sourceSuffix(source.language));
    {
      std::ofstream out(srcPath, std::ios::binary);
      if (!out) throw ExecutionError("cannot write " + srcPath);
      out << source.text;
    }
    sourceGuards.emplace_back(srcPath);
    argv.push_back(std::move(srcPath));
  }

  SpawnResult result = runProcess(argv);
  if (!result.ok()) {
    throw ExecutionError("compiler failed (" + joinArgv(argv) +
                         "): " + result.describe() + "\n" + result.output);
  }

  if (!cachePath.empty()) {
    std::error_code ec;
    fs::rename(outPath, cachePath, ec);  // atomic publish within cacheDir
    if (!ec) {
      outGuard.release();
      try {
        return std::make_shared<SharedObject>(cachePath, /*ownsFile=*/false);
      } catch (const ExecutionError&) {
        std::remove(cachePath.c_str());  // never leave a bad entry behind
        throw;
      }
    }
    // rename failed (exotic filesystem): fall through and use the temp
    // artifact directly, owned by the SharedObject.
  }
  auto so = std::make_shared<SharedObject>(outPath, /*ownsFile=*/true);
  outGuard.release();  // ownership of the file moved into the SharedObject
  return so;
}

}  // namespace

// ---------------------------------------------------------------------------
// CompiledKernel
// ---------------------------------------------------------------------------

CompiledKernel::CompiledKernel(std::shared_ptr<SharedObject> so, void* fn)
    : so_(std::move(so)), fn_(fn) {}

CompiledKernel::CompiledKernel(const std::string& sourceText,
                               const std::string& language,
                               const std::string& functionName,
                               const CompileOptions& options) {
  auto so = compileSources({{language, sourceText}}, options);
  fn_ = so->symbol(functionName);
  so_ = std::move(so);
}

CompiledKernel CompiledKernel::fromSharedObject(
    const std::string& path, const std::string& functionName) {
  auto so = std::make_shared<SharedObject>(path, /*ownsFile=*/false);
  void* fn = so->symbol(functionName);
  return CompiledKernel(std::move(so), fn);
}

CompiledKernel::CompiledKernel(CompiledKernel&& other) noexcept
    : so_(std::move(other.so_)), fn_(other.fn_) {
  other.fn_ = nullptr;
}

CompiledKernel& CompiledKernel::operator=(CompiledKernel&& other) noexcept {
  // Swap: the previous shared object (if any) is released when `other` is
  // destroyed — no double dlclose/unlink is possible because ownership
  // lives in one reference-counted place.
  std::swap(so_, other.so_);
  std::swap(fn_, other.fn_);
  return *this;
}

const std::string& CompiledKernel::sharedObjectPath() const {
  static const std::string kEmpty;
  return so_ ? so_->path() : kEmpty;
}

int CompiledKernel::call(int n, void* const* arrays, int arrayCount) const {
  switch (arrayCount) {
    case 0:
      return reinterpret_cast<int (*)(int)>(fn_)(n);
    case 1:
      return reinterpret_cast<int (*)(int, void*)>(fn_)(n, arrays[0]);
    case 2:
      return reinterpret_cast<int (*)(int, void*, void*)>(fn_)(n, arrays[0],
                                                               arrays[1]);
    case 3:
      return reinterpret_cast<int (*)(int, void*, void*, void*)>(fn_)(
          n, arrays[0], arrays[1], arrays[2]);
    case 4:
      return reinterpret_cast<int (*)(int, void*, void*, void*, void*)>(fn_)(
          n, arrays[0], arrays[1], arrays[2], arrays[3]);
    case 5:
      return reinterpret_cast<int (*)(int, void*, void*, void*, void*,
                                      void*)>(fn_)(
          n, arrays[0], arrays[1], arrays[2], arrays[3], arrays[4]);
    default:
      throw ExecutionError("kernels support at most five arrays");
  }
}

// ---------------------------------------------------------------------------
// CompileBatch
// ---------------------------------------------------------------------------

CompileBatch::CompileBatch(CompileOptions options)
    : options_(std::move(options)) {}

std::string CompileBatch::uniquifiedName(const std::string& functionName,
                                         std::size_t index) {
  return functionName + "_mtb" + std::to_string(index);
}

std::string CompileBatch::renameIdentifier(const std::string& text,
                                           const std::string& from,
                                           const std::string& to) {
  auto isIdentChar = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '$';
  };
  std::string out;
  out.reserve(text.size() + 32);
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t hit = text.find(from, pos);
    if (hit == std::string::npos) {
      out.append(text, pos, std::string::npos);
      break;
    }
    bool startOk = hit == 0 || !isIdentChar(text[hit - 1]);
    std::size_t end = hit + from.size();
    bool endOk = end >= text.size() || !isIdentChar(text[end]);
    out.append(text, pos, hit - pos);
    out += (startOk && endOk) ? to : from;
    pos = end;
  }
  return out;
}

namespace {

bool isAsmSymbolStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == '.';
}

bool isAsmSymbolChar(char c) {
  return isAsmSymbolStart(c) || (c >= '0' && c <= '9') || c == '$';
}

/// What joining needs to know about one AT&T-syntax asm unit.
struct AsmScan {
  /// Every symbol-shaped token outside comments, strings, numbers (so the
  /// numeric labels `1:`/`1b` too) and `%register` names, in text order.
  std::vector<std::pair<std::size_t, std::size_t>> tokens;  // (pos, len)
  /// Symbols the unit defines (`sym:`, `sym =`, `.set`/`.equ`/`.equiv`/
  /// `.eqv`/`.lcomm sym`) minus those it declares `.globl`/`.global`/`.weak`.
  std::set<std::string> locals;
  std::vector<std::string> macros;  ///< names of `.macro` definitions
  int alignLog2 = 0;  ///< largest `.p2align`/`.align`/`.balign` request
  /// An `Nb` with no `N:` before it or an `Nf` with none after it: alone
  /// the unit fails to assemble, joined it would bind to a neighbour's `N:`.
  bool strayNumericLabel = false;
};

AsmScan scanAsm(const std::string& text) {
  AsmScan scan;
  std::set<std::string> defined, globals, numericDefined, forwardUses;
  std::string head;  // directive/mnemonic of the current statement
  int operand = 0;   // symbol tokens seen after `head`

  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (c == '#') {
      while (i < n && text[i] != '\n') ++i;
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      std::size_t close = text.find("*/", i + 2);
      i = close == std::string::npos ? n : close + 2;
    } else if (c == '"') {
      for (++i; i < n && text[i] != '"'; ++i) {
        if (text[i] == '\\') ++i;
      }
      ++i;
    } else if (c == '\n' || c == ';') {
      head.clear();
      operand = 0;
      ++i;
    } else if (c == '%') {
      for (++i; i < n && isAsmSymbolChar(text[i]); ++i) {
      }
    } else if (c >= '0' && c <= '9') {
      // A number, or a numeric label `N:` and its `Nb`/`Nf` uses.
      std::size_t start = i;
      while (i < n && isAsmSymbolChar(text[i])) ++i;
      std::string number = text.substr(start, i - start);
      std::size_t digits = number.find_first_not_of("0123456789");
      std::size_t next = text.find_first_not_of(" \t", i);
      if (digits == std::string::npos && head.empty() &&
          next != std::string::npos && text[next] == ':') {
        numericDefined.insert(number);
        forwardUses.erase(number);
      } else if (digits + 1 == number.size()) {
        std::string label = number.substr(0, digits);
        if (number.back() == 'f') forwardUses.insert(label);
        if (number.back() == 'b' && !numericDefined.count(label)) {
          scan.strayNumericLabel = true;
        }
      }
    } else if (isAsmSymbolStart(c)) {
      std::size_t start = i;
      while (i < n && isAsmSymbolChar(text[i])) ++i;
      scan.tokens.emplace_back(start, i - start);
      std::string name = text.substr(start, i - start);
      std::size_t next = text.find_first_not_of(" \t", i);
      char follow = next == std::string::npos ? '\0' : text[next];
      if (head.empty()) {
        if (follow == ':') {
          defined.insert(name);  // a label; the statement continues
        } else if (follow == '=') {
          defined.insert(name);
          head = "=";
        } else {
          head = name;
          bool p2 = head == ".p2align";
          // x86 ELF `.align` counts bytes, like `.balign`.
          if ((p2 || head == ".align" || head == ".balign") && follow >= '0' &&
              follow <= '9') {
            long value = std::strtol(text.c_str() + next, nullptr, 0);
            int log2 = p2 ? static_cast<int>(std::min(value, 30L)) : 0;
            while (!p2 && log2 < 30 && (1L << log2) < value) ++log2;
            scan.alignLog2 = std::max(scan.alignLog2, log2);
          }
        }
      } else if (head == ".globl" || head == ".global" || head == ".weak") {
        globals.insert(name);
      } else if (operand++ == 0) {
        if (head == ".set" || head == ".equ" || head == ".equiv" ||
            head == ".eqv" || head == ".lcomm") {
          defined.insert(name);
        } else if (head == ".macro") {
          scan.macros.push_back(name);
        }
      }
    } else {
      ++i;
    }
  }
  for (const std::string& name : defined) {
    if (!globals.count(name)) scan.locals.insert(name);
  }
  if (!forwardUses.empty()) scan.strayNumericLabel = true;
  return scan;
}

std::string suffixScanned(const std::string& text, const AsmScan& scan,
                          std::size_t index) {
  std::string out;
  out.reserve(text.size() + 64);
  std::size_t copied = 0;
  for (const auto& [pos, len] : scan.tokens) {
    std::string name = text.substr(pos, len);
    if (!scan.locals.count(name)) continue;
    out.append(text, copied, pos - copied);
    out += CompileBatch::uniquifiedName(name, index);
    copied = pos + len;
  }
  out.append(text, copied, std::string::npos);
  return out;
}

}  // namespace

std::string CompileBatch::suffixLocalSymbols(const std::string& asmText,
                                             std::size_t index) {
  return suffixScanned(asmText, scanAsm(asmText), index);
}

std::vector<std::optional<CompiledKernel>> CompileBatch::compile(
    const std::vector<launcher::SourceUnit>& units) {
  std::vector<std::optional<CompiledKernel>> kernels;
  if (units.empty()) return kernels;

  // All asm units go into ONE translation unit (one `as` run), each behind
  // a prologue that resets what a previous unit could have left behind —
  // section, code size, syntax mode — and aligns the unit as ld would align
  // it as a separate object, so every kernel keeps its bytes and alignment.
  // When unit 0 asks for the batch's largest alignment (in generated
  // batches every unit asks for the same), offsets from entry 0 also equal
  // a per-file link's. Local symbols get the unit's suffix and macros are
  // purged after the unit, so nothing a unit defines reaches the next.
  std::string joinedAsm;
  std::vector<SourceText> sources;
  std::vector<std::string> names;
  names.reserve(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    const launcher::SourceUnit& unit = units[i];
    sourceSuffix(unit.kind);  // validates the language up front
    std::string name = uniquifiedName(unit.functionName, i);
    std::string text = renameIdentifier(unit.text, unit.functionName, name);
    names.push_back(std::move(name));
    if (unit.kind != "asm") {
      sources.push_back({unit.kind, std::move(text)});
      continue;
    }
    AsmScan scan = scanAsm(text);
    if (scan.strayNumericLabel) {
      throw ExecutionError("asm unit " + std::to_string(i) +
                           " uses a numeric label it does not define; "
                           "it cannot be joined with other units");
    }
    joinedAsm += strings::format(
        "\t.text\n\t.code64\n\t.att_syntax\n\t.p2align %d\n", scan.alignLog2);
    joinedAsm += suffixScanned(text, scan, i);
    joinedAsm += '\n';
    for (const std::string& macro : scan.macros) {
      joinedAsm += "\t.purgem " + macro + "\n";
    }
  }
  if (!joinedAsm.empty()) {
    sources.insert(sources.begin(), {"asm", std::move(joinedAsm)});
  }

  auto so = compileSources(sources, options_);
  kernels.reserve(units.size());
  for (const std::string& name : names) {
    try {
      kernels.emplace_back(CompiledKernel(so, so->symbol(name)));
    } catch (const ExecutionError&) {
      // The unit's source never defined its declared entry point; the
      // caller reloads it individually to surface the diagnostic.
      kernels.emplace_back(std::nullopt);
    }
  }
  return kernels;
}

CompiledKernel CompileBatch::compileOne(const launcher::SourceUnit& unit) {
  auto so = compileSources({{unit.kind, unit.text}}, options_);
  void* fn = so->symbol(unit.functionName);
  return CompiledKernel(std::move(so), fn);
}

}  // namespace microtools::native
