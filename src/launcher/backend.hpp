#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "creator/pass.hpp"
#include "support/error.hpp"

namespace microtools::launcher {

/// How one kernel array is materialized: size plus alignment request.
/// MicroLauncher sweeps `offset` to study alignment effects (§4 and §5.2.2):
/// the array base is placed at (a multiple of `alignment`) + `offset`.
struct ArraySpec {
  std::uint64_t bytes = 0;
  std::uint64_t alignment = 4096;
  std::uint64_t offset = 0;
};

/// Guaranteed over-allocation beyond bytes + offset for every kernel array,
/// on every backend. Count-down kernels (sub $k,%rdi; jge) legitimately
/// over-read up to one unrolled stride past the array, so backends pad each
/// allocation by at least one page and the static verifier (verify::
/// LaunchContext::slackBytes) accepts accesses within the same slack.
inline constexpr std::uint64_t kArraySlackBytes = 4096;

/// One kernel invocation request.
struct KernelRequest {
  int n = 0;                      ///< trip-count argument
  std::vector<ArraySpec> arrays;  ///< pointer arguments after n
  int core = 0;                   ///< pinning target (§4: CPU pinning)

  /// Bytes the kernel advances per counted iteration — used to split arrays
  /// across OpenMP threads (4 = the movss/float convention). The simulator
  /// backend derives the exact value from the kernel's induction code.
  std::uint64_t chunkStrideBytes = 4;
};

/// The launch geometry every campaign front end reads from the same flags
/// (--array-bytes, --alignment, --align-offset, --element-bytes, --n).
struct KernelGeometry {
  std::uint64_t arrayBytes = 1 << 20;  ///< size of each array
  std::uint64_t alignment = 4096;      ///< array base alignment
  std::uint64_t alignOffset = 0;       ///< extra offset of each array base
  std::uint64_t elementBytes = 4;      ///< 4 = float (movss), 8 = double
  std::optional<int> tripCount;        ///< explicit n; default below
};

/// Builds the request for `nbVectors` arrays of `geometry.arrayBytes` each;
/// `perVectorBytes[i]` overrides the size of array i. The trip count is the
/// explicit --n, else the elements of `elementBytes` that fit the first
/// array; the element size is also the OpenMP chunk stride. Throws McError
/// when no valid trip count results.
KernelRequest buildRequest(const KernelGeometry& geometry, int nbVectors,
                           const std::vector<std::uint64_t>& perVectorBytes = {});

/// Hardware-counter sample accompanying one invocation. `valid` is false —
/// and every value NaN — when no counter group is available (no perf, VM
/// without a PMU, perf_event_paranoid, non-native backend); an individual
/// value stays NaN when its event did not fit the PMU's counter budget.
/// Callers aggregate with plain arithmetic: NaN propagates, so a metric
/// derived from an absent event is itself absent.
struct InvokeCounters {
  bool valid = false;
  double cycles = std::numeric_limits<double>::quiet_NaN();
  double instructions = std::numeric_limits<double>::quiet_NaN();
  double l1dAccesses = std::numeric_limits<double>::quiet_NaN();
  double l1dMisses = std::numeric_limits<double>::quiet_NaN();
  double llcAccesses = std::numeric_limits<double>::quiet_NaN();
  double llcMisses = std::numeric_limits<double>::quiet_NaN();
  double stalledCycles = std::numeric_limits<double>::quiet_NaN();
};

/// Timing sample for one or more kernel calls.
struct InvokeResult {
  double tscCycles = 0.0;         ///< elapsed invariant-TSC cycles
  std::uint64_t iterations = 0;   ///< iteration count the kernel returned
  InvokeCounters counters;        ///< perf-counter window over the call(s)
};

/// Pinning policy for fork-mode runs.
enum class PinPolicy { Compact, Scatter };

/// One kernel source for batch loading: Backend::loadSource's triple as a
/// value, so a whole campaign batch can be handed to the backend at once.
struct SourceUnit {
  std::string kind = "asm";  ///< asm|c (the native backend also takes "so")
  std::string text;          ///< kernel source (the .so path for kind "so")
  std::string functionName = "microkernel";
};

class Backend;

/// Opaque loaded-kernel handle; concrete backends subclass it.
class KernelHandle {
 public:
  virtual ~KernelHandle() = default;

  /// The backend that created this handle, set once in load(). Backends
  /// validate it with a pointer comparison and then downcast statically —
  /// a handle whose origin matches is by construction the backend's own
  /// concrete type, so the per-invoke hot path needs no RTTI.
  Backend* origin = nullptr;
};

/// Execution backend abstraction.
///
/// The paper's MicroLauncher runs on bare hardware; this reproduction offers
/// two interchangeable backends: `native` (compile + dlopen + rdtsc — the
/// faithful tool) and `sim` (the deterministic Nehalem-class simulator that
/// regenerates the paper's figures; see DESIGN.md's substitution note).
class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;

  /// Loads a kernel from its assembly text; `functionName` is the entry
  /// point (§4.1: "a command-line parameter provides the function name").
  virtual std::unique_ptr<KernelHandle> load(
      const std::string& asmText, const std::string& functionName) = 0;

  /// Convenience for MicroCreator output.
  std::unique_ptr<KernelHandle> load(const creator::GeneratedProgram& p) {
    return load(p.asmText, p.functionName);
  }

  /// Loads a kernel from source of the given kind ("asm" everywhere; the
  /// native backend also accepts "c" and "so"). The campaign runner goes
  /// through this so mixed .s/.c campaign directories work on any backend
  /// that can take them.
  virtual std::unique_ptr<KernelHandle> loadSource(
      const std::string& kind, const std::string& text,
      const std::string& functionName) {
    if (kind == "asm") return load(text, functionName);
    throw ExecutionError("backend '" + name() + "' cannot load '" + kind +
                         "' kernels");
  }

  /// Loads a batch of kernels at once. The native backend overrides this to
  /// compile the whole batch with ONE compiler invocation into one shared
  /// object (entry symbols uniquified per unit); the default simply loops
  /// over loadSource(), so backends with cheap loads (the simulator) need
  /// nothing special. A unit that fails to load comes back as a null entry
  /// — callers that need the diagnostic reload that unit individually.
  virtual std::vector<std::unique_ptr<KernelHandle>> loadBatch(
      const std::vector<SourceUnit>& units) {
    std::vector<std::unique_ptr<KernelHandle>> handles;
    handles.reserve(units.size());
    for (const SourceUnit& unit : units) {
      try {
        handles.push_back(loadSource(unit.kind, unit.text, unit.functionName));
      } catch (const McError&) {
        handles.push_back(nullptr);
      }
    }
    return handles;
  }

  /// Ahead-of-time preparation for the campaign's pipelined compile stage:
  /// maps source units to equivalent units that loadSource() can consume
  /// more cheaply. The native backend batch-compiles the units with one
  /// compiler invocation (its asm units joined into one translation unit,
  /// so one assembler run) and returns "so" units pointing at the shared
  /// object, so pinned measurement workers only pay a dlopen. When the
  /// joined batch fails, each unit is compiled alone, so one broken unit
  /// stays unprepared without holding back the rest. Must be safe
  /// to call concurrently with invoke()/loadSource() on the same backend.
  /// The default (and the simulator's) preparation is the identity — loads
  /// are already cheap. A unit that cannot be prepared comes back
  /// unchanged: the measuring worker's own loadSource() surfaces the
  /// diagnostic, keeping error reporting identical to the unpipelined path.
  virtual std::vector<SourceUnit> prepareBatch(std::vector<SourceUnit> units) {
    return units;
  }

  /// One timed kernel call.
  virtual InvokeResult invoke(KernelHandle& kernel,
                              const KernelRequest& request) = 0;

  /// Timer read-read overhead to subtract (Figure 10's "overhead
  /// calculation removes the function call cost").
  virtual double timerOverheadCycles() const = 0;

  /// Fork mode (§4.6): `processes` copies of the kernel, each pinned to its
  /// own core per `policy`, synchronized, then run `calls` times
  /// back-to-back. Returns one aggregate per process.
  virtual std::vector<InvokeResult> invokeFork(KernelHandle& kernel,
                                               const KernelRequest& request,
                                               int processes, int calls,
                                               PinPolicy policy) = 0;

  /// OpenMP mode (§5.2.3): `repetitions` parallel-for regions over the trip
  /// count with `threads` threads; returns the aggregate region timing.
  virtual InvokeResult invokeOpenMp(KernelHandle& kernel,
                                    const KernelRequest& request, int threads,
                                    int repetitions) = 0;

  /// Returns the backend to a cold-machine state where the backend can (a
  /// no-op natively). Contract: after reset() the backend must reproduce
  /// cold-machine numbers bit-identically — every form of warm state,
  /// including caches, advancing clocks and any memoized invoke results,
  /// must be dropped or invalidated. The campaign runner resets before
  /// every variant and relies on results being independent of what a worker
  /// ran previously.
  virtual void reset() {}
};

}  // namespace microtools::launcher
