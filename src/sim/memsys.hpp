#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/arch.hpp"
#include "sim/cache.hpp"

namespace microtools::sim {

/// Hierarchy level an access was served from.
enum class MemLevel : int { L1 = 1, L2 = 2, L3 = 3, Ram = 4 };

/// Result of one memory access.
struct AccessResult {
  std::uint64_t completeCycle = 0;  ///< load-to-use completion (core cycles)
  MemLevel level = MemLevel::L1;    ///< deepest level consulted
  bool splitLine = false;           ///< access crossed a cache line
};

/// Lines in flight from one core's L2 streamer: line -> arrival cycle.
///
/// A flat open-addressing table (linear probing, backward-shift deletion)
/// rather than a node-based map, because SimBackend's memo copies it on
/// every snapshot and restore: at 1 MiB it holds ~16,000 lines, and a copy
/// is now one memcpy of the slot array. Arrivals are stored relative to a
/// common base, so shift() moves every arrival in O(1).
class FillTable {
 public:
  bool contains(std::uint64_t line) const { return slotOf(line) != kNone; }

  /// Arrival cycle of `line`, if it is in the table.
  std::optional<std::uint64_t> find(std::uint64_t line) const;

  /// Inserts `line` or overwrites its arrival. `line` must not be ~0.
  void set(std::uint64_t line, std::uint64_t arrival);

  /// Removes `line`; returns whether it was present.
  bool erase(std::uint64_t line);

  void clear();

  std::size_t size() const { return size_; }

  /// Adds `delta` to every arrival.
  void shift(std::uint64_t delta) { base_ += delta; }

  /// Order-independent digest of the entries, with each arrival taken
  /// relative to `clock` (an arrival at or before `clock` digests as 0):
  /// the same contents fingerprint equal whatever the insertion history.
  std::uint64_t fingerprint(std::uint64_t clock) const;

 private:
  struct Slot {
    std::uint64_t line = kEmpty;
    std::uint64_t arrival = 0;  // minus base_
  };
  static constexpr std::uint64_t kEmpty = ~0ull;
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t home(std::uint64_t line) const {
    // Fibonacci hashing: consecutive lines land far apart.
    return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ull) >>
                                    homeShift_);
  }
  std::size_t slotOf(std::uint64_t line) const;
  void grow();

  std::vector<Slot> slots_;  // power-of-two size, or empty
  std::size_t size_ = 0;
  int homeShift_ = 64;       // 64 - log2(slots_.size())
  std::uint64_t base_ = 0;
};

/// The full memory system: per-core L1/L2 with an L2 stream prefetcher,
/// per-socket shared L3, per-socket memory channels with occupancy-based
/// bandwidth, and NUMA home-socket routing with a QPI hop penalty.
///
/// All times are in core-clock cycles of the configured machine; the
/// MachineConfig converts uncore nanosecond latencies at construction so a
/// core-frequency change (Figure 13) rescales exactly the off-core part.
class MemorySystem {
  /// Per-core and per-socket state outside the caches; a Snapshot copies
  /// all of it. It is not small: on a 1 MiB stream `pendingFills` holds
  /// ~16,100 lines, a 32,768-slot table of 512 KiB, which is why the table
  /// is flat. (The L3 sets such a stream touches are the other big part of
  /// a snapshot: all 12,288 sets x 16 ways x 16 B, 3 MiB, on
  /// nehalem_x5650_2s.)
  struct CoreTiming {
    std::uint64_t l2PortFree = 0;  // L2->L1 fill bandwidth
    // Stream prefetcher state.
    std::uint64_t lastMissLine = ~0ull;
    int streak = 0;
    // Lines being prefetched into L2. An entry lives until a demand miss
    // finds it arrived, so it can outlive its line's L2 eviction (see
    // DESIGN.md "Simulator calibration notes").
    FillTable pendingFills;
  };
  struct SocketTiming {
    std::vector<std::uint64_t> channelFree;
    std::uint64_t l3PortFree = 0;  // shared L3 read bandwidth
  };

 public:
  explicit MemorySystem(const MachineConfig& config);

  const MachineConfig& config() const { return config_; }

  /// Declares [base, base+size) to be homed on `socket` (first-touch /
  /// numactl modeling). Undeclared addresses are homed on socket 0.
  void setHomeSocket(std::uint64_t base, std::uint64_t size, int socket);

  /// Peeks at the level a load from `addr` would currently hit, without
  /// changing any state (an inspection helper: the core model asks only
  /// inL1()).
  MemLevel peekLevel(int coreId, std::uint64_t addr) const;

  /// Whether the line holding `addr` is in the L1 of `coreId`: the core
  /// model's test for whether an access needs a fill buffer.
  bool inL1(int coreId, std::uint64_t addr) const {
    return cores_[static_cast<std::size_t>(coreId)].l1.contains(lineOf(addr));
  }

  /// Performs a load of `bytes` at `addr`, issued at `cycle`.
  AccessResult load(int coreId, std::uint64_t addr, int bytes,
                    std::uint64_t cycle);

  /// Performs a store (write-allocate RFO). The returned completeCycle is
  /// when the line is owned — the pipeline does not stall on it, but a fill
  /// buffer stays busy until then.
  AccessResult store(int coreId, std::uint64_t addr, int bytes,
                     std::uint64_t cycle);

  /// Inserts the lines covering [addr, addr+bytes) into the hierarchy of
  /// `coreId` without accounting any time (test/warm-up helper).
  void touch(int coreId, std::uint64_t addr, std::uint64_t bytes);

  /// Drops all cached state and statistics (channel clocks keep advancing).
  void clearCaches();

  /// Returns to the state of a freshly constructed MemorySystem, reusing the
  /// cache storage instead of allocating and zeroing it again.
  void reset();

  /// Per-level access counters (demand accesses, both loads and stores).
  std::uint64_t levelCount(MemLevel level) const;

  /// Total prefetches issued by the L2 streamers.
  std::uint64_t prefetchCount() const { return prefetches_; }

  /// Digest of all behavior-relevant state, normalized to be invariant
  /// under time translation: cache contents with LRU *ranks* (not absolute
  /// use clocks), prefetcher streaks, in-flight fills and port/channel
  /// busy-times expressed relative to `clock` (anything already free hashes
  /// as "free now"). Two MemorySystems with equal fingerprints at their
  /// respective clocks respond identically to identical future access
  /// streams — the foundation of SimBackend's warm-invoke memoization.
  /// Statistics (levelCounts, prefetch and hit/miss counters) are excluded:
  /// they never influence timing. Incremental: each cache re-hashes only the
  /// sets changed since the previous call, then forgets that they changed.
  std::uint64_t stateFingerprint(std::uint64_t clock);

  /// The behavior-relevant state an access stream changed since the last
  /// stateFingerprint(): whole copies of the changed cache sets plus all
  /// per-core and per-socket timing state. Statistics are not included.
  struct Snapshot {
    struct Core {
      CacheLevel::Image l1, l2;
      CoreTiming timing;
    };
    struct Sock {
      CacheLevel::Image l3;
      SocketTiming timing;
    };
    std::vector<Core> cores;
    std::vector<Sock> sockets;
  };

  /// Captures the state changed since the last stateFingerprint(). Take it
  /// before fingerprinting the same state: fingerprinting clears the
  /// changed-set lists this reads.
  Snapshot snapshotTouched() const;

  /// Writes a snapshot back. Starting from a state fingerprint-equal to the
  /// one the snapshotted stream started from, the result is
  /// fingerprint-equal to the state the snapshot was taken in. Busy-times
  /// come back as recorded; a later replay shifts them with
  /// translateInFlight().
  void restore(const Snapshot& snapshot);

  /// Adds per-level demand-access and prefetch counts to the statistics
  /// without simulating them — used when SimBackend replays a memoized
  /// invoke, so counters track full simulation exactly.
  void creditReplayedAccesses(const std::uint64_t levelDeltas[5],
                              std::uint64_t prefetchDelta);

  /// Shifts every pending busy-time and fill arrival forward by `delta`
  /// cycles. Used when a memoized invoke is replayed: the global clock
  /// advances by the invoke's duration without simulation, and shifting the
  /// in-flight state by the same amount keeps its position relative to the
  /// clock — and therefore the state fingerprint — exactly what full
  /// simulation would have produced.
  void translateInFlight(std::uint64_t delta);

  int socketOfCore(int coreId) const;

 private:
  struct CorePrivate : CoreTiming {
    CorePrivate(CacheLevel l1In, CacheLevel l2In)
        : l1(std::move(l1In)), l2(std::move(l2In)) {}
    CacheLevel l1;
    CacheLevel l2;
  };

  struct Socket : SocketTiming {
    CacheLevel l3;
  };

  std::uint64_t lineOf(std::uint64_t addr) const {
    return addr / static_cast<std::uint64_t>(config_.lineBytes);
  }

  int homeSocket(std::uint64_t addr) const;

  /// Fetches one line for core `coreId`; returns completion cycle and level.
  AccessResult fetchLine(int coreId, std::uint64_t lineAddr,
                         std::uint64_t cycle);

  /// Starts a DRAM transfer on the least-loaded channel of `socket`;
  /// returns the data-arrival cycle.
  std::uint64_t dramFetch(Socket& socket, std::uint64_t earliestStart,
                          bool remote);

  void maybePrefetch(int coreId, std::uint64_t missLine, std::uint64_t cycle);

  AccessResult access(int coreId, std::uint64_t addr, int bytes,
                      std::uint64_t cycle);

  MachineConfig config_;
  std::vector<CorePrivate> cores_;
  std::vector<Socket> sockets_;
  struct HomeRange {
    std::uint64_t base, size;
    int socket;
  };
  std::vector<HomeRange> homeRanges_;

  // Cached conversions.
  std::uint64_t l3LatencyCycles_;
  std::uint64_t memLatencyCycles_;
  std::uint64_t qpiLatencyCycles_;
  std::uint64_t channelOccupancy_;
  std::uint64_t l3FillCycles_;  // uncore-domain occupancy in core cycles

  std::uint64_t levelCounts_[5] = {0, 0, 0, 0, 0};
  std::uint64_t prefetches_ = 0;
};

}  // namespace microtools::sim
