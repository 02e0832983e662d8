#pragma once

#include <cstdint>
#include <map>
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

/// The full memory system: per-core L1/L2 with an L2 stream prefetcher,
/// per-socket shared L3, per-socket memory channels with occupancy-based
/// bandwidth, and NUMA home-socket routing with a QPI hop penalty.
///
/// All times are in core-clock cycles of the configured machine; the
/// MachineConfig converts uncore nanosecond latencies at construction so a
/// core-frequency change (Figure 13) rescales exactly the off-core part.
class MemorySystem {
 public:
  explicit MemorySystem(const MachineConfig& config);

  const MachineConfig& config() const { return config_; }

  /// Declares [base, base+size) to be homed on `socket` (first-touch /
  /// numactl modeling). Undeclared addresses are homed on socket 0.
  void setHomeSocket(std::uint64_t base, std::uint64_t size, int socket);

  /// Peeks at the level a load from `addr` would currently hit, without
  /// changing any state. Used by the core model to reserve fill buffers
  /// before committing to an access.
  MemLevel peekLevel(int coreId, std::uint64_t addr) const;

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
  /// they never influence timing.
  std::uint64_t stateFingerprint(std::uint64_t clock) const;

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
  struct CorePrivate {
    CacheLevel l1;
    CacheLevel l2;
    std::uint64_t l2PortFree = 0;  // L2->L1 fill bandwidth
    // Stream prefetcher state.
    std::uint64_t lastMissLine = ~0ull;
    int streak = 0;
    // Lines being prefetched into L2: line -> arrival cycle.
    std::map<std::uint64_t, std::uint64_t> pendingFills;
  };

  struct Socket {
    CacheLevel l3;
    std::vector<std::uint64_t> channelFree;
    std::uint64_t l3PortFree = 0;  // shared L3 read bandwidth
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
