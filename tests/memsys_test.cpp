#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/memsys.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace microtools::sim {
namespace {

MachineConfig testConfig() {
  MachineConfig m = nehalemX5650DualSocket();
  return m;
}

TEST(MemSys, ColdLoadComesFromRam) {
  MemorySystem ms(testConfig());
  EXPECT_EQ(ms.peekLevel(0, 0x1000), MemLevel::Ram);
  AccessResult r = ms.load(0, 0x1000, 8, 0);
  EXPECT_EQ(r.level, MemLevel::Ram);
  EXPECT_EQ(ms.levelCount(MemLevel::Ram), 1u);
}

TEST(MemSys, RepeatLoadHitsL1) {
  MemorySystem ms(testConfig());
  ms.load(0, 0x1000, 8, 0);
  AccessResult r = ms.load(0, 0x1000, 8, 100000);
  EXPECT_EQ(r.level, MemLevel::L1);
  EXPECT_EQ(r.completeCycle, 100000u + testConfig().l1.latencyCycles);
}

TEST(MemSys, LatencyOrderedByLevel) {
  MachineConfig cfg = testConfig();
  cfg.prefetchDegree = 0;  // isolate demand latencies
  MemorySystem ms(cfg);
  std::uint64_t t = 1000000;
  AccessResult ram = ms.load(0, 0x40000, 8, t);
  // Evict from L1 only: touch enough conflicting lines... simpler: compare
  // fresh addresses per level by pre-inserting.
  ms.touch(0, 0x80000, 64);
  AccessResult l1 = ms.load(0, 0x80000, 8, t);
  EXPECT_LT(l1.completeCycle - t, ram.completeCycle - t);
}

TEST(MemSys, PeekLevelDoesNotMutate) {
  MemorySystem ms(testConfig());
  EXPECT_EQ(ms.peekLevel(0, 0x9000), MemLevel::Ram);
  EXPECT_EQ(ms.peekLevel(0, 0x9000), MemLevel::Ram);
  EXPECT_EQ(ms.levelCount(MemLevel::Ram), 0u);
  ms.load(0, 0x9000, 8, 0);
  EXPECT_EQ(ms.peekLevel(0, 0x9000), MemLevel::L1);
}

TEST(MemSys, TouchWarmsHierarchy) {
  MemorySystem ms(testConfig());
  ms.touch(0, 0x2000, 256);
  EXPECT_EQ(ms.peekLevel(0, 0x2000), MemLevel::L1);
  EXPECT_EQ(ms.peekLevel(0, 0x2000 + 255), MemLevel::L1);
}

TEST(MemSys, PrivateCachesAreSeparatePerCore) {
  MemorySystem ms(testConfig());
  ms.load(0, 0x3000, 8, 0);
  // Same socket, different core: L1/L2 miss but the shared L3 hits.
  EXPECT_EQ(ms.peekLevel(1, 0x3000), MemLevel::L3);
  // Other socket: its own L3 misses entirely.
  int remoteCore = testConfig().coresPerSocket;  // first core of socket 1
  EXPECT_EQ(ms.peekLevel(remoteCore, 0x3000), MemLevel::Ram);
}

TEST(MemSys, SplitLineAccessPenalized) {
  MemorySystem ms(testConfig());
  ms.touch(0, 0x4000, 256);
  std::uint64_t t = 10000;
  AccessResult aligned = ms.load(0, 0x4000, 16, t);
  AccessResult split = ms.load(0, 0x4000 + 56, 16, t);  // crosses a line
  EXPECT_FALSE(aligned.splitLine);
  EXPECT_TRUE(split.splitLine);
  EXPECT_GT(split.completeCycle, aligned.completeCycle);
}

TEST(MemSys, SequentialStreamTrainsPrefetcher) {
  MachineConfig cfg = testConfig();
  MemorySystem ms(cfg);
  std::uint64_t cycle = 0;
  for (int i = 0; i < 64; ++i) {
    ms.load(0, 0x100000 + static_cast<std::uint64_t>(i) * 64, 16, cycle);
    cycle += 20;
  }
  EXPECT_GT(ms.prefetchCount(), 0u);
}

TEST(MemSys, PrefetchedStreamIsFasterThanRandom) {
  MachineConfig cfg = testConfig();
  // Sequential pass.
  MemorySystem seq(cfg);
  std::uint64_t seqTotal = 0;
  std::uint64_t cycle = 1000;
  for (int i = 0; i < 256; ++i) {
    AccessResult r =
        seq.load(0, 0x100000 + static_cast<std::uint64_t>(i) * 64, 16, cycle);
    seqTotal += r.completeCycle - cycle;
    cycle = r.completeCycle;
  }
  // Strided pass touching the same number of distinct lines, too far apart
  // for the next-line streamer.
  MemorySystem rnd(cfg);
  std::uint64_t rndTotal = 0;
  cycle = 1000;
  for (int i = 0; i < 256; ++i) {
    AccessResult r = rnd.load(
        0, 0x100000 + static_cast<std::uint64_t>(i) * 64 * 37, 16, cycle);
    rndTotal += r.completeCycle - cycle;
    cycle = r.completeCycle;
  }
  EXPECT_LT(seqTotal, rndTotal);
}

TEST(MemSys, ChannelBandwidthQueuesUnderLoad) {
  MachineConfig cfg = testConfig();
  cfg.prefetchDegree = 0;
  MemorySystem ms(cfg);
  // Many simultaneous misses at the same cycle must queue on the three
  // channels: completion times must strictly increase beyond the first
  // channelCount requests.
  std::vector<std::uint64_t> completions;
  for (int i = 0; i < 12; ++i) {
    AccessResult r = ms.load(0, 0x200000 + static_cast<std::uint64_t>(i) * 4096,
                             8, 500);
    completions.push_back(r.completeCycle);
  }
  std::uint64_t firstBatchMax =
      *std::max_element(completions.begin(), completions.begin() + 3);
  std::uint64_t lastBatchMin =
      *std::min_element(completions.end() - 3, completions.end());
  EXPECT_GT(lastBatchMin, firstBatchMax);
}

TEST(MemSys, NumaRemoteAccessSlower) {
  MachineConfig cfg = testConfig();
  cfg.prefetchDegree = 0;
  MemorySystem ms(cfg);
  ms.setHomeSocket(0x10000000, 0x1000000, 0);
  ms.setHomeSocket(0x20000000, 0x1000000, 1);
  std::uint64_t t = 100;
  AccessResult local = ms.load(0, 0x10000000, 8, t);   // core 0, socket 0
  AccessResult remote = ms.load(0, 0x20000000, 8, t);  // core 0 -> socket 1
  EXPECT_GT(remote.completeCycle, local.completeCycle);
}

TEST(MemSys, HomeSocketValidation) {
  MemorySystem ms(testConfig());
  EXPECT_THROW(ms.setHomeSocket(0, 100, 7), McError);
  EXPECT_THROW(ms.setHomeSocket(0, 100, -1), McError);
}

TEST(MemSys, CoreIdValidation) {
  MemorySystem ms(testConfig());
  EXPECT_THROW(ms.load(99, 0, 8, 0), McError);
  EXPECT_THROW(ms.load(-1, 0, 8, 0), McError);
  EXPECT_THROW(ms.socketOfCore(99), McError);
}

TEST(MemSys, SocketMapping) {
  MemorySystem ms(testConfig());  // 2 sockets x 6 cores
  EXPECT_EQ(ms.socketOfCore(0), 0);
  EXPECT_EQ(ms.socketOfCore(5), 0);
  EXPECT_EQ(ms.socketOfCore(6), 1);
  EXPECT_EQ(ms.socketOfCore(11), 1);
}

TEST(MemSys, ClearCachesDropsWarmState) {
  MemorySystem ms(testConfig());
  ms.load(0, 0x5000, 8, 0);
  EXPECT_EQ(ms.peekLevel(0, 0x5000), MemLevel::L1);
  ms.clearCaches();
  EXPECT_EQ(ms.peekLevel(0, 0x5000), MemLevel::Ram);
  EXPECT_EQ(ms.levelCount(MemLevel::Ram), 0u);
}

TEST(MemSys, StoreAllocatesLikeLoad) {
  MemorySystem ms(testConfig());
  AccessResult r = ms.store(0, 0x6000, 16, 0);
  EXPECT_EQ(r.level, MemLevel::Ram);
  EXPECT_EQ(ms.peekLevel(0, 0x6000), MemLevel::L1);
}

TEST(MemSys, FrequencyScalingChangesOffcoreCycles) {
  // Figure 13's mechanism: at a lower core clock, the same DRAM
  // nanoseconds are fewer core cycles.
  MachineConfig fast = testConfig();
  fast.coreGHz = 2.67;
  MachineConfig slow = testConfig();
  slow.coreGHz = 1.60;
  fast.prefetchDegree = slow.prefetchDegree = 0;
  MemorySystem msFast(fast);
  MemorySystem msSlow(slow);
  std::uint64_t tFast = msFast.load(0, 0x7000, 8, 0).completeCycle;
  std::uint64_t tSlow = msSlow.load(0, 0x7000, 8, 0).completeCycle;
  EXPECT_GT(tFast, tSlow);  // more core cycles at the higher clock
}

// A seeded mixed stream on cores 0 and 1: sequential runs that train the
// prefetcher, random lines over a footprint larger than L2, and line-
// splitting stores. Returns every access result in order.
std::vector<AccessResult> runAccesses(MemorySystem& ms, std::uint64_t seed,
                                      std::uint64_t& cycle, int accesses) {
  Rng rng(seed);
  std::vector<AccessResult> results;
  std::uint64_t cursor = 0x100000;
  for (int i = 0; i < accesses; ++i) {
    int core = static_cast<int>(rng.nextBelow(2));
    std::uint64_t kind = rng.nextBelow(10);
    std::uint64_t addr;
    if (kind < 5) {
      cursor += 16;
      addr = cursor;
    } else {
      addr = 0x800000 + rng.nextBelow(1 << 21);
    }
    int bytes = kind == 9 ? 16 : 8;
    AccessResult r = kind % 2 ? ms.store(core, addr, bytes, cycle)
                              : ms.load(core, addr, bytes, cycle);
    results.push_back(r);
    cycle += rng.nextBelow(24);
  }
  return results;
}

void expectSameResults(const std::vector<AccessResult>& a,
                       const std::vector<AccessResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].completeCycle, b[i].completeCycle) << "access " << i;
    EXPECT_EQ(a[i].level, b[i].level) << "access " << i;
    EXPECT_EQ(a[i].splitLine, b[i].splitLine) << "access " << i;
  }
}

TEST(MemSys, RestoredSnapshotEqualsSimulatedState) {
  // A runs a stream from the pre-state and snapshots; B starts from the
  // same pre-state and restores that snapshot instead. Both must
  // fingerprint equal and answer every later access identically.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MemorySystem a(testConfig());
    std::uint64_t cycle = 0;
    runAccesses(a, seed * 100, cycle, 3000);
    a.stateFingerprint(cycle);  // the snapshot covers changes after this
    MemorySystem b = a;
    std::uint64_t preCycle = cycle;
    runAccesses(a, seed * 100 + 1, cycle, 3000);
    MemorySystem::Snapshot snapshot = a.snapshotTouched();
    EXPECT_NE(a.stateFingerprint(cycle), b.stateFingerprint(cycle));
    b.restore(snapshot);
    EXPECT_EQ(a.stateFingerprint(cycle), b.stateFingerprint(cycle));
    EXPECT_GT(cycle, preCycle);

    std::uint64_t cycleA = cycle;
    std::uint64_t cycleB = cycle;
    expectSameResults(runAccesses(a, seed * 100 + 2, cycleA, 3000),
                      runAccesses(b, seed * 100 + 2, cycleB, 3000));
    EXPECT_EQ(a.stateFingerprint(cycleA), b.stateFingerprint(cycleB));
  }
}

TEST(MemSys, ResetEqualsFreshMachine) {
  // reset() reuses the cache storage; it must still be indistinguishable
  // from a newly constructed machine, at any point of its fingerprint
  // bookkeeping.
  for (bool fingerprintFirst : {false, true}) {
    MemorySystem used(testConfig());
    std::uint64_t cycle = 0;
    runAccesses(used, 11, cycle, 3000);
    if (fingerprintFirst) used.stateFingerprint(cycle);
    runAccesses(used, 12, cycle, 500);
    used.reset();
    MemorySystem fresh(testConfig());
    EXPECT_EQ(used.stateFingerprint(0), fresh.stateFingerprint(0));
    EXPECT_EQ(used.levelCount(MemLevel::Ram), 0u);
    std::uint64_t cycleUsed = 0;
    std::uint64_t cycleFresh = 0;
    expectSameResults(runAccesses(used, 13, cycleUsed, 3000),
                      runAccesses(fresh, 13, cycleFresh, 3000));
  }
}

TEST(MemSys, ArrivedFillOutlivesL2EvictionAndBlocksReprefetch) {
  // Records a known fidelity quirk, not a wish: a pendingFills entry lives
  // until a demand miss finds it arrived, even after its line has left L2.
  // While it lives, peekLevel() reports L2 for the line and the streamer
  // will not prefetch it again, so the next demand access goes to L3.
  // perfbench/expected pins the numbers this behavior produces.
  MachineConfig cfg = testConfig();
  ASSERT_EQ(cfg.prefetchTrigger, 2);
  ASSERT_EQ(cfg.prefetchDegree, 12);
  MemorySystem ms(cfg);
  const std::uint64_t base = 0x100000;  // page-aligned
  auto lineAddr = [&](int i) {
    return base + static_cast<std::uint64_t>(i) * 64;
  };
  std::uint64_t cycle = 0;
  // Stream lines 0..9, far enough apart that every prefetch has arrived
  // before its line is demanded. Lines 10..21 are prefetched, never used.
  for (int i = 0; i < 10; ++i) ms.load(0, lineAddr(i), 16, cycle += 10000);
  const std::uint64_t x = lineAddr(10);
  EXPECT_EQ(ms.peekLevel(0, x), MemLevel::L2);  // prefetched into L2

  // Evict everything from L1 and L2 (twice the L2 capacity, far away);
  // the L3 keeps the stream.
  ms.touch(0, 0x10000000, 2 * cfg.l2.sizeBytes);
  EXPECT_EQ(ms.peekLevel(0, lineAddr(9)), MemLevel::L3);
  EXPECT_EQ(ms.peekLevel(0, x), MemLevel::L2);  // quirk: the line is in L3

  // Re-stream lines 0..9: the streamer prefetches lines 2..9 again but
  // skips 10..21, whose stale entries say they are already on the way.
  std::uint64_t prefetchesBefore = ms.prefetchCount();
  for (int i = 0; i < 10; ++i) ms.load(0, lineAddr(i), 16, cycle += 10000);
  EXPECT_EQ(ms.prefetchCount() - prefetchesBefore, 8u);
  AccessResult r = ms.load(0, x, 16, cycle += 10000);
  EXPECT_EQ(r.level, MemLevel::L3);  // an exact model would hit L2 here
}

TEST(FillTable, MatchesReferenceMapUnderRandomOperations) {
  // A small key universe keeps the table at 16-64 slots with long probe
  // runs, so backward-shift deletion often works on runs that wrap past
  // the end of the slot array.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FillTable table;
    std::map<std::uint64_t, std::uint64_t> ref;
    std::uint64_t keySpace = 8 + rng.nextBelow(40);
    for (int op = 0; op < 20000; ++op) {
      std::uint64_t key = 1000 + rng.nextBelow(keySpace);
      std::uint64_t kind = rng.nextBelow(100);
      if (kind < 40) {  // insert or overwrite
        std::uint64_t arrival = rng.nextBelow(1 << 20);
        table.set(key, arrival);
        ref[key] = arrival;
      } else if (kind < 70) {
        EXPECT_EQ(table.erase(key), ref.erase(key) == 1);
      } else if (kind < 90) {
        auto it = ref.find(key);
        std::optional<std::uint64_t> got = table.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end());
        if (got) EXPECT_EQ(*got, it->second);
        EXPECT_EQ(table.contains(key), it != ref.end());
      } else if (kind < 94) {  // move every arrival forward
        std::uint64_t delta = rng.nextBelow(1000);
        table.shift(delta);
        for (auto& entry : ref) entry.second += delta;
      } else if (kind < 98) {  // continue on a copy
        FillTable copy = table;
        table.clear();
        table = copy;
      } else if (kind < 99) {
        table.clear();
        ref.clear();
      } else {  // one full comparison
        for (std::uint64_t k = 1000; k < 1000 + keySpace; ++k) {
          auto it = ref.find(k);
          std::optional<std::uint64_t> got = table.find(k);
          ASSERT_EQ(got.has_value(), it != ref.end()) << "key " << k;
          if (got) EXPECT_EQ(*got, it->second) << "key " << k;
        }
      }
      ASSERT_EQ(table.size(), ref.size());
    }
    // Same contents, inserted in the opposite order into a fresh table:
    // equal fingerprints at any clock.
    FillTable rebuilt;
    for (auto it = ref.rbegin(); it != ref.rend(); ++it) {
      rebuilt.set(it->first, it->second);
    }
    for (std::uint64_t clock : {0ull, 1ull << 19, 1ull << 40}) {
      EXPECT_EQ(table.fingerprint(clock), rebuilt.fingerprint(clock));
    }
  }
}

TEST(FillTable, FingerprintIsTranslationInvariantAndSeesContents) {
  FillTable a;
  a.set(7, 100);
  a.set(8, 150);
  a.set(9, 40);
  FillTable b = a;
  b.shift(1000);
  // Shifted arrivals, shifted clock: same relative state.
  EXPECT_EQ(a.fingerprint(50), b.fingerprint(1050));
  // Arrivals at or before the clock all read "arrived now".
  FillTable c = a;
  c.set(9, 10);
  EXPECT_EQ(a.fingerprint(50), c.fingerprint(50));
  EXPECT_NE(a.fingerprint(30), c.fingerprint(30));
  // Different lines or pending times differ.
  FillTable d = a;
  d.set(8, 151);
  EXPECT_NE(a.fingerprint(50), d.fingerprint(50));
  FillTable e = a;
  e.erase(7);
  e.set(6, 100);
  EXPECT_NE(a.fingerprint(50), e.fingerprint(50));
}

}  // namespace
}  // namespace microtools::sim
