#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace microtools::sim {
namespace {

TEST(Cache, MissThenHit) {
  CacheLevel cache(1024, 2, 64);
  EXPECT_FALSE(cache.lookup(1));
  cache.insert(1);
  EXPECT_TRUE(cache.lookup(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, GeometryValidation) {
  EXPECT_THROW(CacheLevel(1000, 2, 64), McError);   // not a multiple
  EXPECT_THROW(CacheLevel(1024, 0, 64), McError);   // zero ways
  EXPECT_THROW(CacheLevel(1024, 2, 60), McError);   // line not pow2
  CacheLevel ok(12 * 1024 * 1024, 16, 64);          // non-pow2 sets allowed
  EXPECT_EQ(ok.sets(), 12288u);
}

TEST(Cache, ContainsDoesNotTouchLru) {
  // 2-way, single set: A, B fill the set; touching A via contains() must
  // NOT refresh it, so inserting C still evicts A (the LRU victim).
  CacheLevel cache(128, 2, 64);
  ASSERT_EQ(cache.sets(), 1u);
  cache.insert(10);
  cache.insert(20);
  EXPECT_TRUE(cache.contains(10));
  std::uint64_t evicted = cache.insert(30);
  EXPECT_EQ(evicted, 10u);
}

TEST(Cache, LookupRefreshesLru) {
  CacheLevel cache(128, 2, 64);
  cache.insert(10);
  cache.insert(20);
  EXPECT_TRUE(cache.lookup(10));  // refresh 10; 20 becomes LRU
  std::uint64_t evicted = cache.insert(30);
  EXPECT_EQ(evicted, 20u);
  EXPECT_TRUE(cache.contains(10));
  EXPECT_FALSE(cache.contains(20));
}

TEST(Cache, InsertExistingRefreshesWithoutEviction) {
  CacheLevel cache(128, 2, 64);
  cache.insert(10);
  cache.insert(20);
  EXPECT_EQ(cache.insert(10), CacheLevel::kNoEviction);  // refresh
  EXPECT_EQ(cache.insert(30), 20u);
}

TEST(Cache, SetIndexingSeparatesSets) {
  // 2 sets, 1 way: even lines -> set 0, odd lines -> set 1.
  CacheLevel cache(128, 1, 64);
  ASSERT_EQ(cache.sets(), 2u);
  cache.insert(2);
  cache.insert(3);
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  cache.insert(4);  // evicts 2 (same set), not 3
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(Cache, Invalidate) {
  CacheLevel cache(1024, 2, 64);
  cache.insert(5);
  EXPECT_TRUE(cache.invalidate(5));
  EXPECT_FALSE(cache.contains(5));
  EXPECT_FALSE(cache.invalidate(5));
}

TEST(Cache, ClearResetsEverything) {
  CacheLevel cache(1024, 2, 64);
  cache.insert(1);
  cache.lookup(1);
  cache.lookup(2);
  cache.clear();
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(Cache, EvictionReportsCorrectLineAddress) {
  CacheLevel cache(4096, 4, 64);  // 16 sets
  std::uint64_t sets = cache.sets();
  // Fill one set with 4 lines, then overflow it.
  for (std::uint64_t i = 0; i < 4; ++i) cache.insert(3 + i * sets);
  std::uint64_t evicted = cache.insert(3 + 4 * sets);
  EXPECT_EQ(evicted, 3u);  // the first inserted (LRU) line, full address
}

TEST(Cache, WorkingSetSmallerThanCacheNeverEvicts) {
  CacheLevel cache(32 * 1024, 8, 64);  // 512 lines
  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    for (std::uint64_t line = 0; line < 512; ++line) {
      if (!cache.lookup(line)) cache.insert(line);
    }
  }
  // First pass misses everything, later passes hit everything.
  EXPECT_EQ(cache.misses(), 512u);
  EXPECT_EQ(cache.hits(), 2u * 512u);
}

TEST(Cache, WorkingSetLargerThanCacheThrashesWithLru) {
  // Classic LRU pathology: cyclic access to W+1 lines in a W-line set
  // misses every time.
  CacheLevel cache(256, 4, 64);  // one set of 4 ways
  ASSERT_EQ(cache.sets(), 1u);
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t line = 0; line < 5; ++line) {
      if (!cache.lookup(line)) cache.insert(line);
    }
  }
  EXPECT_EQ(cache.hits(), 0u);
}

// Property sweep over several geometries: inserted lines are found until
// capacity forces eviction, and the eviction count is exact.
struct Geometry {
  std::uint64_t size;
  int ways;
};

// Names the ctest cases after the geometry; without it gtest prints the raw
// bytes of the struct, padding included, so the names change between builds.
void PrintTo(const Geometry& g, std::ostream* os) {
  *os << g.size / 1024 << "KiB_" << g.ways << "way";
}

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, CapacityIsExact) {
  const auto [size, ways] = GetParam();
  CacheLevel cache(size, ways, 64);
  std::uint64_t capacity = size / 64;
  int evictions = 0;
  // Insert exactly `capacity` distinct lines spread uniformly over sets:
  // line numbers 0..capacity-1 map round-robin to sets, filling all ways.
  for (std::uint64_t line = 0; line < capacity; ++line) {
    if (cache.insert(line) != CacheLevel::kNoEviction) ++evictions;
  }
  EXPECT_EQ(evictions, 0);
  for (std::uint64_t line = 0; line < capacity; ++line) {
    EXPECT_TRUE(cache.contains(line)) << line;
  }
  // One more line per set now evicts.
  EXPECT_NE(cache.insert(capacity), CacheLevel::kNoEviction);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(Geometry{1024, 1}, Geometry{1024, 2},
                      Geometry{4096, 4}, Geometry{32 * 1024, 8},
                      Geometry{256 * 1024, 8}, Geometry{192 * 1024, 12}));

TEST(Cache, RandomizedLruMatchesReferenceModel) {
  // Cross-check against a simple reference LRU implementation.
  CacheLevel cache(512, 4, 64);  // 2 sets x 4 ways
  std::uint64_t sets = cache.sets();
  std::vector<std::vector<std::uint64_t>> reference(sets);
  Rng rng(123);
  for (int step = 0; step < 5000; ++step) {
    std::uint64_t line = rng.nextBelow(32);
    std::uint64_t set = line % sets;
    auto& list = reference[set];  // front = MRU
    auto it = std::find(list.begin(), list.end(), line);
    bool refHit = it != list.end();
    bool simHit = cache.lookup(line);
    ASSERT_EQ(simHit, refHit) << "step " << step << " line " << line;
    if (refHit) {
      list.erase(it);
    } else {
      cache.insert(line);
      if (list.size() == 4) list.pop_back();
    }
    list.insert(list.begin(), line);
  }
}

// Per set, the valid tags oldest first: what fingerprint() promises to
// digest, independent of the absolute use clock.
using Contents = std::vector<std::vector<std::uint64_t>>;

constexpr std::uint64_t kPropSize = 1024;  // 4 sets x 4 ways of 64 B
constexpr int kPropWays = 4;

// A fresh cache holding `contents` in the same recency order, built with a
// use clock unrelated to whatever produced `contents`.
std::uint64_t rebuiltFingerprint(const Contents& contents) {
  CacheLevel fresh(kPropSize, kPropWays, 64);
  for (const auto& set : contents) {
    for (std::uint64_t tag : set) fresh.insert(tag);
  }
  return fresh.fingerprint();
}

void moveToBack(std::vector<std::uint64_t>& list, std::uint64_t line) {
  list.erase(std::find(list.begin(), list.end(), line));
  list.push_back(line);
}

TEST(Cache, IncrementalFingerprintMatchesRebuiltCache) {
  // Seeded random lookup/insert/invalidate/clear/capture/restore streams,
  // mirrored in a reference LRU model. At every fingerprint step the
  // incremental fingerprint must equal that of a fresh cache rebuilt to the
  // model's contents and recency order, and must differ once two entries of
  // one set swap places. Every capture must cover each set the model saw
  // change since the last fingerprint.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CacheLevel cache(kPropSize, kPropWays, 64);
    std::uint64_t sets = cache.sets();
    Contents model(sets);
    Contents modelAtCapture = model;
    std::vector<bool> changed(sets, false);  // since the last fingerprint
    CacheLevel::Image image;
    bool haveImage = false;
    Rng rng(seed);
    for (int step = 0; step < 4000; ++step) {
      std::uint64_t line = rng.nextBelow(40);
      std::uint64_t set = line % sets;
      auto& list = model[set];
      bool present = std::find(list.begin(), list.end(), line) != list.end();
      std::uint64_t op = rng.nextBelow(100);
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step) + " op " + std::to_string(op));
      if (op < 40) {
        ASSERT_EQ(cache.lookup(line), present);
        if (present) {
          moveToBack(list, line);
          changed[set] = true;
        }
      } else if (op < 75) {
        std::uint64_t evicted = cache.insert(line);
        if (present) {
          moveToBack(list, line);
          ASSERT_EQ(evicted, CacheLevel::kNoEviction);
        } else {
          if (list.size() == static_cast<std::size_t>(kPropWays)) {
            ASSERT_EQ(evicted, list.front());
            list.erase(list.begin());
          } else {
            ASSERT_EQ(evicted, CacheLevel::kNoEviction);
          }
          list.push_back(line);
        }
        changed[set] = true;
      } else if (op < 85) {
        ASSERT_EQ(cache.invalidate(line), present);
        if (present) {
          list.erase(std::find(list.begin(), list.end(), line));
          changed[set] = true;
        }
      } else if (op < 86) {
        cache.clear();
        for (std::uint64_t s = 0; s < sets; ++s) {
          if (!model[s].empty()) changed[s] = true;
          model[s].clear();
        }
      } else if (op < 91) {
        cache.captureDirty(image);
        haveImage = true;
        modelAtCapture = model;
        for (std::uint64_t s = 0; s < sets; ++s) {
          if (!changed[s]) continue;
          EXPECT_NE(std::find(image.sets.begin(), image.sets.end(), s),
                    image.sets.end())
              << "changed set " << s << " missing from the capture";
        }
      } else if (op < 94) {
        if (!haveImage) continue;
        cache.restore(image);
        for (std::uint64_t s : image.sets) {
          model[s] = modelAtCapture[s];
          changed[s] = true;
        }
      } else {
        std::uint64_t fp = cache.fingerprint();
        ASSERT_EQ(fp, rebuiltFingerprint(model));
        std::fill(changed.begin(), changed.end(), false);
        for (auto& candidate : model) {
          if (candidate.size() < 2) continue;
          std::swap(candidate[0], candidate[1]);
          EXPECT_NE(fp, rebuiltFingerprint(model));
          std::swap(candidate[0], candidate[1]);
          break;
        }
      }
    }
  }
}

TEST(Cache, FingerprintIgnoresAbsoluteUseClock) {
  // Same contents and recency order, use clocks far apart: equal.
  CacheLevel a(kPropSize, kPropWays, 64);
  CacheLevel b(kPropSize, kPropWays, 64);
  for (std::uint64_t miss = 1000; miss < 1100; ++miss) b.lookup(miss);
  for (std::uint64_t line : {0, 4, 8, 1, 5}) {
    a.insert(line);
    b.insert(line);
    b.lookup(2000 + line);  // a miss: advances only b's clock
  }
  a.lookup(4);
  b.lookup(4);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Cache, FingerprintSeesRecencyOrder) {
  // Same contents, different order within one set: different.
  CacheLevel a(kPropSize, kPropWays, 64);
  CacheLevel b(kPropSize, kPropWays, 64);
  a.insert(0);
  a.insert(4);
  b.insert(4);
  b.insert(0);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b.lookup(4);  // now 0 then 4, as in a
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

}  // namespace
}  // namespace microtools::sim
