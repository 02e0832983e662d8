#pragma once

#include <cstdint>
#include <vector>

namespace microtools::sim {

/// A set-associative cache with true-LRU replacement, operating on line
/// addresses (byte address >> log2(lineBytes)).
///
/// The simulator uses this for L1/L2 (per core) and L3 (per socket). Only
/// presence is tracked — data values never matter for timing.
///
/// For SimBackend's warm-invoke memo the cache also tracks which sets
/// changed since the last fingerprint(), so fingerprinting, capturing and
/// restoring cost O(sets touched) rather than O(cache). The hits()/misses()
/// statistics are outside that contract: restore() does not splice them, and
/// nothing in MemorySystem reads them.
class CacheLevel {
  /// 16 bytes: an empty way holds the tag kNoEviction. Line addresses are
  /// byte addresses divided by the line size, so no real line has that tag.
  struct Way {
    std::uint64_t tag = kNoEviction;
    std::uint64_t lastUse = 0;

    bool valid() const { return tag != kNoEviction; }
  };

 public:
  /// sizeBytes must be a multiple of ways*lineBytes; throws McError
  /// otherwise. The set count may be any positive integer (real LLCs are
  /// frequently non-power-of-two); indexing is modulo the set count.
  CacheLevel(std::uint64_t sizeBytes, int ways, int lineBytes);

  /// Looks up a line and updates LRU on hit. Returns true on hit.
  /// Does NOT insert on miss (the memory system decides when the fill
  /// arrives).
  bool lookup(std::uint64_t lineAddr);

  /// True when present, without touching LRU state.
  bool contains(std::uint64_t lineAddr) const;

  /// Inserts a line, evicting the LRU way if the set is full.
  /// Returns the evicted line address, or kNoEviction when a free way was
  /// available or the line was already present. `lineAddr` must not be
  /// kNoEviction, which marks an empty way.
  std::uint64_t insert(std::uint64_t lineAddr);

  /// Removes a line if present; returns whether it was.
  bool invalidate(std::uint64_t lineAddr);

  /// Drops all content. Costs O(sets that may hold lines), not O(cache).
  void clear();

  std::uint64_t sizeBytes() const { return sizeBytes_; }
  int ways() const { return ways_; }
  int lineBytes() const { return lineBytes_; }
  std::uint64_t sets() const { return sets_; }

  /// Statistics (cumulative since construction/clear).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Digest of the replacement-relevant state: per set, the valid ways
  /// ordered by recency rank. The absolute LRU clock is deliberately
  /// excluded — two caches whose contents and recency *ordering* agree
  /// behave identically forever, which is what warm-invoke memoization
  /// needs to compare across invocations. Incremental: only the sets
  /// changed since the previous call are re-hashed, and the changed-set
  /// list is cleared.
  std::uint64_t fingerprint();

  /// Whole copies of the sets changed since the last fingerprint(), plus
  /// the use clock at capture time.
  struct Image {
    std::vector<std::uint64_t> sets;
    std::vector<Way> ways;  // ways() entries per set, in `sets` order
    std::uint64_t clock = 0;
  };

  /// Copies every set changed since the last fingerprint() into `image`.
  void captureDirty(Image& image) const;

  /// Writes the captured sets back and advances the use clock past every
  /// restored use. LRU compares use times only within one set, so restoring
  /// whole sets next to untouched ones is exact.
  void restore(const Image& image);

  static constexpr std::uint64_t kNoEviction = ~0ull;

 private:
  std::uint64_t setIndex(std::uint64_t lineAddr) const {
    return lineAddr % sets_;
  }
  // The full line address is stored as the tag, so evicted-line reporting
  // needs no reconstruction.
  static std::uint64_t tagOf(std::uint64_t lineAddr) { return lineAddr; }

  Way* setBase(std::uint64_t set) {
    return &ways_storage_[set * static_cast<std::uint64_t>(ways_)];
  }
  const Way* setBase(std::uint64_t set) const {
    return &ways_storage_[set * static_cast<std::uint64_t>(ways_)];
  }
  void markDirty(std::uint64_t set) {
    if (dirtyMark_[set]) return;
    dirtyMark_[set] = 1;
    dirtySets_.push_back(set);
  }
  std::uint64_t hashSet(std::uint64_t set,
                        std::vector<const Way*>& valid) const;

  std::uint64_t sizeBytes_;
  int ways_;
  int lineBytes_;
  std::uint64_t sets_;
  std::vector<Way> ways_storage_;  // sets_ * ways_ entries
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;

  // Incremental fingerprint: the per-set hashes as of the last
  // fingerprint(), their sum, and the sets changed since then.
  std::vector<std::uint64_t> setHash_;
  std::uint64_t setHashSum_ = 0;
  std::vector<std::uint8_t> dirtyMark_;
  std::vector<std::uint64_t> dirtySets_;
};

}  // namespace microtools::sim
