#include "sim/cache.hpp"

#include <algorithm>
#include <bit>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace microtools::sim {

CacheLevel::CacheLevel(std::uint64_t sizeBytes, int ways, int lineBytes)
    : sizeBytes_(sizeBytes), ways_(ways), lineBytes_(lineBytes) {
  if (ways <= 0 || lineBytes <= 0 ||
      !std::has_single_bit(static_cast<unsigned>(lineBytes))) {
    throw McError("cache requires positive ways and power-of-two line size");
  }
  std::uint64_t lines = sizeBytes / static_cast<std::uint64_t>(lineBytes);
  if (lines == 0 || lines % static_cast<std::uint64_t>(ways) != 0) {
    throw McError("cache size must be a multiple of ways * lineBytes");
  }
  sets_ = lines / static_cast<std::uint64_t>(ways);
  ways_storage_.resize(sets_ * static_cast<std::uint64_t>(ways));
  setHash_.assign(sets_, 0);  // empty sets hash as 0
  dirtyMark_.assign(sets_, 0);
}

bool CacheLevel::lookup(std::uint64_t lineAddr) {
  ++clock_;
  std::uint64_t set = setIndex(lineAddr);
  std::uint64_t tag = tagOf(lineAddr);
  Way* base = setBase(set);
  for (int w = 0; w < ways_; ++w) {
    if (base[w].tag == tag) {  // an empty way never matches a line
      base[w].lastUse = clock_;
      markDirty(set);
      ++hits_;
      return true;
    }
  }
  ++misses_;
  return false;
}

bool CacheLevel::contains(std::uint64_t lineAddr) const {
  std::uint64_t set = setIndex(lineAddr);
  std::uint64_t tag = tagOf(lineAddr);
  const Way* base = setBase(set);
  for (int w = 0; w < ways_; ++w) {
    if (base[w].tag == tag) return true;
  }
  return false;
}

std::uint64_t CacheLevel::insert(std::uint64_t lineAddr) {
  ++clock_;
  std::uint64_t set = setIndex(lineAddr);
  std::uint64_t tag = tagOf(lineAddr);
  Way* base = setBase(set);
  markDirty(set);
  for (int w = 0; w < ways_; ++w) {
    if (base[w].tag == tag) {
      base[w].lastUse = clock_;  // already present: refresh
      return kNoEviction;
    }
  }
  // Prefer an invalid way; otherwise evict the LRU valid way.
  int victim = -1;
  for (int w = 0; w < ways_; ++w) {
    if (!base[w].valid()) {
      victim = w;
      break;
    }
  }
  if (victim == -1) {
    victim = 0;
    for (int w = 1; w < ways_; ++w) {
      if (base[w].lastUse < base[victim].lastUse) victim = w;
    }
  }
  std::uint64_t evicted = base[victim].tag;  // kNoEviction if it was empty
  base[victim].tag = tag;
  base[victim].lastUse = clock_;
  return evicted;
}

bool CacheLevel::invalidate(std::uint64_t lineAddr) {
  std::uint64_t set = setIndex(lineAddr);
  std::uint64_t tag = tagOf(lineAddr);
  Way* base = setBase(set);
  for (int w = 0; w < ways_; ++w) {
    if (base[w].tag == tag) {
      base[w].tag = kNoEviction;
      markDirty(set);
      return true;
    }
  }
  return false;
}

void CacheLevel::clear() {
  for (std::uint64_t set = 0; set < sets_; ++set) {
    // Only a set that hashed non-empty at the last fingerprint() or changed
    // since can hold lines; skipping the rest keeps clear() off the cold
    // bulk of a large cache.
    if (setHash_[set] == 0 && !dirtyMark_[set]) continue;
    Way* base = setBase(set);
    for (int w = 0; w < ways_; ++w) {
      if (!base[w].valid()) continue;
      base[w].tag = kNoEviction;
      markDirty(set);
    }
  }
  clock_ = 0;
  hits_ = 0;
  misses_ = 0;
}

std::uint64_t CacheLevel::hashSet(std::uint64_t set,
                                  std::vector<const Way*>& valid) const {
  const Way* base = setBase(set);
  valid.clear();
  for (int w = 0; w < ways_; ++w) {
    if (base[w].valid()) valid.push_back(&base[w]);
  }
  if (valid.empty()) return 0;  // empty sets hash as absent
  // Recency order (oldest first): the victim scan and every future hit
  // depend only on this ordering, never on the absolute lastUse values.
  std::sort(valid.begin(), valid.end(), [](const Way* a, const Way* b) {
    return a->lastUse < b->lastUse;
  });
  hash::Fnv1a h;
  h.u64(set).u64(valid.size());
  for (const Way* w : valid) h.u64(w->tag);
  // The fingerprint sums the per-set hashes.
  return hash::mix64(h.value()) | 1;  // odd: only an empty set hashes as 0
}

std::uint64_t CacheLevel::fingerprint() {
  std::vector<const Way*> valid;
  valid.reserve(static_cast<std::size_t>(ways_));
  for (std::uint64_t set : dirtySets_) {
    std::uint64_t fresh = hashSet(set, valid);
    setHashSum_ += fresh - setHash_[set];
    setHash_[set] = fresh;
    dirtyMark_[set] = 0;
  }
  dirtySets_.clear();
  return hash::Fnv1a()
      .u64(sets_)
      .u64(static_cast<std::uint64_t>(ways_))
      .u64(setHashSum_)
      .value();
}

void CacheLevel::captureDirty(Image& image) const {
  std::size_t ways = static_cast<std::size_t>(ways_);
  image.sets = dirtySets_;
  image.ways.resize(dirtySets_.size() * ways);
  for (std::size_t i = 0; i < dirtySets_.size(); ++i) {
    const Way* base = setBase(dirtySets_[i]);
    std::copy(base, base + ways, image.ways.begin() + i * ways);
  }
  image.clock = clock_;
}

void CacheLevel::restore(const Image& image) {
  std::size_t ways = static_cast<std::size_t>(ways_);
  for (std::size_t i = 0; i < image.sets.size(); ++i) {
    auto from = image.ways.begin() + i * ways;
    std::copy(from, from + ways, setBase(image.sets[i]));
    markDirty(image.sets[i]);
  }
  clock_ = std::max(clock_, image.clock);
}

}  // namespace microtools::sim
