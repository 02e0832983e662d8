#include "sim/memsys.hpp"

#include <algorithm>
#include <bit>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace microtools::sim {

std::size_t FillTable::slotOf(std::uint64_t line) const {
  if (slots_.empty()) return kNone;
  std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(line);; i = (i + 1) & mask) {
    if (slots_[i].line == line) return i;
    if (slots_[i].line == kEmpty) return kNone;
  }
}

std::optional<std::uint64_t> FillTable::find(std::uint64_t line) const {
  std::size_t i = slotOf(line);
  if (i == kNone) return std::nullopt;
  return slots_[i].arrival + base_;
}

void FillTable::set(std::uint64_t line, std::uint64_t arrival) {
  // Keep the load factor at most 3/4 so probe runs stay short.
  if ((size_ + 1) * 4 > slots_.size() * 3) grow();
  std::size_t mask = slots_.size() - 1;
  std::size_t i = home(line);
  while (slots_[i].line != kEmpty && slots_[i].line != line) {
    i = (i + 1) & mask;
  }
  if (slots_[i].line == kEmpty) ++size_;
  slots_[i] = Slot{line, arrival - base_};
}

bool FillTable::erase(std::uint64_t line) {
  std::size_t hole = slotOf(line);
  if (hole == kNone) return false;
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless its home lies cyclically in (hole, j], where it would
  // become unreachable. No tombstones, so lookups stay short forever.
  std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots_[j].line != kEmpty;
       j = (j + 1) & mask) {
    std::size_t h = home(slots_[j].line);
    bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (stays) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = Slot{};
  --size_;
  return true;
}

void FillTable::clear() {
  if (size_ == 0) return;
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

void FillTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  homeShift_ = 64 - std::countr_zero(slots_.size());
  size_ = 0;
  std::uint64_t base = base_;
  base_ = 0;
  for (const Slot& slot : old) {
    if (slot.line != kEmpty) set(slot.line, slot.arrival + base);
  }
}

std::uint64_t FillTable::fingerprint(std::uint64_t clock) const {
  std::uint64_t sum = 0;
  for (const Slot& slot : slots_) {
    if (slot.line == kEmpty) continue;
    std::uint64_t arrival = slot.arrival + base_;
    std::uint64_t rel = arrival > clock ? arrival - clock : 0;
    sum += hash::mix64(hash::mix64(slot.line) ^ rel);
  }
  return sum;
}

MemorySystem::MemorySystem(const MachineConfig& config) : config_(config) {
  if (config_.sockets <= 0 || config_.coresPerSocket <= 0) {
    throw McError("machine must have at least one socket and core");
  }
  for (int c = 0; c < config_.totalCores(); ++c) {
    cores_.emplace_back(
        CacheLevel(config_.l1.sizeBytes, config_.l1.ways, config_.lineBytes),
        CacheLevel(config_.l2.sizeBytes, config_.l2.ways, config_.lineBytes));
  }
  for (int s = 0; s < config_.sockets; ++s) {
    Socket socket{
        {std::vector<std::uint64_t>(
             static_cast<std::size_t>(config_.memChannelsPerSocket), 0),
         0},
        CacheLevel(config_.l3.sizeBytes, config_.l3.ways, config_.lineBytes)};
    sockets_.push_back(std::move(socket));
  }
  l3LatencyCycles_ = config_.nsToCoreCycles(config_.l3.latencyNs);
  memLatencyCycles_ = config_.nsToCoreCycles(config_.memLatencyNs);
  qpiLatencyCycles_ = config_.nsToCoreCycles(20.0);
  channelOccupancy_ = std::max<std::uint64_t>(1, config_.channelOccupancyCycles());
  // The L3 runs in the uncore clock domain: its fill occupancy is constant
  // in wall time, so the core-cycle value scales with the core clock
  // (Figure 13: L3 timings are frequency independent in rdtsc cycles).
  l3FillCycles_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(config_.l3FillCycles * config_.coreGHz /
                                        config_.nominalGHz +
                                    0.5));
}

int MemorySystem::socketOfCore(int coreId) const {
  if (coreId < 0 || coreId >= config_.totalCores()) {
    throw McError("core id out of range: " + std::to_string(coreId));
  }
  return coreId / config_.coresPerSocket;
}

void MemorySystem::setHomeSocket(std::uint64_t base, std::uint64_t size,
                                 int socket) {
  if (socket < 0 || socket >= config_.sockets) {
    throw McError("home socket out of range: " + std::to_string(socket));
  }
  homeRanges_.push_back({base, size, socket});
}

int MemorySystem::homeSocket(std::uint64_t addr) const {
  for (const HomeRange& r : homeRanges_) {
    if (addr >= r.base && addr - r.base < r.size) return r.socket;
  }
  return 0;
}

MemLevel MemorySystem::peekLevel(int coreId, std::uint64_t addr) const {
  const CorePrivate& core = cores_[static_cast<std::size_t>(coreId)];
  std::uint64_t line = lineOf(addr);
  if (core.l1.contains(line)) return MemLevel::L1;
  if (core.l2.contains(line) || core.pendingFills.contains(line)) {
    return MemLevel::L2;
  }
  const Socket& socket = sockets_[static_cast<std::size_t>(socketOfCore(coreId))];
  if (socket.l3.contains(line)) return MemLevel::L3;
  return MemLevel::Ram;
}

std::uint64_t MemorySystem::dramFetch(Socket& socket,
                                      std::uint64_t earliestStart,
                                      bool remote) {
  auto it = std::min_element(socket.channelFree.begin(),
                             socket.channelFree.end());
  std::uint64_t start = std::max(earliestStart, *it);
  *it = start + channelOccupancy_;
  std::uint64_t arrival = start + memLatencyCycles_ + channelOccupancy_;
  if (remote) arrival += qpiLatencyCycles_;
  return arrival;
}

void MemorySystem::maybePrefetch(int coreId, std::uint64_t missLine,
                                 std::uint64_t cycle) {
  CorePrivate& core = cores_[static_cast<std::size_t>(coreId)];
  if (missLine == core.lastMissLine + 1) {
    ++core.streak;
  } else if (missLine != core.lastMissLine) {
    core.streak = 1;
  }
  core.lastMissLine = missLine;
  if (core.streak < config_.prefetchTrigger) return;

  int localSocket = socketOfCore(coreId);
  Socket& l3Socket = sockets_[static_cast<std::size_t>(localSocket)];
  std::uint64_t linesPerPage = 4096 / static_cast<std::uint64_t>(config_.lineBytes);
  for (int d = 1; d <= config_.prefetchDegree; ++d) {
    std::uint64_t line = missLine + static_cast<std::uint64_t>(d);
    // Hardware streamers do not prefetch across a 4 KiB page boundary (the
    // physical mapping of the next page is unknown); the stream re-arms
    // after the boundary. This caps single-stream bandwidth realistically.
    if (line / linesPerPage != missLine / linesPerPage) break;
    if (core.l2.contains(line) || core.pendingFills.contains(line)) continue;
    std::uint64_t arrival;
    if (l3Socket.l3.lookup(line)) {
      std::uint64_t start = std::max(cycle, l3Socket.l3PortFree);
      l3Socket.l3PortFree =
          start + l3FillCycles_;
      arrival = start + l3LatencyCycles_;
    } else {
      std::uint64_t byteAddr =
          line * static_cast<std::uint64_t>(config_.lineBytes);
      int home = homeSocket(byteAddr);
      arrival = dramFetch(sockets_[static_cast<std::size_t>(home)],
                          cycle + l3LatencyCycles_, home != localSocket);
      l3Socket.l3.insert(line);
    }
    core.l2.insert(line);
    core.pendingFills.set(line, arrival);
    ++prefetches_;
  }
}

AccessResult MemorySystem::fetchLine(int coreId, std::uint64_t lineAddr,
                                     std::uint64_t cycle) {
  CorePrivate& core = cores_[static_cast<std::size_t>(coreId)];
  AccessResult result;

  std::uint64_t l1Latency = static_cast<std::uint64_t>(config_.l1.latencyCycles);
  if (core.l1.lookup(lineAddr)) {
    result.level = MemLevel::L1;
    result.completeCycle = cycle + l1Latency;
    return result;
  }

  std::uint64_t l2Latency = static_cast<std::uint64_t>(config_.l2.latencyCycles);
  // Train the stream prefetcher on every L1 miss — including accesses that
  // hit lines already prefetched into L2 — so a stream keeps advancing
  // instead of stalling at the end of each prefetch window.
  maybePrefetch(coreId, lineAddr, cycle);
  // A line still in flight from the prefetcher counts as an L2 hit that may
  // have to wait for the fill to arrive.
  if (std::optional<std::uint64_t> pending = core.pendingFills.find(lineAddr)) {
    std::uint64_t arrival = *pending;
    if (arrival <= cycle) {
      core.pendingFills.erase(lineAddr);
    } else {
      result.level = MemLevel::L2;
      result.completeCycle = std::max(cycle + l1Latency + l2Latency,
                                      arrival + l1Latency);
      core.l1.insert(lineAddr);
      return result;
    }
  }

  if (core.l2.lookup(lineAddr)) {
    result.level = MemLevel::L2;
    std::uint64_t start = std::max(cycle, core.l2PortFree);
    core.l2PortFree = start + static_cast<std::uint64_t>(config_.l2FillCycles);
    result.completeCycle = start + l1Latency + l2Latency;
    core.l1.insert(lineAddr);
    return result;
  }

  // L2 demand miss: consult the socket L3.
  int localSocket = socketOfCore(coreId);
  Socket& socket = sockets_[static_cast<std::size_t>(localSocket)];
  if (socket.l3.lookup(lineAddr)) {
    result.level = MemLevel::L3;
    std::uint64_t start = std::max(cycle, socket.l3PortFree);
    socket.l3PortFree =
        start + l3FillCycles_;
    result.completeCycle = start + l1Latency + l2Latency + l3LatencyCycles_;
  } else {
    std::uint64_t byteAddr =
        lineAddr * static_cast<std::uint64_t>(config_.lineBytes);
    int home = homeSocket(byteAddr);
    result.level = MemLevel::Ram;
    result.completeCycle =
        dramFetch(sockets_[static_cast<std::size_t>(home)],
                  cycle + l1Latency + l2Latency + l3LatencyCycles_,
                  home != localSocket);
    socket.l3.insert(lineAddr);
  }
  core.l2.insert(lineAddr);
  core.l1.insert(lineAddr);
  return result;
}

AccessResult MemorySystem::access(int coreId, std::uint64_t addr, int bytes,
                                  std::uint64_t cycle) {
  if (coreId < 0 || coreId >= config_.totalCores()) {
    throw McError("core id out of range: " + std::to_string(coreId));
  }
  std::uint64_t firstLine = lineOf(addr);
  std::uint64_t lastLine = lineOf(addr + static_cast<std::uint64_t>(bytes) - 1);
  AccessResult result = fetchLine(coreId, firstLine, cycle);
  levelCounts_[static_cast<int>(result.level)]++;
  if (lastLine != firstLine) {
    AccessResult second = fetchLine(coreId, lastLine, cycle);
    result.completeCycle =
        std::max(result.completeCycle, second.completeCycle) +
        static_cast<std::uint64_t>(config_.splitLinePenalty);
    result.level = std::max(result.level, second.level);
    result.splitLine = true;
  }
  return result;
}

AccessResult MemorySystem::load(int coreId, std::uint64_t addr, int bytes,
                                std::uint64_t cycle) {
  return access(coreId, addr, bytes, cycle);
}

AccessResult MemorySystem::store(int coreId, std::uint64_t addr, int bytes,
                                 std::uint64_t cycle) {
  // Write-allocate: the RFO follows the same path as a load. The returned
  // completion is the ownership time (fill-buffer release), not a pipeline
  // stall.
  return access(coreId, addr, bytes, cycle);
}

void MemorySystem::touch(int coreId, std::uint64_t addr, std::uint64_t bytes) {
  CorePrivate& core = cores_[static_cast<std::size_t>(coreId)];
  Socket& socket = sockets_[static_cast<std::size_t>(socketOfCore(coreId))];
  std::uint64_t first = lineOf(addr);
  std::uint64_t last = lineOf(addr + (bytes ? bytes - 1 : 0));
  for (std::uint64_t line = first; line <= last; ++line) {
    socket.l3.insert(line);
    core.l2.insert(line);
    core.l1.insert(line);
  }
}

void MemorySystem::clearCaches() {
  for (CorePrivate& core : cores_) {
    core.l1.clear();
    core.l2.clear();
    core.l2PortFree = 0;
    core.lastMissLine = ~0ull;
    core.streak = 0;
    core.pendingFills.clear();
  }
  for (Socket& socket : sockets_) socket.l3.clear();
  for (auto& c : levelCounts_) c = 0;
  prefetches_ = 0;
}

void MemorySystem::reset() {
  clearCaches();
  for (Socket& socket : sockets_) {
    std::fill(socket.channelFree.begin(), socket.channelFree.end(), 0);
    socket.l3PortFree = 0;
  }
  homeRanges_.clear();
}

std::uint64_t MemorySystem::levelCount(MemLevel level) const {
  return levelCounts_[static_cast<int>(level)];
}

std::uint64_t MemorySystem::stateFingerprint(std::uint64_t clock) {
  // Busy-times in the past are equivalent to "free now": every consumer
  // computes max(cycle, free), so any value <= clock behaves like clock.
  auto rel = [clock](std::uint64_t t) { return t > clock ? t - clock : 0; };
  hash::Fnv1a h;
  h.u64(cores_.size()).u64(sockets_.size());
  for (CorePrivate& core : cores_) {
    h.u64(core.l1.fingerprint()).u64(core.l2.fingerprint());
    h.u64(rel(core.l2PortFree));
    h.u64(core.lastMissLine);
    h.u64(static_cast<std::uint64_t>(core.streak));
    // Arrived-but-unconsumed fills still gate maybePrefetch via their
    // table presence, so they are hashed (with relative arrival 0) rather
    // than dropped.
    h.u64(core.pendingFills.size()).u64(core.pendingFills.fingerprint(clock));
  }
  for (Socket& socket : sockets_) {
    h.u64(socket.l3.fingerprint());
    h.u64(rel(socket.l3PortFree));
    h.u64(socket.channelFree.size());
    for (std::uint64_t f : socket.channelFree) h.u64(rel(f));
  }
  h.u64(homeRanges_.size());
  for (const HomeRange& r : homeRanges_) {
    h.u64(r.base).u64(r.size).u64(static_cast<std::uint64_t>(r.socket));
  }
  return h.value();
}

MemorySystem::Snapshot MemorySystem::snapshotTouched() const {
  Snapshot snapshot;
  snapshot.cores.resize(cores_.size());
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    Snapshot::Core& out = snapshot.cores[c];
    cores_[c].l1.captureDirty(out.l1);
    cores_[c].l2.captureDirty(out.l2);
    out.timing = static_cast<const CoreTiming&>(cores_[c]);
  }
  snapshot.sockets.resize(sockets_.size());
  for (std::size_t s = 0; s < sockets_.size(); ++s) {
    Snapshot::Sock& out = snapshot.sockets[s];
    sockets_[s].l3.captureDirty(out.l3);
    out.timing = static_cast<const SocketTiming&>(sockets_[s]);
  }
  return snapshot;
}

void MemorySystem::restore(const Snapshot& snapshot) {
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    const Snapshot::Core& in = snapshot.cores[c];
    cores_[c].l1.restore(in.l1);
    cores_[c].l2.restore(in.l2);
    static_cast<CoreTiming&>(cores_[c]) = in.timing;
  }
  for (std::size_t s = 0; s < sockets_.size(); ++s) {
    const Snapshot::Sock& in = snapshot.sockets[s];
    sockets_[s].l3.restore(in.l3);
    static_cast<SocketTiming&>(sockets_[s]) = in.timing;
  }
}

void MemorySystem::creditReplayedAccesses(const std::uint64_t levelDeltas[5],
                                          std::uint64_t prefetchDelta) {
  for (int i = 0; i < 5; ++i) levelCounts_[i] += levelDeltas[i];
  prefetches_ += prefetchDelta;
}

void MemorySystem::translateInFlight(std::uint64_t delta) {
  for (CorePrivate& core : cores_) {
    core.l2PortFree += delta;
    core.pendingFills.shift(delta);
  }
  for (Socket& socket : sockets_) {
    socket.l3PortFree += delta;
    for (std::uint64_t& f : socket.channelFree) f += delta;
  }
}

}  // namespace microtools::sim
