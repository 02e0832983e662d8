#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "launcher/result_store.hpp"
#include "launcher/wire.hpp"
#include "support/socket.hpp"

namespace microtools::launcher {

/// Client-side knobs of one worker's connection to a `microtools serve`
/// daemon.
struct RemoteOptions {
  std::string worker;  ///< name reported in the daemon's telemetry ("": pid)
  int jobs = 1;        ///< this worker's measurement threads (sizes the
                       ///< daemon's per-worker lease backpressure window)
  int pollMs = 20;     ///< floor for wait/defer retry sleeps
};

/// `ResultStore` over the wire: the client half of the campaign service.
/// load/store satisfy the plain interface (cache probe / cache write); the
/// campaign API (begin/acquire/publish/forwardRow) adds the lease protocol
/// sharded workers use to dedupe work against the shared store.
///
/// Thread-safety: one socket, one in-flight request — every round trip is
/// serialized on an internal mutex, which is never held while sleeping
/// between acquire polls, so pool threads publish results while the
/// campaign thread waits for backpressure to clear.
class RemoteResultStore : public ResultStore {
 public:
  /// Connects and performs the hello/welcome version handshake; throws
  /// McError on connection failure or version mismatch.
  explicit RemoteResultStore(const std::string& address,
                             RemoteOptions options = {});
  ~RemoteResultStore() override;

  const std::string& workerName() const { return options_.worker; }

  /// Plain ResultStore: a probe never takes a lease.
  std::optional<VariantResult> load(const std::string& key) override;
  void store(const std::string& key, const VariantResult& result) override;

  /// Announces a campaign: its deterministic id (hash of backend identity +
  /// ordered variant keys) and the variant count the daemon should expect
  /// before it can finalize the canonical CSV/report.
  void begin(const std::string& campaignId, std::size_t variantCount);

  /// This worker's 0-based joining order for the announced campaign, as
  /// assigned by the daemon. Clients use it to stagger their traversal so
  /// fleet members lease disjoint stretches of the variant space.
  std::size_t ordinal() const { return ordinal_; }

  /// Resolves `key` to either a terminal result (returns true, `out`
  /// filled — a cache hit or another worker's completed row) or a lease
  /// owned by this worker (returns false: measure it, then publish +
  /// forwardRow). Blocks politely while the variant is leased elsewhere
  /// (`wait`) or while this worker is at its lease cap (`defer`).
  bool acquire(const std::string& key, VariantResult& out);

  /// Publishes a measured result against the lease acquire() took.
  void publish(const std::string& key, const VariantResult& result);

  /// Forwards one canonical campaign row (every terminal row, failures
  /// included — this is also what releases a lease held on `key` when the
  /// measurement could not produce a cacheable result).
  void forwardRow(const std::string& key, const VariantResult& row);

  /// Client-side view: hits = acquires answered inline, misses = leases
  /// this worker had to measure.
  CacheTelemetry telemetry() const;

 private:
  wire::Message call(const wire::Message& request);

  RemoteOptions options_;
  std::string campaignId_;
  std::size_t ordinal_ = 0;
  mutable std::mutex mutex_;
  net::Socket socket_;
  std::map<std::string, std::string> leases_;  ///< key -> lease id
  CacheTelemetry telemetry_;
};

/// Deterministic campaign identity: FNV-1a over the backend id and the
/// ordered variant keys. Workers sharding one campaign compute identical
/// ids because generation itself is bit-identical across processes.
std::string campaignIdFor(const std::string& backendId,
                          const std::vector<std::string>& keys);

/// Where worker `ordinal` should start its rotated traversal of `count`
/// variants. Van der Corput (bit-reversal) staggering spreads any fleet
/// size across the variant space without the fleet size being known up
/// front, so workers lease disjoint stretches instead of colliding in
/// lockstep; a power-of-two fleet partitions the space exactly evenly.
std::size_t shardOffset(std::size_t ordinal, std::size_t count);

/// Binds an unmodified CampaignRunner to a serve daemon: computes every
/// variant's cache key, announces the campaign, and installs the remote
/// lookup (acquire) / store (publish) hooks plus the row observer that
/// streams every terminal row to the daemon's canonical merge. Forces
/// compileJobs = 0 (with a warning): batching compiles would hold leases
/// that the daemon's per-worker cap needs released. Returns the connected
/// store so the caller can read telemetry after the run.
std::shared_ptr<RemoteResultStore> bindRemoteCampaign(
    const std::string& address, const RemoteOptions& options,
    const std::vector<CampaignVariant>& variants,
    const std::string& backendId, const KernelRequest& request,
    CampaignOptions& campaign);

}  // namespace microtools::launcher
