#include "launcher/remote_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>

#include "launcher/explore.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"

namespace microtools::launcher {

RemoteResultStore::RemoteResultStore(const std::string& address,
                                     RemoteOptions options)
    : options_(std::move(options)) {
  if (options_.worker.empty()) {
    options_.worker = "w" + std::to_string(::getpid());
  }
  if (options_.jobs < 1) options_.jobs = 1;
  if (options_.pollMs < 1) options_.pollMs = 1;
  socket_ = net::connectTo(address);
  wire::Message hello;
  hello.verb = "hello";
  hello.fields["version"] = std::to_string(wire::kVersion);
  hello.fields["worker"] = options_.worker;
  hello.fields["jobs"] = std::to_string(options_.jobs);
  wire::sendMessage(socket_, hello);
  std::optional<wire::Message> welcome = wire::recvMessage(socket_);
  if (!welcome) throw McError("serve daemon closed during handshake");
  if (welcome->verb == "error") {
    throw McError("serve daemon rejected handshake: " +
                  welcome->get("message"));
  }
  if (welcome->verb != "welcome" ||
      welcome->getInt("version") != wire::kVersion) {
    throw McError("serve daemon spoke an unexpected handshake");
  }
}

RemoteResultStore::~RemoteResultStore() = default;

wire::Message RemoteResultStore::call(const wire::Message& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  wire::sendMessage(socket_, request);
  std::optional<wire::Message> response = wire::recvMessage(socket_);
  if (!response) {
    throw McError("serve daemon closed the connection (request '" +
                  request.verb + "')");
  }
  if (response->verb == "error") {
    throw McError("serve daemon: " + response->get("message"));
  }
  return std::move(*response);
}

std::optional<VariantResult> RemoteResultStore::load(const std::string& key) {
  wire::Message probe;
  probe.verb = "probe";
  probe.fields["key"] = key;
  wire::Message response = call(probe);
  std::lock_guard<std::mutex> lock(mutex_);
  if (response.verb != "hit") {
    ++telemetry_.misses;
    return std::nullopt;
  }
  ++telemetry_.hits;
  return wire::decodeResult(response.get("result"));
}

void RemoteResultStore::store(const std::string& key,
                              const VariantResult& result) {
  if (result.status != "ok") return;  // same contract as MeasurementCache
  wire::Message message;
  message.verb = "store";
  message.fields["key"] = key;
  message.fields["result"] = wire::encodeResult(result);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = leases_.find(key);
    if (it != leases_.end()) {
      message.fields["lease"] = it->second;
      leases_.erase(it);
    }
  }
  call(message);
}

void RemoteResultStore::begin(const std::string& campaignId,
                              std::size_t variantCount) {
  wire::Message message;
  message.verb = "begin";
  message.fields["campaign"] = campaignId;
  message.fields["variants"] = std::to_string(variantCount);
  message.fields["worker"] = options_.worker;
  message.fields["jobs"] = std::to_string(options_.jobs);
  wire::Message response = call(message);
  campaignId_ = campaignId;
  ordinal_ = response.has("ordinal")
                 ? static_cast<std::size_t>(
                       std::max<std::int64_t>(0, response.getInt("ordinal")))
                 : 0;
}

bool RemoteResultStore::acquire(const std::string& key, VariantResult& out) {
  wire::Message message;
  message.verb = "acquire";
  message.fields["campaign"] = campaignId_;
  message.fields["key"] = key;
  message.fields["sequence"] = std::to_string(out.sequence);
  message.fields["round"] = std::to_string(out.round);
  message.fields["name"] = out.name;
  for (;;) {
    wire::Message response = call(message);
    if (response.verb == "hit") {
      VariantResult decoded = wire::decodeResult(response.get("result"));
      std::lock_guard<std::mutex> lock(mutex_);
      ++telemetry_.hits;
      out = std::move(decoded);
      return true;
    }
    if (response.verb == "lease") {
      std::lock_guard<std::mutex> lock(mutex_);
      ++telemetry_.misses;
      leases_[key] = response.get("lease");
      return false;
    }
    if (response.verb != "wait" && response.verb != "defer") {
      throw McError("serve daemon answered acquire with '" + response.verb +
                    "'");
    }
    // Leased to a live peer (wait) or this worker is at its lease cap
    // (defer): sleep WITHOUT the socket mutex so pool threads can publish
    // the results that will unblock us.
    int retryMs = options_.pollMs;
    if (response.has("retry_ms")) {
      retryMs = std::max(retryMs, static_cast<int>(
                                      response.getInt("retry_ms")));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(retryMs));
  }
}

void RemoteResultStore::publish(const std::string& key,
                                const VariantResult& result) {
  store(key, result);
}

void RemoteResultStore::forwardRow(const std::string& key,
                                   const VariantResult& row) {
  wire::Message message;
  message.verb = "row";
  message.fields["campaign"] = campaignId_;
  message.fields["key"] = key;
  message.fields["result"] = wire::encodeResult(row);
  {
    // A failed measurement never goes through store(), so the lease (if
    // any) rides along with the row and is released server-side there.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = leases_.find(key);
    if (it != leases_.end()) {
      message.fields["lease"] = it->second;
      leases_.erase(it);
    }
  }
  call(message);
}

CacheTelemetry RemoteResultStore::telemetry() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return telemetry_;
}

std::size_t shardOffset(std::size_t ordinal, std::size_t count) {
  if (count == 0) return 0;
  // Van der Corput (bit-reversal) staggering: ordinal k maps to the binary
  // fraction 0.b0b1b2... of k's reversed bits, so successive workers start
  // at 0, 1/2, 1/4, 3/4, 1/8, ... of the variant space — each new ordinal
  // bisects the largest untouched gap, whatever the fleet size turns out
  // to be (and a 2^k fleet partitions the space exactly evenly).
  std::uint32_t bits = static_cast<std::uint32_t>(ordinal);
  bits = ((bits & 0x55555555u) << 1) | ((bits >> 1) & 0x55555555u);
  bits = ((bits & 0x33333333u) << 2) | ((bits >> 2) & 0x33333333u);
  bits = ((bits & 0x0f0f0f0fu) << 4) | ((bits >> 4) & 0x0f0f0f0fu);
  bits = ((bits & 0x00ff00ffu) << 8) | ((bits >> 8) & 0x00ff00ffu);
  bits = (bits << 16) | (bits >> 16);
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(bits) * count) >> 32);
}

std::string campaignIdFor(const std::string& backendId,
                          const std::vector<std::string>& keys) {
  hash::Fnv1a h;
  h.str(backendId);
  h.u64(keys.size());
  for (const std::string& key : keys) h.str(key);
  return h.hex();
}

std::shared_ptr<RemoteResultStore> bindRemoteCampaign(
    const std::string& address, const RemoteOptions& options,
    const std::vector<CampaignVariant>& variants,
    const std::string& backendId, const KernelRequest& request,
    CampaignOptions& campaign) {
  // A lookup that the daemon defers at this worker's lease cap would strand
  // a partial compile batch whose leases only measurement can release, so
  // connect mode compiles inline. The cap, max(2, 2 * jobs), is below the
  // default batch of 8.
  if (campaign.compileJobs > 0) {
    log::warn("--connect compiles inline: --compile-jobs is ignored, because "
              "a partial compile batch would hold leases the daemon's lease "
              "cap needs back");
    campaign.compileJobs = 0;
  }
  // Key fields only: the hook-free copy both avoids self-capture and keeps
  // the keys identical to a local MeasurementCache run, so a daemon cache
  // directory and a single-process cache directory are interchangeable.
  CampaignOptions keyOptions = campaign;
  keyOptions.cacheLookup = nullptr;
  keyOptions.cacheStore = nullptr;
  keyOptions.rowObserver = nullptr;
  keyOptions.completed.clear();

  auto keyByName = std::make_shared<std::map<std::string, std::string>>();
  auto seqByName = std::make_shared<std::map<std::string, std::size_t>>();
  std::vector<std::string> orderedKeys;
  orderedKeys.reserve(variants.size());
  for (const CampaignVariant& v : variants) {
    std::string key = cacheKey(v, keyOptions, backendId, request);
    orderedKeys.push_back(key);
    (*seqByName)[v.name] = orderedKeys.size() - 1;
    (*keyByName)[v.name] = std::move(key);
  }

  auto store = std::make_shared<RemoteResultStore>(address, options);
  store->begin(campaignIdFor(backendId, orderedKeys), variants.size());

  auto keyOf = [keyByName](const CampaignVariant& v) -> const std::string& {
    auto it = keyByName->find(v.name);
    if (it == keyByName->end()) {
      throw McError("variant '" + v.name +
                    "' was not announced to the serve daemon");
    }
    return it->second;
  };
  campaign.cacheLookup = [store, keyOf](const CampaignVariant& v,
                                        VariantResult& out) {
    return store->acquire(keyOf(v), out);
  };
  campaign.cacheStore = [store, keyOf](const CampaignVariant& v,
                                       const VariantResult& result) {
    store->publish(keyOf(v), result);
  };
  campaign.rowObserver = [store, keyOf, seqByName](const CampaignVariant& v,
                                                   const VariantResult& row) {
    // The worker's local sequence is its arrival order, which a staggered
    // traversal permutes; the canonical merge needs the campaign-wide
    // index, so rewrite it before the row goes over the wire.
    VariantResult canonical = row;
    auto it = seqByName->find(v.name);
    if (it != seqByName->end()) canonical.sequence = it->second;
    store->forwardRow(keyOf(v), canonical);
  };
  return store;
}

}  // namespace microtools::launcher
