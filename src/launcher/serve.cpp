#include "launcher/serve.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "launcher/campaign.hpp"
#include "launcher/explore.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace microtools::launcher {

namespace fs = std::filesystem;

namespace {

wire::Message okMessage() {
  wire::Message m;
  m.verb = "ok";
  return m;
}

wire::Message errorMessage(const std::string& text) {
  wire::Message m;
  m.verb = "error";
  m.fields["message"] = text;
  return m;
}

wire::Message hitMessage(const VariantResult& result) {
  wire::Message m;
  m.verb = "hit";
  m.fields["result"] = wire::encodeResult(result);
  return m;
}

}  // namespace

ServeServer::ServeServer(ServeOptions options) : options_(std::move(options)) {
  if (options_.leaseDeadlineMs < 1) {
    throw McError("serve requires --lease-deadline-ms >= 1");
  }
  if (options_.maxLeasesPerWorker < 0) {
    throw McError("serve requires --max-leases >= 0");
  }
}

ServeServer::~ServeServer() {
  requestStop();
  wait();
}

void ServeServer::start() {
  cache_ = std::make_unique<MeasurementCache>(options_.cacheDir);
  listener_ = net::Listener(options_.listen);
  boundAddress_ = listener_.boundSpec();
  acceptThread_ = std::thread(&ServeServer::acceptLoop, this);
}

void ServeServer::acceptLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    net::Socket socket;
    try {
      socket = listener_.accept(200);
    } catch (const McError&) {
      return;  // listener shut down by requestStop
    }
    if (!socket.valid()) continue;
    std::lock_guard<std::mutex> lock(threadsMutex_);
    int connId = nextConnId_++;
    auto owned = std::make_unique<net::Socket>(std::move(socket));
    net::Socket* raw = owned.get();
    sockets_.emplace(connId, std::move(owned));
    connectionThreads_.emplace_back(&ServeServer::serveConnection, this,
                                    connId, raw);
  }
}

void ServeServer::serveConnection(int connId, net::Socket* socket) {
  try {
    handleConnection(connId, socket);
  } catch (const McError& e) {
    // Torn frame, oversized length prefix, or a peer that vanished
    // mid-message: drop the connection. Its leases are re-issued below.
    log::info("serve connection " + std::to_string(connId) +
              " dropped: " + e.message());
  }
  // The peer must observe EOF once this thread is done with the socket
  // (every exit path, including a rejected handshake, funnels through
  // here); the fd itself stays owned by sockets_ until wait() reaps it.
  socket->shutdown();
  std::lock_guard<std::mutex> lock(mutex_);
  releaseConnectionLeases(connId);
  connections_.erase(connId);
}

void ServeServer::handleConnection(int connId, net::Socket* socket) {
  // Handshake: the first frame must be a matching-version hello. Anything
  // else gets one error frame, then the connection closes — a client from
  // another protocol version must fail loudly, not mysteriously.
  std::optional<wire::Message> hello = wire::recvMessage(*socket);
  if (!hello) return;
  if (hello->verb != "hello" ||
      hello->getInt("version") != wire::kVersion) {
    wire::sendMessage(
        *socket,
        errorMessage(strings::format(
            "wire version mismatch: daemon speaks %d", wire::kVersion)));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ConnInfo info;
    info.worker = hello->has("worker") ? hello->get("worker")
                                       : "conn" + std::to_string(connId);
    info.jobs = hello->has("jobs")
                    ? std::max(1, static_cast<int>(hello->getInt("jobs")))
                    : 1;
    summary_.workers[info.worker];  // appears in telemetry even if idle
    connections_[connId] = std::move(info);
  }
  wire::Message welcome;
  welcome.verb = "welcome";
  welcome.fields["version"] = std::to_string(wire::kVersion);
  wire::sendMessage(*socket, welcome);

  for (;;) {
    std::optional<wire::Message> request = wire::recvMessage(*socket);
    if (!request) return;  // clean disconnect
    wire::sendMessage(*socket, dispatch(connId, *request));
  }
}

wire::Message ServeServer::dispatch(int connId,
                                    const wire::Message& request) {
  try {
    std::lock_guard<std::mutex> lock(mutex_);
    ConnInfo& info = connections_[connId];
    WorkerTelemetry& worker = summary_.workers[info.worker];

    if (request.verb == "probe") {
      std::optional<VariantResult> hit = cache_->load(request.get("key"));
      if (!hit) {
        ++worker.misses;
        wire::Message m;
        m.verb = "miss";
        return m;
      }
      ++worker.hits;
      return hitMessage(*hit);
    }

    if (request.verb == "begin") {
      std::string id = request.get("campaign");
      auto expected = request.getInt("variants");
      if (expected <= 0) return errorMessage("begin requires variants > 0");
      CampaignState& c = campaigns_[id];
      if (c.finalized) c = CampaignState{};  // warm rerun: fresh merge
      if (c.expected == 0) {
        c.expected = static_cast<std::size_t>(expected);
      } else if (c.expected != static_cast<std::size_t>(expected)) {
        return errorMessage(strings::format(
            "campaign variant count mismatch: daemon has %zu, worker "
            "announced %lld — workers must shard identical campaigns",
            c.expected, static_cast<long long>(expected)));
      }
      // The joining order doubles as a shard ordinal: clients stagger
      // their traversal start with it so fleet members lease disjoint
      // stretches instead of colliding on the same keys in lockstep.
      wire::Message m = okMessage();
      m.fields["ordinal"] = std::to_string(c.beginCount++);
      return m;
    }

    if (request.verb == "acquire") {
      auto cIt = campaigns_.find(request.get("campaign"));
      if (cIt == campaigns_.end()) {
        return errorMessage("unknown campaign: begin before acquire");
      }
      CampaignState& c = cIt->second;
      const std::string key = request.get("key");
      ++summary_.acquires;

      // Cache-first: warm variants never consume a lease or a backend.
      if (std::optional<VariantResult> hit = cache_->load(key)) {
        ++summary_.hits;
        ++worker.hits;
        return hitMessage(*hit);
      }
      // A failure another worker of this cohort already measured is
      // terminal too: re-measuring it here would diverge from the
      // single-process run, which measures each variant exactly once.
      if (auto f = c.failResults.find(key); f != c.failResults.end()) {
        ++summary_.hits;
        ++worker.hits;
        return hitMessage(f->second);
      }

      auto lIt = leases_.find(key);
      if (lIt != leases_.end() &&
          std::chrono::steady_clock::now() >= lIt->second.deadline) {
        // Missed ack deadline: the worker is presumed dead; free the lease
        // so the requester (or anyone else) re-measures the slice.
        auto owner = connections_.find(lIt->second.connId);
        if (owner != connections_.end()) --owner->second.outstandingLeases;
        leases_.erase(lIt);
        lIt = leases_.end();
      }
      if (lIt != leases_.end()) {
        wire::Message m;
        m.verb = "wait";  // a live peer is measuring this key
        m.fields["retry_ms"] = "20";
        return m;
      }
      if (stopping_) {
        return errorMessage("daemon is draining: no new leases");
      }
      int cap = options_.maxLeasesPerWorker > 0 ? options_.maxLeasesPerWorker
                                                : std::max(2, info.jobs * 2);
      if (info.outstandingLeases >= cap) {
        wire::Message m;
        m.verb = "defer";  // backpressure: let this worker's pool drain
        m.fields["retry_ms"] = "10";
        return m;
      }
      Lease lease;
      lease.id = nextLeaseId_++;
      lease.connId = connId;
      lease.worker = info.worker;
      lease.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.leaseDeadlineMs);
      leases_[key] = lease;
      ++info.outstandingLeases;
      ++summary_.leases;
      ++worker.misses;
      if (!c.leasedKeys.insert(key).second) ++summary_.reissues;
      wire::Message m;
      m.verb = "lease";
      m.fields["lease"] = std::to_string(lease.id);
      m.fields["deadline_ms"] = std::to_string(options_.leaseDeadlineMs);
      return m;
    }

    if (request.verb == "store") {
      VariantResult result = wire::decodeResult(request.get("result"));
      cache_->store(request.get("key"), result);
      if (request.has("lease")) {
        releaseLease(request.get("key"), request.get("lease"), connId);
      }
      return okMessage();
    }

    if (request.verb == "row") {
      auto cIt = campaigns_.find(request.get("campaign"));
      if (cIt == campaigns_.end()) {
        return errorMessage("unknown campaign: begin before row");
      }
      CampaignState& c = cIt->second;
      const std::string key = request.get("key");
      VariantResult row = wire::decodeResult(request.get("result"));
      RowId id{row.round, row.sequence, row.name};
      auto [it, inserted] = c.rows.emplace(id, MergedRow{key, row});
      if (!inserted && it->second.row.cached && !row.cached) {
        // The measurer's fresh row beats a peer's cache-hit copy of it.
        it->second = MergedRow{key, row};
      }
      ++summary_.rowsMerged;
      ++worker.rows;
      if (row.status != "ok" && row.status != "skipped" && !row.cached) {
        c.failResults.emplace(key, row);
      }
      if (request.has("lease")) releaseLease(key, request.get("lease"),
                                             connId);
      if (!c.finalized && c.expected > 0 && c.rows.size() >= c.expected) {
        finalizeCampaign(cIt->first, c);
      }
      return okMessage();
    }

    if (request.verb == "stats") {
      wire::Message m;
      m.verb = "stats";
      m.fields["acquires"] = std::to_string(summary_.acquires);
      m.fields["hits"] = std::to_string(summary_.hits);
      m.fields["leases"] = std::to_string(summary_.leases);
      m.fields["reissues"] = std::to_string(summary_.reissues);
      m.fields["rows"] = std::to_string(summary_.rowsMerged);
      m.fields["campaigns_finalized"] =
          std::to_string(summary_.campaignsFinalized);
      m.fields["active_leases"] = std::to_string(leases_.size());
      return m;
    }

    return errorMessage("unknown verb '" + request.verb + "'");
  } catch (const McError& e) {
    // A malformed field in an otherwise well-framed message answers with an
    // error instead of killing the connection.
    return errorMessage(e.message());
  }
}

void ServeServer::releaseLease(const std::string& key,
                               const std::string& leaseId, int connId) {
  auto it = leases_.find(key);
  if (it == leases_.end()) return;  // expired and re-issued: first-wins
  if (std::to_string(it->second.id) != leaseId) return;  // stale publisher
  auto owner = connections_.find(it->second.connId);
  if (owner != connections_.end()) --owner->second.outstandingLeases;
  (void)connId;
  leases_.erase(it);
}

void ServeServer::releaseConnectionLeases(int connId) {
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.connId == connId) {
      it = leases_.erase(it);  // key stays in leasedKeys -> regrant counts
                               // as a re-issue
    } else {
      ++it;
    }
  }
}

void ServeServer::finalizeCampaign(const std::string& id,
                                   CampaignState& campaign) {
  campaign.finalized = true;
  ++summary_.campaignsFinalized;

  // Canonical rows in (round, sequence, name) order, with the cached flag
  // normalized to single-process batch semantics: a key measured fresh this
  // campaign (leased) is a miss for every row it produced, whichever worker
  // happened to measure it; everything else kept its hit/skip flag.
  std::vector<VariantResult> rows;
  rows.reserve(campaign.rows.size());
  for (const auto& [rowId, merged] : campaign.rows) {
    VariantResult r = merged.row;
    if (campaign.leasedKeys.count(merged.key)) r.cached = false;
    rows.push_back(std::move(r));
  }

  if (!options_.csvPath.empty()) {
    std::error_code ec;
    fs::remove(options_.csvPath, ec);  // canonical rewrite, not an append
    CampaignCsvSink sink(options_.csvPath, "# serve.campaign=" + id + "\n");
    for (const VariantResult& r : rows) sink.append(r);
  }
  if (!options_.reportPath.empty()) {
    csv::Table report = topKReport(rows, options_.topK);
    std::ofstream out(options_.reportPath,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
      log::error("serve: cannot write report file: " + options_.reportPath);
    } else {
      report.write(out);
    }
  }
  log::info(strings::format("serve: campaign %s finalized (%zu row(s))",
                            id.c_str(), rows.size()));
}

void ServeServer::finalizeRemaining() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, campaign] : campaigns_) {
    if (campaign.finalized || campaign.rows.empty()) continue;
    log::warn(strings::format(
        "serve: campaign %s stopped incomplete (%zu of %zu row(s))",
        id.c_str(), campaign.rows.size(), campaign.expected));
    finalizeCampaign(id, campaign);
  }
}

void ServeServer::requestStop() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return;
  stopping_ = true;
  // Wakes the accept poll. wait() closes the descriptor once the accept
  // thread, which reads it, has been joined.
  listener_.shutdown();
}

void ServeServer::wait() {
  {
    std::lock_guard<std::mutex> lock(threadsMutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (acceptThread_.joinable()) acceptThread_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    listener_.close();
  }

  // Drain: give in-flight leases a bounded chance to be acked (store/row)
  // over the still-open connections before those are cut.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.drainTimeoutMs);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (leases_.empty()) break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      log::warn("serve: drain timeout: cutting connections with leases "
                "outstanding");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  {
    std::lock_guard<std::mutex> lock(threadsMutex_);
    for (auto& [connId, socket] : sockets_) socket->shutdown();
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threadsMutex_);
    threads.swap(connectionThreads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  finalizeRemaining();
  {
    std::lock_guard<std::mutex> lock(threadsMutex_);
    sockets_.clear();
  }
}

ServeSummary ServeServer::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeSummary s = summary_;
  if (cache_) s.cache = cache_->telemetry();
  return s;
}

// ---------------------------------------------------------------------------
// CLI entry
// ---------------------------------------------------------------------------

namespace {

volatile std::sig_atomic_t gStopSignal = 0;

void onStopSignal(int) { gStopSignal = 1; }

}  // namespace

int serveMain(const ServeOptions& options) {
  ServeServer server(options);
  server.start();
  std::printf("serve: listening on %s (cache: %s)\n",
              server.boundAddress().c_str(), options.cacheDir.c_str());
  std::fflush(stdout);  // scripts wait for this line before launching workers

  struct sigaction sa{};
  sa.sa_handler = onStopSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  while (!gStopSignal) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("serve: draining...\n");
  std::fflush(stdout);
  server.requestStop();
  server.wait();

  ServeSummary s = server.summary();
  std::printf(
      "serve: drained; %llu campaign(s) finalized, %llu acquire(s): "
      "%llu hit(s), %llu lease(s), %llu reissue(s), %llu row(s) merged\n",
      static_cast<unsigned long long>(s.campaignsFinalized),
      static_cast<unsigned long long>(s.acquires),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.leases),
      static_cast<unsigned long long>(s.reissues),
      static_cast<unsigned long long>(s.rowsMerged));
  std::printf("serve: cache: %llu hit(s), %llu miss(es), %llu corrupt, "
              "%llu record file read(s)\n",
              static_cast<unsigned long long>(s.cache.hits),
              static_cast<unsigned long long>(s.cache.misses),
              static_cast<unsigned long long>(s.cache.corrupt),
              static_cast<unsigned long long>(s.cache.recordFileReads));
  for (const auto& [name, w] : s.workers) {
    std::printf("serve: worker %s: %llu hit(s), %llu miss(es), "
                "%llu row(s)\n",
                name.c_str(), static_cast<unsigned long long>(w.hits),
                static_cast<unsigned long long>(w.misses),
                static_cast<unsigned long long>(w.rows));
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace microtools::launcher
