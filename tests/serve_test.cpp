// Tests of the campaign service: the length-prefixed wire protocol (framing,
// codec, hostile-peer handling), the serve daemon's lease scheduler
// (cache-first acquire, backpressure, dead-worker re-issue), and the
// end-to-end sharded campaign whose canonical report must be byte-identical
// to a single-process run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "launcher/explore.hpp"
#include "launcher/remote_store.hpp"
#include "launcher/serve.hpp"
#include "launcher/sim_backend.hpp"
#include "launcher/wire.hpp"
#include "sim/arch.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"
#include "test_helpers.hpp"

namespace microtools::launcher {
namespace {

namespace fs = std::filesystem;

using testing::figure6Xml;
using testing::uniqueTempDir;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing file: " << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// Per-factory invocation counters shared by every backend it builds.
struct BackendCounters {
  std::atomic<int> constructed{0};
  std::atomic<int> invokes{0};
};

/// SimBackend wrapper that counts constructions and invocations — the proof
/// that warm reruns perform zero backend work.
class CountingBackend final : public Backend {
 public:
  explicit CountingBackend(std::shared_ptr<BackendCounters> counters)
      : counters_(std::move(counters)),
        inner_(sim::nehalemX5650DualSocket()) {
    counters_->constructed++;
  }

  std::string name() const override { return "counting-sim"; }
  std::unique_ptr<KernelHandle> load(const std::string& asmText,
                                     const std::string& fn) override {
    return inner_.load(asmText, fn);
  }
  InvokeResult invoke(KernelHandle& kernel,
                      const KernelRequest& request) override {
    counters_->invokes++;
    return inner_.invoke(kernel, request);
  }
  double timerOverheadCycles() const override {
    return inner_.timerOverheadCycles();
  }
  std::vector<InvokeResult> invokeFork(KernelHandle& kernel,
                                       const KernelRequest& request,
                                       int processes, int calls,
                                       PinPolicy policy) override {
    return inner_.invokeFork(kernel, request, processes, calls, policy);
  }
  InvokeResult invokeOpenMp(KernelHandle& kernel,
                            const KernelRequest& request, int threads,
                            int repetitions) override {
    return inner_.invokeOpenMp(kernel, request, threads, repetitions);
  }
  void reset() override { inner_.reset(); }

 private:
  std::shared_ptr<BackendCounters> counters_;
  SimBackend inner_;
};

ExploreOptions workerOptions(std::shared_ptr<BackendCounters> counters) {
  ExploreOptions options;
  options.descriptionText = figure6Xml(1, 8, false);  // 8 unroll variants
  options.arrayBytes = 16 * 1024;
  options.campaign.jobs = 2;
  options.campaign.protocol.innerRepetitions = 1;
  options.campaign.protocol.outerRepetitions = 3;
  options.campaign.maxCv = 0.05;
  options.campaign.maxRepetitions = 10;
  options.backendFactory = [counters](int) {
    return std::make_unique<CountingBackend>(counters);
  };
  options.backendId = "counting-sim";
  return options;
}

VariantResult okResult(const std::string& name, double min) {
  VariantResult r;
  r.name = name;
  r.status = "ok";
  r.measurement.iterationsPerCall = 257;
  r.measurement.totalCycles = 1000.0;
  r.measurement.cyclesPerIteration =
      stats::Summary{3, min, min + 0.5, min + 0.2, min + 0.1, 0.05, 0.02};
  r.repetitions = 3;
  r.finalCv = 0.02;
  r.converged = true;
  r.attempts = 1;
  return r;
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(Wire, MessageRoundTripPreservesFieldsAndEscapes) {
  wire::Message m;
  m.verb = "store";
  m.fields["key"] = "abc123";
  m.fields["result"] = "line one\nline two\r\nback\\slash";
  m.fields["empty"] = "";
  wire::Message back = wire::decodeMessage(wire::encodeMessage(m));
  EXPECT_EQ(back.verb, "store");
  EXPECT_EQ(back.get("key"), "abc123");
  EXPECT_EQ(back.get("result"), "line one\nline two\r\nback\\slash");
  EXPECT_TRUE(back.has("empty"));
  EXPECT_EQ(back.get("empty"), "");
}

TEST(Wire, MessageRejectsMalformedVerbAndMissingField) {
  EXPECT_THROW(wire::decodeMessage(""), McError);
  EXPECT_THROW(wire::decodeMessage("\nfield value\n"), McError);
  wire::Message m = wire::decodeMessage("ok\n");
  EXPECT_THROW(m.get("absent"), McError);
  EXPECT_THROW(m.getInt("absent"), McError);
}

TEST(Wire, ResultRoundTripIsFullFidelity) {
  VariantResult r = okResult("unroll4\nweird name", 12.75);
  r.sequence = 41;
  r.round = 2;
  r.cached = true;
  r.note = "resume\nnote";
  r.verify = "W:MT-ABI-1";
  r.measurement.counters.valid = true;
  r.measurement.counters.ipc = 1.75;
  r.measurement.counters.l1MissRate = 0.015625;
  VariantResult back = wire::decodeResult(wire::encodeResult(r));
  EXPECT_EQ(back.sequence, 41u);
  EXPECT_EQ(back.round, 2);
  EXPECT_EQ(back.name, "unroll4\nweird name");
  EXPECT_EQ(back.status, "ok");
  EXPECT_TRUE(back.cached);
  EXPECT_EQ(back.note, "resume\nnote");
  EXPECT_EQ(back.verify, "W:MT-ABI-1");
  EXPECT_EQ(back.repetitions, 3);
  EXPECT_EQ(back.attempts, 1);
  EXPECT_TRUE(back.converged);
  EXPECT_EQ(back.measurement.iterationsPerCall, 257u);
  EXPECT_EQ(back.measurement.cyclesPerIteration.count, 3u);
  EXPECT_EQ(back.measurement.cyclesPerIteration.min, 12.75);
  EXPECT_EQ(back.measurement.cyclesPerIteration.max, 13.25);
  EXPECT_EQ(back.measurement.cyclesPerIteration.mean, 12.95);
  EXPECT_TRUE(back.measurement.counters.valid);
  EXPECT_EQ(back.measurement.counters.ipc, 1.75);
  EXPECT_EQ(back.measurement.counters.l1MissRate, 0.015625);
}

TEST(Wire, ResultRoundTripKeepsNonOkStatus) {
  VariantResult r;
  r.sequence = 7;
  r.name = "broken";
  r.status = "timeout";
  r.error = "variant exceeded 100 ms";
  r.converged = false;
  VariantResult back = wire::decodeResult(wire::encodeResult(r));
  EXPECT_EQ(back.status, "timeout");
  EXPECT_EQ(back.error, "variant exceeded 100 ms");
  EXPECT_FALSE(back.converged);
}

TEST(Wire, ResultDecodeRejectsGarbage) {
  EXPECT_THROW(wire::decodeResult(""), McError);
  EXPECT_THROW(wire::decodeResult("sequence -4\n"), McError);
  VariantResult r = okResult("v", 1.0);
  std::string text = wire::encodeResult(r);
  std::string bad = text;
  bad.replace(bad.find("status ok"), 9, "status ??");
  EXPECT_THROW(wire::decodeResult(bad), McError);
}

// ---------------------------------------------------------------------------
// Framing over a real socket
// ---------------------------------------------------------------------------

/// One accepted loopback connection plus the client socket talking to it.
struct SocketPair {
  net::Listener listener;
  net::Socket client;
  net::Socket server;

  SocketPair() : listener("127.0.0.1:0") {
    client = net::connectTo(listener.boundSpec());
    server = listener.accept(2000);
    EXPECT_TRUE(server.valid());
  }
};

TEST(Wire, FramedRoundTripOverSocket) {
  SocketPair pair;
  wire::Message m;
  m.verb = "probe";
  m.fields["key"] = "deadbeef";
  wire::sendMessage(pair.client, m);
  std::optional<wire::Message> got = wire::recvMessage(pair.server);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->verb, "probe");
  EXPECT_EQ(got->get("key"), "deadbeef");
}

TEST(Wire, CleanCloseBeforeFrameIsEndOfStream) {
  SocketPair pair;
  pair.client.close();
  EXPECT_FALSE(wire::recvMessage(pair.server).has_value());
}

TEST(Wire, TornFrameThrows) {
  SocketPair pair;
  // Announce 100 bytes, deliver 5, vanish: the reader must throw (a torn
  // frame), not report a clean end of stream.
  unsigned char prefix[4] = {0, 0, 0, 100};
  pair.client.sendAll(prefix, sizeof(prefix));
  pair.client.sendAll("hello", 5);
  pair.client.close();
  EXPECT_THROW(wire::recvMessage(pair.server), McError);
}

TEST(Wire, OversizedLengthPrefixThrows) {
  SocketPair pair;
  unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};  // 4 GiB "payload"
  pair.client.sendAll(prefix, sizeof(prefix));
  EXPECT_THROW(wire::recvMessage(pair.server), McError);
}

TEST(Wire, ZeroLengthFrameThrows) {
  SocketPair pair;
  unsigned char prefix[4] = {0, 0, 0, 0};
  pair.client.sendAll(prefix, sizeof(prefix));
  EXPECT_THROW(wire::recvMessage(pair.server), McError);
}

// ---------------------------------------------------------------------------
// Daemon protocol: handshake, leases, re-issue
// ---------------------------------------------------------------------------

/// Raw wire client for protocol-level tests (no CampaignRunner involved).
struct RawClient {
  net::Socket socket;

  explicit RawClient(const std::string& address, int version = wire::kVersion,
                     const std::string& worker = "raw") {
    socket = net::connectTo(address);
    wire::Message hello;
    hello.verb = "hello";
    hello.fields["version"] = std::to_string(version);
    hello.fields["worker"] = worker;
    hello.fields["jobs"] = "1";
    wire::sendMessage(socket, hello);
  }

  wire::Message call(const wire::Message& m) {
    wire::sendMessage(socket, m);
    std::optional<wire::Message> r = wire::recvMessage(socket);
    if (!r) throw McError("daemon closed");
    return *r;
  }

  wire::Message recv() {
    std::optional<wire::Message> r = wire::recvMessage(socket);
    if (!r) throw McError("daemon closed");
    return *r;
  }

  wire::Message acquire(const std::string& campaign, const std::string& key,
                        int sequence) {
    wire::Message m;
    m.verb = "acquire";
    m.fields["campaign"] = campaign;
    m.fields["key"] = key;
    m.fields["sequence"] = std::to_string(sequence);
    m.fields["round"] = "0";
    m.fields["name"] = "v" + std::to_string(sequence);
    return call(m);
  }
};

class ServeFixture : public ::testing::Test {
 protected:
  void startServer(ServeOptions options = {}) {
    if (options.cacheDir == ServeOptions{}.cacheDir) {
      options.cacheDir = uniqueTempDir("serve_proto_cache");
    }
    options.drainTimeoutMs = 200;  // protocol tests abandon leases on purpose
    server_ = std::make_unique<ServeServer>(std::move(options));
    server_->start();
  }

  void TearDown() override {
    if (server_) {
      server_->requestStop();
      server_->wait();
    }
  }

  std::unique_ptr<ServeServer> server_;
};

TEST_F(ServeFixture, VersionMismatchIsRejectedWithError) {
  startServer();
  RawClient client(server_->boundAddress(), wire::kVersion + 1);
  wire::Message response = client.recv();
  EXPECT_EQ(response.verb, "error");
  EXPECT_NE(response.get("message").find("version"), std::string::npos);
  // The daemon closes the connection after the error frame.
  EXPECT_FALSE(wire::recvMessage(client.socket).has_value());
}

TEST_F(ServeFixture, HandshakeThenLeaseStoreHitCycle) {
  startServer();
  RawClient client(server_->boundAddress());
  EXPECT_EQ(client.recv().verb, "welcome");

  wire::Message begin;
  begin.verb = "begin";
  begin.fields["campaign"] = "c1";
  begin.fields["variants"] = "2";
  EXPECT_EQ(client.call(begin).verb, "ok");

  // Cold acquire: a lease.
  wire::Message lease = client.acquire("c1", "k1", 0);
  ASSERT_EQ(lease.verb, "lease");
  std::string leaseId = lease.get("lease");

  // Publish the measurement against the lease, then re-acquire: a hit.
  wire::Message store;
  store.verb = "store";
  store.fields["key"] = "k1";
  store.fields["result"] = wire::encodeResult(okResult("v0", 4.0));
  store.fields["lease"] = leaseId;
  EXPECT_EQ(client.call(store).verb, "ok");
  wire::Message hit = client.acquire("c1", "k1", 0);
  ASSERT_EQ(hit.verb, "hit");
  VariantResult decoded = wire::decodeResult(hit.get("result"));
  EXPECT_EQ(decoded.name, "v0");
  EXPECT_EQ(decoded.measurement.cyclesPerIteration.min, 4.0);

  ServeSummary s = server_->summary();
  EXPECT_EQ(s.leases, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.reissues, 0u);
}

TEST_F(ServeFixture, AcquireWithoutBeginIsAnError) {
  startServer();
  RawClient client(server_->boundAddress());
  EXPECT_EQ(client.recv().verb, "welcome");
  EXPECT_EQ(client.acquire("ghost", "k1", 0).verb, "error");
}

TEST_F(ServeFixture, SecondWorkerWaitsWhileLeaseIsLive) {
  startServer();
  RawClient a(server_->boundAddress(), wire::kVersion, "a");
  RawClient b(server_->boundAddress(), wire::kVersion, "b");
  EXPECT_EQ(a.recv().verb, "welcome");
  EXPECT_EQ(b.recv().verb, "welcome");
  wire::Message begin;
  begin.verb = "begin";
  begin.fields["campaign"] = "c1";
  begin.fields["variants"] = "1";
  EXPECT_EQ(a.call(begin).verb, "ok");
  EXPECT_EQ(a.acquire("c1", "k1", 0).verb, "lease");
  EXPECT_EQ(b.acquire("c1", "k1", 0).verb, "wait");
}

TEST_F(ServeFixture, DeadWorkerLeaseIsReissuedAndMeasuredExactlyOnce) {
  startServer();
  {
    // Worker A takes the lease for k1 and dies without acking it.
    RawClient a(server_->boundAddress(), wire::kVersion, "doomed");
    EXPECT_EQ(a.recv().verb, "welcome");
    wire::Message begin;
    begin.verb = "begin";
    begin.fields["campaign"] = "c1";
    begin.fields["variants"] = "1";
    EXPECT_EQ(a.call(begin).verb, "ok");
    EXPECT_EQ(a.acquire("c1", "k1", 0).verb, "lease");
  }  // disconnect releases the lease server-side

  // Worker B asks for the same slice: it must get a fresh lease (counted as
  // a re-issue), measure it, and publish. A third acquire is then a hit —
  // the slice was re-measured exactly once.
  RawClient b(server_->boundAddress(), wire::kVersion, "successor");
  EXPECT_EQ(b.recv().verb, "welcome");
  wire::Message begin;
  begin.verb = "begin";
  begin.fields["campaign"] = "c1";
  begin.fields["variants"] = "1";
  EXPECT_EQ(b.call(begin).verb, "ok");

  // The disconnect races the re-acquire: poll until the daemon has reaped
  // the dead connection's lease.
  wire::Message response;
  for (int attempt = 0; attempt < 100; ++attempt) {
    response = b.acquire("c1", "k1", 0);
    if (response.verb == "lease") break;
    ASSERT_EQ(response.verb, "wait");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(response.verb, "lease");

  wire::Message store;
  store.verb = "store";
  store.fields["key"] = "k1";
  store.fields["result"] = wire::encodeResult(okResult("v0", 4.0));
  store.fields["lease"] = response.get("lease");
  EXPECT_EQ(b.call(store).verb, "ok");
  EXPECT_EQ(b.acquire("c1", "k1", 0).verb, "hit");

  ServeSummary s = server_->summary();
  EXPECT_EQ(s.leases, 2u);    // original + re-issue
  EXPECT_EQ(s.reissues, 1u);  // the re-grant after the disconnect
  EXPECT_EQ(s.hits, 1u);      // exactly one measurement ended up stored
}

TEST_F(ServeFixture, ExpiredLeaseDeadlineIsReissued) {
  ServeOptions options;
  options.leaseDeadlineMs = 50;
  startServer(std::move(options));
  RawClient a(server_->boundAddress(), wire::kVersion, "slow");
  RawClient b(server_->boundAddress(), wire::kVersion, "fast");
  EXPECT_EQ(a.recv().verb, "welcome");
  EXPECT_EQ(b.recv().verb, "welcome");
  wire::Message begin;
  begin.verb = "begin";
  begin.fields["campaign"] = "c1";
  begin.fields["variants"] = "1";
  EXPECT_EQ(a.call(begin).verb, "ok");
  EXPECT_EQ(a.acquire("c1", "k1", 0).verb, "lease");
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // A stays connected but missed its ack deadline: B gets the slice.
  EXPECT_EQ(b.acquire("c1", "k1", 0).verb, "lease");
  EXPECT_EQ(server_->summary().reissues, 1u);
}

TEST_F(ServeFixture, BackpressureDefersBeyondTheLeaseCap) {
  ServeOptions options;
  options.maxLeasesPerWorker = 2;
  startServer(std::move(options));
  RawClient client(server_->boundAddress());
  EXPECT_EQ(client.recv().verb, "welcome");
  wire::Message begin;
  begin.verb = "begin";
  begin.fields["campaign"] = "c1";
  begin.fields["variants"] = "3";
  EXPECT_EQ(client.call(begin).verb, "ok");
  EXPECT_EQ(client.acquire("c1", "k1", 0).verb, "lease");
  EXPECT_EQ(client.acquire("c1", "k2", 1).verb, "lease");
  EXPECT_EQ(client.acquire("c1", "k3", 2).verb, "defer");
}

// ---------------------------------------------------------------------------
// End-to-end sharded campaign
// ---------------------------------------------------------------------------

/// Runs `workers` concurrent `runExplore --connect` workers against a fresh
/// daemon, returning the daemon's canonical ranked report text.
struct ShardedRun {
  std::string report;
  std::string csv;
  ServeSummary summary;
  std::vector<int> constructed;  ///< backends built per worker
  std::vector<std::size_t> measured;
};

ShardedRun runSharded(int workers, const std::string& cacheDir) {
  ServeOptions serveOptions;
  serveOptions.cacheDir = cacheDir;
  std::string outDir = uniqueTempDir("serve_out_" + std::to_string(workers));
  serveOptions.csvPath = outDir + "/campaign.csv";
  serveOptions.reportPath = outDir + "/report.csv";
  ServeServer server(serveOptions);
  server.start();

  ShardedRun run;
  run.constructed.resize(static_cast<std::size_t>(workers));
  run.measured.resize(static_cast<std::size_t>(workers));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        auto counters = std::make_shared<BackendCounters>();
        ExploreOptions options = workerOptions(counters);
        options.connectAddr = server.boundAddress();
        options.workerName = "w" + std::to_string(w);
        ExploreResult result = runExplore(options);
        run.constructed[static_cast<std::size_t>(w)] =
            counters->constructed.load();
        run.measured[static_cast<std::size_t>(w)] = result.measured;
      } catch (const McError& e) {
        ADD_FAILURE() << "worker " << w << " failed: " << e.message();
        failures++;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.requestStop();
  server.wait();
  run.summary = server.summary();
  if (failures.load() == 0) {
    run.report = readFile(serveOptions.reportPath);
    run.csv = readFile(serveOptions.csvPath);
  }
  return run;
}

TEST(ServeEndToEnd, FourWorkersMatchSingleProcessByteForByte) {
  // Reference: the plain single-process exhaustive sweep, no cache.
  auto refCounters = std::make_shared<BackendCounters>();
  ExploreOptions reference = workerOptions(refCounters);
  reference.useCache = false;
  ExploreResult referenceResult = runExplore(reference);
  ASSERT_GT(referenceResult.results.size(), 2u);
  std::ostringstream referenceReport;
  topKReport(referenceResult.results, 0).write(referenceReport);

  ShardedRun run = runSharded(4, uniqueTempDir("serve_e2e_cache"));
  EXPECT_EQ(run.report, referenceReport.str());
  EXPECT_EQ(run.summary.campaignsFinalized, 1u);
  EXPECT_EQ(run.summary.workers.size(), 4u);

  // The campaign was genuinely sharded: each unique slice measured exactly
  // once across the fleet (one lease per measurement, no re-issues).
  std::size_t totalMeasured = 0;
  for (std::size_t m : run.measured) totalMeasured += m;
  EXPECT_EQ(totalMeasured, static_cast<std::size_t>(run.summary.leases));
  EXPECT_GT(run.summary.leases, 0u);
  EXPECT_LE(run.summary.leases, referenceResult.results.size());
  EXPECT_EQ(run.summary.reissues, 0u);
}

/// Drops the trailing (",cached") cell of every report line, so warm and
/// cold reports — identical except for cache provenance — can be compared.
std::string stripLastColumn(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    std::size_t comma = line.rfind(',');
    out += comma == std::string::npos ? line : line.substr(0, comma);
    out += '\n';
  }
  return out;
}

TEST(ServeEndToEnd, WarmRerunAnyWorkerCountDoesZeroBackendWork) {
  std::string cacheDir = uniqueTempDir("serve_warm_cache");
  ShardedRun cold = runSharded(2, cacheDir);
  ASSERT_FALSE(cold.report.empty());

  for (int workers : {1, 3}) {
    ShardedRun warm = runSharded(workers, cacheDir);
    // Identical ranking and metrics; only the cached column flips to 1.
    EXPECT_EQ(stripLastColumn(warm.report), stripLastColumn(cold.report))
        << workers << " warm worker(s)";
    EXPECT_EQ(warm.summary.leases, 0u);
    for (int constructed : warm.constructed) {
      EXPECT_EQ(constructed, 0) << "warm worker built a backend";
    }
    for (std::size_t measured : warm.measured) EXPECT_EQ(measured, 0u);
  }
}

TEST(ServeEndToEnd, CanonicalCsvIsSequenceOrderedAndComplete) {
  ShardedRun run = runSharded(2, uniqueTempDir("serve_csv_cache"));
  ASSERT_FALSE(run.csv.empty());
  std::istringstream in(run.csv);
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    rows.push_back(line);
  }
  ASSERT_GT(rows.size(), 1u);
  std::vector<std::string> header = CampaignRunner::csvHeader();
  EXPECT_EQ(csv::parseLine(rows.front()), header);
  auto cachedIt = std::find(header.begin(), header.end(), "cached");
  ASSERT_NE(cachedIt, header.end());
  std::size_t cachedCol =
      static_cast<std::size_t>(cachedIt - header.begin());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    std::vector<std::string> cells = csv::parseLine(rows[i]);
    ASSERT_EQ(cells.size(), header.size());
    EXPECT_EQ(cells[0], std::to_string(i - 1)) << "row out of order";
    EXPECT_EQ(cells[cachedCol], "0") << "cold row flagged cached";
  }
}

TEST(ServeEndToEnd, UnixSocketTransportWorks) {
  std::string sockDir = uniqueTempDir("serve_unix");
  ServeOptions serveOptions;
  serveOptions.listen = "unix:" + sockDir + "/serve.sock";
  serveOptions.cacheDir = uniqueTempDir("serve_unix_cache");
  ServeServer server(serveOptions);
  server.start();
  EXPECT_EQ(server.boundAddress(), serveOptions.listen);

  auto counters = std::make_shared<BackendCounters>();
  ExploreOptions options = workerOptions(counters);
  options.connectAddr = server.boundAddress();
  ExploreResult result = runExplore(options);
  EXPECT_GT(result.results.size(), 0u);
  EXPECT_EQ(result.measured, result.results.size());
  server.requestStop();
  server.wait();
  EXPECT_EQ(server.summary().campaignsFinalized, 1u);
}

TEST(ServeEndToEnd, HalvingSearchIsRejectedInConnectMode) {
  ServeOptions serveOptions;
  serveOptions.cacheDir = uniqueTempDir("serve_halving_cache");
  ServeServer server(serveOptions);
  server.start();
  auto counters = std::make_shared<BackendCounters>();
  ExploreOptions options = workerOptions(counters);
  options.connectAddr = server.boundAddress();
  options.search = SearchMode::Halving;
  EXPECT_THROW(runExplore(options), McError);
  server.requestStop();
  server.wait();
}

TEST(ServeEndToEnd, GracefulStopRefusesNewLeasesButServesHits) {
  ServeOptions serveOptions;
  serveOptions.cacheDir = uniqueTempDir("serve_stop_cache");
  serveOptions.drainTimeoutMs = 200;
  ServeServer server(serveOptions);
  server.start();

  RawClient client(server.boundAddress());
  EXPECT_EQ(client.recv().verb, "welcome");
  wire::Message begin;
  begin.verb = "begin";
  begin.fields["campaign"] = "c1";
  begin.fields["variants"] = "2";
  EXPECT_EQ(client.call(begin).verb, "ok");
  wire::Message lease = client.acquire("c1", "k1", 0);
  ASSERT_EQ(lease.verb, "lease");
  wire::Message store;
  store.verb = "store";
  store.fields["key"] = "k1";
  store.fields["result"] = wire::encodeResult(okResult("v0", 4.0));
  store.fields["lease"] = lease.get("lease");
  EXPECT_EQ(client.call(store).verb, "ok");

  server.requestStop();
  // During the drain the daemon still answers, still serves cache hits, but
  // refuses to grant fresh leases.
  EXPECT_EQ(client.acquire("c1", "k1", 0).verb, "hit");
  EXPECT_EQ(client.acquire("c1", "k2", 1).verb, "error");
  client.socket.close();
  server.wait();
}

}  // namespace
}  // namespace microtools::launcher
