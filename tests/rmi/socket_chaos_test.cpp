// Socket-backend tests: the framed SocketTransport demux driven raw over a
// socketpair, the provider front end's typed statuses and connection
// handling, and the two-process chaos sweep — a real provider process
// (MultiTenantProviderServer, tenant 0) behind a Unix-domain socket must
// produce bit-identical coverage, fees, and deterministic networkSec to the
// in-process loopback run for every shipped fault profile × seed, including
// a mid-run provider restart, and serial non-blocking EstimatePower traffic
// must charge exactly what the same blocking calls charge.
#include <netinet/in.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ip/multi_tenant_server.hpp"
#include "net/socket_transport.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "rmi/chaos_harness.hpp"
#include "rmi/provider_process.hpp"

extern char** environ;

namespace vcad {
namespace {

using chaos::ChaosOutcome;
using chaos::ChaosRig;

/// The in-process baselines run at the table batch the socket run's engine
/// uses by default, so bit-identity covers the batched wire.
constexpr std::size_t kBatch = fault::VirtualFaultSimulator::kDefaultTableBatch;

// --- raw-frame helpers ----------------------------------------------------

std::vector<std::uint8_t> responseFrame(std::uint64_t requestId,
                                        net::FrameStatus status,
                                        const std::vector<std::uint8_t>& body) {
  net::ResponseFrameHeader h;
  h.status = status;
  h.requestId = requestId;
  h.serverCpuNanos = 42;
  return net::encodeResponseFrame(h, body);
}

void writeAll(int fd, const std::vector<std::uint8_t>& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// Builds the 32-byte request header for a raw transport send (anonymous
/// tenant, default Query priority — these tests exercise framing, not
/// admission).
void sendRaw(net::Transport& transport, std::uint32_t methodId,
             std::uint64_t requestId, const std::vector<std::uint8_t>& body) {
  net::RequestFrameHeader h;
  h.methodId = methodId;
  h.requestId = requestId;
  transport.send(h, body);
}

/// Drains the request frame the transport under test wrote to the peer end
/// (and sanity-checks its header on the way past).
void drainRequestFrame(int peerFd, std::uint64_t expectId) {
  std::vector<std::uint8_t> header(net::kRequestHeaderBytes);
  std::size_t got = 0;
  while (got < header.size()) {
    const ssize_t r = ::read(peerFd, header.data() + got, header.size() - got);
    ASSERT_GT(r, 0);
    got += static_cast<std::size_t>(r);
  }
  net::RequestFrameHeader h;
  ASSERT_TRUE(net::decodeRequestFrameHeader(header.data(), header.size(), h));
  EXPECT_EQ(h.requestId, expectId);
  std::vector<std::uint8_t> payload(h.payloadBytes);
  got = 0;
  while (got < payload.size()) {
    const ssize_t r = ::read(peerFd, payload.data() + got, payload.size() - got);
    ASSERT_GT(r, 0);
    got += static_cast<std::size_t>(r);
  }
}

template <typename Pred>
bool eventually(Pred pred, double timeoutSec = 2.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeoutSec);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// --- SocketTransport demux (driven raw over a socketpair) -----------------

struct PairedTransport {
  int peerFd = -1;
  std::unique_ptr<net::SocketTransport> transport;

  PairedTransport() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    transport = std::make_unique<net::SocketTransport>(fds[0], "pair");
    peerFd = fds[1];
  }
  ~PairedTransport() {
    if (peerFd >= 0) ::close(peerFd);
  }
};

TEST(SocketFraming, OutOfOrderRepliesMatchByRequestId) {
  PairedTransport pair;
  const std::vector<std::uint8_t> bodyA = {1, 2, 3};
  const std::vector<std::uint8_t> bodyB = {9, 8, 7, 6};
  sendRaw(*pair.transport, 3, 101, bodyA);
  sendRaw(*pair.transport, 3, 102, bodyB);
  drainRequestFrame(pair.peerFd, 101);
  drainRequestFrame(pair.peerFd, 102);
  // Answer in reverse order: the demux must route each reply to its id.
  writeAll(pair.peerFd, responseFrame(102, net::FrameStatus::Ok, bodyB));
  writeAll(pair.peerFd, responseFrame(101, net::FrameStatus::Ok, bodyA));
  net::TransportReply a = pair.transport->awaitReply(101, 2.0);
  net::TransportReply b = pair.transport->awaitReply(102, 2.0);
  ASSERT_TRUE(a.delivered);
  ASSERT_TRUE(b.delivered);
  EXPECT_EQ(a.sealedPayload, bodyA);
  EXPECT_EQ(b.sealedPayload, bodyB);
  EXPECT_EQ(pair.transport->stats().unknownRequestIdFrames, 0u);
  EXPECT_EQ(pair.transport->stats().framesReceived, 2u);
}

TEST(SocketFraming, UnknownRequestIdFramesAreDroppedAndCounted) {
  PairedTransport pair;
  sendRaw(*pair.transport, 1, 50, {0xAA});
  drainRequestFrame(pair.peerFd, 50);
  // A reply for an id nobody registered: stale retransmission answer or
  // hostile injection. It must never surface to a caller.
  writeAll(pair.peerFd, responseFrame(9999, net::FrameStatus::Ok, {0xFF}));
  writeAll(pair.peerFd, responseFrame(50, net::FrameStatus::Ok, {0xAA}));
  net::TransportReply r = pair.transport->awaitReply(50, 2.0);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.sealedPayload, std::vector<std::uint8_t>({0xAA}));
  ASSERT_TRUE(eventually([&] {
    return pair.transport->stats().unknownRequestIdFrames == 1;
  }));
  // Discarded ids forget their registration: a late frame for them is
  // unknown too, not delivered to the next unlucky caller.
  pair.transport->discard(50);
  writeAll(pair.peerFd, responseFrame(50, net::FrameStatus::Ok, {0xBB}));
  ASSERT_TRUE(eventually([&] {
    return pair.transport->stats().unknownRequestIdFrames == 2;
  }));
}

TEST(SocketFraming, DuplicateRepliesAreBothDeliveredInOrder) {
  PairedTransport pair;
  sendRaw(*pair.transport, 2, 77, {0x01});
  drainRequestFrame(pair.peerFd, 77);
  // The channel's duplicateRequest chaos sends one id twice and expects to
  // collect both answers (the second flags the provider's replay cache).
  writeAll(pair.peerFd, responseFrame(77, net::FrameStatus::Ok, {0x01}));
  writeAll(pair.peerFd, responseFrame(77, net::FrameStatus::Ok, {0x02}));
  net::TransportReply first = pair.transport->awaitReply(77, 2.0);
  net::TransportReply second = pair.transport->awaitReply(77, 2.0);
  ASSERT_TRUE(first.delivered);
  ASSERT_TRUE(second.delivered);
  EXPECT_EQ(first.sealedPayload, std::vector<std::uint8_t>({0x01}));
  EXPECT_EQ(second.sealedPayload, std::vector<std::uint8_t>({0x02}));
}

TEST(SocketFraming, NonOkStatusRepliesAreCountedAsRejected) {
  PairedTransport pair;
  sendRaw(*pair.transport, 1, 11, {});
  drainRequestFrame(pair.peerFd, 11);
  writeAll(pair.peerFd,
           responseFrame(11, net::FrameStatus::TooManyPending, {}));
  net::TransportReply r = pair.transport->awaitReply(11, 2.0);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.status, net::FrameStatus::TooManyPending);
  EXPECT_EQ(pair.transport->stats().rejectedReplies, 1u);
}

TEST(SocketFraming, MalformedHeaderKillsTheWire) {
  PairedTransport pair;
  // 28 bytes of garbage: the response magic cannot decode, and a byte
  // stream that lost framing has no recoverable resync point.
  std::vector<std::uint8_t> junk(net::kResponseHeaderBytes, 0x5A);
  writeAll(pair.peerFd, junk);
  ASSERT_TRUE(eventually([&] { return !pair.transport->alive(); }));
  EXPECT_EQ(pair.transport->stats().malformedFrames, 1u);
  // A dead wire delivers nothing — and does not hang the caller.
  net::TransportReply r = pair.transport->awaitReply(1, 0.1);
  EXPECT_FALSE(r.delivered);
}

TEST(SocketFraming, TruncatedHeaderAtEofNeverDelivers) {
  PairedTransport pair;
  // A partial header followed by EOF: plain connection death, not a decode
  // error — nothing may be delivered or misread.
  net::ResponseFrameHeader h;
  h.requestId = 5;
  const auto frame = net::encodeResponseFrame(h, {});
  std::vector<std::uint8_t> prefix(frame.begin(), frame.begin() + 10);
  writeAll(pair.peerFd, prefix);
  ::close(pair.peerFd);
  pair.peerFd = -1;
  ASSERT_TRUE(eventually([&] { return !pair.transport->alive(); }));
  EXPECT_EQ(pair.transport->stats().malformedFrames, 0u);
  EXPECT_EQ(pair.transport->stats().framesReceived, 0u);
  EXPECT_FALSE(pair.transport->awaitReply(5, 0.1).delivered);
}

TEST(SocketFraming, AwaitDeadlineExpiresCleanly) {
  PairedTransport pair;
  const auto start = std::chrono::steady_clock::now();
  net::TransportReply r = pair.transport->awaitReply(123, 0.05);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(r.delivered);
  EXPECT_GE(waited, 0.04);
  EXPECT_LT(waited, 1.0);
  EXPECT_TRUE(pair.transport->alive());  // a timeout is not a wire death
}

// --- provider front end ---------------------------------------------------

/// Endpoint that echoes the request's first word.
class EchoEndpoint : public rmi::ServerEndpoint {
 public:
  rmi::Response dispatch(const rmi::Request& request) override {
    rmi::Response r;
    rmi::Args args = request.args;
    r.payload.writeWord(args.takeWord());
    return r;
  }
  std::string hostName() const override { return "echo.host"; }
};

/// A single-tenant provider front end: MultiTenantProviderServer serving an
/// EchoEndpoint shard on an ephemeral loopback TCP port.
struct EchoServer {
  ip::MultiTenantProviderServer server{
      [](ip::TenantId) { return std::make_unique<EchoEndpoint>(); }, {}};
  std::uint16_t port = server.listenTcp(0);

  EchoServer() {
    EXPECT_NE(port, 0);
    server.start();
  }
};

std::vector<std::uint8_t> sealedEchoRequest(std::uint64_t value) {
  rmi::Request r;
  r.method = rmi::MethodId::EvalFunction;
  r.args.addWord(Word::fromUint(32, value));
  std::vector<std::uint8_t> bytes = r.marshal().bytes();
  net::sealFrame(bytes);
  return bytes;
}

TEST(ProviderSocket, ChecksumFailureIsSilentlyDiscarded) {
  EchoServer echo;
  ip::MultiTenantProviderServer& server = echo.server;
  auto transport = net::SocketTransport::connectTcp("127.0.0.1", echo.port);
  ASSERT_NE(transport, nullptr);
  // Valid frame, damaged sealed payload: emulated wire damage. The server
  // must stay silent (the client's deadline owns the outcome).
  std::vector<std::uint8_t> damaged = sealedEchoRequest(0x11);
  damaged.back() ^= 0xFF;
  sendRaw(*transport, 5, 9, damaged);
  EXPECT_FALSE(transport->awaitReply(9, 0.2).delivered);
  ASSERT_TRUE(server.awaitStats(
      [](const ip::MultiTenantProviderServer::Stats& s) {
        return s.discardedFrames == 1;
      },
      2.0));
  EXPECT_EQ(server.stats().framesServed, 0u);
  // The connection survives: a follow-up intact request is served.
  sendRaw(*transport, 5, 10, sealedEchoRequest(0x22));
  net::TransportReply ok = transport->awaitReply(10, 5.0);
  ASSERT_TRUE(ok.delivered);
  EXPECT_EQ(ok.status, net::FrameStatus::Ok);
  server.stop();
}

TEST(ProviderSocket, UnparseableSealedPayloadGetsTypedReject) {
  EchoServer echo;
  ip::MultiTenantProviderServer& server = echo.server;
  auto transport = net::SocketTransport::connectTcp("127.0.0.1", echo.port);
  ASSERT_NE(transport, nullptr);
  // Correctly sealed junk: the checksum passes, the unmarshal cannot — a
  // protocol violation worth a typed answer, unlike wire damage.
  std::vector<std::uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF};
  net::sealFrame(junk);
  sendRaw(*transport, 5, 3, junk);
  net::TransportReply r = transport->awaitReply(3, 5.0);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.status, net::FrameStatus::MalformedRequest);
  EXPECT_EQ(server.stats().malformedPayloads, 1u);
  server.stop();
}

TEST(ProviderSocket, MalformedHeaderClosesOnlyThatConnection) {
  EchoServer echo;
  ip::MultiTenantProviderServer& server = echo.server;
  // A raw client writes a header-sized run of junk: the magic is wrong, the
  // stream cannot be resynchronized, and the server closes the connection.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(echo.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  writeAll(fd, std::vector<std::uint8_t>(net::kRequestHeaderBytes, 0xFF));
  std::uint8_t byte = 0;
  EXPECT_EQ(::read(fd, &byte, 1), 0);  // EOF: the server hung up
  ::close(fd);
  EXPECT_TRUE(server.awaitStats(
      [](const ip::MultiTenantProviderServer::Stats& s) {
        return s.malformedHeaders == 1;
      },
      2.0));
  // The listener is unharmed: a fresh connection is served.
  auto transport = net::SocketTransport::connectTcp("127.0.0.1", echo.port);
  ASSERT_NE(transport, nullptr);
  sendRaw(*transport, 5, 1, sealedEchoRequest(0x33));
  net::TransportReply ok = transport->awaitReply(1, 5.0);
  ASSERT_TRUE(ok.delivered);
  EXPECT_EQ(ok.status, net::FrameStatus::Ok);
  EXPECT_EQ(server.stats().malformedHeaders, 1u);
  server.stop();
}

// --- two-process chaos sweep ----------------------------------------------

using chaos::ProviderProcess;

std::string uniqueSocketPath() {
  static int counter = 0;
  return "chaos_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

/// Runs the chaos campaign against a spawned provider process over a
/// Unix-domain SocketTransport — the two-process mirror of the in-process
/// ChaosRig, sharing its seeds, profile machinery, and pattern set.
ChaosOutcome runSocketChaosCampaign(const net::FaultProfile& profile,
                                    std::uint64_t seed, int patternCount,
                                    std::uint64_t restartAfter,
                                    std::string* providerTraceJson = nullptr) {
  const std::string path = uniqueSocketPath();
  std::vector<std::string> argv = {"./chaos_provider_server", path};
  if (restartAfter != 0) {
    argv.push_back("--restart-after");
    argv.push_back(std::to_string(restartAfter));
  }
  const std::string tracePath = path + ".trace.json";
  if (providerTraceJson != nullptr) {
    argv.push_back("--trace-out");
    argv.push_back(tracePath);
  }
  ProviderProcess process;
  EXPECT_TRUE(process.start(argv)) << "failed to spawn chaos_provider_server";

  ChaosOutcome out;
  out.profileName = profile.name;
  out.seed = seed;
  {
    net::FaultyTransport injector(profile, seed);
    auto transport = net::SocketTransport::connectUnix(path);
    EXPECT_NE(transport, nullptr);
    if (transport == nullptr) return out;
    rmi::RmiChannel channel(std::move(transport), net::NetworkProfile::wan(),
                            nullptr, ChaosRig::kChannelSeed);
    channel.setFaultInjector(&injector);
    ip::ProviderHandle provider(channel);
    Circuit circuit("chaosFault");
    auto& a = circuit.makeWord(ChaosRig::kW, "a");
    auto& b = circuit.makeWord(ChaosRig::kW, "b");
    auto& o = circuit.makeWord(2 * ChaosRig::kW, "o");
    chaos::ChaosPublicPartSource source;
    ip::RemoteConfig cfg;
    cfg.collectPower = false;
    // The provider lives in another process: the public part must come from
    // an explicit local source, not loopback discovery.
    cfg.publicPartSource = &source;
    auto* mult = &circuit.make<ip::RemoteComponent>(
        "MULT", provider, "MultFastLowPower", ChaosRig::kW,
        std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
        std::vector<std::pair<std::string, Connector*>>{{"o", &o}}, cfg);
    ip::RemoteFaultClient client(*mult);
    std::vector<Connector*> pis = {&a, &b};
    std::vector<Connector*> pos = {&o};
    fault::VirtualFaultSimulator sim(circuit, {&client}, pis, pos);
    out.result = sim.run(chaos::chaosPatterns(patternCount));
    out.stats = channel.stats();
    out.transport = injector.stats();
    out.recoveries = provider.recoveries();
    out.remoteErrors = mult->remoteErrors();
  }
  const int status = process.stop();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "provider exit status " << status;
  if (providerTraceJson != nullptr) {
    std::ifstream in(tracePath);
    std::stringstream ss;
    ss << in.rdbuf();
    *providerTraceJson = ss.str();
    std::remove(tracePath.c_str());
  }
  return out;
}

/// The bit-identity contract between two chaos runs: everything the
/// simulation decided and everything deterministically charged must match
/// exactly. Measured wall/CPU seconds are excluded by design (they are real
/// time).
void expectBitIdentical(const ChaosOutcome& base, const ChaosOutcome& got) {
  SCOPED_TRACE("profile=" + base.profileName +
               " seed=" + std::to_string(base.seed));
  EXPECT_EQ(base.result.faultList, got.result.faultList);
  EXPECT_EQ(base.result.detected, got.result.detected);
  EXPECT_EQ(base.result.detectedAfterPattern, got.result.detectedAfterPattern);
  EXPECT_EQ(base.result.detectionTablesRequested,
            got.result.detectionTablesRequested);
  EXPECT_EQ(base.result.tableFetchRoundTrips, got.result.tableFetchRoundTrips);
  EXPECT_EQ(base.stats.calls, got.stats.calls);
  EXPECT_EQ(base.stats.blockedCalls, got.stats.blockedCalls);
  EXPECT_EQ(base.stats.asyncCalls, got.stats.asyncCalls);
  EXPECT_EQ(base.stats.securityRejections, got.stats.securityRejections);
  EXPECT_EQ(base.stats.bytesSent, got.stats.bytesSent);
  EXPECT_EQ(base.stats.bytesReceived, got.stats.bytesReceived);
  EXPECT_EQ(base.stats.retries, got.stats.retries);
  EXPECT_EQ(base.stats.timeouts, got.stats.timeouts);
  EXPECT_EQ(base.stats.duplicatesSuppressed, got.stats.duplicatesSuppressed);
  EXPECT_EQ(base.stats.corruptedFramesDropped,
            got.stats.corruptedFramesDropped);
  EXPECT_EQ(base.stats.transportFailures, got.stats.transportFailures);
  EXPECT_DOUBLE_EQ(base.stats.feesCents, got.stats.feesCents);
  EXPECT_DOUBLE_EQ(base.stats.networkSec, got.stats.networkSec);
  EXPECT_EQ(base.transport.attempts, got.transport.attempts);
  EXPECT_EQ(base.transport.droppedRequests, got.transport.droppedRequests);
  EXPECT_EQ(base.transport.droppedResponses, got.transport.droppedResponses);
  EXPECT_EQ(base.transport.duplicatedRequests,
            got.transport.duplicatedRequests);
  EXPECT_EQ(base.transport.corruptedRequests, got.transport.corruptedRequests);
  EXPECT_EQ(base.transport.corruptedResponses,
            got.transport.corruptedResponses);
  EXPECT_EQ(base.transport.reorders, got.transport.reorders);
  EXPECT_EQ(base.transport.stalls, got.transport.stalls);
  EXPECT_EQ(base.recoveries, got.recoveries);
  EXPECT_EQ(base.remoteErrors, got.remoteErrors);
}

/// One shipped profile per parameter value, swept over two seeds: the
/// two-process socket run must be indistinguishable from the in-process run
/// in every deterministic quantity.
class TwoProcessChaos : public ::testing::TestWithParam<int> {};

TEST_P(TwoProcessChaos, BitIdenticalToInProcessRun) {
  const std::vector<net::FaultProfile> profiles = net::FaultProfile::shipped();
  ASSERT_LT(static_cast<std::size_t>(GetParam()), profiles.size());
  const net::FaultProfile& profile = profiles[GetParam()];
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    ChaosOutcome base = chaos::runChaosCampaign(profile, seed, 6, 0, kBatch);
    ChaosOutcome socket = runSocketChaosCampaign(profile, seed,
                                                 /*patternCount=*/6,
                                                 /*restartAfter=*/0);
    expectBitIdentical(base, socket);
    EXPECT_FALSE(socket.result.detected.empty())
        << chaos::chaosFailureReport(socket);
  }
}

INSTANTIATE_TEST_SUITE_P(ShippedProfiles, TwoProcessChaos,
                         ::testing::Range(0, 6));

TEST(TwoProcessChaosRestart, SurvivesMidRunProviderRestart) {
  // The provider process loses every session at its 5th dispatch: the
  // campaign's one batched table fetch, after the fault list. The client
  // must recover over the socket and still finish bit-identical to the
  // in-process restart run.
  const net::FaultProfile profile = net::FaultProfile::drop();
  constexpr std::uint64_t kSeed = 3;
  constexpr std::uint64_t kRestartAfter = 5;
  ChaosOutcome base = chaos::runChaosCampaign(profile, kSeed, 6, kRestartAfter,
                                              kBatch);
  ASSERT_EQ(base.restarts, 1u);  // the crash point actually fired
  ChaosOutcome socket =
      runSocketChaosCampaign(profile, kSeed, 6, kRestartAfter);
  expectBitIdentical(base, socket);
  EXPECT_GE(socket.recoveries, 1u) << chaos::chaosFailureReport(socket);
  EXPECT_EQ(socket.remoteErrors, 0u);
}

/// Serial EstimatePower traffic against a spawned provider process (see
/// chaos::runPowerTraffic), on a fresh instance of the chaos multiplier.
chaos::PowerTraffic runSocketPowerTraffic(const net::FaultProfile& profile,
                                          std::uint64_t seed, int calls,
                                          bool nonblocking) {
  const std::string path = uniqueSocketPath();
  ProviderProcess process;
  EXPECT_TRUE(process.start({"./chaos_provider_server", path}))
      << "failed to spawn chaos_provider_server";
  chaos::PowerTraffic out;
  {
    net::FaultyTransport injector(profile, seed);
    auto transport = net::SocketTransport::connectUnix(path);
    EXPECT_NE(transport, nullptr);
    if (transport == nullptr) return out;
    rmi::RmiChannel channel(std::move(transport), net::NetworkProfile::wan(),
                            nullptr, ChaosRig::kChannelSeed);
    channel.setFaultInjector(&injector);
    ip::ProviderHandle provider(channel);
    rmi::Args width;
    width.addU64(ChaosRig::kW);
    rmi::Response inst = provider.call(rmi::MethodId::Instantiate, 0,
                                       std::move(width), "MultFastLowPower");
    EXPECT_TRUE(inst.ok()) << inst.error;
    if (inst.ok()) {
      out = chaos::runPowerTraffic(provider, inst.payload.readU64(), calls,
                                   nonblocking);
    }
  }
  const int status = process.stop();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "provider exit status " << status;
  return out;
}

TEST(TwoProcessChaosQueue, CompletionQueueOverSocketStaysBitIdentical) {
  // Non-blocking EstimatePower over the socket backend under a lossy
  // transport: serial callAsync().get() traffic charges exactly what the
  // same calls through call() charge, all of it on the overlap account.
  constexpr int kCalls = 24;
  const net::FaultProfile profile = net::FaultProfile::lossy();
  const chaos::PowerTraffic blocking =
      runSocketPowerTraffic(profile, 5, kCalls, false);
  const chaos::PowerTraffic async =
      runSocketPowerTraffic(profile, 5, kCalls, true);
  EXPECT_EQ(blocking.failures, 0);
  EXPECT_EQ(async.failures, 0);
  EXPECT_GT(blocking.stats.retries, 0u);  // the lossy profile really bit
  EXPECT_EQ(async.stats.calls, blocking.stats.calls);
  EXPECT_EQ(async.stats.retries, blocking.stats.retries);
  EXPECT_EQ(async.stats.timeouts, blocking.stats.timeouts);
  EXPECT_EQ(async.stats.bytesSent, blocking.stats.bytesSent);
  EXPECT_EQ(async.stats.bytesReceived, blocking.stats.bytesReceived);
  EXPECT_EQ(async.stats.networkSec, blocking.stats.networkSec);
  EXPECT_EQ(async.stats.feesCents, blocking.stats.feesCents);
  EXPECT_EQ(async.stats.transportFailures, 0u);
  EXPECT_EQ(async.stats.asyncCalls, static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(async.stats.blockedCalls, 0u);
  EXPECT_GT(async.stats.nonblockingWallSec, 0.0);
  EXPECT_EQ(async.stats.blockingWallSec, 0.0);
  EXPECT_EQ(blocking.stats.asyncCalls, 0u);
  EXPECT_EQ(blocking.stats.nonblockingWallSec, 0.0);
}

TEST(TwoProcessChaosTrace, FlowIdsStitchAcrossTheProcessBoundary) {
  // The client stamps each request with its channel span's flow id; the
  // provider process adopts it for the matching provider.dispatch span. The
  // two trace files must share ids, or cross-process stitching is broken.
  if constexpr (!obs::kObsCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::Tracer& tracer = obs::Tracer::global();
  const bool wasEnabled = tracer.enabled();
  tracer.clear();
  tracer.setEnabled(true);
  std::string providerJson;
  ChaosOutcome socket =
      runSocketChaosCampaign(net::FaultProfile::none(), 1, 4, 0,
                             &providerJson);
  std::vector<obs::TraceEvent> clientEvents = tracer.collect();
  tracer.setEnabled(wasEnabled);
  ASSERT_FALSE(providerJson.empty());
  EXPECT_NE(providerJson.find("provider.dispatch"), std::string::npos);
  std::size_t flowBegins = 0;
  std::size_t stitched = 0;
  for (const obs::TraceEvent& ev : clientEvents) {
    if (ev.phase != obs::TraceEvent::Phase::FlowBegin || ev.id == 0) continue;
    ++flowBegins;
    char hex[32];
    std::snprintf(hex, sizeof(hex), "\"id\":\"0x%llx\"",
                  static_cast<unsigned long long>(ev.id));
    if (providerJson.find(hex) != std::string::npos) ++stitched;
  }
  ASSERT_GT(flowBegins, 0u);
  // Every client-side flow must reappear in the provider's trace.
  EXPECT_EQ(stitched, flowBegins);
  EXPECT_FALSE(socket.result.detected.empty());
}

}  // namespace
}  // namespace vcad
