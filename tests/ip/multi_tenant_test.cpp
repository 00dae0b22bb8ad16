// MultiTenantProviderServer tests: per-tenant endpoint shards and fee
// accounting, deterministic quota admission (and its typed PaymentRequired
// surface on the channel), job-queue verdicts over the wire, request-id
// demux across tenants, and how a channel counts a call the queue sheds on
// every attempt.
#include "ip/multi_tenant_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/socket_transport.hpp"

namespace vcad::ip {
namespace {

/// Echo endpoint charging a flat fee per eval: enough server to exercise
/// tenancy, quotas, and billing without a full ProviderServer behind it.
/// Remembers which tenant id it was built for and how often it dispatched.
class TenantEchoEndpoint : public rmi::ServerEndpoint {
 public:
  explicit TenantEchoEndpoint(TenantId tenant) : tenant_(tenant) {}

  rmi::Response dispatch(const rmi::Request& request) override {
    ++dispatched_;
    rmi::Response r;
    if (request.method == rmi::MethodId::EvalFunction) {
      rmi::Args args = request.args;
      r.payload.writeWord(args.takeWord());
      r.payload.writeU64(tenant_);  // proof of which shard answered
      r.feeCents = 1.0;
    }
    return r;
  }
  std::string hostName() const override {
    return "tenant-" + std::to_string(tenant_) + ".host";
  }
  int dispatched() const { return dispatched_.load(); }

 private:
  TenantId tenant_;
  std::atomic<int> dispatched_{0};
};

/// Factory that records every shard it built (the server calls it at most
/// once per tenant id).
struct EchoFactory {
  std::mutex mutex;
  std::map<TenantId, TenantEchoEndpoint*> shards;

  MultiTenantProviderServer::EndpointFactory fn() {
    return [this](TenantId tenant) {
      auto ep = std::make_unique<TenantEchoEndpoint>(tenant);
      std::lock_guard<std::mutex> lock(mutex);
      shards[tenant] = ep.get();
      return std::unique_ptr<rmi::ServerEndpoint>(std::move(ep));
    };
  }
  int built() {
    std::lock_guard<std::mutex> lock(mutex);
    return static_cast<int>(shards.size());
  }
};

rmi::Request echoRequest(std::uint64_t value) {
  rmi::Request r;
  r.method = rmi::MethodId::EvalFunction;
  r.args.addWord(Word::fromUint(32, value));
  return r;
}

std::vector<std::uint8_t> sealedEchoRequest(std::uint64_t value) {
  std::vector<std::uint8_t> bytes = echoRequest(value).marshal().bytes();
  net::sealFrame(bytes);
  return bytes;
}

std::unique_ptr<rmi::RmiChannel> connectTenant(std::uint16_t port,
                                               TenantId tenant) {
  auto transport = net::SocketTransport::connectTcp("127.0.0.1", port);
  EXPECT_NE(transport, nullptr);
  if (transport == nullptr) return nullptr;
  auto ch = std::make_unique<rmi::RmiChannel>(std::move(transport),
                                              net::NetworkProfile::lan());
  ch->setTenant(tenant);
  return ch;
}

TEST(MultiTenantServer, TenantsGetTheirOwnShardAndLedger) {
  EchoFactory factory;
  MultiTenantProviderServer::Config cfg;
  MultiTenantProviderServer server(factory.fn(), cfg);
  const std::uint16_t port = server.listenTcp(0);
  ASSERT_NE(port, 0);
  server.start();

  auto chA = connectTenant(port, 1);
  auto chB = connectTenant(port, 2);
  ASSERT_NE(chA, nullptr);
  ASSERT_NE(chB, nullptr);
  for (int i = 0; i < 3; ++i) {
    rmi::Response r = chA->call(echoRequest(0xA0 + i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.payload.readWord().toUint(), 0xA0u + i);
    EXPECT_EQ(r.payload.readU64(), 1u);  // answered by tenant 1's shard
  }
  for (int i = 0; i < 2; ++i) {
    rmi::Response r = chB->call(echoRequest(0xB0 + i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.payload.readWord().toUint(), 0xB0u + i);
    EXPECT_EQ(r.payload.readU64(), 2u);  // answered by tenant 2's shard
  }

  EXPECT_EQ(factory.built(), 2);
  const TenantUsage a = server.tenantUsage(1);
  const TenantUsage b = server.tenantUsage(2);
  EXPECT_EQ(a.dispatches, 3u);
  EXPECT_DOUBLE_EQ(a.feesCents, 3.0);
  EXPECT_EQ(a.billedCalls, 3u);
  EXPECT_EQ(b.dispatches, 2u);
  EXPECT_DOUBLE_EQ(b.feesCents, 2.0);
  EXPECT_EQ(server.tenantUsage(99).dispatches, 0u);  // never seen: zeroes
  EXPECT_EQ(server.stats().tenantsSeen, 2u);
  // The reply can reach the client before the worker bumps the counter —
  // wait on the stats condition variable.
  EXPECT_TRUE(server.awaitStats(
      [](const MultiTenantProviderServer::Stats& s) {
        return s.framesServed == 5;
      },
      2.0));
  // Channel-side fee ledgers mirror the per-tenant server ledgers.
  EXPECT_DOUBLE_EQ(chA->stats().feesCents, a.feesCents);
  EXPECT_DOUBLE_EQ(chB->stats().feesCents, b.feesCents);
  server.stop();
}

TEST(MultiTenantServer, QuotaExhaustionIsDeterministicTerminalAndScoped) {
  // Two identical runs against fresh servers must reject at exactly the
  // same call index; the rejection must surface as PaymentRequired with no
  // retry burned; and the other tenant must be untouched.
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    EchoFactory factory;
    MultiTenantProviderServer::Config cfg;
    MultiTenantProviderServer server(factory.fn(), cfg);
    TenantQuota quota;
    quota.maxBilledCalls = 3;
    server.setTenantQuota(7, quota);  // before the tenant is ever seen
    const std::uint16_t port = server.listenTcp(0);
    ASSERT_NE(port, 0);
    server.start();

    auto limited = connectTenant(port, 7);
    auto unlimited = connectTenant(port, 8);
    ASSERT_NE(limited, nullptr);
    ASSERT_NE(unlimited, nullptr);
    int served = 0;
    int rejectedAt = -1;
    for (int i = 0; i < 6; ++i) {
      rmi::Response r = limited->call(echoRequest(i));
      if (r.ok()) {
        ++served;
      } else {
        EXPECT_EQ(r.status, rmi::Status::PaymentRequired);
        if (rejectedAt < 0) rejectedAt = i;
      }
    }
    EXPECT_EQ(served, 3);
    EXPECT_EQ(rejectedAt, 3);  // deterministic: always the 4th call
    // Quota rejections are terminal, not retried: three rejected calls,
    // three typed rejections, zero retries or timeouts burned.
    EXPECT_EQ(limited->stats().quotaRejections, 3u);
    EXPECT_EQ(limited->stats().retries, 0u);
    EXPECT_EQ(limited->stats().timeouts, 0u);
    EXPECT_EQ(limited->stats().transportFailures, 0u);
    const TenantUsage u = server.tenantUsage(7);
    EXPECT_EQ(u.billedCalls, 3u);
    EXPECT_EQ(u.quotaRejected, 3u);
    EXPECT_DOUBLE_EQ(u.feesCents, 3.0);
    EXPECT_EQ(server.stats().quotaRejected, 3u);
    // The over-quota tenant's shard never saw the rejected calls...
    {
      std::lock_guard<std::mutex> lock(factory.mutex);
      EXPECT_EQ(factory.shards[7]->dispatched(), 3);
    }
    // ...and the other tenant sails on.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(unlimited->call(echoRequest(i)).ok());
    }
    EXPECT_EQ(unlimited->stats().quotaRejections, 0u);
    EXPECT_EQ(server.tenantUsage(8).billedCalls, 5u);
    server.stop();
  }
}

TEST(MultiTenantServer, FeeQuotaCutsOffAtTheConfiguredSpend) {
  EchoFactory factory;
  MultiTenantProviderServer::Config cfg;
  TenantQuota quota;
  quota.maxFeeCents = 2.5;  // 1.0 per call: two bill, the third crosses
  cfg.defaultQuota = quota;
  MultiTenantProviderServer server(factory.fn(), cfg);
  const std::uint16_t port = server.listenTcp(0);
  ASSERT_NE(port, 0);
  server.start();
  auto ch = connectTenant(port, 4);
  ASSERT_NE(ch, nullptr);
  ASSERT_TRUE(ch->call(echoRequest(1)).ok());  // fees 1.0 < 2.5
  ASSERT_TRUE(ch->call(echoRequest(2)).ok());  // fees 2.0 < 2.5
  ASSERT_TRUE(ch->call(echoRequest(3)).ok());  // fees 3.0: the last admitted
  rmi::Response over = ch->call(echoRequest(4));
  EXPECT_EQ(over.status, rmi::Status::PaymentRequired);
  EXPECT_DOUBLE_EQ(server.tenantUsage(4).feesCents, 3.0);
  server.stop();
}

TEST(MultiTenantServer, SameRequestIdOnTwoTenantsNeverCrosses) {
  // Cross-tenant request-id confusion, end to end: two connections send the
  // same request id with different tenant ids and different payloads; each
  // must get its own shard's answer back on its own wire.
  EchoFactory factory;
  MultiTenantProviderServer::Config cfg;
  MultiTenantProviderServer server(factory.fn(), cfg);
  const std::uint16_t port = server.listenTcp(0);
  ASSERT_NE(port, 0);
  server.start();
  auto wireA = net::SocketTransport::connectTcp("127.0.0.1", port);
  auto wireB = net::SocketTransport::connectTcp("127.0.0.1", port);
  ASSERT_NE(wireA, nullptr);
  ASSERT_NE(wireB, nullptr);
  net::RequestFrameHeader h;
  h.methodId = static_cast<std::uint32_t>(rmi::MethodId::EvalFunction);
  h.requestId = 42;  // deliberately identical on both wires
  h.priority = net::JobPriority::Compute;
  h.tenantId = 1;
  wireA->send(h, sealedEchoRequest(0x11));
  h.tenantId = 2;
  wireB->send(h, sealedEchoRequest(0x22));
  net::TransportReply a = wireA->awaitReply(42, 5.0);
  net::TransportReply b = wireB->awaitReply(42, 5.0);
  ASSERT_TRUE(a.delivered);
  ASSERT_TRUE(b.delivered);
  ASSERT_EQ(a.status, net::FrameStatus::Ok);
  ASSERT_EQ(b.status, net::FrameStatus::Ok);
  ASSERT_TRUE(net::openFrame(a.sealedPayload));
  ASSERT_TRUE(net::openFrame(b.sealedPayload));
  net::ByteBuffer bufA(std::move(a.sealedPayload));
  net::ByteBuffer bufB(std::move(b.sealedPayload));
  rmi::Response respA = rmi::Response::unmarshal(bufA);
  rmi::Response respB = rmi::Response::unmarshal(bufB);
  EXPECT_EQ(respA.payload.readWord().toUint(), 0x11u);
  EXPECT_EQ(respA.payload.readU64(), 1u);
  EXPECT_EQ(respB.payload.readWord().toUint(), 0x22u);
  EXPECT_EQ(respB.payload.readU64(), 2u);
  EXPECT_EQ(server.tenantUsage(1).dispatches, 1u);
  EXPECT_EQ(server.tenantUsage(2).dispatches, 1u);
  server.stop();
}

// --- job-queue verdicts over the wire --------------------------------------

/// Shard whose dispatch blocks until released — pins the queue's single
/// worker so admission states can be staged deterministically.
class GatedShard : public rmi::ServerEndpoint {
 public:
  rmi::Response dispatch(const rmi::Request& request) override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    rmi::Response r;
    if (request.method == rmi::MethodId::EvalFunction) {
      rmi::Args args = request.args;
      r.payload.writeWord(args.takeWord());
    }
    return r;
  }
  std::string hostName() const override { return "gated.host"; }
  void awaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, n] { return entered_ >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

/// Factory building a GatedShard and publishing it through `slot`.
MultiTenantProviderServer::EndpointFactory gatedFactory(
    std::atomic<GatedShard*>& slot) {
  return [&slot](TenantId) {
    auto ep = std::make_unique<GatedShard>();
    slot.store(ep.get(), std::memory_order_release);
    return std::unique_ptr<rmi::ServerEndpoint>(std::move(ep));
  };
}

/// The factory runs on the reader thread when a tenant's first frame
/// arrives; waits for it to have published the shard.
GatedShard* awaitShard(const std::atomic<GatedShard*>& slot) {
  while (slot.load(std::memory_order_acquire) == nullptr) {
    std::this_thread::yield();
  }
  return slot.load(std::memory_order_acquire);
}

TEST(MultiTenantServer, QueueVerdictsSurfaceAsTypedFrameStatuses) {
  std::atomic<GatedShard*> shard{nullptr};
  MultiTenantProviderServer::Config cfg;
  cfg.queue.workers = 1;
  cfg.queue.maxQueueDepth = 2;
  cfg.queue.perPriorityDepth[static_cast<std::size_t>(
      net::JobPriority::Compute)] = 1;
  MultiTenantProviderServer server(gatedFactory(shard), cfg);
  const std::uint16_t port = server.listenTcp(0);
  ASSERT_NE(port, 0);
  server.start();
  auto wire = net::SocketTransport::connectTcp("127.0.0.1", port);
  ASSERT_NE(wire, nullptr);

  net::RequestFrameHeader h;
  h.methodId = static_cast<std::uint32_t>(rmi::MethodId::EvalFunction);
  h.tenantId = 1;
  h.priority = net::JobPriority::Compute;
  // #1 occupies the single worker (gated inside dispatch).
  h.requestId = 1;
  wire->send(h, sealedEchoRequest(1));
  awaitShard(shard)->awaitEntered(1);
  // #2 queues in the Compute lane (depth 1 == lane bound).
  h.requestId = 2;
  wire->send(h, sealedEchoRequest(2));
  // #3 exceeds the Compute lane bound -> TooManyPending.
  h.requestId = 3;
  wire->send(h, sealedEchoRequest(3));
  net::TransportReply shed = wire->awaitReply(3, 5.0);
  ASSERT_TRUE(shed.delivered);
  EXPECT_EQ(shed.status, net::FrameStatus::TooManyPending);
  // #4 on another lane still fits (global depth 2)...
  h.requestId = 4;
  h.priority = net::JobPriority::Query;
  h.methodId = static_cast<std::uint32_t>(rmi::MethodId::GetCatalog);
  wire->send(h, sealedEchoRequest(4));
  // ...but #5 hits the global bound -> Overloaded.
  h.requestId = 5;
  wire->send(h, sealedEchoRequest(5));
  net::TransportReply overloaded = wire->awaitReply(5, 5.0);
  ASSERT_TRUE(overloaded.delivered);
  EXPECT_EQ(overloaded.status, net::FrameStatus::Overloaded);

  shard.load()->release();
  for (std::uint64_t id : {1, 2, 4}) {
    net::TransportReply ok = wire->awaitReply(id, 5.0);
    ASSERT_TRUE(ok.delivered) << "request " << id;
    EXPECT_EQ(ok.status, net::FrameStatus::Ok) << "request " << id;
  }
  server.waitIdle();  // executed counters settle under the queue mutex
  EXPECT_EQ(server.stats().shedTooManyPending, 1u);
  EXPECT_EQ(server.stats().shedOverloaded, 1u);
  EXPECT_EQ(server.tenantUsage(1).shed, 2u);
  const JobQueue::Stats qs = server.queueStats();
  EXPECT_EQ(qs.shedTooManyPending, 1u);
  EXPECT_EQ(qs.shedOverloaded, 1u);
  EXPECT_EQ(qs.executed, 3u);
  server.stop();
}

// --- a call shed on every attempt -------------------------------------------

TEST(MultiTenantServer, ChannelCountsEveryShedOfItsAttemptBudget) {
  // With one queue worker and a Compute lane bound of 1, a gated frame
  // occupies the worker and a second fills the lane, so the channel's probe
  // (a Compute-lane EvalFunction) is shed on every attempt.
  std::atomic<GatedShard*> sockShard{nullptr};
  MultiTenantProviderServer::Config cfg;
  cfg.queue.workers = 1;
  cfg.queue.perPriorityDepth[static_cast<std::size_t>(
      net::JobPriority::Compute)] = 1;
  MultiTenantProviderServer server(gatedFactory(sockShard), cfg);
  const std::uint16_t port = server.listenTcp(0);
  ASSERT_NE(port, 0);
  server.start();
  auto occupier = net::SocketTransport::connectTcp("127.0.0.1", port);
  ASSERT_NE(occupier, nullptr);
  net::RequestFrameHeader h;
  h.methodId = static_cast<std::uint32_t>(rmi::MethodId::EvalFunction);
  h.priority = net::JobPriority::Compute;
  h.requestId = 900;
  occupier->send(h, sealedEchoRequest(0xF0));
  awaitShard(sockShard)->awaitEntered(1);  // the only worker is occupied
  h.requestId = 901;
  occupier->send(h, sealedEchoRequest(0xF2));
  while (server.queueStats().enqueued < 2) {  // the lane is now full
    std::this_thread::yield();
  }
  auto transport = net::SocketTransport::connectTcp("127.0.0.1", port);
  ASSERT_NE(transport, nullptr);
  rmi::RmiChannel sockCh(std::move(transport), net::NetworkProfile::lan());
  rmi::Response sockRejected = sockCh.call(echoRequest(0xF1));
  EXPECT_EQ(sockRejected.status, rmi::Status::TransportFailure);
  sockShard.load()->release();
  for (std::uint64_t id : {900, 901}) {
    net::TransportReply fin = occupier->awaitReply(id, 5.0);
    EXPECT_TRUE(fin.delivered) << "request " << id;
    EXPECT_EQ(fin.status, net::FrameStatus::Ok) << "request " << id;
  }
  const rmi::ChannelStats sock = sockCh.stats();
  server.stop();

  // The shed call is deterministic: the whole attempt budget burns on
  // typed TooManyPending replies, each counted as a shed and a timeout.
  const auto budget =
      static_cast<std::uint64_t>(sockCh.retryPolicy().maxAttempts);
  EXPECT_EQ(sock.shedResponses, budget);
  EXPECT_EQ(sock.timeouts, budget);
  EXPECT_EQ(sock.retries, budget - 1);
  EXPECT_EQ(sock.transportFailures, 1u);
  EXPECT_EQ(sock.quotaRejections, 0u);
  // And the server-side counters saw the same thing.
  EXPECT_EQ(server.stats().shedTooManyPending, budget);
}

TEST(MultiTenantServer, ConnectionCapLimitsOneTenantNotItsNeighbours) {
  // Listener hardening: tenant 1 may hold at most two connections. Its
  // third gets a typed ConnectionLimit reply and loses the wire; tenant 2
  // connects freely throughout; and closing one of tenant 1's connections
  // frees a slot again.
  EchoFactory factory;
  MultiTenantProviderServer::Config cfg;
  cfg.maxConnectionsPerTenant = 2;
  MultiTenantProviderServer server(factory.fn(), cfg);
  const std::uint16_t port = server.listenTcp(0);
  ASSERT_NE(port, 0);
  server.start();

  net::RequestFrameHeader h;
  h.methodId = static_cast<std::uint32_t>(rmi::MethodId::EvalFunction);
  h.priority = net::JobPriority::Compute;
  auto sendEcho = [&h](net::SocketTransport& wire, TenantId tenant,
                       std::uint64_t requestId) {
    h.tenantId = tenant;
    h.requestId = requestId;
    wire.send(h, sealedEchoRequest(requestId));
  };

  // Two connections bind tenant 1 up to its cap.
  auto wire1 = net::SocketTransport::connectTcp("127.0.0.1", port);
  auto wire2 = net::SocketTransport::connectTcp("127.0.0.1", port);
  ASSERT_NE(wire1, nullptr);
  ASSERT_NE(wire2, nullptr);
  sendEcho(*wire1, 1, 11);
  sendEcho(*wire2, 1, 12);
  EXPECT_EQ(wire1->awaitReply(11, 5.0).status, net::FrameStatus::Ok);
  EXPECT_EQ(wire2->awaitReply(12, 5.0).status, net::FrameStatus::Ok);

  // The third connection's first frame trips the cap: typed reply, then
  // the server closes the wire.
  auto wire3 = net::SocketTransport::connectTcp("127.0.0.1", port);
  ASSERT_NE(wire3, nullptr);
  sendEcho(*wire3, 1, 13);
  const net::TransportReply capped = wire3->awaitReply(13, 5.0);
  ASSERT_TRUE(capped.delivered);
  EXPECT_EQ(capped.status, net::FrameStatus::ConnectionLimit);

  // The neighbour is untouched: tenant 2 still gets two fresh connections.
  auto wireB1 = net::SocketTransport::connectTcp("127.0.0.1", port);
  auto wireB2 = net::SocketTransport::connectTcp("127.0.0.1", port);
  ASSERT_NE(wireB1, nullptr);
  ASSERT_NE(wireB2, nullptr);
  sendEcho(*wireB1, 2, 21);
  sendEcho(*wireB2, 2, 22);
  EXPECT_EQ(wireB1->awaitReply(21, 5.0).status, net::FrameStatus::Ok);
  EXPECT_EQ(wireB2->awaitReply(22, 5.0).status, net::FrameStatus::Ok);

  EXPECT_EQ(server.stats().connLimitRejected, 1u);
  EXPECT_EQ(server.tenantUsage(1).connRejected, 1u);
  EXPECT_EQ(server.tenantUsage(2).connRejected, 0u);
  // The capped frame never reached a worker or billed anything.
  EXPECT_EQ(server.tenantUsage(1).dispatches, 2u);

  // Closing one bound connection frees the slot; the teardown is
  // asynchronous, so retry until the new bind is accepted.
  wire1.reset();
  bool rebound = false;
  for (int attempt = 0; attempt < 200 && !rebound; ++attempt) {
    auto wire = net::SocketTransport::connectTcp("127.0.0.1", port);
    ASSERT_NE(wire, nullptr);
    const std::uint64_t id = 100 + static_cast<std::uint64_t>(attempt);
    sendEcho(*wire, 1, id);
    const net::TransportReply r = wire->awaitReply(id, 5.0);
    if (r.delivered && r.status == net::FrameStatus::Ok) {
      rebound = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(rebound);
  server.stop();
}

TEST(MultiTenantServer, AcceptRateLimitIsDeterministicWithZeroRefill) {
  // acceptBurst=2 with no refill: exactly the first two accepts ever get a
  // reader thread; every later connection is closed at accept, before it
  // can cost anything. (A real deployment sets a nonzero refill — zero
  // makes the cutoff deterministic for the test.)
  EchoFactory factory;
  MultiTenantProviderServer::Config cfg;
  cfg.acceptBurst = 2;
  cfg.acceptRefillPerSec = 0.0;
  MultiTenantProviderServer server(factory.fn(), cfg);
  const std::uint16_t port = server.listenTcp(0);
  ASSERT_NE(port, 0);
  server.start();

  net::RequestFrameHeader h;
  h.methodId = static_cast<std::uint32_t>(rmi::MethodId::EvalFunction);
  h.priority = net::JobPriority::Compute;
  h.tenantId = 1;

  auto wire1 = net::SocketTransport::connectTcp("127.0.0.1", port);
  auto wire2 = net::SocketTransport::connectTcp("127.0.0.1", port);
  ASSERT_NE(wire1, nullptr);
  ASSERT_NE(wire2, nullptr);
  h.requestId = 1;
  wire1->send(h, sealedEchoRequest(1));
  EXPECT_EQ(wire1->awaitReply(1, 5.0).status, net::FrameStatus::Ok);
  h.requestId = 2;
  wire2->send(h, sealedEchoRequest(2));
  EXPECT_EQ(wire2->awaitReply(2, 5.0).status, net::FrameStatus::Ok);

  // The third connect completes the TCP handshake (kernel backlog), but
  // the server closes it at accept — no frame is ever answered.
  auto wire3 = net::SocketTransport::connectTcp("127.0.0.1", port);
  if (wire3 != nullptr) {
    h.requestId = 3;
    wire3->send(h, sealedEchoRequest(3));
    EXPECT_FALSE(wire3->awaitReply(3, 1.0).delivered);
  }
  EXPECT_TRUE(server.awaitStats(
      [](const MultiTenantProviderServer::Stats& s) {
        return s.acceptRateLimited >= 1;
      },
      5.0));
  // The surviving connections keep working: the limiter sheds new accepts,
  // not established tenants.
  h.requestId = 4;
  wire1->send(h, sealedEchoRequest(4));
  EXPECT_EQ(wire1->awaitReply(4, 5.0).status, net::FrameStatus::Ok);
  EXPECT_EQ(server.stats().connections, 2u);
  server.stop();
}

TEST(MultiTenantServer, StopDrainsAndStaysStopped) {
  EchoFactory factory;
  MultiTenantProviderServer::Config cfg;
  MultiTenantProviderServer server(factory.fn(), cfg);
  const std::uint16_t port = server.listenTcp(0);
  ASSERT_NE(port, 0);
  server.start();
  {
    auto ch = connectTenant(port, 1);
    ASSERT_NE(ch, nullptr);
    ASSERT_TRUE(ch->call(echoRequest(1)).ok());
  }
  server.stop();
  server.stop();  // idempotent
  // Post-stop the listener is gone: a fresh connect must fail.
  auto late = net::SocketTransport::connectTcp("127.0.0.1", port);
  if (late != nullptr) {
    // The OS may accept briefly on some platforms; any frame must go
    // unanswered.
    net::RequestFrameHeader h;
    h.methodId = static_cast<std::uint32_t>(rmi::MethodId::EvalFunction);
    h.requestId = 9;
    late->send(h, sealedEchoRequest(9));
    EXPECT_FALSE(late->awaitReply(9, 0.2).delivered);
  }
}

}  // namespace
}  // namespace vcad::ip
