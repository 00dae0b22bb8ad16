// Multi-client chaos suite for the MultiTenantProviderServer: N tenants
// hammer one shared server process-style (real Unix-domain sockets, real
// worker pool, real admission control), and every tenant's coverage
// results and fee ledgers must come out bit-identical to the same
// campaign run serially against a dedicated in-process provider —
// including when the job queue is shedding under load, when the tenant's
// shard restarts mid-run, and when a neighbouring tenant is being
// quota-rejected the whole time.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ip/multi_tenant_server.hpp"
#include "net/socket_transport.hpp"
#include "rmi/chaos_harness.hpp"

namespace vcad {
namespace {

using chaos::ChaosOutcome;
using chaos::ChaosRig;

/// Shared rig: the multi-tenant server plus a registry of the shards its
/// factory built, so tests can query per-tenant provider ledgers after the
/// campaigns finish.
struct MtRig {
  std::mutex mutex;
  std::map<ip::TenantId, chaos::ProviderShard*> shards;
  std::unique_ptr<ip::MultiTenantProviderServer> server;
  std::string path;

  explicit MtRig(ip::MultiTenantProviderServer::Config cfg,
                 std::uint64_t restartAfter = 0) {
    static std::atomic<int> counter{0};
    path = "mt_chaos_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock";
    server = std::make_unique<ip::MultiTenantProviderServer>(
        [this, restartAfter](ip::TenantId tenant) {
          auto shard = std::make_unique<chaos::ProviderShard>(restartAfter);
          {
            std::lock_guard<std::mutex> lock(mutex);
            shards[tenant] = shard.get();
          }
          return std::unique_ptr<rmi::ServerEndpoint>(std::move(shard));
        },
        cfg);
  }
  ~MtRig() {
    server->stop();
    std::remove(path.c_str());
  }

  void start() {
    ASSERT_TRUE(server->listenUnix(path));
    server->start();
  }
  chaos::ProviderShard* shard(ip::TenantId tenant) {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = shards.find(tenant);
    return it == shards.end() ? nullptr : it->second;
  }
};

/// Runs the standard chaos campaign as one tenant of the shared server,
/// over its own Unix-domain socket + channel (same seeds, patterns, and
/// fault machinery as the in-process ChaosRig).
ChaosOutcome runTenantCampaign(const std::string& path, ip::TenantId tenant,
                               const net::FaultProfile& profile,
                               std::uint64_t seed, int patternCount,
                               const rmi::RetryPolicy* policy = nullptr) {
  ChaosOutcome out;
  out.profileName = profile.name;
  out.seed = seed;
  net::FaultyTransport injector(profile, seed);
  auto transport = net::SocketTransport::connectUnix(path);
  EXPECT_NE(transport, nullptr);
  if (transport == nullptr) return out;
  rmi::RmiChannel channel(std::move(transport), net::NetworkProfile::wan(),
                          nullptr, ChaosRig::kChannelSeed);
  channel.setTenant(tenant);
  channel.setFaultInjector(&injector);
  if (policy != nullptr) channel.setRetryPolicy(*policy);
  ip::ProviderHandle provider(channel,
                              ip::ProviderHandle::CallMode::Blocking);
  Circuit circuit("chaosFault");
  auto& a = circuit.makeWord(ChaosRig::kW, "a");
  auto& b = circuit.makeWord(ChaosRig::kW, "b");
  auto& o = circuit.makeWord(2 * ChaosRig::kW, "o");
  chaos::ChaosPublicPartSource source;
  ip::RemoteConfig cfg;
  cfg.collectPower = false;
  cfg.publicPartSource = &source;  // the shard is across a socket
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
  return out;
}

/// Full bit-identity: everything the simulation decided and everything
/// deterministically charged, including the deterministic network clock.
/// Valid only when the multi-tenant run took no sheds (sheds burn retries
/// and simulated time, which the coverage/fee invariants must — and the
/// shed-mode test proves they do — survive).
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
  EXPECT_EQ(base.recoveries, got.recoveries);
  EXPECT_EQ(base.remoteErrors, got.remoteErrors);
}

/// The shed-tolerant contract: sheds may burn retries, bytes, and simulated
/// time, but everything the simulation decided and everything billed must
/// still match the serial run exactly.
void expectOutcomeIdentical(const ChaosOutcome& base, const ChaosOutcome& got) {
  SCOPED_TRACE("profile=" + base.profileName +
               " seed=" + std::to_string(base.seed));
  EXPECT_EQ(base.result.faultList, got.result.faultList);
  EXPECT_EQ(base.result.detected, got.result.detected);
  EXPECT_EQ(base.result.detectedAfterPattern, got.result.detectedAfterPattern);
  EXPECT_EQ(base.result.detectionTablesRequested,
            got.result.detectionTablesRequested);
  EXPECT_EQ(base.stats.calls, got.stats.calls);
  EXPECT_EQ(base.stats.securityRejections, got.stats.securityRejections);
  EXPECT_DOUBLE_EQ(base.stats.feesCents, got.stats.feesCents);
  EXPECT_EQ(base.remoteErrors, got.remoteErrors);
}

struct TenantPlan {
  ip::TenantId tenant;
  net::FaultProfile profile;
  std::uint64_t seed;
};

TEST(MtChaos, FourTenantsBitIdenticalToFourSerialRuns) {
  // Ample queue: four tenants run concurrently with no sheds, so EVERY
  // deterministic quantity — coverage, fees, retries, networkSec, byte
  // counts — must match each tenant's dedicated serial baseline exactly.
  const std::vector<net::FaultProfile> shipped = net::FaultProfile::shipped();
  ASSERT_GE(shipped.size(), 4u);
  const std::vector<TenantPlan> plans = {
      {1, shipped[0], 11},
      {2, shipped[1], 12},
      {3, shipped[2], 13},
      {4, shipped[3], 14},
  };
  std::vector<ChaosOutcome> bases;
  bases.reserve(plans.size());
  for (const TenantPlan& p : plans) {
    bases.push_back(chaos::runChaosCampaign(p.profile, p.seed, 6, 0, 1, nullptr,
                                            /*traced=*/false));
  }

  ip::MultiTenantProviderServer::Config cfg;
  cfg.queue.workers = 4;
  cfg.queue.maxQueueDepth = 64;
  MtRig rig(cfg);
  rig.start();
  std::vector<ChaosOutcome> got(plans.size());
  std::vector<std::thread> clients;
  clients.reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    clients.emplace_back([&rig, &plans, &got, i] {
      got[i] = runTenantCampaign(rig.path, plans[i].tenant, plans[i].profile,
                                 plans[i].seed, 6);
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < plans.size(); ++i) {
    expectBitIdentical(bases[i], got[i]);
    EXPECT_EQ(got[i].stats.shedResponses, 0u);  // the queue really was ample
    EXPECT_FALSE(got[i].result.detected.empty())
        << chaos::chaosFailureReport(got[i]);
    // The tenant's server-side ledger matches the dedicated provider's
    // session ledger bit for bit. (providerFeesCents covers the final
    // session only, so the comparison is meaningful when no recovery
    // re-opened the session — bit-identity above already pinned the
    // recovery counts equal.)
    const ip::TenantUsage usage = rig.server->tenantUsage(plans[i].tenant);
    if (got[i].recoveries == 0) {
      EXPECT_DOUBLE_EQ(usage.feesCents, bases[i].providerFeesCents);
    }
    EXPECT_EQ(usage.quotaRejected, 0u);
  }
  EXPECT_EQ(rig.server->stats().tenantsSeen, plans.size());
  rig.server->stop();
}

TEST(MtChaos, SheddingQueuePreservesCoverageAndFees) {
  // Starved queue: one worker, depth one, four tenants — the server sheds
  // constantly, clients ride their retry budgets. Turbulence must stay in
  // the retry counters: per-tenant coverage and fees still match the
  // serial baselines exactly, and nothing surfaced as a remote error.
  const net::FaultProfile profile = net::FaultProfile::none();
  const std::vector<TenantPlan> plans = {
      {1, profile, 21}, {2, profile, 22}, {3, profile, 23}, {4, profile, 24}};
  std::vector<ChaosOutcome> bases;
  bases.reserve(plans.size());
  for (const TenantPlan& p : plans) {
    bases.push_back(chaos::runChaosCampaign(p.profile, p.seed, 6, 0, 1, nullptr,
                                            /*traced=*/false));
  }

  ip::MultiTenantProviderServer::Config cfg;
  cfg.queue.workers = 1;
  cfg.queue.maxQueueDepth = 1;
  MtRig rig(cfg);
  rig.start();
  // A generous attempt budget: shed storms must exhaust before it does
  // (a TransportFailure would trigger session recovery and re-billing,
  // which is exactly what this test must prove does not happen).
  rmi::RetryPolicy generous;
  generous.maxAttempts = 200;
  std::vector<ChaosOutcome> got(plans.size());
  std::vector<std::thread> clients;
  clients.reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    clients.emplace_back([&rig, &plans, &got, &generous, i] {
      got[i] = runTenantCampaign(rig.path, plans[i].tenant, plans[i].profile,
                                 plans[i].seed, 6, &generous);
    });
  }
  for (std::thread& t : clients) t.join();

  std::uint64_t shedsSeen = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    expectOutcomeIdentical(bases[i], got[i]);
    EXPECT_EQ(got[i].remoteErrors, 0u) << chaos::chaosFailureReport(got[i]);
    EXPECT_EQ(got[i].stats.transportFailures, 0u);
    EXPECT_EQ(got[i].recoveries, 0u);
    shedsSeen += got[i].stats.shedResponses;
    const ip::TenantUsage usage = rig.server->tenantUsage(plans[i].tenant);
    EXPECT_DOUBLE_EQ(usage.feesCents, bases[i].providerFeesCents);
  }
  // Four clients against a depth-one single-worker queue: the admission
  // control must actually have fired, or this test proved nothing.
  const ip::MultiTenantProviderServer::Stats s = rig.server->stats();
  EXPECT_GT(s.shedTooManyPending + s.shedOverloaded, 0u);
  EXPECT_EQ(shedsSeen, s.shedTooManyPending + s.shedOverloaded);
  rig.server->stop();
}

TEST(MtChaos, MidRunShardRestartStaysBitIdentical) {
  // The tenant's shard loses all sessions after its 7th dispatch. The
  // client must recover over the shared multi-tenant front end and finish
  // bit-identical to the serial restart baseline.
  const net::FaultProfile profile = net::FaultProfile::drop();
  constexpr std::uint64_t kSeed = 3;
  constexpr std::uint64_t kRestartAfter = 7;
  ChaosOutcome base = chaos::runChaosCampaign(profile, kSeed, 6, kRestartAfter,
                                              1, nullptr, /*traced=*/false);
  ASSERT_EQ(base.restarts, 1u);  // the crash point actually fired

  ip::MultiTenantProviderServer::Config cfg;
  cfg.queue.workers = 2;
  cfg.queue.maxQueueDepth = 64;
  MtRig rig(cfg, kRestartAfter);
  rig.start();
  ChaosOutcome got = runTenantCampaign(rig.path, 5, profile, kSeed, 6);
  expectBitIdentical(base, got);
  EXPECT_GE(got.recoveries, 1u) << chaos::chaosFailureReport(got);
  EXPECT_EQ(got.remoteErrors, 0u);
  chaos::ProviderShard* shard = rig.shard(5);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->restarts(), 1u);
  rig.server->stop();
}

TEST(MtChaos, QuotaThrottledNeighbourNeverPerturbsOtherTenants) {
  // Differential run: tenant 2's fee quota dies mid-run (instantiate costs
  // 25.0, the cap sits just under the fifth 0.01 eval), so every call
  // after the crossing point is deterministically quota-rejected — while
  // tenants 1 and 3 run full campaigns bit-identical to their solo
  // baselines, byte-for-byte oblivious to the thrashing neighbour.
  const TenantPlan planA{1, net::FaultProfile::none(), 31};
  const TenantPlan planC{3, net::FaultProfile::lossy(), 33};
  ChaosOutcome baseA = chaos::runChaosCampaign(planA.profile, planA.seed, 6,
                                               0, 1, nullptr,
                                               /*traced=*/false);
  ChaosOutcome baseC = chaos::runChaosCampaign(planC.profile, planC.seed, 6,
                                               0, 1, nullptr,
                                               /*traced=*/false);

  ip::MultiTenantProviderServer::Config cfg;
  cfg.queue.workers = 3;
  cfg.queue.maxQueueDepth = 64;
  MtRig rig(cfg);
  ip::TenantQuota quota;
  // 25.0 (instantiate) + 5 × 0.01 (evals) accumulates to 25.049999…; the
  // cap at 25.049 admits exactly those and rejects everything after —
  // chosen off the FP-dust boundary so the rejection point is stable.
  quota.maxFeeCents = 25.049;
  rig.server->setTenantQuota(2, quota);
  rig.start();

  ChaosOutcome gotA;
  ChaosOutcome gotC;
  constexpr int kProbes = 40;
  struct ThrottledRun {
    bool instantiated = false;
    int okCalls = 0;
    int rejected = 0;
    int firstRejected = -1;
    rmi::ChannelStats stats;
  } b;
  std::thread tenantA([&] {
    gotA = runTenantCampaign(rig.path, 1, planA.profile, planA.seed, 6);
  });
  std::thread tenantC([&] {
    gotC = runTenantCampaign(rig.path, 3, planC.profile, planC.seed, 6);
  });
  std::thread tenantB([&] {
    auto transport = net::SocketTransport::connectUnix(rig.path);
    EXPECT_NE(transport, nullptr);
    if (transport == nullptr) return;
    rmi::RmiChannel channel(std::move(transport), net::NetworkProfile::wan(),
                            nullptr, ChaosRig::kChannelSeed);
    channel.setTenant(2);
    ip::ProviderHandle provider(channel);
    rmi::Args ia;
    ia.addU64(ChaosRig::kW);
    rmi::Response resp = provider.call(rmi::MethodId::Instantiate, 0,
                                       std::move(ia), "MultFastLowPower");
    b.instantiated = resp.ok();
    if (!b.instantiated) return;
    const rmi::InstanceId instance = resp.payload.readU64();
    for (int n = 0; n < kProbes; ++n) {
      rmi::Args args;
      args.addWord(Word::fromUint(2 * ChaosRig::kW, n));
      rmi::Response r =
          provider.call(rmi::MethodId::EvalFunction, instance,
                        std::move(args));
      if (r.ok()) {
        ++b.okCalls;
      } else {
        EXPECT_EQ(r.status, rmi::Status::PaymentRequired);
        if (b.firstRejected < 0) b.firstRejected = n;
        ++b.rejected;
      }
    }
    b.stats = channel.stats();
  });
  tenantA.join();
  tenantC.join();
  tenantB.join();

  // The unthrottled tenants are byte-for-byte oblivious to the neighbour.
  expectBitIdentical(baseA, gotA);
  expectBitIdentical(baseC, gotC);
  EXPECT_FALSE(gotA.result.detected.empty());

  // The throttled tenant was refused deterministically: exactly five evals
  // fit under the cap, the rejections are a clean suffix, typed terminal
  // (no retries, no recoveries), and the ledger froze at the crossing.
  ASSERT_TRUE(b.instantiated);
  EXPECT_EQ(b.okCalls, 5);
  EXPECT_EQ(b.firstRejected, 5);
  EXPECT_EQ(b.rejected, kProbes - 5);
  EXPECT_EQ(b.stats.quotaRejections, static_cast<std::uint64_t>(kProbes - 5));
  EXPECT_EQ(b.stats.retries, 0u);  // rejections never retry
  EXPECT_EQ(b.stats.timeouts, 0u);
  EXPECT_EQ(b.stats.transportFailures, 0u);
  const ip::TenantUsage usage = rig.server->tenantUsage(2);
  EXPECT_EQ(usage.quotaRejected, static_cast<std::uint64_t>(kProbes - 5));
  double expectedFees = 25.0;  // accumulated the way the ledger does
  for (int i = 0; i < 5; ++i) expectedFees += 0.01;
  EXPECT_DOUBLE_EQ(usage.feesCents, expectedFees);
  EXPECT_GT(rig.server->stats().quotaRejected, 0u);
  rig.server->stop();
}

}  // namespace
}  // namespace vcad
