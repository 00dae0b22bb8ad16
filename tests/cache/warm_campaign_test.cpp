// End-to-end tests of the shared result store: cold/warm campaign
// differentials (coverage, fees and detection tables bit-identical), hit
// survival across a provider restart with an unchanged netlist, versioned
// invalidation when the netlist changes, loopback/socket parity of the
// ChannelStats cache counters, cross-site sharing with
// FaultDictionary::build, and the execute-once guarantee for concurrent
// same-key misses arriving through the provider.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/result_store.hpp"
#include "fault/dictionary.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "ip/multi_tenant_server.hpp"
#include "ip/provider_server.hpp"
#include "ip/remote_component.hpp"
#include "net/socket_transport.hpp"

namespace vcad::fault {
namespace {

using gate::Netlist;

constexpr int kW = 3;

ip::IpComponentSpec multiplierSpec() {
  ip::IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ip::ModelLevel::Static;
  spec.power = ip::ModelLevel::Dynamic;
  spec.timing = ip::ModelLevel::Dynamic;
  spec.area = ip::ModelLevel::Dynamic;
  spec.testability = ip::ModelLevel::Dynamic;
  spec.fees.perDetectionTableCents = 0.05;
  return spec;
}

ip::PublicPart multiplierPublicPart(std::uint64_t w) {
  ip::PublicPart pub;
  pub.functional = [w](const Word& in, const rmi::Sandbox&) {
    const int width = static_cast<int>(w);
    const Word a = in.slice(0, width);
    const Word b = in.slice(width, width);
    if (!a.isFullyKnown() || !b.isFullyKnown()) {
      return Word::allX(2 * width);
    }
    return Word::fromUint(2 * width, a.toUint() * b.toUint());
  };
  return pub;
}

/// Client-side public part for a multiplier served from another process.
struct MultiplierSource : ip::PublicPartSource {
  ip::PublicPart downloadPublicPart(const std::string&,
                                    std::uint64_t w) const override {
    return multiplierPublicPart(w);
  }
};

void registerMultiplier(ip::ProviderServer& server) {
  server.registerComponent(
      multiplierSpec(),
      [](std::uint64_t w) {
        return std::make_shared<const Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      multiplierPublicPart);
}

/// Re-registers the same catalog name with a structurally different
/// implementation (same 2w-in/2w-out shape): the "provider shipped a new
/// netlist version" event that must invalidate every warmed entry.
void registerChangedMultiplier(ip::ProviderServer& server) {
  server.registerComponent(
      multiplierSpec(),
      [](std::uint64_t w) {
        Rng rng(0x5EED);
        return std::make_shared<const Netlist>(gate::makeRandomNetlist(
            rng, 2 * static_cast<int>(w), 24, 2 * static_cast<int>(w)));
      },
      multiplierPublicPart);
}

/// Channel + circuit + remote multiplier against an existing endpoint, so
/// several rigs (cold/warm, pre/post restart) can share one provider and
/// one store. Works over the in-process loopback or a socket transport.
struct Rig {
  rmi::RmiChannel channel;
  ip::ProviderHandle provider;
  Circuit circuit;
  ip::RemoteComponent* mult = nullptr;
  std::unique_ptr<ip::RemoteFaultClient> client;
  std::vector<Connector*> pis;
  std::vector<Connector*> pos;

  // Distinct rigs on one live server need distinct channel seeds: a seed
  // collision makes two clients draw identical idempotency keys, and the
  // provider's replay ledger would answer the second client before the
  // store is ever consulted.
  explicit Rig(rmi::ServerEndpoint& server, std::uint64_t seed = 0x5eed)
      : channel(server, net::NetworkProfile::ideal(), nullptr, seed),
        provider(channel),
        circuit("cacheRig") {
    build(nullptr);
  }

  Rig(std::unique_ptr<net::Transport> transport,
      const ip::PublicPartSource* pubSrc, std::uint64_t seed)
      : channel(std::move(transport), net::NetworkProfile::ideal(), nullptr,
                seed),
        provider(channel),
        circuit("cacheRig") {
    build(pubSrc);
  }

  void build(const ip::PublicPartSource* pubSrc) {
    auto& a = circuit.makeWord(kW, "a");
    auto& b = circuit.makeWord(kW, "b");
    auto& o = circuit.makeWord(2 * kW, "o");
    ip::RemoteConfig cfg;
    cfg.collectPower = false;
    cfg.publicPartSource = pubSrc;
    mult = &circuit.make<ip::RemoteComponent>(
        "MULT", provider, "MultFastLowPower", kW,
        std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
        std::vector<std::pair<std::string, Connector*>>{{"o", &o}}, cfg);
    client = std::make_unique<ip::RemoteFaultClient>(*mult);
    pis = {&a, &b};
    pos = {&o};
  }

  CampaignResult runCampaign(const std::vector<std::vector<Word>>& patterns) {
    VirtualFaultSimulator sim(circuit, {client.get()}, pis, pos);
    return sim.run(patterns);
  }
};

std::vector<std::vector<Word>> patterns(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Word>> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({Word::fromUint(kW, rng.next()),
                   Word::fromUint(kW, rng.next())});
  }
  return out;
}

std::vector<std::uint8_t> tableBytes(ip::RemoteFaultClient& client,
                                     std::uint64_t config) {
  DetectionTable t = client.detectionTable(Word::fromUint(2 * kW, config));
  net::ByteBuffer buf;
  t.serialize(buf);
  return buf.bytes();
}

TEST(WarmCampaign, ColdThenWarmProviderStoreIsBitIdentical) {
  auto store = cache::ResultStore::inMemory();
  const auto pats = patterns(10, 0xC0FFEE);

  // Cold: fresh provider attached to the empty store.
  ip::ProviderServer coldServer("provider.host", nullptr);
  registerMultiplier(coldServer);
  coldServer.setResultStore(store);
  Rig cold(coldServer);
  const CampaignResult goldRes = cold.runCampaign(pats);
  const rmi::ChannelStats coldStats = cold.channel.stats();
  ASSERT_GT(goldRes.detected.size(), 0u);
  EXPECT_EQ(coldStats.cacheHits, 0u);
  EXPECT_EQ(coldStats.cacheMisses, goldRes.detectionTablesRequested);
  EXPECT_EQ(coldStats.cacheEvictions, 0u);

  // Warm: a *different* provider process sharing the store. Identical
  // netlist → identical digest → every table request is a store hit.
  ip::ProviderServer warmServer("provider.host", nullptr);
  registerMultiplier(warmServer);
  warmServer.setResultStore(store);
  Rig warm(warmServer);
  const CampaignResult warmRes = warm.runCampaign(pats);
  const rmi::ChannelStats warmStats = warm.channel.stats();

  // Coverage, fault list, per-pattern curve and fees: bit-identical.
  EXPECT_EQ(warmRes.faultList, goldRes.faultList);
  EXPECT_EQ(warmRes.detected, goldRes.detected);
  EXPECT_EQ(warmRes.detectedAfterPattern, goldRes.detectedAfterPattern);
  EXPECT_EQ(warmRes.detectionTablesRequested, goldRes.detectionTablesRequested);
  EXPECT_DOUBLE_EQ(warmStats.feesCents, coldStats.feesCents);

  // The channel observed the store: every table response was a warm hit.
  EXPECT_EQ(warmStats.cacheHits, goldRes.detectionTablesRequested);
  EXPECT_EQ(warmStats.cacheMisses, 0u);
  EXPECT_GT(warmStats.cacheBytes, 0u);

  // Raw table bytes are identical cold vs warm (a fresh config exercises
  // the miss→hit pair directly).
  ip::ProviderServer checkServer("provider.host", nullptr);
  registerMultiplier(checkServer);
  checkServer.setResultStore(store);
  Rig check(checkServer);
  EXPECT_EQ(tableBytes(*cold.client, 21), tableBytes(*check.client, 21));
}

TEST(WarmCampaign, HitsSurviveProviderRestartWithUnchangedNetlist) {
  auto store = cache::ResultStore::inMemory();
  const auto pats = patterns(8, 0xFACADE);

  ip::ProviderServer server("provider.host", nullptr);
  registerMultiplier(server);
  server.setResultStore(store);

  Rig before(server);
  const CampaignResult goldRes = before.runCampaign(pats);
  EXPECT_EQ(before.channel.stats().cacheHits, 0u);
  const std::uint64_t digestBefore = before.client->versionDigest();
  ASSERT_NE(digestBefore, 0u);

  // Provider process restart: sessions and instances vanish, the store
  // (and the netlist) do not.
  server.restart();
  Rig after(server);
  const CampaignResult afterRes = after.runCampaign(pats);

  EXPECT_EQ(after.client->versionDigest(), digestBefore);
  EXPECT_EQ(afterRes.detected, goldRes.detected);
  EXPECT_EQ(afterRes.detectedAfterPattern, goldRes.detectedAfterPattern);
  // Same digest → same keys → the warmed entries keep serving.
  EXPECT_EQ(after.channel.stats().cacheHits, goldRes.detectionTablesRequested);
  EXPECT_EQ(after.channel.stats().cacheMisses, 0u);
}

TEST(WarmCampaign, ChangedNetlistInvalidatesEveryWarmEntry) {
  auto store = cache::ResultStore::inMemory();
  const auto pats = patterns(8, 0xFACADE);

  ip::ProviderServer server("provider.host", nullptr);
  registerMultiplier(server);
  server.setResultStore(store);
  Rig before(server);
  before.runCampaign(pats);
  const std::uint64_t digestBefore = before.client->versionDigest();
  const auto storeMissesBefore = store->stats().misses;
  ASSERT_GT(storeMissesBefore, 0u);

  // The provider restarts with a *different* implementation under the same
  // catalog name: new digest, so every old entry becomes unreachable.
  server.restart();
  registerChangedMultiplier(server);
  Rig after(server);
  const CampaignResult afterRes = after.runCampaign(pats);

  EXPECT_NE(after.client->versionDigest(), digestBefore);
  ASSERT_NE(after.client->versionDigest(), 0u);
  // Zero stale hits: every table request went to compute, not the store.
  EXPECT_EQ(after.channel.stats().cacheHits, 0u);
  EXPECT_EQ(after.channel.stats().cacheMisses,
            afterRes.detectionTablesRequested);
  EXPECT_EQ(store->stats().misses,
            storeMissesBefore + afterRes.detectionTablesRequested);
}

TEST(WarmCampaign, LoopbackAndSocketBackendsCountCachesIdentically) {
  const auto pats = patterns(9, 0xABCD);

  // Loopback lane: cold then warm campaign over one store.
  auto loopStore = cache::ResultStore::inMemory();
  ip::ProviderServer loopServer("provider.host", nullptr);
  registerMultiplier(loopServer);
  loopServer.setResultStore(loopStore);
  Rig loopCold(loopServer, /*seed=*/11);
  const CampaignResult loopColdRes = loopCold.runCampaign(pats);
  Rig loopWarm(loopServer, /*seed=*/22);
  const CampaignResult loopWarmRes = loopWarm.runCampaign(pats);

  // Socket lane: the same provider config served over a Unix socket, as
  // tenant 0 of the provider front end. The public part comes from a local
  // source, as for any provider in another process.
  ip::MultiTenantProviderServer::Config cfg;
  cfg.resultStore = cache::ResultStore::inMemory();
  ip::MultiTenantProviderServer front(
      [](ip::TenantId) {
        auto server =
            std::make_unique<ip::ProviderServer>("provider.host", nullptr);
        registerMultiplier(*server);
        return server;
      },
      cfg);
  const std::string path =
      "cache_parity_" + std::to_string(::getpid()) + ".sock";
  ASSERT_TRUE(front.listenUnix(path));
  front.start();

  const MultiplierSource source;
  auto coldTransport = net::SocketTransport::connectUnix(path);
  ASSERT_NE(coldTransport, nullptr);
  Rig sockCold(std::move(coldTransport), &source, /*seed=*/11);
  const CampaignResult sockColdRes = sockCold.runCampaign(pats);
  auto warmTransport = net::SocketTransport::connectUnix(path);
  ASSERT_NE(warmTransport, nullptr);
  Rig sockWarm(std::move(warmTransport), &source, /*seed=*/22);
  const CampaignResult sockWarmRes = sockWarm.runCampaign(pats);
  front.stop();

  // Identical campaign outcome on both backends...
  EXPECT_EQ(sockColdRes.detected, loopColdRes.detected);
  EXPECT_EQ(sockWarmRes.detected, loopWarmRes.detected);
  EXPECT_EQ(sockWarmRes.detectionTablesRequested,
            loopWarmRes.detectionTablesRequested);

  // ...and identical cache accounting: the counters derive from the same
  // delivered Response fields, so the transport cannot skew them.
  EXPECT_EQ(sockCold.channel.stats().cacheHits,
            loopCold.channel.stats().cacheHits);
  EXPECT_EQ(sockCold.channel.stats().cacheMisses,
            loopCold.channel.stats().cacheMisses);
  EXPECT_EQ(sockWarm.channel.stats().cacheHits,
            loopWarm.channel.stats().cacheHits);
  EXPECT_EQ(sockWarm.channel.stats().cacheMisses,
            loopWarm.channel.stats().cacheMisses);
  EXPECT_EQ(sockWarm.channel.stats().cacheBytes,
            loopWarm.channel.stats().cacheBytes);
  EXPECT_GT(loopWarm.channel.stats().cacheHits, 0u);
  EXPECT_EQ(loopWarm.channel.stats().cacheMisses, 0u);
}

TEST(WarmCampaign, DictionaryBuildSharesTheCampaignWarmedStore) {
  // A campaign against the provider warms the store; a dictionary build
  // over the same netlist (same digest, same collapsing convention) then
  // fetches those configurations instead of re-characterizing them.
  auto store = cache::ResultStore::inMemory();
  ip::ProviderServer server("provider.host", nullptr);
  registerMultiplier(server);
  server.setResultStore(store);
  Rig rig(server);
  const CampaignResult res = rig.runCampaign(patterns(12, 0xD1C7));
  ASSERT_GT(res.detectionTablesRequested, 0u);

  const Netlist nl = gate::makeArrayMultiplier(kW);
  const auto collapsed = collapseAll(nl, /*dominance=*/true,
                                     /*includePrimaryInputs=*/false,
                                     /*includePrimaryOutputNets=*/false);
  const auto hitsBefore = store->stats().hits + store->stats().backendHits;
  const FaultDictionary dict = FaultDictionary::build(nl, collapsed, 16, store);
  const auto hitsAfter = store->stats().hits + store->stats().backendHits;

  EXPECT_EQ(dict.versionDigest(), rig.client->versionDigest());
  EXPECT_EQ(dict.tableCount(), 1u << (2 * kW));
  // Every configuration the campaign characterized was a dictionary hit.
  EXPECT_EQ(hitsAfter - hitsBefore, res.detectionTablesRequested);

  // And the dictionary's tables match the provider's byte for byte.
  Rng rng(0x77);
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t config = rng.below(1u << (2 * kW));
    net::ByteBuffer fromDict;
    dict.tableFor(Word::fromUint(2 * kW, config)).serialize(fromDict);
    EXPECT_EQ(fromDict.bytes(), tableBytes(*rig.client, config)) << config;
  }
}

TEST(WarmCampaign, ConcurrentSameKeyMissesThroughProviderExecuteOnce) {
  // N client threads, each with its own channel and session, all demand
  // the same fresh detection tables at once. The store's claim-on-miss
  // contract must hold through the provider dispatch path: one compute
  // per configuration, everyone receives identical bytes.
  auto store = cache::ResultStore::inMemory();
  ip::ProviderServer server("provider.host", nullptr);
  registerMultiplier(server);
  server.setResultStore(store);

  constexpr int kThreads = 4;
  constexpr std::uint64_t kConfigs = 6;
  std::vector<std::unique_ptr<Rig>> rigs;
  for (int t = 0; t < kThreads; ++t) {
    rigs.push_back(std::make_unique<Rig>(server, /*seed=*/100 + t));
  }

  std::vector<std::vector<std::vector<std::uint8_t>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t c = 0; c < kConfigs; ++c) {
        got[static_cast<std::size_t>(t)].push_back(
            tableBytes(*rigs[static_cast<std::size_t>(t)]->client, c));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], got[0]) << "thread " << t;
  }
  // Exactly one compute per configuration, no matter how the misses raced.
  EXPECT_EQ(store->stats().misses, kConfigs);
  EXPECT_EQ(store->stats().hits + store->stats().misses,
            static_cast<std::uint64_t>(kThreads) * kConfigs);
}

}  // namespace
}  // namespace vcad::fault
