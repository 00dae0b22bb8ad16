// The one campaign engine against its oracles: VirtualFaultSimulator at
// every table batch of the grid must reproduce the serial oracle's
// CampaignResult over property-swept random block designs, cold and from a
// warmed result store, while leasing only its batch + 1 pinned slots;
// against a real provider it must put the per-pattern traffic on the wire
// at batch 1 and group a batch's misses into GetDetectionTables calls
// otherwise, billing the same fees; and a campaign sharing its channel
// with async traffic from another thread must stay clean under
// -DVCAD_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/slot_registry.hpp"
#include "fault/block_design.hpp"
#include "fault/engine_grid.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "ip/provider_server.hpp"
#include "ip/remote_component.hpp"
#include "oracles/oracles.hpp"

namespace vcad::fault {
namespace {

using gate::Netlist;

std::shared_ptr<const Netlist> share(Netlist nl) {
  return std::make_shared<const Netlist>(std::move(nl));
}

struct Scenario {
  BlockDesign design;
  BlockDesign::Instantiation inst;
  std::vector<std::unique_ptr<LocalFaultBlock>> clients;
  int nPis = 0;

  std::vector<FaultClient*> components() {
    std::vector<FaultClient*> out;
    for (auto& c : clients) out.push_back(c.get());
    return out;
  }

  CampaignResult oracle(const std::vector<std::vector<Word>>& patterns,
                        std::shared_ptr<cache::ResultStore> store = {}) {
    return oracles::serialCampaign(*inst.circuit, components(), inst.piConns,
                                   inst.poConns, patterns, std::move(store));
  }

  CampaignResult engine(const std::vector<std::vector<Word>>& patterns,
                        std::size_t batch,
                        std::shared_ptr<cache::ResultStore> store = {}) {
    return grid::runEngine(*inst.circuit, components(), inst.piConns,
                           inst.poConns, patterns, batch, std::move(store));
  }
};

/// A random multi-block design whose blocks publish internal+output faults.
Scenario makeScenario(std::uint64_t seed, bool dominance) {
  auto s = Scenario{};
  Rng rng(seed);
  s.nPis = 4 + static_cast<int>(rng.below(3));
  for (int i = 0; i < s.nPis; ++i) {
    s.design.addPrimaryInput("pi" + std::to_string(i));
  }
  std::vector<std::pair<int, int>> sources;
  for (int i = 0; i < s.nPis; ++i) sources.emplace_back(-1, i);

  const int nBlocks = 2 + static_cast<int>(rng.below(3));
  for (int b = 0; b < nBlocks; ++b) {
    const int ins = 2 + static_cast<int>(rng.below(3));
    const int gates = 5 + static_cast<int>(rng.below(10));
    const int outs = 1 + static_cast<int>(rng.below(2));
    Rng blockRng(rng.next());
    const int id = s.design.addBlock(
        "blk" + std::to_string(b),
        share(gate::makeRandomNetlist(blockRng, ins, gates, outs)));
    for (int pin = 0; pin < ins; ++pin) {
      const auto src = sources[rng.below(sources.size())];
      s.design.connect({src.first, src.second}, id, pin);
    }
    for (int pin = 0; pin < outs; ++pin) sources.emplace_back(id, pin);
  }
  for (int b = 0; b < nBlocks; ++b) {
    for (int pin = 0; pin < s.design.blockNetlist(b).outputCount(); ++pin) {
      s.design.markPrimaryOutput(b, pin);
    }
  }
  s.inst = s.design.instantiate();
  for (int b = 0; b < nBlocks; ++b) {
    s.clients.push_back(std::make_unique<LocalFaultBlock>(
        *s.inst.blockModules[static_cast<size_t>(b)], dominance,
        FaultScope{false, true}));
  }
  return s;
}

std::vector<std::vector<Word>> randomPatterns(int width, int count,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(Word::fromUint(width, rng.next()));
  }
  return unpackPatterns(out, static_cast<std::size_t>(width));
}

class ParallelVsSerial
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ParallelVsSerial, IdenticalCoverageAcrossThreadAndBatchSweep) {
  const auto [seed, dominance] = GetParam();
  Scenario s = makeScenario(static_cast<std::uint64_t>(seed) * 104729,
                            dominance);
  const auto patterns =
      randomPatterns(s.nPis, 10, static_cast<std::uint64_t>(seed));
  const CampaignResult oracle = s.oracle(patterns);
  ASSERT_GT(oracle.injections, 0u);
  // Fetches + hits cover every (pattern, component) pair.
  EXPECT_EQ(oracle.detectionTablesRequested + oracle.tableCacheHits,
            patterns.size() * s.clients.size());
  grid::expectGridMatchesOracle(
      oracle,
      [&](std::size_t batch) { return s.engine(patterns, batch); },
      "seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelVsSerial,
    ::testing::Combine(::testing::Range(1, 7), ::testing::Bool()));

class PooledInjection : public ::testing::TestWithParam<int> {};

TEST_P(PooledInjection, BitIdenticalToSerialAcrossWorkerCounts) {
  // From a result store warmed by an earlier campaign over half the
  // patterns, so store hits, pin-map hits and fetches all occur; every run
  // starts from its own identically warmed store.
  const int seed = GetParam();
  Scenario s = makeScenario(static_cast<std::uint64_t>(seed) * 7919, true);
  const auto patterns =
      randomPatterns(s.nPis, 12, static_cast<std::uint64_t>(seed) + 99);
  const std::vector<std::vector<Word>> warmup(patterns.begin(),
                                              patterns.begin() + 6);
  const auto warmStore = [&] {
    auto store = cache::ResultStore::inMemory();
    (void)s.oracle(warmup, store);
    return store;
  };
  const CampaignResult oracle = s.oracle(patterns, warmStore());
  ASSERT_GT(oracle.tableStoreHits, 0u);
  ASSERT_GT(oracle.injections, 0u);

  const auto cells = grid::expectGridMatchesOracle(
      oracle,
      [&](std::size_t batch) {
        return s.engine(patterns, batch, warmStore());
      },
      "seed=" + std::to_string(seed));
  for (const grid::Cell& cell : cells) {
    const CampaignResult& res = cell.result;
    // The whole campaign ran on its pinned slots — one injection
    // controller plus one fault-free controller per batch position —
    // resetting them instead of leasing new ones.
    const std::size_t positions = std::min(cell.batch, patterns.size());
    EXPECT_EQ(res.slotsLeased, 1 + positions) << cell.label;
    EXPECT_LE(res.peakConcurrentSchedulers, 1 + positions) << cell.label;
    EXPECT_EQ(res.schedulerResets,
              res.injections + patterns.size() - positions)
        << cell.label;
  }
  // A finished campaign leaves no live state in any arena slot.
  for (std::uint32_t slot = 0; slot < SlotRegistry::kCapacity; ++slot) {
    EXPECT_EQ(s.inst.circuit->residualStateCount(slot), 0u)
        << "residual state in slot " << slot;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PooledInjection, ::testing::Range(1, 7));

TEST(PooledInjection, SerialPathReportsArenaMetricsToo) {
  Scenario s = makeScenario(31337, true);
  const auto patterns = randomPatterns(s.nPis, 6, 5);
  // The oracle constructs a controller per fault-free run and per
  // injection; the engine at batch 1 pins one injection controller and one
  // fault-free controller and resets them.
  const CampaignResult oracle = s.oracle(patterns);
  EXPECT_EQ(oracle.slotsLeased, oracle.injections + patterns.size());

  const CampaignResult res = s.engine(patterns, 1);
  ASSERT_GT(res.injections, 0u);
  EXPECT_EQ(res.slotsLeased, 2u);
  EXPECT_GT(res.peakConcurrentSchedulers, 0u);
  EXPECT_LE(res.peakConcurrentSchedulers, 4u);
  EXPECT_EQ(res.schedulerResets, res.injections + patterns.size() - 1);
}

TEST(ParallelCampaign, RejectsEmptyConfiguration) {
  Circuit c("c");
  EXPECT_THROW(VirtualFaultSimulator(c, {}, {}, {}), std::invalid_argument);

  // An empty input configuration fails mid-batch and surfaces on the
  // caller; the design stays usable afterwards.
  Scenario s = makeScenario(4242, true);
  auto patterns = randomPatterns(s.nPis, 6, 3);
  const CampaignResult gold = s.oracle(patterns);
  auto broken = patterns;
  broken[5].clear();
  EXPECT_THROW(s.engine(broken, 4), std::invalid_argument);
  grid::expectMatchesOracle(s.engine(patterns, 4), gold, 4,
                            "after a rejected campaign");
}

// ---------------------------------------------------------------------------
// Remote half: the campaign against a real provider over an RmiChannel.
// ---------------------------------------------------------------------------

void registerMultiplier(ip::ProviderServer& server) {
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
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t w) {
        return std::make_shared<const Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      [](std::uint64_t w) {
        return ip::PublicPart::perPattern(
            [w](const Word& in, const rmi::Sandbox&) {
              const int width = static_cast<int>(w);
              const Word a = in.slice(0, width);
              const Word b = in.slice(width, width);
              return Word::fromUint(2 * width, a.toUint() * b.toUint());
            });
      });
}

/// Records every table fetch the engine makes through a client: the size
/// of each call, 1 for detectionTable.
class RecordingClient final : public FaultClient {
 public:
  explicit RecordingClient(FaultClient& inner) : inner_(inner) {}

  Module& module() override { return inner_.module(); }
  std::vector<std::string> faultList() override { return inner_.faultList(); }
  DetectionTable detectionTable(const Word& inputs) override {
    calls.push_back(1);
    return inner_.detectionTable(inputs);
  }
  std::vector<DetectionTable> detectionTables(
      const std::vector<Word>& inputs) override {
    calls.push_back(inputs.size());
    batchCalls += 1;
    return inner_.detectionTables(inputs);
  }
  std::uint64_t versionDigest() const override {
    return inner_.versionDigest();
  }

  std::vector<std::size_t> calls;
  std::size_t batchCalls = 0;

 private:
  FaultClient& inner_;
};

/// A provider, a channel and a circuit holding one remote multiplier IP.
struct RemoteRig {
  static constexpr int kW = 3;

  ip::ProviderServer server;
  rmi::RmiChannel channel;
  ip::ProviderHandle provider;
  Circuit circuit;
  ip::RemoteComponent* mult = nullptr;
  std::unique_ptr<ip::RemoteFaultClient> client;
  std::unique_ptr<RecordingClient> recorder;
  std::vector<Connector*> pis;
  std::vector<Connector*> pos;

  explicit RemoteRig(const net::NetworkProfile& profile)
      : server("provider.host", nullptr),
        channel(server, profile),
        provider(channel),
        circuit("remoteFault") {
    registerMultiplier(server);  // before the RemoteComponent instantiates
    auto& a = circuit.makeWord(kW, "a");
    auto& b = circuit.makeWord(kW, "b");
    auto& o = circuit.makeWord(2 * kW, "o");
    ip::RemoteConfig cfg;
    cfg.collectPower = false;
    mult = &circuit.make<ip::RemoteComponent>(
        "MULT", provider, "MultFastLowPower", kW,
        std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
        std::vector<std::pair<std::string, Connector*>>{{"o", &o}}, cfg);
    client = std::make_unique<ip::RemoteFaultClient>(*mult);
    recorder = std::make_unique<RecordingClient>(*client);
    pis = {&a, &b};
    pos = {&o};
  }

  std::vector<FaultClient*> components() { return {recorder.get()}; }

  CampaignResult engine(const std::vector<std::vector<Word>>& patterns,
                        std::size_t batch) {
    return grid::runEngine(circuit, components(), pis, pos, patterns, batch);
  }

  /// Calls billed per table method in this rig's session.
  std::uint64_t billedCalls(rmi::MethodId method) const {
    std::uint64_t calls = 0;
    for (const auto& item : server.invoice(provider.session()).items) {
      if (item.method == method) calls += item.calls;
    }
    return calls;
  }
};

std::vector<std::vector<Word>> remotePatterns(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Word>> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({Word::fromUint(RemoteRig::kW, rng.next()),
                   Word::fromUint(RemoteRig::kW, rng.next())});
  }
  return out;
}

TEST(ParallelCampaign, RemoteBatchingMatchesSerialWithFewerCalls) {
  const auto patterns = remotePatterns(9, 0xBEEF);

  RemoteRig serialRig(net::NetworkProfile::wan());
  const auto serialCallsBefore = serialRig.channel.stats().calls;
  const CampaignResult gold = oracles::serialCampaign(
      serialRig.circuit, serialRig.components(), serialRig.pis, serialRig.pos,
      patterns);
  const auto serialCalls = serialRig.channel.stats().calls - serialCallsBefore;

  RemoteRig batchRig(net::NetworkProfile::wan());
  const auto batchCallsBefore = batchRig.channel.stats().calls;
  const CampaignResult res = batchRig.engine(patterns, 3);
  const auto batchCalls = batchRig.channel.stats().calls - batchCallsBefore;

  grid::expectMatchesOracle(res, gold, 3, "batch=3");
  EXPECT_GT(res.detected.size(), 0u);

  // Same number of tables crosses the wire, but buffered into fewer message
  // pairs — so fewer channel calls and identical provider fees.
  EXPECT_LT(res.tableFetchRoundTrips, gold.tableFetchRoundTrips);
  EXPECT_LT(batchCalls, serialCalls);
  EXPECT_DOUBLE_EQ(batchRig.channel.stats().feesCents,
                   serialRig.channel.stats().feesCents);
  EXPECT_EQ(batchRig.mult->remoteErrors(), 0u);
}

TEST(WireMethod, BatchOneShipsSingleTablesAndBatchesGroupTwoOrMoreMisses) {
  const auto patterns = remotePatterns(16, 0x7AB1E);
  constexpr std::size_t kBatch = 4;

  // The calls a batch of kBatch must make: one per batch with misses —
  // GetDetectionTable for exactly one unseen configuration, one
  // GetDetectionTables carrying them all for two or more.
  std::vector<std::size_t> expected;
  std::set<std::string> seen;
  for (std::size_t base = 0; base < patterns.size(); base += kBatch) {
    std::size_t misses = 0;
    for (std::size_t i = base; i < base + kBatch; ++i) {
      misses += seen.insert(patterns[i][0].toString() + "|" +
                            patterns[i][1].toString())
                    .second;
    }
    if (misses > 0) expected.push_back(misses);
  }
  std::size_t expectedBatchCalls = 0;
  for (std::size_t n : expected) expectedBatchCalls += n >= 2;
  ASSERT_GT(expectedBatchCalls, 0u);

  RemoteRig one(net::NetworkProfile::lan());
  const CampaignResult r1 = one.engine(patterns, 1);
  RemoteRig four(net::NetworkProfile::lan());
  const CampaignResult r4 = four.engine(patterns, kBatch);

  // Batch 1: one GetDetectionTable per fetched configuration, nothing else.
  EXPECT_EQ(one.recorder->calls,
            std::vector<std::size_t>(r1.detectionTablesRequested, 1));
  EXPECT_EQ(one.billedCalls(rmi::MethodId::GetDetectionTable),
            r1.detectionTablesRequested);
  EXPECT_EQ(one.billedCalls(rmi::MethodId::GetDetectionTables), 0u);

  // Batch 4: exactly the expected call sequence, billed per method.
  EXPECT_EQ(four.recorder->calls, expected);
  EXPECT_EQ(four.recorder->batchCalls, expectedBatchCalls);
  EXPECT_EQ(four.billedCalls(rmi::MethodId::GetDetectionTables),
            expectedBatchCalls);
  EXPECT_EQ(four.billedCalls(rmi::MethodId::GetDetectionTable),
            expected.size() - expectedBatchCalls);
  EXPECT_EQ(r4.tableFetchRoundTrips, expected.size());

  // Same tables, same fees, whatever the batch.
  EXPECT_EQ(r4.detectionTablesRequested, r1.detectionTablesRequested);
  EXPECT_EQ(four.channel.stats().feesCents, one.channel.stats().feesCents);
  EXPECT_EQ(four.server.sessionFeesCents(four.provider.session()),
            one.server.sessionFeesCents(one.provider.session()));
  grid::expectMatchesOracle(r4, r1, kBatch, "batch 4 vs batch 1");
}

TEST(ParallelCampaign, ConcurrentCampaignWithAsyncChannelNoise) {
  // Stress for the thread-safety contract: a campaign shares its channel
  // with a burst of callAsync traffic from another thread. The
  // loopback's one-worker core serializes dispatch, so the run must be
  // clean (TSan-verified under -DVCAD_SANITIZE=thread) and every request
  // must succeed.
  RemoteRig rig(net::NetworkProfile::ideal());
  const auto patterns = remotePatterns(6, 7);

  std::atomic<bool> stop{false};
  std::atomic<int> noiseFailures{0};
  std::thread noise([&] {
    while (!stop.load()) {
      auto fut =
          rig.provider.callAsync(rmi::MethodId::GetCatalog, 0, rmi::Args{});
      if (!fut.get().ok()) ++noiseFailures;
    }
  });

  const CampaignResult res = rig.engine(patterns, 2);
  stop.store(true);
  noise.join();

  EXPECT_GT(res.faultList.size(), 0u);
  EXPECT_GT(res.detected.size(), 0u);
  EXPECT_EQ(noiseFailures.load(), 0);
  EXPECT_EQ(rig.mult->remoteErrors(), 0u);
  EXPECT_EQ(rig.channel.stats().securityRejections, 0u);
}

}  // namespace
}  // namespace vcad::fault
