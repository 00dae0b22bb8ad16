// Designs whose remote components have side effects keep event-driven
// golden runs: with power collection on (EstimatePower batches recorded
// per activation) or in FullyRemote mode (one EvalFunction call per
// activation), the campaign engine makes exactly the calls the serial
// oracle makes, bills exactly the same fees, and stays bit-identical to it
// at table batch 1 and at the default batch.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/levelized.hpp"
#include "core/rng.hpp"
#include "engine_grid.hpp"
#include "integration/matrix_harness.hpp"
#include "ip/remote_component.hpp"
#include "oracles/oracles.hpp"

namespace vcad::fault {
namespace {

// Dyadic fees: sums are exact in any order, so ledgers compare with ==.
constexpr double kInstantiateCents = 25.0;
constexpr double kTableCents = 0.125;
constexpr double kEvalCents = 0.5;
constexpr double kPowerPatternCents = 0.25;

/// The matrix design's blocks as components "BLK<b>" with a dynamic power
/// model, so EstimatePower calls succeed and bill.
void registerPoweredCatalog(ip::ProviderServer& server,
                            const matrix::MatrixDesign& d,
                            const matrix::MatrixPublicPartSource& parts) {
  for (std::size_t b = 0; b < d.blocks.size(); ++b) {
    ip::IpComponentSpec spec;
    spec.name = "BLK" + std::to_string(b);
    spec.minWidth = 1;
    spec.maxWidth = 64;
    spec.functional = ip::ModelLevel::Static;
    spec.power = ip::ModelLevel::Dynamic;
    spec.testability = ip::ModelLevel::Dynamic;
    spec.fees.instantiateCents = kInstantiateCents;
    spec.fees.perDetectionTableCents = kTableCents;
    spec.fees.perEvalCents = kEvalCents;
    spec.fees.perPowerPatternCents = kPowerPatternCents;
    auto nl = d.blocks[b];
    server.registerComponent(
        spec, [nl](std::uint64_t) { return nl; },
        [&parts, name = spec.name](std::uint64_t param) {
          return parts.downloadPublicPart(name, param);
        });
  }
}

/// One provider, one loopback channel, and the design realized with remote
/// components configured by `cfg`.
struct Rig {
  ip::ProviderServer server{"provider.host", nullptr};
  rmi::RmiChannel channel;
  ip::ProviderHandle handle;
  BlockDesign::GenericInstantiation gen;
  std::vector<ip::RemoteComponent*> remotes;
  std::vector<std::unique_ptr<ip::RemoteFaultClient>> clients;
  std::vector<FaultClient*> comps;

  Rig(const matrix::MatrixDesign& d,
      const matrix::MatrixPublicPartSource& parts, ip::RemoteConfig cfg)
      : channel(server, net::NetworkProfile::ideal()), handle(channel) {
    registerPoweredCatalog(server, d, parts);
    gen = d.design.instantiateWith(
        [&](int b, const std::string& name,
            std::shared_ptr<const gate::Netlist>,
            const std::vector<Connector*>& ins,
            const std::vector<Connector*>& outs) -> std::unique_ptr<Module> {
          std::vector<std::pair<std::string, Connector*>> inPorts, outPorts;
          for (std::size_t i = 0; i < ins.size(); ++i) {
            inPorts.emplace_back("i" + std::to_string(i), ins[i]);
          }
          for (std::size_t i = 0; i < outs.size(); ++i) {
            outPorts.emplace_back("o" + std::to_string(i), outs[i]);
          }
          auto mod = std::make_unique<ip::RemoteComponent>(
              name, handle, "BLK" + std::to_string(b), 1, std::move(inPorts),
              std::move(outPorts), cfg);
          remotes.push_back(mod.get());
          return mod;
        });
    for (ip::RemoteComponent* r : remotes) {
      clients.push_back(std::make_unique<ip::RemoteFaultClient>(*r));
      comps.push_back(clients.back().get());
    }
  }

  ip::ProviderServer::Invoice::Item billed(rmi::MethodId method) const {
    ip::ProviderServer::Invoice::Item total{method, 0, 0.0};
    for (const auto& item : server.invoice(handle.session()).items) {
      if (item.method == method) {
        total.calls += item.calls;
        total.cents += item.cents;
      }
    }
    return total;
  }

  std::uint64_t remoteErrors() const {
    std::uint64_t n = 0;
    for (const ip::RemoteComponent* r : remotes) n += r->remoteErrors();
    return n;
  }
};

std::vector<std::vector<Word>> randomPatterns(std::size_t pis, int count,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Word>> out(static_cast<std::size_t>(count));
  for (auto& p : out) {
    for (std::size_t i = 0; i < pis; ++i) {
      p.push_back(Word::fromUint(1, rng.next() & 1));
    }
  }
  return out;
}

enum class SideEffect { PowerCollection, FullyRemote };

struct FallbackCase {
  SideEffect effect;
  std::size_t batch;
};

class LevelizedFallback : public ::testing::TestWithParam<FallbackCase> {};

TEST_P(LevelizedFallback, SameCallsFeesAndResultsAsTheSerialOracle) {
  const auto [effect, batch] = GetParam();
  const matrix::MatrixDesign d = matrix::makeMatrixDesign(
      {gate::CircuitFamily::Cone, 1, 0xFA11});
  const matrix::MatrixPublicPartSource parts(d);
  ip::RemoteConfig cfg;
  if (effect == SideEffect::PowerCollection) {
    cfg.collectPower = true;
    cfg.patternBufferCapacity = 2;  // ship on every second activation
    cfg.nonblockingEstimation = false;
  } else {
    cfg.mode = ip::RemoteMode::FullyRemote;
    cfg.collectPower = false;
  }
  const auto patterns =
      randomPatterns(static_cast<std::size_t>(d.nPis), 12, 0x5EED);

  Rig oracleRig(d, parts, cfg);
  EXPECT_FALSE(LevelizedPass::plan(*oracleRig.gen.circuit,
                                   oracleRig.gen.piConns)
                   .has_value());
  const CampaignResult oracle = oracles::serialCampaign(
      *oracleRig.gen.circuit, oracleRig.comps, oracleRig.gen.piConns,
      oracleRig.gen.poConns, patterns);

  Rig engineRig(d, parts, cfg);
  const CampaignResult got =
      grid::runEngine(*engineRig.gen.circuit, engineRig.comps,
                      engineRig.gen.piConns, engineRig.gen.poConns, patterns,
                      batch);
  const std::string label = std::string(effect == SideEffect::PowerCollection
                                            ? "power"
                                            : "fully-remote") +
                            " batch=" + std::to_string(batch);
  grid::expectMatchesOracle(got, oracle, batch, label);
  EXPECT_GT(got.detected.size(), 0u) << label;

  // The side-effect calls, by count and by fee.
  const rmi::MethodId method = effect == SideEffect::PowerCollection
                                   ? rmi::MethodId::EstimatePower
                                   : rmi::MethodId::EvalFunction;
  const auto want = oracleRig.billed(method);
  const auto have = engineRig.billed(method);
  EXPECT_EQ(have.calls, want.calls) << label;
  EXPECT_EQ(have.cents, want.cents) << label;
  if (effect == SideEffect::FullyRemote) {
    // Every golden run activates every block at least once.
    EXPECT_GE(have.calls, patterns.size() * d.blocks.size()) << label;
    EXPECT_EQ(have.cents, kEvalCents * static_cast<double>(have.calls))
        << label;
  } else {
    EXPECT_GT(have.calls, 0u) << label;
  }
  // The whole session bills the same, tables and instantiation included.
  EXPECT_EQ(engineRig.server.invoice(engineRig.handle.session()).totalCents,
            oracleRig.server.invoice(oracleRig.handle.session()).totalCents)
      << label;
  EXPECT_EQ(engineRig.channel.stats().feesCents,
            oracleRig.channel.stats().feesCents)
      << label;
  EXPECT_EQ(engineRig.remoteErrors(), 0u) << label;
  EXPECT_EQ(oracleRig.remoteErrors(), 0u) << label;
}

INSTANTIATE_TEST_SUITE_P(
    SideEffects, LevelizedFallback,
    ::testing::Values(
        FallbackCase{SideEffect::PowerCollection, 1},
        FallbackCase{SideEffect::PowerCollection,
                     VirtualFaultSimulator::kDefaultTableBatch},
        FallbackCase{SideEffect::FullyRemote, 1},
        FallbackCase{SideEffect::FullyRemote,
                     VirtualFaultSimulator::kDefaultTableBatch}),
    [](const ::testing::TestParamInfo<FallbackCase>& info) {
      return std::string(info.param.effect == SideEffect::PowerCollection
                             ? "PowerCollection"
                             : "FullyRemote") +
             "_batch" + std::to_string(info.param.batch);
    });

}  // namespace
}  // namespace vcad::fault
