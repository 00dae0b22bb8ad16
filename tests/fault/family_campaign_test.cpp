// Property-based differential sweep of the circuit-generator family through
// fault campaigns: virtual-vs-flat-disclosure and the engine grid against
// the serial oracle must be bit-identical at every family point. On a
// mismatch the test shrinks the pattern set to the first divergent prefix
// and emits the flattened netlist text plus the (family, seed) pair in the
// assert message, so any failure is reproducible from the log alone.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "fault/block_design.hpp"
#include "fault/engine_grid.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/family.hpp"
#include "gate/netlist_io.hpp"
#include "gate/netlist_module.hpp"
#include "oracles/oracles.hpp"

namespace vcad::fault {
namespace {

using gate::CircuitFamily;
using gate::FamilySpec;
using gate::Netlist;

struct FamilyRig {
  FamilySpec spec;
  BlockDesign design;
  BlockDesign::Instantiation inst;
  std::vector<std::unique_ptr<LocalFaultBlock>> clients;
  int nPis = 0;

  std::vector<FaultClient*> components() {
    std::vector<FaultClient*> out;
    for (auto& c : clients) out.push_back(c.get());
    return out;
  }
};

/// A three-block design whose blocks are family netlists (scale 0; seeds
/// derived from the rig seed), wired with shared stems so block faults must
/// propagate through downstream IP to reach a primary output.
FamilyRig makeFamilyRig(CircuitFamily family, std::uint64_t seed) {
  FamilyRig rig;
  rig.spec = FamilySpec{family, 0, seed};
  Rng rng(seed * 6364136223846793005ULL + 1);

  std::vector<std::shared_ptr<const Netlist>> nets;
  for (int b = 0; b < 3; ++b) {
    nets.push_back(std::make_shared<const Netlist>(
        gate::makeFamilyNetlist({family, 0, seed + static_cast<std::uint64_t>(b)})));
  }
  rig.nPis = nets.front()->inputCount();
  for (int i = 0; i < rig.nPis; ++i) {
    rig.design.addPrimaryInput("pi" + std::to_string(i));
  }
  std::vector<std::pair<int, int>> sources;
  for (int i = 0; i < rig.nPis; ++i) sources.emplace_back(-1, i);

  for (int b = 0; b < 3; ++b) {
    const int id = rig.design.addBlock("blk" + std::to_string(b), nets[b]);
    for (int pin = 0; pin < nets[b]->inputCount(); ++pin) {
      const auto src = sources[rng.below(sources.size())];
      rig.design.connect({src.first, src.second}, id, pin);
    }
    for (int pin = 0; pin < nets[b]->outputCount(); ++pin) {
      sources.emplace_back(id, pin);
    }
  }
  for (int b = 0; b < 3; ++b) {
    for (int pin = 0; pin < rig.design.blockNetlist(b).outputCount(); ++pin) {
      rig.design.markPrimaryOutput(b, pin);
    }
  }
  rig.inst = rig.design.instantiate();
  for (int b = 0; b < 3; ++b) {
    rig.clients.push_back(std::make_unique<LocalFaultBlock>(
        *rig.inst.blockModules[static_cast<size_t>(b)], true,
        FaultScope{false, true}));
  }
  return rig;
}

std::vector<Word> packedPatterns(int width, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(Word::fromUint(width, rng.next()));
  }
  return out;
}

/// First pattern index whose cumulative detected count diverges (== size()
/// when only the final sets differ).
std::size_t firstDivergence(const CampaignResult& a, const CampaignResult& b) {
  const std::size_t n =
      std::min(a.detectedAfterPattern.size(), b.detectedAfterPattern.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.detectedAfterPattern[i] != b.detectedAfterPattern[i]) return i + 1;
  }
  return n;
}

/// The shrinking reporter shared by both differentials: everything needed to
/// reproduce (family point, divergent prefix length, the full flat netlist)
/// lands in the assertion message.
std::string reproducer(const FamilyRig& rig, std::size_t prefix) {
  return "spec=" + rig.spec.name() +
         " first-divergent-prefix=" + std::to_string(prefix) + "\nnetlist:\n" +
         gate::netlistToString(rig.design.flatten(), rig.spec.name());
}

class FamilySweep
    : public ::testing::TestWithParam<std::tuple<CircuitFamily, int>> {};

TEST_P(FamilySweep, VirtualMatchesFullDisclosureBaseline) {
  const auto [family, seed] = GetParam();
  FamilyRig rig = makeFamilyRig(family, static_cast<std::uint64_t>(seed));
  const auto patterns =
      packedPatterns(rig.nPis, 12, static_cast<std::uint64_t>(seed) * 31);

  VirtualFaultSimulator vsim(*rig.inst.circuit, rig.components(),
                             rig.inst.piConns, rig.inst.poConns);
  const CampaignResult vres = vsim.runPacked(patterns);
  EXPECT_GT(vres.faultList.size(), 0u);

  const Netlist flat = rig.design.flatten();
  std::vector<gate::StuckFault> faults;
  for (const std::string& qs : vres.faultList) {
    faults.push_back(flatFaultOf(flat, qs));
  }
  SerialFaultSimulator serial(flat, faults, vres.faultList);
  const CampaignResult gold = serial.run(patterns);

  if (vres.detected != gold.detected ||
      vres.detectedAfterPattern != gold.detectedAfterPattern) {
    FAIL() << "virtual/flat mismatch, "
           << reproducer(rig, firstDivergence(vres, gold));
  }
}

TEST_P(FamilySweep, SerialMatchesParallelCampaign) {
  const auto [family, seed] = GetParam();
  FamilyRig rig = makeFamilyRig(family, static_cast<std::uint64_t>(seed));
  const auto patterns =
      packedPatterns(rig.nPis, 10, static_cast<std::uint64_t>(seed) * 97);

  const auto unpacked =
      unpackPatterns(patterns, static_cast<std::size_t>(rig.nPis));
  const CampaignResult gold =
      oracles::serialCampaign(*rig.inst.circuit, rig.components(),
                              rig.inst.piConns, rig.inst.poConns, unpacked);

  const auto cells = grid::expectGridMatchesOracle(
      gold,
      [&](std::size_t batch) {
        return grid::runEngine(*rig.inst.circuit, rig.components(),
                               rig.inst.piConns, rig.inst.poConns, unpacked,
                               batch);
      },
      "family point");
  for (const grid::Cell& cell : cells) {
    if (cell.result.detected != gold.detected ||
        cell.result.detectedAfterPattern != gold.detectedAfterPattern) {
      FAIL() << "engine/oracle mismatch, " << cell.label << ", "
             << reproducer(rig, firstDivergence(cell.result, gold));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Family, FamilySweep,
    ::testing::Combine(::testing::Values(CircuitFamily::Cone,
                                         CircuitFamily::Datapath,
                                         CircuitFamily::Controller),
                       ::testing::Range(1, 5)),
    [](const ::testing::TestParamInfo<std::tuple<CircuitFamily, int>>& info) {
      return std::string(gate::familyName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// The generalized instantiation hook the scenario matrix builds on: a
// factory that swaps one block's realization must slot into the same
// backplane (connector layout, fault flow) as the all-local instantiate().
TEST(FamilyRigTest, InstantiateWithLocalFactoryMatchesInstantiate) {
  FamilyRig rig = makeFamilyRig(CircuitFamily::Cone, 99);
  const auto patterns = packedPatterns(rig.nPis, 8, 5);

  VirtualFaultSimulator vsim(*rig.inst.circuit, rig.components(),
                             rig.inst.piConns, rig.inst.poConns);
  const CampaignResult gold = vsim.runPacked(patterns);

  auto gen = rig.design.instantiateWith(
      [](int, const std::string& name,
         std::shared_ptr<const Netlist> netlist,
         const std::vector<Connector*>& ins,
         const std::vector<Connector*>& outs) -> std::unique_ptr<Module> {
        return gate::makeBitLevelModule(name, std::move(netlist), ins, outs);
      });
  std::vector<std::unique_ptr<LocalFaultBlock>> clients;
  std::vector<FaultClient*> comps;
  for (Module* m : gen.modules) {
    clients.push_back(std::make_unique<LocalFaultBlock>(
        *static_cast<gate::NetlistModule*>(m), true, FaultScope{false, true}));
    comps.push_back(clients.back().get());
  }
  VirtualFaultSimulator vsim2(*gen.circuit, comps, gen.piConns, gen.poConns);
  const CampaignResult res = vsim2.runPacked(patterns);

  EXPECT_EQ(res.faultList, gold.faultList);
  EXPECT_EQ(res.detected, gold.detected);
  EXPECT_EQ(res.detectedAfterPattern, gold.detectedAfterPattern);
}

}  // namespace
}  // namespace vcad::fault
