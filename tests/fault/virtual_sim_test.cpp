// Property tests of the central claim: virtual fault simulation (detection
// tables + injection, no netlist disclosure) detects exactly the same faults
// as a classic full-disclosure serial fault simulator run on the flattened
// design.
#include <gtest/gtest.h>

#include "fault/block_design.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"

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
};

/// Builds a random multi-block design whose blocks publish internal+output
/// faults, so the fault universe maps 1:1 onto the flattened netlist.
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

std::vector<Word> packedPatterns(int width, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(Word::fromUint(width, rng.next()));
  }
  return out;
}

class VirtualVsSerial
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(VirtualVsSerial, IdenticalDetectedSets) {
  const auto [seed, dominance] = GetParam();
  Scenario s = makeScenario(static_cast<std::uint64_t>(seed) * 104729,
                            dominance);
  const auto patterns =
      packedPatterns(s.nPis, 12, static_cast<std::uint64_t>(seed));

  VirtualFaultSimulator vsim(*s.inst.circuit, s.components(), s.inst.piConns,
                             s.inst.poConns);
  const CampaignResult vres = vsim.runPacked(patterns);

  const Netlist flat = s.design.flatten();
  std::vector<gate::StuckFault> faults;
  for (const std::string& qs : vres.faultList) {
    faults.push_back(flatFaultOf(flat, qs));
  }
  SerialFaultSimulator serial(flat, faults, vres.faultList);
  const CampaignResult gold = serial.run(patterns);

  EXPECT_EQ(vres.detected, gold.detected)
      << "seed=" << seed << " dominance=" << dominance;
  // Per-pattern cumulative counts must match too (same drop order).
  EXPECT_EQ(vres.detectedAfterPattern, gold.detectedAfterPattern);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VirtualVsSerial,
    ::testing::Combine(::testing::Range(1, 9), ::testing::Bool()));

TEST(VirtualFaultSim, FaultDroppingReducesInjections) {
  Scenario s = makeScenario(424242, true);
  const auto patterns = packedPatterns(s.nPis, 10, 99);
  VirtualFaultSimulator vsim(*s.inst.circuit, s.components(), s.inst.piConns,
                             s.inst.poConns);
  const CampaignResult res = vsim.runPacked(patterns);

  // Replaying the SAME pattern list: with fault dropping, already-detected
  // rows are skipped, so injections cannot exceed the first run's.
  VirtualFaultSimulator vsim2(*s.inst.circuit, s.components(), s.inst.piConns,
                              s.inst.poConns);
  auto doubled = patterns;
  doubled.insert(doubled.end(), patterns.begin(), patterns.end());
  const CampaignResult res2 = vsim2.runPacked(doubled);
  EXPECT_LT(res2.injections, 2 * res.injections);
  EXPECT_EQ(res2.detected, res.detected);  // nothing new from a replay
}

TEST(VirtualFaultSim, AccountsProtocolEffort) {
  Scenario s = makeScenario(777, true);
  const auto patterns = packedPatterns(s.nPis, 5, 5);
  VirtualFaultSimulator vsim(*s.inst.circuit, s.components(), s.inst.piConns,
                             s.inst.poConns);
  const CampaignResult res = vsim.runPacked(patterns);
  // With the client-side table cache, fetches + hits account for every
  // (pattern, component) pair; repeated input configurations hit the cache.
  EXPECT_EQ(res.detectionTablesRequested + res.tableCacheHits,
            patterns.size() * s.clients.size());
  EXPECT_GT(res.injections, 0u);
  EXPECT_GT(res.faultList.size(), 0u);
  EXPECT_LE(res.detected.size(), res.faultList.size());
}

TEST(VirtualFaultSim, RejectsEmptyConfiguration) {
  Circuit c("c");
  EXPECT_THROW(VirtualFaultSimulator(c, {}, {}, {}), std::invalid_argument);
}

TEST(VirtualFaultSim, PackedPatternWidthChecked) {
  Scenario s = makeScenario(31337, true);
  VirtualFaultSimulator vsim(*s.inst.circuit, s.components(), s.inst.piConns,
                             s.inst.poConns);
  EXPECT_THROW(vsim.runPacked({Word::fromUint(s.nPis + 1, 0)}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vcad::fault
