#include "gate/metrics.hpp"

#include <gtest/gtest.h>

#include "gate/generators.hpp"
#include "oracles/oracles.hpp"

namespace vcad::gate {
namespace {

TEST(Metrics, AreaGrowsWithDesignSize) {
  const double a4 = areaOf(makeArrayMultiplier(4));
  const double a8 = areaOf(makeArrayMultiplier(8));
  const double a16 = areaOf(makeArrayMultiplier(16));
  EXPECT_GT(a8, a4);
  EXPECT_GT(a16, a8);
  // Array multiplier area is roughly quadratic in width.
  EXPECT_NEAR(a16 / a4, 16.0, 6.0);
}

TEST(Metrics, AreaOfKnownNetlist) {
  // Half adder: one XOR (2 inputs) + one AND (2 inputs).
  TechParams tech;
  EXPECT_DOUBLE_EQ(areaOf(makeHalfAdder(), tech), 4 * tech.areaPerInputUm2);
}

TEST(Metrics, CriticalPathGrowsWithWidth) {
  const double d4 = criticalPathNs(makeRippleCarryAdder(4));
  const double d16 = criticalPathNs(makeRippleCarryAdder(16));
  EXPECT_GT(d16, d4);
}

TEST(Metrics, CriticalPathOfInverterChain) {
  Netlist nl;
  NetId cur = nl.addInput("a");
  for (int i = 0; i < 10; ++i) cur = nl.addGate(GateType::Not, {cur});
  nl.markOutput(cur);
  TechParams tech;
  EXPECT_DOUBLE_EQ(criticalPathNs(nl, tech), 10 * tech.delayPerLevelNs);
}

TEST(Metrics, NetCapIncludesFanout) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  nl.markOutput(nl.addGate(GateType::Not, {a}));
  nl.markOutput(nl.addGate(GateType::Buf, {a}));
  TechParams tech;
  EXPECT_DOUBLE_EQ(netCapfF(nl, a, tech),
                   tech.capBasefF + 2 * tech.capPerFanoutfF);
}

TEST(Metrics, TogglesCountsChangesAndUnknowns) {
  std::vector<Logic> prev{Logic::L0, Logic::L1, Logic::L0, Logic::X};
  std::vector<Logic> curr{Logic::L0, Logic::L0, Logic::X, Logic::X};
  // bit1 flips, bit2 becomes X (pessimistic toggle), bit3 X->X (toggle).
  EXPECT_EQ(toggles(prev, curr), 3u);
}

TEST(Metrics, ZeroEnergyForIdenticalPatterns) {
  const Netlist nl = makeArrayMultiplier(4);
  oracles::ScalarEvaluator ev(nl);
  const auto snap = ev.evaluate(Word::fromUint(8, 0x35));
  EXPECT_DOUBLE_EQ(transitionEnergyPj(nl, snap, snap), 0.0);
}

TEST(Metrics, EnergyPositiveForDifferentPatterns) {
  const Netlist nl = makeArrayMultiplier(4);
  oracles::ScalarEvaluator ev(nl);
  const auto s1 = ev.evaluate(Word::fromUint(8, 0x00));
  const auto s2 = ev.evaluate(Word::fromUint(8, 0xFF));
  EXPECT_GT(transitionEnergyPj(nl, s1, s2), 0.0);
}

TEST(Metrics, GateLevelPowerOnConstantSequenceIsZero) {
  const Netlist nl = makeArrayMultiplier(4);
  const std::vector<Word> patterns(5, Word::fromUint(8, 0x12));
  const PowerResult res = gateLevelPower(PackedEvaluator(nl), patterns);
  EXPECT_DOUBLE_EQ(res.avgPowerMw, 0.0);
  EXPECT_EQ(res.totalToggles, 0u);
  EXPECT_EQ(res.transitions, 4u);
}

TEST(Metrics, GateLevelPowerScalesWithActivity) {
  const Netlist nl = makeArrayMultiplier(8);
  // Low activity: toggle one input bit; high activity: invert everything.
  std::vector<Word> low, high;
  for (int i = 0; i < 20; ++i) {
    low.push_back(Word::fromUint(16, (i % 2 == 0) ? 0x0001 : 0x0000));
    high.push_back(Word::fromUint(16, (i % 2 == 0) ? 0xFFFF : 0x0000));
  }
  const PackedEvaluator packed(nl);
  const PowerResult pl = gateLevelPower(packed, low);
  const PowerResult ph = gateLevelPower(packed, high);
  EXPECT_GT(ph.avgPowerMw, pl.avgPowerMw);
  EXPECT_GE(ph.peakPowerMw, ph.avgPowerMw);
}

TEST(Metrics, PowerOnShortSequenceIsZero) {
  const Netlist nl = makeHalfAdder();
  const PackedEvaluator packed(nl);
  EXPECT_DOUBLE_EQ(gateLevelPower(packed, {}).avgPowerMw, 0.0);
  EXPECT_DOUBLE_EQ(gateLevelPower(packed, {Word::fromUint(2, 1)}).avgPowerMw,
                   0.0);
}

TEST(Metrics, SnapshotSizeMismatchThrows) {
  const Netlist nl = makeHalfAdder();
  std::vector<Logic> tooShort{Logic::L0};
  EXPECT_THROW(transitionEnergyPj(nl, tooShort, tooShort),
               std::invalid_argument);
  EXPECT_THROW(toggles({Logic::L0}, {Logic::L0, Logic::L1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vcad::gate
