#include "gate/netlist_module.hpp"

#include <gtest/gtest.h>

#include "core/circuit.hpp"
#include "core/sim_controller.hpp"
#include "core/wiring.hpp"
#include "gate/generators.hpp"
#include "oracles/oracles.hpp"

namespace vcad::gate {
namespace {

TEST(NetlistModule, WordPortsEvaluateMultiplier) {
  const int w = 8;
  auto nl = std::make_shared<Netlist>(makeArrayMultiplier(w));
  Circuit top("top");
  auto& ca = top.makeWord(w, "A");
  auto& cb = top.makeWord(w, "B");
  auto& co = top.makeWord(2 * w, "O");
  top.make<NetlistModule>(
      "mult", nl,
      std::vector<NetlistModule::PortGroup>{{"a", &ca, 0, w}, {"b", &cb, w, w}},
      std::vector<NetlistModule::PortGroup>{{"p", &co, 0, 2 * w}});

  SimulationController sim(top);
  sim.inject(ca, Word::fromUint(w, 23));
  sim.inject(cb, Word::fromUint(w, 19));
  sim.start();
  EXPECT_EQ(co.value(sim.scheduler().id()).toUint(), 23u * 19u);
}

TEST(NetlistModule, BitLevelFactoryWiresPinOrder) {
  auto nl = std::make_shared<Netlist>(makeHalfAdder());
  Circuit top("top");
  auto& a = top.makeBit("a");
  auto& b = top.makeBit("b");
  auto& sum = top.makeBit("sum");
  auto& carry = top.makeBit("carry");
  top.adopt(makeBitLevelModule("ha", nl, {&a, &b}, {&sum, &carry}));

  SimulationController sim(top);
  sim.inject(a, Word::fromLogic(Logic::L1));
  sim.inject(b, Word::fromLogic(Logic::L1));
  sim.start();
  const auto id = sim.scheduler().id();
  EXPECT_EQ(sum.value(id).scalar(), Logic::L0);
  EXPECT_EQ(carry.value(id).scalar(), Logic::L1);
}

TEST(NetlistModule, PartialInputsYieldPessimisticX) {
  auto nl = std::make_shared<Netlist>(makeHalfAdder());
  Circuit top("top");
  auto& a = top.makeBit();
  auto& b = top.makeBit();
  auto& sum = top.makeBit();
  auto& carry = top.makeBit();
  top.adopt(makeBitLevelModule("ha", nl, {&a, &b}, {&sum, &carry}));
  SimulationController sim(top);
  sim.inject(a, Word::fromLogic(Logic::L1));  // b still unknown
  sim.start();
  const auto id = sim.scheduler().id();
  EXPECT_EQ(sum.value(id).scalar(), Logic::X);
  EXPECT_EQ(carry.value(id).scalar(), Logic::X);
}

TEST(NetlistModule, UnchangedOutputsSuppressed) {
  auto nl = std::make_shared<Netlist>(makeHalfAdder());
  Circuit top("top");
  auto& a = top.makeBit();
  auto& b = top.makeBit();
  auto& sum = top.makeBit();
  auto& carry = top.makeBit();
  auto& mod = static_cast<NetlistModule&>(
      top.adopt(makeBitLevelModule("ha", nl, {&a, &b}, {&sum, &carry})));
  // Downstream event counter.
  struct Counter : Module {
    Counter(std::string n, Connector& in) : Module(std::move(n)) {
      addInput("in", in);
    }
    void processInputEvent(const SignalToken&, SimContext&) override {
      ++events;
    }
    int events = 0;
  };
  auto& tapConn = top.makeBit();
  top.make<Buffer>("tapBuf", sum, tapConn);
  auto& counter = top.make<Counter>("cnt", tapConn);

  SimulationController sim(top);
  sim.inject(a, Word::fromLogic(Logic::L0));
  sim.inject(b, Word::fromLogic(Logic::L0));
  sim.start();
  const int after1 = counter.events;
  // Re-inject the same values: netlist re-evaluates but must not re-emit.
  sim.inject(a, Word::fromLogic(Logic::L0));
  sim.start();
  EXPECT_EQ(counter.events, after1);
  EXPECT_GT(mod.evaluations({sim.scheduler(), nullptr}), 0u);
}

TEST(NetlistModule, ActivityCountersAccumulate) {
  auto nl = std::make_shared<Netlist>(makeArrayMultiplier(4));
  Circuit top("top");
  auto& ca = top.makeWord(4);
  auto& cb = top.makeWord(4);
  auto& co = top.makeWord(8);
  auto& mod = top.make<NetlistModule>(
      "m", nl,
      std::vector<NetlistModule::PortGroup>{{"a", &ca, 0, 4}, {"b", &cb, 4, 4}},
      std::vector<NetlistModule::PortGroup>{{"p", &co, 0, 8}});
  mod.setRecordPatterns(true);

  SimulationController sim(top);
  SimContext ctx{sim.scheduler(), nullptr};
  sim.inject(ca, Word::fromUint(4, 0));
  sim.inject(cb, Word::fromUint(4, 0));
  sim.start();
  sim.inject(ca, Word::fromUint(4, 0xF));
  sim.inject(cb, Word::fromUint(4, 0xF));
  sim.start();
  EXPECT_GT(mod.netToggles(ctx), 0u);
  EXPECT_GT(mod.switchingEnergyPj(ctx), 0.0);
  EXPECT_GE(mod.patternHistory(ctx).size(), 2u);
  mod.clearPatternHistory(ctx);
  EXPECT_TRUE(mod.patternHistory(ctx).empty());
}

// A random word with each bit drawn from {0, 1, X, Z}.
Word randomFourValued(Rng& rng, int width) {
  Word w(width);
  for (int i = 0; i < width; ++i) {
    static constexpr Logic kValues[] = {Logic::L0, Logic::L1, Logic::X,
                                        Logic::Z};
    w.setBit(i, kValues[rng.below(4)]);
  }
  return w;
}

class ActivityVsOracle : public ::testing::TestWithParam<int> {};

// The event path's counters, read from lane 0 of the packed engine, equal
// the scalar oracle's per-transition toggles/transitionEnergyPj summed in
// the same order — exactly, doubles included — under X/Z stimulus.
TEST_P(ActivityVsOracle, CountersEqualTheScalarSums) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const int nIn = 4 + static_cast<int>(rng.below(6));
  const int nOut = 1 + static_cast<int>(rng.below(4));
  auto nl = std::make_shared<Netlist>(makeRandomNetlist(
      rng, nIn, 20 + static_cast<int>(rng.below(60)), nOut));
  const TechParams tech;
  const int lo = nIn / 2;
  Circuit top("top");
  auto& ca = top.makeWord(lo);
  auto& cb = top.makeWord(nIn - lo);
  auto& co = top.makeWord(nOut);
  auto& mod = top.make<NetlistModule>(
      "m", nl,
      std::vector<NetlistModule::PortGroup>{{"a", &ca, 0, lo},
                                            {"b", &cb, lo, nIn - lo}},
      std::vector<NetlistModule::PortGroup>{{"o", &co, 0, nOut}}, tech);
  mod.setRecordPatterns(true);

  SimulationController sim(top);
  const SimContext ctx{sim.scheduler(), nullptr};
  for (int step = 0; step < 40; ++step) {
    sim.inject(ca, randomFourValued(rng, lo));
    if (rng.chance(0.7)) sim.inject(cb, randomFourValued(rng, nIn - lo));
    sim.start();
  }

  const std::vector<Word>& history = mod.patternHistory(ctx);
  ASSERT_EQ(history.size(), mod.evaluations(ctx));
  ASSERT_GT(history.size(), 2u);
  const oracles::ScalarEvaluator oracle(*nl);
  std::uint64_t toggleSum = 0;
  double energySum = 0.0;
  std::vector<Logic> prev = oracle.evaluate(history[0]);
  for (std::size_t i = 1; i < history.size(); ++i) {
    const std::vector<Logic> curr = oracle.evaluate(history[i]);
    toggleSum += toggles(prev, curr);
    energySum += transitionEnergyPj(*nl, prev, curr, tech);
    prev = curr;
  }
  EXPECT_EQ(mod.netToggles(ctx), toggleSum);
  EXPECT_EQ(mod.switchingEnergyPj(ctx), energySum);
  EXPECT_EQ(co.value(sim.scheduler().id()), oracle.evalOutputs(history.back()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActivityVsOracle, ::testing::Range(1, 9));

TEST(NetlistModule, GroupCoverageValidated) {
  auto nl = std::make_shared<Netlist>(makeHalfAdder());
  Circuit top("top");
  auto& a = top.makeBit();
  auto& sum = top.makeBit();
  auto& carry = top.makeBit();
  // Missing one input group.
  EXPECT_THROW(
      top.make<NetlistModule>(
          "bad", nl, std::vector<NetlistModule::PortGroup>{{"a", &a, 0, 1}},
          std::vector<NetlistModule::PortGroup>{{"s", &sum, 0, 1},
                                                {"c", &carry, 1, 1}}),
      std::invalid_argument);
}

TEST(NetlistModule, ConnectorCountMismatchRejected) {
  auto nl = std::make_shared<Netlist>(makeHalfAdder());
  Circuit top("top");
  auto& a = top.makeBit();
  auto& s = top.makeBit();
  EXPECT_THROW(makeBitLevelModule("bad", nl, {&a}, {&s}),
               std::invalid_argument);
}

TEST(NetlistModule, TwoSchedulersSeeIndependentActivity) {
  auto nl = std::make_shared<Netlist>(makeHalfAdder());
  Circuit top("top");
  auto& a = top.makeBit();
  auto& b = top.makeBit();
  auto& sum = top.makeBit();
  auto& carry = top.makeBit();
  auto& mod = static_cast<NetlistModule&>(
      top.adopt(makeBitLevelModule("ha", nl, {&a, &b}, {&sum, &carry})));

  SimulationController s1(top), s2(top);
  s1.inject(a, Word::fromLogic(Logic::L1));
  s1.inject(b, Word::fromLogic(Logic::L0));
  s1.start();
  s2.inject(a, Word::fromLogic(Logic::L0));
  s2.inject(b, Word::fromLogic(Logic::L0));
  s2.start();
  EXPECT_EQ(sum.value(s1.scheduler().id()).scalar(), Logic::L1);
  EXPECT_EQ(sum.value(s2.scheduler().id()).scalar(), Logic::L0);
  // Both stimuli of each run arrive in the same instant and are coalesced
  // into a single netlist evaluation per scheduler.
  EXPECT_EQ(mod.evaluations({s1.scheduler(), nullptr}), 1u);
  EXPECT_EQ(mod.evaluations({s2.scheduler(), nullptr}), 1u);
}

}  // namespace
}  // namespace vcad::gate
