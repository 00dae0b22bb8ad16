// Event-driven timing simulation with per-gate transport delays: expanded
// netlists must settle to the levelized evaluator's values, take time
// proportional to logic depth, and exhibit real hazards (glitches).
#include "gate/gate_module.hpp"

#include <gtest/gtest.h>

#include "core/sim_controller.hpp"
#include "core/wiring.hpp"
#include "gate/netlist_io.hpp"
#include "gate/generators.hpp"
#include "rtl/modules.hpp"
#include "oracles/oracles.hpp"

namespace vcad::gate {
namespace {

void injectWord(SimulationController& sim, const std::vector<Connector*>& pis,
                const Word& w) {
  for (int i = 0; i < w.width(); ++i) {
    sim.inject(*pis[static_cast<size_t>(i)], Word::fromLogic(w.bit(i)));
  }
}

Word readOutputs(const std::vector<Connector*>& pos, std::uint32_t id) {
  Word w(static_cast<int>(pos.size()));
  for (size_t i = 0; i < pos.size(); ++i) {
    w.setBit(static_cast<int>(i), pos[i]->value(id).scalar());
  }
  return w;
}

TEST(GateModule, SingleGateDelay) {
  Circuit top("top");
  auto& a = top.makeBit();
  auto& b = top.makeBit();
  auto& o = top.makeBit();
  top.make<GateModule>("and", GateType::And, std::vector<Connector*>{&a, &b},
                       o, 7);
  SimulationController sim(top);
  sim.inject(a, Word::fromLogic(Logic::L1));
  sim.inject(b, Word::fromLogic(Logic::L1));
  sim.start();
  EXPECT_EQ(sim.scheduler().now(), 7u);
  EXPECT_EQ(o.value(sim.scheduler().id()).scalar(), Logic::L1);
}

TEST(GateModule, InverterChainSettlesAtDepthTimesDelay) {
  const int depth = 10;
  Netlist nl;
  NetId cur = nl.addInput("a");
  for (int i = 0; i < depth; ++i) cur = nl.addGate(GateType::Not, {cur});
  nl.markOutput(cur);

  Circuit top("top");
  auto exp = expandNetlist(top, nl, /*delay=*/3);
  SimulationController sim(top);
  sim.inject(*exp.inputs[0], Word::fromLogic(Logic::L0));
  sim.start();
  EXPECT_EQ(sim.scheduler().now(),
            static_cast<SimTime>(depth) * 3);
  EXPECT_EQ(exp.outputs[0]->value(sim.scheduler().id()).scalar(), Logic::L0);
}

TEST(GateModule, XorHazardProducesGlitch) {
  // out = XOR(a, BUF(a)): statically always 0, but a transition on `a`
  // reaches the XOR's two pins at different times -> a transient 1 pulse.
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addGate(GateType::Buf, {a}, "b");
  nl.markOutput(nl.addGate(GateType::Xor, {a, b}, "o"));

  Circuit top("top");
  auto exp = expandNetlist(top, nl, 2);
  auto& probeConn = top.makeBit();
  top.make<Buffer>("tap", *exp.outputs[0], probeConn);
  auto& probe = top.make<rtl::PrimaryOutput>("probe", probeConn);

  SimulationController sim(top);
  sim.inject(*exp.inputs[0], Word::fromLogic(Logic::L0));
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  const auto settled = probe.sampleCount(ctx);
  EXPECT_EQ(probe.last(ctx).scalar(), Logic::L0);

  // Rising edge on a: XOR sees the new a immediately but the buffered copy
  // two ticks later -> glitch to 1, then back to 0.
  sim.inject(*exp.inputs[0], Word::fromLogic(Logic::L1));
  sim.start();
  const auto& hist = probe.history(ctx);
  ASSERT_GE(hist.size(), settled + 2);
  EXPECT_EQ(hist[settled].value.scalar(), Logic::L1);      // the glitch
  EXPECT_EQ(hist.back().value.scalar(), Logic::L0);        // settles back
  EXPECT_LT(hist[settled].time, hist.back().time);
}

TEST(GateModule, NoChangeNoEvents) {
  Circuit top("top");
  auto& a = top.makeBit();
  auto& b = top.makeBit();
  auto& o = top.makeBit();
  top.make<GateModule>("or", GateType::Or, std::vector<Connector*>{&a, &b}, o,
                       1);
  SimulationController sim(top);
  sim.inject(a, Word::fromLogic(Logic::L1));
  sim.start();
  const auto dispatched = sim.scheduler().dispatched();
  // Second input: OR output stays 1, so the gate must not emit again.
  sim.inject(b, Word::fromLogic(Logic::L1));
  sim.start();
  EXPECT_EQ(sim.scheduler().dispatched(), dispatched + 1);  // only the inject
}

TEST(GateModule, ArityChecked) {
  Circuit top("top");
  auto& a = top.makeBit();
  auto& o = top.makeBit();
  EXPECT_THROW(top.make<GateModule>("bad", GateType::Not,
                                    std::vector<Connector*>{&a, &a}, o, 1),
               std::invalid_argument);
}

class ExpandedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ExpandedEquivalence, SteadyStateMatchesLevelizedEvaluator) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const int nIn = 3 + static_cast<int>(rng.below(5));
  const Netlist nl = makeRandomNetlist(
      rng, nIn, 10 + static_cast<int>(rng.below(40)),
      1 + static_cast<int>(rng.below(3)));
  oracles::ScalarEvaluator eval(nl);

  Circuit top("top");
  auto exp = expandNetlist(top, nl, 1 + static_cast<SimTime>(rng.below(3)));
  SimulationController sim(top);
  for (int step = 0; step < 12; ++step) {
    const Word in = Word::fromUint(nIn, rng.next());
    injectWord(sim, exp.inputs, in);
    sim.start();  // run to quiescence
    EXPECT_EQ(readOutputs(exp.outputs, sim.scheduler().id()),
              eval.evalOutputs(in))
        << "seed=" << GetParam() << " step=" << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpandedEquivalence, ::testing::Range(1, 11));

TEST(GateModule, ExpandedC17MatchesTruth) {
  const Netlist c17 = makeC17();
  oracles::ScalarEvaluator eval(c17);
  Circuit top("top");
  auto exp = expandNetlist(top, c17, 2);
  SimulationController sim(top);
  for (unsigned v = 0; v < 32; ++v) {
    const Word in = Word::fromUint(5, v);
    injectWord(sim, exp.inputs, in);
    sim.start();
    EXPECT_EQ(readOutputs(exp.outputs, sim.scheduler().id()),
              eval.evalOutputs(in))
        << v;
  }
}

}  // namespace
}  // namespace vcad::gate
