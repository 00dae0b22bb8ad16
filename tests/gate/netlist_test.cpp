#include "gate/netlist.hpp"

#include <gtest/gtest.h>

#include "gate/packed_eval.hpp"

namespace vcad::gate {
namespace {

TEST(Netlist, BuildAndQuery) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  const NetId o = nl.addGate(GateType::And, {a, b}, "o");
  nl.markOutput(o);
  EXPECT_EQ(nl.inputCount(), 2);
  EXPECT_EQ(nl.outputCount(), 1);
  EXPECT_EQ(nl.gateCount(), 1);
  EXPECT_EQ(nl.netCount(), 3);
  EXPECT_TRUE(nl.isPrimaryInput(a));
  EXPECT_FALSE(nl.isPrimaryInput(o));
  EXPECT_TRUE(nl.isPrimaryOutput(o));
  EXPECT_EQ(nl.driverOf(a), -1);
  EXPECT_EQ(nl.driverOf(o), 0);
  EXPECT_EQ(nl.findNet("b"), b);
  EXPECT_EQ(nl.findNet("zz"), kNoNet);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, AutoNamedNets) {
  Netlist nl;
  const NetId n = nl.addNet();
  EXPECT_EQ(nl.netName(n), "n0");
}

TEST(Netlist, DoubleDriverRejected) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId o = nl.addGate(GateType::Not, {a});
  EXPECT_THROW(nl.addGateDriving(GateType::Buf, {a}, o), std::logic_error);
}

TEST(Netlist, DrivingPrimaryInputRejected) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  EXPECT_THROW(nl.addGateDriving(GateType::Not, {b}, a), std::logic_error);
}

TEST(Netlist, UndrivenNetFailsValidate) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId dangling = nl.addNet("dangling");
  const NetId o = nl.addGate(GateType::And, {a, dangling});
  nl.markOutput(o);
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST(Netlist, ArityChecked) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  EXPECT_THROW(nl.addGate(GateType::Not, {a, a}), std::invalid_argument);
  EXPECT_THROW(nl.addGate(GateType::And, {a}), std::invalid_argument);
  EXPECT_THROW(nl.addGate(GateType::Xor, {a, a, a}), std::invalid_argument);
}

TEST(Netlist, DoubleOutputMarkRejected) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId o = nl.addGate(GateType::Not, {a});
  nl.markOutput(o);
  EXPECT_THROW(nl.markOutput(o), std::logic_error);
}

TEST(Netlist, FanoutCountsReadersAndOutputs) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  const NetId x = nl.addGate(GateType::And, {a, b}, "x");
  const NetId y = nl.addGate(GateType::Not, {x}, "y");
  const NetId z = nl.addGate(GateType::Buf, {x}, "z");
  nl.markOutput(x);
  nl.markOutput(y);
  nl.markOutput(z);
  EXPECT_EQ(nl.fanoutOf(x), 3);  // two readers + output marking
  EXPECT_EQ(nl.fanoutOf(a), 1);
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  const NetId x = nl.addGate(GateType::And, {a, b});
  const NetId y = nl.addGate(GateType::Not, {x});
  nl.markOutput(y);
  const auto order = nl.topoOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_LT(std::find(order.begin(), order.end(), nl.driverOf(x)),
            std::find(order.begin(), order.end(), nl.driverOf(y)));
}

TEST(Netlist, LevelsIncreaseMonotonically) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  NetId cur = a;
  for (int i = 0; i < 5; ++i) cur = nl.addGate(GateType::Not, {cur});
  nl.markOutput(cur);
  const auto lvl = nl.levels();
  EXPECT_EQ(lvl[static_cast<size_t>(a)], 0);
  EXPECT_EQ(lvl[static_cast<size_t>(cur)], 5);
}

// The library's evaluator on one word: PackedEvaluator::evalOutputs, one
// lane. These hand-derived truth checks pin it independently of the
// differential tests against the scalar oracle.
Word evalOne(const PackedEvaluator& ev, const Word& in,
             const StuckFault* fault = nullptr) {
  std::vector<LanePlanes> planes;
  Word out;
  ev.evalOutputs(std::span<const Word>(&in, 1), std::span<Word>(&out, 1),
                 planes, fault);
  return out;
}

TEST(NetlistEvaluator, BasicGates) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  nl.markOutput(nl.addGate(GateType::And, {a, b}));
  nl.markOutput(nl.addGate(GateType::Or, {a, b}));
  nl.markOutput(nl.addGate(GateType::Xor, {a, b}));
  nl.markOutput(nl.addGate(GateType::Nand, {a, b}));
  const PackedEvaluator ev(nl);
  for (unsigned v = 0; v < 4; ++v) {
    const bool av = (v & 1) != 0;
    const bool bv = (v & 2) != 0;
    const Word out = evalOne(ev, Word::fromUint(2, v));
    EXPECT_EQ(out.bit(0), fromBool(av && bv));
    EXPECT_EQ(out.bit(1), fromBool(av || bv));
    EXPECT_EQ(out.bit(2), fromBool(av != bv));
    EXPECT_EQ(out.bit(3), fromBool(!(av && bv)));
  }
}

TEST(NetlistEvaluator, XInputsPropagate) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  nl.markOutput(nl.addGate(GateType::And, {a, b}));
  const PackedEvaluator ev(nl);
  Word in(2);
  in.setBit(0, Logic::L0);  // controlling 0
  EXPECT_EQ(evalOne(ev, in).bit(0), Logic::L0);
  in.setBit(0, Logic::L1);
  EXPECT_EQ(evalOne(ev, in).bit(0), Logic::X);
}

TEST(NetlistEvaluator, StuckFaultOnInternalNet) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId x = nl.addGate(GateType::Not, {a}, "x");
  const NetId o = nl.addGate(GateType::Not, {x}, "o");
  nl.markOutput(o);
  const PackedEvaluator ev(nl);
  EXPECT_EQ(evalOne(ev, Word::fromUint(1, 1)).bit(0), Logic::L1);
  const StuckFault stuck{x, Logic::L1};
  EXPECT_EQ(evalOne(ev, Word::fromUint(1, 1), &stuck).bit(0), Logic::L0);
}

TEST(NetlistEvaluator, StuckFaultOnPrimaryInput) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  nl.markOutput(nl.addGate(GateType::And, {a, b}));
  const PackedEvaluator ev(nl);
  const StuckFault stuck{a, Logic::L0};
  EXPECT_EQ(evalOne(ev, Word::fromUint(2, 0b11), &stuck).bit(0), Logic::L0);
}

TEST(NetlistEvaluator, InputWidthChecked) {
  Netlist nl;
  nl.addInput("a");
  const PackedEvaluator ev(nl);
  EXPECT_THROW(evalOne(ev, Word::fromUint(2, 0)), std::invalid_argument);
}

TEST(NetlistEvaluator, ConstGates) {
  Netlist nl;
  nl.markOutput(nl.addGate(GateType::Const0, {}));
  nl.markOutput(nl.addGate(GateType::Const1, {}));
  const PackedEvaluator ev(nl);
  const Word out = evalOne(ev, Word(0));
  EXPECT_EQ(out.bit(0), Logic::L0);
  EXPECT_EQ(out.bit(1), Logic::L1);
}

}  // namespace
}  // namespace vcad::gate
