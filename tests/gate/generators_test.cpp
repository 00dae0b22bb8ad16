#include "gate/generators.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "oracles/oracles.hpp"

namespace vcad::gate {
namespace {

Word packOperands(int width, std::uint64_t a, std::uint64_t b) {
  // Generators declare inputs as a0..aw-1 then b0..bw-1.
  return Word::concat(Word::fromUint(width, b), Word::fromUint(width, a));
}

TEST(Generators, HalfAdderTruthTable) {
  const Netlist nl = makeHalfAdder();
  oracles::ScalarEvaluator ev(nl);
  for (unsigned v = 0; v < 4; ++v) {
    const Word out = ev.evalOutputs(Word::fromUint(2, v));
    const unsigned a = v & 1, b = (v >> 1) & 1;
    EXPECT_EQ(out.bit(0), fromBool((a ^ b) != 0)) << "sum for " << v;
    EXPECT_EQ(out.bit(1), fromBool((a & b) != 0)) << "carry for " << v;
  }
}

TEST(Generators, FullAdderTruthTable) {
  const Netlist nl = makeFullAdder();
  oracles::ScalarEvaluator ev(nl);
  for (unsigned v = 0; v < 8; ++v) {
    const Word out = ev.evalOutputs(Word::fromUint(3, v));
    const unsigned total = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
    EXPECT_EQ(out.bit(0), fromBool((total & 1) != 0));
    EXPECT_EQ(out.bit(1), fromBool(total >= 2));
  }
}

class AdderSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdderSweep, MatchesIntegerAddition) {
  const int width = GetParam();
  const Netlist nl = makeRippleCarryAdder(width);
  oracles::ScalarEvaluator ev(nl);
  Rng rng(42 + static_cast<std::uint64_t>(width));
  const std::uint64_t mask = (width >= 64) ? ~0ULL : ((1ULL << width) - 1);
  for (int iter = 0; iter < 50; ++iter) {
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    const Word out = ev.evalOutputs(packOperands(width, a, b));
    ASSERT_EQ(out.width(), width + 1);
    EXPECT_EQ(out.toUint(), a + b) << "a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 13, 16, 24, 31));

class MultiplierSweep : public ::testing::TestWithParam<int> {};

TEST_P(MultiplierSweep, MatchesIntegerMultiplication) {
  const int width = GetParam();
  const Netlist nl = makeArrayMultiplier(width);
  oracles::ScalarEvaluator ev(nl);
  Rng rng(7 + static_cast<std::uint64_t>(width));
  const std::uint64_t mask = (1ULL << width) - 1;
  for (int iter = 0; iter < 40; ++iter) {
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    const Word out = ev.evalOutputs(packOperands(width, a, b));
    ASSERT_EQ(out.width(), 2 * width);
    EXPECT_EQ(out.toUint(), a * b) << "a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MultiplierSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

TEST(Generators, MultiplierExhaustive4x4) {
  const Netlist nl = makeArrayMultiplier(4);
  oracles::ScalarEvaluator ev(nl);
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      EXPECT_EQ(ev.evalOutputs(packOperands(4, a, b)).toUint(), a * b);
    }
  }
}

class ParitySweep : public ::testing::TestWithParam<int> {};

TEST_P(ParitySweep, MatchesPopcountParity) {
  const int width = GetParam();
  const Netlist nl = makeParityTree(width);
  oracles::ScalarEvaluator ev(nl);
  Rng rng(99);
  for (int iter = 0; iter < 30; ++iter) {
    const std::uint64_t v =
        rng.next() & ((width >= 64) ? ~0ULL : ((1ULL << width) - 1));
    const Word out = ev.evalOutputs(Word::fromUint(width, v));
    EXPECT_EQ(out.bit(0), fromBool((__builtin_popcountll(v) & 1) != 0));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ParitySweep,
                         ::testing::Values(2, 3, 4, 5, 8, 16, 33));

class MuxSweep : public ::testing::TestWithParam<int> {};

TEST_P(MuxSweep, SelectsTheAddressedInput) {
  const int selBits = GetParam();
  const int n = 1 << selBits;
  const Netlist nl = makeMux(selBits);
  oracles::ScalarEvaluator ev(nl);
  Rng rng(5);
  for (int sel = 0; sel < n; ++sel) {
    const std::uint64_t data = rng.next() & ((1ULL << n) - 1);
    Word in(n + selBits);
    for (int i = 0; i < n; ++i) in.setBit(i, fromBool(((data >> i) & 1) != 0));
    for (int i = 0; i < selBits; ++i) {
      in.setBit(n + i, fromBool(((sel >> i) & 1) != 0));
    }
    EXPECT_EQ(ev.evalOutputs(in).bit(0), fromBool(((data >> sel) & 1) != 0));
  }
}

INSTANTIATE_TEST_SUITE_P(SelBits, MuxSweep, ::testing::Values(1, 2, 3, 4));

class ComparatorSweep : public ::testing::TestWithParam<int> {};

TEST_P(ComparatorSweep, EqualityOnly) {
  const int width = GetParam();
  const Netlist nl = makeComparator(width);
  oracles::ScalarEvaluator ev(nl);
  Rng rng(11);
  const std::uint64_t mask = (1ULL << width) - 1;
  for (int iter = 0; iter < 30; ++iter) {
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.chance(0.5) ? a : (rng.next() & mask);
    // Comparator inputs interleave a_i, b_i in declaration order.
    Word in(2 * width);
    for (int i = 0; i < width; ++i) {
      in.setBit(2 * i, fromBool(((a >> i) & 1) != 0));
      in.setBit(2 * i + 1, fromBool(((b >> i) & 1) != 0));
    }
    EXPECT_EQ(ev.evalOutputs(in).bit(0), fromBool(a == b));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ComparatorSweep,
                         ::testing::Values(1, 4, 8, 16));

TEST(Generators, Ip1MatchesHalfAdderBehaviour) {
  const Netlist ip1 = makeIp1HalfAdder();
  oracles::ScalarEvaluator ev(ip1);
  for (unsigned v = 0; v < 4; ++v) {
    const unsigned a = v & 1, b = (v >> 1) & 1;
    const Word out = ev.evalOutputs(Word::fromUint(2, v));
    EXPECT_EQ(out.bit(0), fromBool((a ^ b) != 0));  // OIP1 = sum
    EXPECT_EQ(out.bit(1), fromBool((a & b) != 0));  // OIP2 = carry
  }
}

TEST(Generators, Ip1HasPaperInternalSignals) {
  const Netlist ip1 = makeIp1HalfAdder();
  for (const char* name : {"I1", "I2", "I3", "I4", "I5", "I6"}) {
    EXPECT_NE(ip1.findNet(name), kNoNet) << name;
  }
  EXPECT_NE(ip1.findNet("IIP1"), kNoNet);
  EXPECT_NE(ip1.findNet("OIP2"), kNoNet);
}

TEST(Generators, RandomNetlistIsValidAndDeterministic) {
  Rng r1(123), r2(123);
  const Netlist a = makeRandomNetlist(r1, 8, 50, 5);
  const Netlist b = makeRandomNetlist(r2, 8, 50, 5);
  // >= because dead primary inputs are XOR-folded into the first output.
  EXPECT_GE(a.gateCount(), 50);
  EXPECT_EQ(a.inputCount(), 8);
  EXPECT_EQ(a.outputCount(), 5);
  // Determinism: same seed, same structure, same behaviour.
  oracles::ScalarEvaluator ea(a), eb(b);
  Rng stim(77);
  for (int i = 0; i < 20; ++i) {
    const Word in = Word::fromUint(8, stim.next() & 0xFF);
    EXPECT_EQ(ea.evalOutputs(in), eb.evalOutputs(in));
  }
}

// Regression: makeRandomNetlist used to strand primary inputs (a PI read by
// nothing, or only by cones feeding no chosen output), which made the fault
// universe — and every coverage denominator — depend on which seed happened
// to strand one. Every PI must now reach at least one primary output.
TEST(Generators, RandomNetlistEveryInputReachesAnOutput) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    // Sparse shapes (few gates, few outputs, many inputs) are the ones that
    // historically stranded inputs.
    const Netlist nl = makeRandomNetlist(rng, 12, 8, 1);
    const std::vector<NetId> dead = deadInputs(nl, nl.primaryOutputs());
    ASSERT_TRUE(dead.empty())
        << "seed " << seed << " strands " << dead.size()
        << " inputs, first: " << nl.netName(dead.front());
    nl.validate();
  }
}

TEST(Generators, FoldDeadInputsMakesInputsLogicallyObservable) {
  // Hand-build a netlist with a genuinely dead input, fold it, and check the
  // fold is not just structural: toggling the dead input flips the output.
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("dead");
  const NetId g = nl.addGate(GateType::Buf, {a});
  std::vector<NetId> outs{g};
  EXPECT_EQ(deadInputs(nl, outs), std::vector<NetId>{b});
  EXPECT_EQ(foldDeadInputs(nl, outs), 1);
  EXPECT_TRUE(deadInputs(nl, outs).empty());
  for (NetId o : outs) nl.markOutput(o);
  nl.validate();
  oracles::ScalarEvaluator ev(nl);
  const Word lo = ev.evalOutputs(Word::fromUint(2, 0b01));  // a=1, dead=0
  const Word hi = ev.evalOutputs(Word::fromUint(2, 0b11));  // a=1, dead=1
  EXPECT_NE(lo.bit(0), hi.bit(0));
}

TEST(Generators, BadShapesRejected) {
  Rng rng(1);
  EXPECT_THROW(makeRippleCarryAdder(0), std::invalid_argument);
  EXPECT_THROW(makeArrayMultiplier(0), std::invalid_argument);
  EXPECT_THROW(makeArrayMultiplier(33), std::invalid_argument);
  EXPECT_THROW(makeParityTree(1), std::invalid_argument);
  EXPECT_THROW(makeMux(0), std::invalid_argument);
  EXPECT_THROW(makeComparator(0), std::invalid_argument);
  EXPECT_THROW(makeRandomNetlist(rng, 1, 10, 1), std::invalid_argument);
}

}  // namespace
}  // namespace vcad::gate
