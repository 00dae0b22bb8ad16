#include "gate/netlist_io.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "fault/atpg.hpp"
#include "gate/generators.hpp"
#include "oracles/oracles.hpp"

namespace vcad::gate {
namespace {

TEST(NetlistIo, WriteParseRoundTripPreservesBehaviour) {
  const Netlist orig = makeRippleCarryAdder(6);
  const Netlist back = parseNetlist(netlistToString(orig, "adder"));
  EXPECT_EQ(back.inputCount(), orig.inputCount());
  EXPECT_EQ(back.outputCount(), orig.outputCount());
  EXPECT_EQ(back.gateCount(), orig.gateCount());
  oracles::ScalarEvaluator a(orig), b(back);
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    const Word in = Word::fromUint(orig.inputCount(), rng.next());
    EXPECT_EQ(a.evalOutputs(in), b.evalOutputs(in));
  }
}

TEST(NetlistIo, ParsesHandWrittenText) {
  const Netlist nl = parseNetlist(R"(
# a half adder
.model ha
.inputs a b
.outputs sum carry
.gate XOR sum a b      # sum bit
.gate AND carry a b
.end
)");
  EXPECT_EQ(nl.inputCount(), 2);
  EXPECT_EQ(nl.outputCount(), 2);
  oracles::ScalarEvaluator ev(nl);
  EXPECT_EQ(ev.evalOutputs(Word::fromUint(2, 0b11)).toString(), "10");
}

TEST(NetlistIo, OutputsMayBeDeclaredBeforeGates) {
  const Netlist nl = parseNetlist(
      ".outputs o\n.inputs a\n.gate NOT o a\n");
  EXPECT_EQ(nl.outputCount(), 1);
}

TEST(NetlistIo, ErrorsCarryLineNumbers) {
  try {
    parseNetlist(".inputs a\n.gate FROB o a\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("FROB"), std::string::npos);
  }
}

TEST(NetlistIo, RejectsDoubleDrive) {
  EXPECT_THROW(parseNetlist(".inputs a b\n"
                            ".outputs o\n"
                            ".gate AND o a b\n"
                            ".gate OR o a b\n"),
               std::runtime_error);
}

TEST(NetlistIo, RejectsUndrivenNets) {
  // 'ghost' is read but never driven: validate() on load must fail.
  EXPECT_THROW(parseNetlist(".inputs a\n"
                            ".outputs o\n"
                            ".gate AND o a ghost\n"),
               std::logic_error);
}

TEST(NetlistIo, RejectsUnknownOutput) {
  EXPECT_THROW(parseNetlist(".inputs a\n.outputs nope\n.gate NOT x a\n"),
               std::runtime_error);
}

TEST(NetlistIo, RejectsUnknownDirective) {
  EXPECT_THROW(parseNetlist(".bogus\n"), std::runtime_error);
}

TEST(NetlistIo, RejectsDuplicateInputs) {
  EXPECT_THROW(parseNetlist(".inputs a\n.inputs b\n"), std::runtime_error);
  EXPECT_THROW(parseNetlist(".inputs a a\n"), std::runtime_error);
}

class IoRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(IoRoundTrip, RandomNetlists) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9973);
  const Netlist orig = makeRandomNetlist(
      rng, 4 + static_cast<int>(rng.below(6)),
      10 + static_cast<int>(rng.below(60)), 1 + static_cast<int>(rng.below(4)));
  const Netlist back = parseNetlist(netlistToString(orig));
  oracles::ScalarEvaluator a(orig), b(back);
  for (int i = 0; i < 15; ++i) {
    const Word in = Word::fromUint(orig.inputCount(), rng.next());
    EXPECT_EQ(a.evalOutputs(in), b.evalOutputs(in)) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTrip, ::testing::Range(1, 9));

// --- c17 ---------------------------------------------------------------

TEST(C17, StructureMatchesIscas) {
  const Netlist c17 = makeC17();
  EXPECT_EQ(c17.inputCount(), 5);
  EXPECT_EQ(c17.outputCount(), 2);
  EXPECT_EQ(c17.gateCount(), 6);
  for (const GateNode& g : c17.gates()) {
    EXPECT_EQ(g.type, GateType::Nand);
  }
}

TEST(C17, KnownResponses) {
  const Netlist c17 = makeC17();
  oracles::ScalarEvaluator ev(c17);
  // Inputs in declaration order N1 N2 N3 N6 N7 (bit0=N1).
  // All-zeros: N10=1, N11=1, N16=1, N19=1 -> N22=NAND(1,1)=0, N23=0.
  const Word out0 = ev.evalOutputs(Word::fromUint(5, 0b00000));
  EXPECT_EQ(out0.bit(0), Logic::L0);  // N22
  EXPECT_EQ(out0.bit(1), Logic::L0);  // N23
  // N1=N3=1 others 0: N10=NAND(1,1)=0 -> N22=1.
  const Word out1 = ev.evalOutputs(Word::fromUint(5, 0b00101));
  EXPECT_EQ(out1.bit(0), Logic::L1);
}

TEST(C17, FullCoverageWithAtpg) {
  // c17 is fully testable: ATPG must reach 100% of collapsed faults.
  const Netlist c17 = makeC17();
  fault::AtpgOptions opt;
  opt.targetCoverage = 1.0;
  const auto res = fault::generateTests(c17, opt);
  EXPECT_DOUBLE_EQ(res.coverage, 1.0);
  EXPECT_LE(res.patterns.size(), 10u);
}

}  // namespace
}  // namespace vcad::gate
