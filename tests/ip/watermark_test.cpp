// Watermarking baseline (related work): proves provenance, preserves
// function exactly, and — unlike virtual simulation — hides nothing: the
// watermark can even be stripped, leaving the adversary with the full
// functional IP.
#include "ip/watermark.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "gate/generators.hpp"
#include "oracles/oracles.hpp"

namespace vcad::ip {
namespace {

using gate::Netlist;
using oracles::ScalarEvaluator;

std::vector<bool> signatureBits(std::uint64_t value, int bits) {
  std::vector<bool> s;
  for (int i = 0; i < bits; ++i) s.push_back(((value >> i) & 1) != 0);
  return s;
}

void expectSameFunction(const Netlist& a, const Netlist& b,
                        std::uint64_t seed) {
  ASSERT_EQ(a.inputCount(), b.inputCount());
  ASSERT_EQ(a.outputCount(), b.outputCount());
  ScalarEvaluator ea(a), eb(b);
  Rng rng(seed);
  for (int i = 0; i < 40; ++i) {
    const Word in = Word::fromUint(a.inputCount(), rng.next());
    EXPECT_EQ(ea.evalOutputs(in), eb.evalOutputs(in));
  }
}

TEST(Watermark, PreservesFunctionOnMultiplier) {
  const Netlist orig = gate::makeArrayMultiplier(4);
  const auto sig = signatureBits(0xDAC99, 16);
  const Netlist marked = embedWatermark(orig, {42}, sig);
  expectSameFunction(orig, marked, 1);
  EXPECT_EQ(marked.gateCount(), orig.gateCount() + 2 * 16);
}

TEST(Watermark, ExtractionRecoversSignature) {
  const Netlist orig = gate::makeArrayMultiplier(4);
  const auto sig = signatureBits(0xB0A71CE, 24);
  const Netlist marked = embedWatermark(orig, {1234}, sig);
  const auto got = extractWatermark(marked, {1234}, orig.gateCount(), 24);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, sig);
}

TEST(Watermark, WrongKeyFailsToVerify) {
  const Netlist orig = gate::makeArrayMultiplier(4);
  const auto sig = signatureBits(0xFEED, 16);
  const Netlist marked = embedWatermark(orig, {1111}, sig);
  const auto got = extractWatermark(marked, {2222}, orig.gateCount(), 16);
  EXPECT_FALSE(got.has_value());
}

TEST(Watermark, UnmarkedNetlistFailsToVerify) {
  const Netlist orig = gate::makeArrayMultiplier(4);
  EXPECT_FALSE(extractWatermark(orig, {42}, orig.gateCount(), 8).has_value());
}

TEST(Watermark, StripRemovesProofButNotFunction) {
  const Netlist orig = gate::makeRippleCarryAdder(6);
  const auto sig = signatureBits(0xA5, 8);
  const Netlist marked = embedWatermark(orig, {7}, sig);
  const Netlist stripped = stripWatermark(marked, orig.gateCount(), 8);
  // The adversary loses nothing functionally...
  expectSameFunction(orig, stripped, 2);
  EXPECT_EQ(stripped.gateCount(), orig.gateCount());
  // ...and the provider loses the proof of ownership.
  EXPECT_FALSE(
      extractWatermark(stripped, {7}, orig.gateCount(), 8).has_value());
}

TEST(Watermark, TooSmallNetlistRejected) {
  Netlist tiny;
  const auto a = tiny.addInput("a");
  tiny.markOutput(tiny.addGate(gate::GateType::Not, {a}));
  // One gate with one pin cannot host 8 distinct sites.
  EXPECT_THROW(embedWatermark(tiny, {1}, signatureBits(0xFF, 8)),
               std::invalid_argument);
}

class WatermarkProperty : public ::testing::TestWithParam<int> {};

TEST_P(WatermarkProperty, RandomNetlistsRandomSignatures) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL);
  const Netlist orig = gate::makeRandomNetlist(
      rng, 5 + static_cast<int>(rng.below(4)),
      30 + static_cast<int>(rng.below(40)), 3);
  const int bits = 4 + static_cast<int>(rng.below(12));
  const auto sig = signatureBits(rng.next(), bits);
  const WatermarkKey key{rng.next()};
  const Netlist marked = embedWatermark(orig, key, sig);
  expectSameFunction(orig, marked, rng.next());
  const auto got = extractWatermark(marked, key, orig.gateCount(), bits);
  ASSERT_TRUE(got.has_value()) << "seed " << GetParam();
  EXPECT_EQ(*got, sig);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WatermarkProperty, ::testing::Range(1, 11));

}  // namespace
}  // namespace vcad::ip
