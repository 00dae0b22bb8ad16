#include "gate/family.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"
#include "gate/generators.hpp"
#include "gate/netlist_io.hpp"
#include "gate/packed_eval.hpp"
#include "oracles/oracles.hpp"

namespace vcad::gate {
namespace {

// --- determinism / validation contract ----------------------------------

TEST(Family, SameSpecIsByteIdentical) {
  for (CircuitFamily f : {CircuitFamily::Cone, CircuitFamily::Datapath,
                          CircuitFamily::Controller}) {
    const FamilySpec spec{f, 1, 42};
    const Netlist a = makeFamilyNetlist(spec);
    const Netlist b = makeFamilyNetlist(spec);
    EXPECT_EQ(netlistToString(a), netlistToString(b)) << spec.name();
  }
}

TEST(Family, DifferentSeedsDifferForRandomFamilies) {
  const Netlist a = makeFamilyNetlist({CircuitFamily::Cone, 0, 1});
  const Netlist b = makeFamilyNetlist({CircuitFamily::Cone, 0, 2});
  EXPECT_NE(netlistToString(a), netlistToString(b));
}

TEST(Family, EveryPointPassesItsOwnContract) {
  for (CircuitFamily f : {CircuitFamily::Cone, CircuitFamily::Datapath,
                          CircuitFamily::Controller}) {
    for (int scale = 0; scale <= 2; ++scale) {
      for (std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
        const Netlist nl = makeFamilyNetlist({f, scale, seed});
        // The generators already self-check; re-assert externally so a
        // silently-disabled internal check cannot pass this suite.
        EXPECT_NO_THROW(checkGeneratorInvariants(nl))
            << FamilySpec{f, scale, seed}.name();
        EXPECT_LE(nl.inputCount(), 64);  // Word-evaluable at every point
      }
    }
  }
}

TEST(Family, ScaleGrowsRoughlyQuadratically) {
  const int g0 =
      makeFamilyNetlist({CircuitFamily::Cone, 0, 5}).gateCount();
  const int g2 =
      makeFamilyNetlist({CircuitFamily::Cone, 2, 5}).gateCount();
  EXPECT_GE(g2, 10 * g0);
}

TEST(Family, ConeHasReconvergentFanout) {
  const Netlist nl = makeFamilyNetlist({CircuitFamily::Cone, 1, 3});
  int stems = 0;
  for (NetId n = 0; n < nl.netCount(); ++n) {
    if (nl.fanoutOf(n) >= 2) ++stems;
  }
  // Locality-biased picks must leave plenty of multi-fanout stems (the
  // precondition for reconvergence); a pure tree would have none.
  EXPECT_GE(stems, nl.gateCount() / 10);
}

TEST(Family, BadSpecsRejected) {
  EXPECT_THROW(makeFamilyNetlist({CircuitFamily::Cone, -1, 1}),
               std::invalid_argument);
  EXPECT_THROW(makeFamilyNetlist({CircuitFamily::Cone, 9, 1}),
               std::invalid_argument);
  EXPECT_THROW(makeFamilyNetlist({CircuitFamily::Datapath, 4, 1}),
               std::invalid_argument);
  EXPECT_THROW(makeFamilyMachine({CircuitFamily::Datapath, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW(makeRandomCone(1, 1, 10, 1), std::invalid_argument);
  EXPECT_THROW(makeMacDatapath(1, 1), std::invalid_argument);
}

// --- functional correctness of the composed datapaths --------------------

TEST(Family, MacDatapathComputesSumOfProducts) {
  const int width = 4, lanes = 3;
  const Netlist nl = makeMacDatapath(width, lanes);
  oracles::ScalarEvaluator ev(nl);
  Rng rng(2024);
  for (int iter = 0; iter < 30; ++iter) {
    Word in(2 * width * lanes);
    std::uint64_t expect = 0;
    for (int l = 0; l < lanes; ++l) {
      const std::uint64_t a = rng.next() & ((1ULL << width) - 1);
      const std::uint64_t b = rng.next() & ((1ULL << width) - 1);
      expect += a * b;
      for (int i = 0; i < width; ++i) {
        in.setBit(2 * width * l + i, fromBool(((a >> i) & 1) != 0));
        in.setBit(2 * width * l + width + i, fromBool(((b >> i) & 1) != 0));
      }
    }
    const Word out = ev.evalOutputs(in);
    ASSERT_EQ(out.width(), 2 * width + (lanes - 1));
    std::uint64_t sum = 0;
    for (int i = 0; i < 2 * width; ++i) {
      if (out.bit(i) == Logic::L1) sum |= 1ULL << i;
    }
    EXPECT_EQ(sum, expect & ((1ULL << (2 * width)) - 1));
  }
}

TEST(Family, MacPipelineAccumulates) {
  const int width = 4;
  const SeqNetlist seq = makeMacPipeline(width);
  ASSERT_EQ(seq.stateBits(), 2 * width);
  ASSERT_EQ(seq.inputBits(), 2 * width);
  SeqEvaluator ev(seq);
  Rng rng(7);
  std::uint64_t acc = 0;
  const std::uint64_t accMask = (1ULL << (2 * width)) - 1;
  for (int cycle = 0; cycle < 20; ++cycle) {
    const std::uint64_t a = rng.next() & ((1ULL << width) - 1);
    const std::uint64_t b = rng.next() & ((1ULL << width) - 1);
    const Word out = ev.step(
        Word::concat(Word::fromUint(width, b), Word::fromUint(width, a)));
    // Outputs observe the *current* accumulator (pre-update).
    std::uint64_t seen = 0;
    for (int i = 0; i < 2 * width; ++i) {
      if (out.bit(i) == Logic::L1) seen |= 1ULL << i;
    }
    EXPECT_EQ(seen, acc) << "cycle " << cycle;
    acc = (acc + a * b) & accMask;
  }
}

TEST(Family, ControllerIsDeterministicAndObservable) {
  const FamilySpec spec{CircuitFamily::Controller, 0, 11};
  const SeqNetlist m1 = makeFamilyMachine(spec);
  const SeqNetlist m2 = makeFamilyMachine(spec);
  EXPECT_EQ(netlistToString(m1.comb()), netlistToString(m2.comb()));
  EXPECT_EQ(m1.stateBits(), 4);
  SeqEvaluator e1(m1), e2(m2);
  Rng stim(3);
  for (int cycle = 0; cycle < 32; ++cycle) {
    const Word in =
        Word::fromUint(m1.inputBits(), stim.next() & ((1u << m1.inputBits()) - 1));
    EXPECT_EQ(e1.step(in), e2.step(in));
  }
  EXPECT_EQ(e1.state(), e2.state());
}

// --- packed-vs-scalar differential sweep (property-based, with shrinking) -

// On mismatch, shrink the pattern set to a minimal failing single pattern
// and emit the full netlist text + spec so the failure reproduces from the
// assert message alone.
void expectPackedMatchesScalar(const FamilySpec& spec) {
  const Netlist nl = makeFamilyNetlist(spec);
  oracles::ScalarEvaluator scalar(nl);
  PackedEvaluator packed(nl);
  Rng rng(spec.seed ^ 0xD1FFu);
  std::vector<Word> patterns;
  for (int i = 0; i < PackedEvaluator::kLanes; ++i) {
    Word w(nl.inputCount());
    for (int bitIdx = 0; bitIdx < nl.inputCount(); ++bitIdx) {
      w.setBit(bitIdx, fromBool(rng.chance(0.5)));
    }
    patterns.push_back(std::move(w));
  }
  const auto block = packed.pack(patterns, 0, patterns.size());
  std::vector<LanePlanes> planes;
  packed.evaluate(block, planes);
  for (std::size_t lane = 0; lane < patterns.size(); ++lane) {
    const Word want = scalar.evalOutputs(patterns[lane]);
    const Word got = packed.outputsOf(planes, static_cast<int>(lane));
    if (got != want) {
      // Shrunk reproducer: one spec, one pattern, full netlist text.
      FAIL() << "packed/scalar mismatch, spec=" << spec.name() << " lane="
             << lane << "\npattern=" << patterns[lane].toString()
             << "\nscalar=" << want.toString() << " packed=" << got.toString()
             << "\nnetlist:\n" << netlistToString(nl, spec.name());
    }
  }
}

TEST(Family, PackedMatchesScalarAcrossTheFamily) {
  for (CircuitFamily f : {CircuitFamily::Cone, CircuitFamily::Datapath,
                          CircuitFamily::Controller}) {
    for (int scale = 0; scale <= 1; ++scale) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        expectPackedMatchesScalar({f, scale, seed});
      }
    }
  }
}

}  // namespace
}  // namespace vcad::gate
