// Differential tests for the packed bit-parallel evaluator: every lane of
// every packed pass must decode to exactly what the scalar oracle
// (oracles::ScalarEvaluator) computes — for random netlists, X/Z-heavy input
// blocks, and random stuck-at faults.
#include "gate/packed_eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/rng.hpp"
#include "gate/generators.hpp"
#include "gate/metrics.hpp"
#include "gate/netlist.hpp"
#include "oracles/oracles.hpp"

namespace vcad::gate {
namespace {

/// Random 4-valued word. `unknownPct` of bits (in [0,100]) become X or Z.
Word randomWord(Rng& rng, int width, int unknownPct) {
  Word w(width);
  for (int i = 0; i < width; ++i) {
    if (rng.below(100) < static_cast<std::uint64_t>(unknownPct)) {
      w.setBit(i, rng.below(2) == 0 ? Logic::X : Logic::Z);
    } else {
      w.setBit(i, rng.below(2) == 0 ? Logic::L0 : Logic::L1);
    }
  }
  return w;
}

std::vector<Word> randomBlock(Rng& rng, int width, std::size_t n,
                              int unknownPct) {
  std::vector<Word> block;
  block.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    block.push_back(randomWord(rng, width, unknownPct));
  }
  return block;
}

void expectAllLanesMatchScalar(const Netlist& nl,
                               const std::vector<Word>& patterns,
                               const StuckFault* fault) {
  const oracles::ScalarEvaluator eval(nl);
  const PackedEvaluator packed(nl);
  std::optional<StuckFault> scalarFault;
  if (fault != nullptr) scalarFault = *fault;

  std::vector<LanePlanes> planes;
  std::vector<Logic> scalar;
  for (std::size_t base = 0; base < patterns.size();
       base += PackedEvaluator::kLanes) {
    const std::size_t lanes =
        std::min<std::size_t>(PackedEvaluator::kLanes, patterns.size() - base);
    packed.evaluate(packed.pack(patterns, base, lanes), planes, fault);
    for (std::size_t l = 0; l < lanes; ++l) {
      eval.evaluateInto(patterns[base + l], scalar, scalarFault);
      for (NetId n = 0; n < nl.netCount(); ++n) {
        ASSERT_EQ(packed.netValue(planes, n, static_cast<int>(l)),
                  scalar[static_cast<std::size_t>(n)])
            << "net " << nl.netName(n) << " lane " << l << " pattern "
            << patterns[base + l].toString();
      }
      ASSERT_EQ(packed.outputsOf(planes, static_cast<int>(l)),
                eval.outputsOf(scalar));
    }
  }

  // The words-in, output-words-out call over the same patterns, pass
  // boundaries included; its plane buffer ends holding the last pass.
  std::vector<Word> outs(patterns.size());
  std::vector<LanePlanes> held;
  packed.evalOutputs(patterns, outs, held, fault);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    ASSERT_EQ(outs[i], eval.evalOutputs(patterns[i], scalarFault))
        << "pattern " << i;
  }
  ASSERT_EQ(held.size(), planes.size());
  for (std::size_t n = 0; n < planes.size(); ++n) {
    ASSERT_EQ(held[n].val, planes[n].val) << "net " << n;
    ASSERT_EQ(held[n].known, planes[n].known) << "net " << n;
    ASSERT_EQ(held[n].z, planes[n].z) << "net " << n;
  }
}

TEST(PackedEval, HalfAdderExhaustiveFullyKnown) {
  const Netlist nl = makeHalfAdder();
  std::vector<Word> patterns;
  for (unsigned v = 0; v < 4; ++v) {
    patterns.push_back(Word::fromUint(2, v));
  }
  expectAllLanesMatchScalar(nl, patterns, nullptr);
}

TEST(PackedEval, RandomNetlistsRandomBlocksMatchScalar) {
  Rng rng(0xbeef01);
  for (int trial = 0; trial < 20; ++trial) {
    const int nIn = 2 + static_cast<int>(rng.below(10));
    const int nGates = 5 + static_cast<int>(rng.below(60));
    const int nOut = 1 + static_cast<int>(rng.below(4));
    Rng gen(rng.next());
    const Netlist nl = makeRandomNetlist(gen, nIn, nGates, nOut);
    // Mixed blocks: fully known, X/Z-sprinkled, and X/Z-heavy.
    const int unknownPct = trial % 3 == 0 ? 0 : (trial % 3 == 1 ? 15 : 60);
    const auto patterns = randomBlock(rng, nIn, 100, unknownPct);
    expectAllLanesMatchScalar(nl, patterns, nullptr);
  }
}

TEST(PackedEval, RandomStuckFaultsMatchScalar) {
  Rng rng(0xbeef02);
  for (int trial = 0; trial < 15; ++trial) {
    const int nIn = 3 + static_cast<int>(rng.below(8));
    Rng gen(rng.next());
    const Netlist nl = makeRandomNetlist(gen, nIn, 40, 3);
    const auto patterns = randomBlock(rng, nIn, 80, trial % 2 == 0 ? 0 : 25);
    for (int f = 0; f < 8; ++f) {
      const StuckFault fault{
          static_cast<NetId>(rng.below(static_cast<std::uint64_t>(
              nl.netCount()))),
          rng.below(2) == 0 ? Logic::L0 : Logic::L1};
      expectAllLanesMatchScalar(nl, patterns, &fault);
    }
  }
}

TEST(PackedEval, FaultOnPrimaryInputNetMatchesScalar) {
  const Netlist nl = makeRippleCarryAdder(4);
  Rng rng(0xbeef03);
  const auto patterns = randomBlock(rng, nl.inputCount(), 64, 10);
  for (NetId pi : nl.primaryInputs()) {
    const StuckFault sa0{pi, Logic::L0};
    const StuckFault sa1{pi, Logic::L1};
    expectAllLanesMatchScalar(nl, patterns, &sa0);
    expectAllLanesMatchScalar(nl, patterns, &sa1);
  }
}

/// A random netlist with Const0/Const1 gates mixed into its fanin.
Netlist randomNetlistWithConstants(Rng& rng) {
  Netlist nl;
  std::vector<NetId> pool;
  for (int i = 0; i < 6; ++i) {
    pool.push_back(nl.addInput("i" + std::to_string(i)));
  }
  pool.push_back(nl.addGate(GateType::Const0, {}, "c0"));
  pool.push_back(nl.addGate(GateType::Const1, {}, "c1"));
  const GateType ops[] = {GateType::And, GateType::Or,  GateType::Nand,
                          GateType::Nor, GateType::Xor, GateType::Xnor};
  for (int g = 0; g < 30; ++g) {
    const NetId a = pool[rng.below(pool.size())];
    const NetId b = pool[rng.below(pool.size())];
    pool.push_back(g % 7 == 6 ? nl.addGate(GateType::Not, {a})
                              : nl.addGate(ops[rng.below(6)], {a, b}));
  }
  for (std::size_t k = pool.size() - 4; k < pool.size(); ++k) {
    nl.markOutput(pool[k]);
  }
  nl.validate();
  return nl;
}

TEST(PackedEval, MultiFaultPassMatchesSingleFaultPerLane) {
  Rng rng(0xbeef07);
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist nl = randomNetlistWithConstants(rng);
    const PackedEvaluator packed(nl);
    const auto patterns = randomBlock(rng, nl.inputCount(), 64,
                                      trial % 2 == 0 ? 0 : 25);
    const auto block = packed.pack(patterns, 0, 64);

    // Lane k carries fault k: random nets (inputs, constants, internal,
    // outputs) and polarities, several lanes sharing a net.
    std::vector<StuckFault> faults;
    for (int k = 0; k < 64; ++k) {
      faults.push_back(
          {static_cast<NetId>(
               rng.below(static_cast<std::uint64_t>(nl.netCount()))),
           rng.below(2) == 0 ? Logic::L0 : Logic::L1});
    }
    std::vector<int> byPos(64);
    for (int k = 0; k < 64; ++k) byPos[static_cast<std::size_t>(k)] = k;
    std::stable_sort(byPos.begin(), byPos.end(), [&](int a, int b) {
      return packed.topoPosition(faults[static_cast<std::size_t>(a)].net) <
             packed.topoPosition(faults[static_cast<std::size_t>(b)].net);
    });
    std::vector<PackedEvaluator::LaneForce> forces;
    for (int k : byPos) {
      const StuckFault& f = faults[static_cast<std::size_t>(k)];
      const std::uint64_t lane = 1ULL << k;
      forces.push_back({f.net, lane, f.stuck == Logic::L1 ? lane : 0});
    }

    std::vector<LanePlanes> full, partial, single;
    packed.evaluate(block, full, forces);
    packed.evaluate(block, partial);
    packed.reevaluate(partial, forces);
    for (int k = 0; k < 64; ++k) {
      packed.evaluate(block, single, &faults[static_cast<std::size_t>(k)]);
      for (NetId n = 0; n < nl.netCount(); ++n) {
        const Logic want = packed.netValue(single, n, k);
        ASSERT_EQ(packed.netValue(full, n, k), want)
            << "net " << nl.netName(n) << " lane " << k;
        ASSERT_EQ(packed.netValue(partial, n, k), want)
            << "net " << nl.netName(n) << " lane " << k << " (reevaluate)";
      }
    }
  }
}

TEST(PackedEval, ForceListMustFollowTopologicalOrder) {
  const Netlist nl = makeRippleCarryAdder(2);
  const PackedEvaluator packed(nl);
  const NetId pi = nl.primaryInputs().front();
  const NetId po = nl.primaryOutputs().back();
  ASSERT_LT(packed.topoPosition(pi), packed.topoPosition(po));
  const std::vector<PackedEvaluator::LaneForce> backwards{{po, 1, 0},
                                                          {pi, 1, 1}};
  const auto block =
      packed.pack(std::vector<Word>{Word::fromUint(nl.inputCount(), 0)}, 0, 1);
  std::vector<LanePlanes> planes;
  EXPECT_THROW(packed.evaluate(block, planes, backwards),
               std::invalid_argument);
  const std::vector<PackedEvaluator::LaneForce> unknownNet{
      {static_cast<NetId>(nl.netCount()), 1, 0}};
  EXPECT_THROW(packed.evaluate(block, planes, unknownNet),
               std::invalid_argument);
  packed.evaluate(block, planes);
  EXPECT_THROW(packed.reevaluate(planes, unknownNet), std::invalid_argument);
  EXPECT_THROW(packed.reevaluate(planes, backwards), std::invalid_argument);
}

TEST(PackedEval, OutputDiffMaskMatchesWordInequality) {
  Rng rng(0xbeef04);
  for (int trial = 0; trial < 10; ++trial) {
    Rng gen(rng.next());
    const Netlist nl = makeRandomNetlist(gen, 6, 30, 3);
    const oracles::ScalarEvaluator eval(nl);
    const PackedEvaluator packed(nl);
    const auto patterns = randomBlock(rng, 6, 50, 20);
    const StuckFault fault{
        static_cast<NetId>(rng.below(static_cast<std::uint64_t>(
            nl.netCount()))),
        rng.below(2) == 0 ? Logic::L0 : Logic::L1};

    std::vector<LanePlanes> golden, faulty;
    for (std::size_t base = 0; base < patterns.size();
         base += PackedEvaluator::kLanes) {
      const std::size_t lanes = std::min<std::size_t>(
          PackedEvaluator::kLanes, patterns.size() - base);
      const auto block = packed.pack(patterns, base, lanes);
      packed.evaluate(block, golden);
      packed.evaluate(block, faulty, &fault);
      const std::uint64_t diff =
          packed.outputDiffMask(golden, faulty, static_cast<int>(lanes));
      for (std::size_t l = 0; l < lanes; ++l) {
        const bool scalarDiff =
            eval.evalOutputs(patterns[base + l], fault) !=
            eval.evalOutputs(patterns[base + l]);
        ASSERT_EQ((diff >> l) & 1u, scalarDiff ? 1u : 0u)
            << "lane " << l << " of block at " << base;
      }
    }
  }
}

TEST(PackedEval, PackRejectsBadShapes) {
  const Netlist nl = makeHalfAdder();
  const PackedEvaluator packed(nl);
  std::vector<Word> patterns(70, Word::fromUint(2, 1));
  EXPECT_THROW(packed.pack(patterns, 0, 65), std::invalid_argument);
  EXPECT_THROW(packed.pack(patterns, 60, 20), std::out_of_range);
  std::vector<Word> wrongWidth{Word::fromUint(3, 1)};
  EXPECT_THROW(packed.pack(wrongWidth, 0, 1), std::invalid_argument);
  std::vector<LanePlanes> planes;
  std::vector<Word> outs(1);
  EXPECT_THROW(packed.evalOutputs(wrongWidth, outs, planes),
               std::invalid_argument);
  EXPECT_THROW(packed.evalOutputs(patterns, outs, planes),
               std::invalid_argument);
}

TEST(EvalGateSpan, MatchesVectorOverload) {
  Rng rng(0xbeef05);
  const GateType types[] = {GateType::And,  GateType::Or,  GateType::Nand,
                            GateType::Nor,  GateType::Xor, GateType::Xnor,
                            GateType::Not,  GateType::Buf};
  const Logic values[] = {Logic::L0, Logic::L1, Logic::X, Logic::Z};
  for (int trial = 0; trial < 500; ++trial) {
    const GateType t = types[rng.below(8)];
    const auto [lo, hi] = arityOf(t);
    const int n = hi < 0 ? lo + static_cast<int>(rng.below(4)) : lo;
    std::vector<Logic> ins;
    for (int i = 0; i < n; ++i) ins.push_back(values[rng.below(4)]);
    EXPECT_EQ(evalGate(t, ins), evalGate(t, ins.data(), n));
  }
  EXPECT_THROW(evalGate(GateType::Not, nullptr, 0), std::invalid_argument);
  const Logic three[] = {Logic::L0, Logic::L1, Logic::X};
  EXPECT_THROW(evalGate(GateType::Xor, three, 3), std::invalid_argument);
}

TEST(EvaluateInto, MatchesEvaluateAndReusesBuffer) {
  Rng rng(0xbeef06);
  Rng gen(rng.next());
  const Netlist nl = makeRandomNetlist(gen, 5, 25, 3);
  const oracles::ScalarEvaluator eval(nl);
  std::vector<Logic> scratch;
  for (int i = 0; i < 30; ++i) {
    const Word in = randomWord(rng, 5, 20);
    eval.evaluateInto(in, scratch);
    EXPECT_EQ(scratch, eval.evaluate(in));
    const StuckFault fault{static_cast<NetId>(rng.below(
                               static_cast<std::uint64_t>(nl.netCount()))),
                           Logic::L1};
    eval.evaluateInto(in, scratch, fault);
    EXPECT_EQ(scratch, eval.evaluate(in, fault));
  }
}

TEST(PackedPower, GateLevelPowerBitIdenticalToScalar) {
  Rng rng(0xbeef07);
  const Netlist mult = makeArrayMultiplier(4);
  const auto patterns = randomBlock(rng, mult.inputCount(), 200, 0);
  const PowerResult packed =
      gateLevelPower(PackedEvaluator(mult), patterns);
  const PowerResult scalar = oracles::gateLevelPowerScalar(mult, patterns);
  EXPECT_EQ(packed.avgPowerMw, scalar.avgPowerMw);    // exact, incl. FP
  EXPECT_EQ(packed.peakPowerMw, scalar.peakPowerMw);  // exact, incl. FP
  EXPECT_EQ(packed.totalToggles, scalar.totalToggles);
  EXPECT_EQ(packed.transitions, scalar.transitions);
}

TEST(PackedPower, UnknownHeavyPatternsStillBitIdentical) {
  Rng rng(0xbeef08);
  for (int trial = 0; trial < 5; ++trial) {
    Rng gen(rng.next());
    const Netlist nl = makeRandomNetlist(gen, 7, 50, 4);
    const auto patterns = randomBlock(rng, 7, 130, 40);
    const PowerResult packed =
        gateLevelPower(PackedEvaluator(nl), patterns);
    const PowerResult scalar = oracles::gateLevelPowerScalar(nl, patterns);
    EXPECT_EQ(packed.avgPowerMw, scalar.avgPowerMw);
    EXPECT_EQ(packed.peakPowerMw, scalar.peakPowerMw);
    EXPECT_EQ(packed.totalToggles, scalar.totalToggles);
    EXPECT_EQ(packed.transitions, scalar.transitions);
  }
}

TEST(PackedPower, TransitionEnergiesMatchScalarPairwise) {
  Rng rng(0xbeef09);
  Rng gen(rng.next());
  const Netlist nl = makeRandomNetlist(gen, 6, 40, 3);
  const oracles::ScalarEvaluator eval(nl);
  const auto patterns = randomBlock(rng, 6, 90, 15);
  const std::vector<double> energies =
      transitionEnergiesPj(PackedEvaluator(nl), patterns);
  ASSERT_EQ(energies.size(), patterns.size() - 1);
  for (std::size_t i = 1; i < patterns.size(); ++i) {
    const double scalar = transitionEnergyPj(nl, eval.evaluate(patterns[i - 1]),
                                             eval.evaluate(patterns[i]));
    EXPECT_EQ(energies[i - 1], scalar) << "transition " << i - 1;
  }
}

}  // namespace
}  // namespace vcad::gate
