#include "fault/block_design.hpp"

#include <gtest/gtest.h>

#include "core/sim_controller.hpp"
#include "gate/generators.hpp"
#include "oracles/oracles.hpp"

namespace vcad::fault {
namespace {

using gate::Netlist;
using oracles::ScalarEvaluator;

std::shared_ptr<const Netlist> share(Netlist nl) {
  return std::make_shared<const Netlist>(std::move(nl));
}

/// Two half adders chained into a 2-bit incrementer-ish structure.
BlockDesign makeTwoBlockDesign() {
  BlockDesign d;
  const int a = d.addPrimaryInput("A");
  const int b = d.addPrimaryInput("B");
  const int c = d.addPrimaryInput("C");
  const int ha1 = d.addBlock("HA1", share(gate::makeHalfAdder()));
  const int ha2 = d.addBlock("HA2", share(gate::makeHalfAdder()));
  d.connect({-1, a}, ha1, 0);
  d.connect({-1, b}, ha1, 1);
  d.connect({ha1, 0}, ha2, 0);  // sum of HA1 into HA2
  d.connect({-1, c}, ha2, 1);
  d.markPrimaryOutput(ha2, 0, "S");      // final sum
  d.markPrimaryOutput(ha1, 1, "CARRY1");  // first carry
  d.markPrimaryOutput(ha2, 1, "CARRY2");
  return d;
}

TEST(BlockDesign, ValidateCatchesUndrivenInput) {
  BlockDesign d;
  d.addPrimaryInput("A");
  const int ha = d.addBlock("HA", share(gate::makeHalfAdder()));
  d.connect({-1, 0}, ha, 0);
  d.markPrimaryOutput(ha, 0);
  EXPECT_THROW(d.validate(), std::logic_error);  // input 1 undriven
}

TEST(BlockDesign, ValidateCatchesCycle) {
  BlockDesign d;
  const int b1 = d.addBlock("B1", share(gate::makeHalfAdder()));
  const int b2 = d.addBlock("B2", share(gate::makeHalfAdder()));
  const int a = d.addPrimaryInput("A");
  d.connect({-1, a}, b1, 0);
  d.connect({b2, 0}, b1, 1);
  d.connect({b1, 0}, b2, 0);
  d.connect({b1, 1}, b2, 1);
  d.markPrimaryOutput(b2, 1);
  EXPECT_THROW(d.validate(), std::logic_error);
}

TEST(BlockDesign, DoubleDriveRejected) {
  BlockDesign d;
  const int a = d.addPrimaryInput("A");
  const int ha = d.addBlock("HA", share(gate::makeHalfAdder()));
  d.connect({-1, a}, ha, 0);
  EXPECT_THROW(d.connect({-1, a}, ha, 0), std::logic_error);
}

TEST(BlockDesign, FlattenPreservesBehaviour) {
  const BlockDesign d = makeTwoBlockDesign();
  const Netlist flat = d.flatten();
  EXPECT_EQ(flat.inputCount(), 3);
  EXPECT_EQ(flat.outputCount(), 3);
  ScalarEvaluator ev(flat);
  for (unsigned v = 0; v < 8; ++v) {
    const unsigned a = v & 1, b = (v >> 1) & 1, c = (v >> 2) & 1;
    const Word out = ev.evalOutputs(Word::fromUint(3, v));
    const unsigned s1 = a ^ b, c1 = a & b;
    EXPECT_EQ(out.bit(0), fromBool((s1 ^ c) != 0));  // S
    EXPECT_EQ(out.bit(1), fromBool(c1 != 0));        // CARRY1
    EXPECT_EQ(out.bit(2), fromBool((s1 & c) != 0));  // CARRY2
  }
}

TEST(BlockDesign, FlattenPrefixesInternalNetNames) {
  const BlockDesign d = makeTwoBlockDesign();
  const Netlist flat = d.flatten();
  EXPECT_NE(flat.findNet("HA1/sum"), gate::kNoNet);
  EXPECT_NE(flat.findNet("HA2/carry"), gate::kNoNet);
  EXPECT_NE(flat.findNet("A"), gate::kNoNet);
}

TEST(BlockDesign, InstantiationMatchesFlattenedNetlist) {
  const BlockDesign d = makeTwoBlockDesign();
  const Netlist flat = d.flatten();
  ScalarEvaluator ev(flat);
  auto inst = d.instantiate();
  ASSERT_EQ(inst.piConns.size(), 3u);
  ASSERT_EQ(inst.poConns.size(), 3u);

  for (unsigned v = 0; v < 8; ++v) {
    SimulationController sim(*inst.circuit);
    for (int i = 0; i < 3; ++i) {
      sim.inject(*inst.piConns[static_cast<size_t>(i)],
                 Word::fromLogic(fromBool(((v >> i) & 1) != 0)));
    }
    sim.start();
    const Word flatOut = ev.evalOutputs(Word::fromUint(3, v));
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(inst.poConns[static_cast<size_t>(j)]
                    ->value(sim.scheduler().id())
                    .scalar(),
                flatOut.bit(j))
          << "v=" << v << " out=" << j;
    }
    inst.circuit->clearSchedulerState(sim.scheduler().id());
  }
}

class RandomBlockDesigns : public ::testing::TestWithParam<int> {};

TEST_P(RandomBlockDesigns, FlattenAndInstantiateAgree) {
  // Random DAG of random blocks; flattened and instantiated realizations
  // must agree on every output for random stimuli.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  BlockDesign d;
  const int nPis = 4 + static_cast<int>(rng.below(4));
  for (int i = 0; i < nPis; ++i) d.addPrimaryInput("pi" + std::to_string(i));

  const int nBlocks = 2 + static_cast<int>(rng.below(4));
  std::vector<std::pair<int, int>> availableOutputs;  // (block, pin), -1=PI
  for (int i = 0; i < nPis; ++i) availableOutputs.emplace_back(-1, i);

  for (int b = 0; b < nBlocks; ++b) {
    const int ins = 2 + static_cast<int>(rng.below(3));
    const int gates = 4 + static_cast<int>(rng.below(12));
    const int outs = 1 + static_cast<int>(rng.below(3));
    Rng blockRng(rng.next());
    const int id = d.addBlock(
        "blk" + std::to_string(b),
        share(gate::makeRandomNetlist(blockRng, ins, gates, outs)));
    for (int pin = 0; pin < ins; ++pin) {
      const auto src = availableOutputs[rng.below(availableOutputs.size())];
      d.connect({src.first, src.second}, id, pin);
    }
    for (int pin = 0; pin < outs; ++pin) availableOutputs.emplace_back(id, pin);
  }
  // Mark the last block's outputs (and one random earlier pin) as POs.
  const int last = nBlocks - 1;
  for (int pin = 0; pin < d.blockNetlist(last).outputCount(); ++pin) {
    d.markPrimaryOutput(last, pin);
  }
  d.markPrimaryOutput(0, 0);

  const Netlist flat = d.flatten();
  ScalarEvaluator ev(flat);
  auto inst = d.instantiate();

  for (int iter = 0; iter < 10; ++iter) {
    const Word in = Word::fromUint(nPis, rng.next());
    SimulationController sim(*inst.circuit);
    for (int i = 0; i < nPis; ++i) {
      sim.inject(*inst.piConns[static_cast<size_t>(i)],
                 Word::fromLogic(in.bit(i)));
    }
    sim.start();
    const Word flatOut = ev.evalOutputs(in);
    for (int j = 0; j < flat.outputCount(); ++j) {
      EXPECT_EQ(inst.poConns[static_cast<size_t>(j)]
                    ->value(sim.scheduler().id())
                    .scalar(),
                flatOut.bit(j))
          << "iter=" << iter << " out=" << j;
    }
    inst.circuit->clearSchedulerState(sim.scheduler().id());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBlockDesigns, ::testing::Range(1, 13));

}  // namespace
}  // namespace vcad::fault
