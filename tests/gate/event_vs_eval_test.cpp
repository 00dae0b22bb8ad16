// Cross-validation property: the event-driven backplane realization of a
// netlist (NetlistModule fed by injected events) must compute exactly the
// same outputs as the scalar oracle evaluator, for random netlists and
// random stimulus — including repeated and partially-overlapping updates.
#include <gtest/gtest.h>

#include "core/circuit.hpp"
#include "core/sim_controller.hpp"
#include "gate/generators.hpp"
#include "gate/netlist_module.hpp"
#include "oracles/oracles.hpp"

namespace vcad::gate {
namespace {

class EventVsEval : public ::testing::TestWithParam<int> {};

TEST_P(EventVsEval, RandomNetlistsAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503);
  const int nIn = 3 + static_cast<int>(rng.below(6));
  const int nOut = 1 + static_cast<int>(rng.below(4));
  const int nGates = 10 + static_cast<int>(rng.below(40));
  auto nl = std::make_shared<Netlist>(makeRandomNetlist(rng, nIn, nGates, nOut));
  oracles::ScalarEvaluator eval(*nl);

  Circuit top("top");
  std::vector<Connector*> ins, outs;
  for (int i = 0; i < nIn; ++i) ins.push_back(&top.makeBit());
  for (int i = 0; i < nOut; ++i) outs.push_back(&top.makeBit());
  top.adopt(makeBitLevelModule("dut", nl, ins, outs));

  SimulationController sim(top);
  Word current(nIn);
  for (int step = 0; step < 25; ++step) {
    // Update a random, possibly partial, subset of inputs.
    const int updates = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(nIn)));
    for (int u = 0; u < updates; ++u) {
      const int bit = static_cast<int>(rng.below(static_cast<std::uint64_t>(nIn)));
      const Logic v = rng.chance(0.5) ? Logic::L1 : Logic::L0;
      current.setBit(bit, v);
      sim.inject(*ins[static_cast<size_t>(bit)], Word::fromLogic(v));
    }
    sim.start();
    const Word golden = eval.evalOutputs(current);
    for (int j = 0; j < nOut; ++j) {
      EXPECT_EQ(outs[static_cast<size_t>(j)]->value(sim.scheduler().id()).scalar(),
                golden.bit(j))
          << "seed=" << GetParam() << " step=" << step << " out=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventVsEval, ::testing::Range(1, 11));

}  // namespace
}  // namespace vcad::gate
