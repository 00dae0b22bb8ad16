#include "gate/seq_netlist.hpp"

#include <gtest/gtest.h>

#include "fault/model.hpp"
#include "oracles/oracles.hpp"

namespace vcad::gate {
namespace {

Word en(bool on) { return Word::fromUint(1, on ? 1 : 0); }

TEST(SeqNetlist, ShapeAccessors) {
  const SeqNetlist c = makeCounter(4);
  EXPECT_EQ(c.stateBits(), 4);
  EXPECT_EQ(c.inputBits(), 1);   // enable
  EXPECT_EQ(c.outputBits(), 4);  // counter value
  EXPECT_EQ(c.resetState().toUint(), 0u);
}

TEST(SeqNetlist, PackSplitRoundTrip) {
  const SeqNetlist c = makeCounter(4);
  const Word packed = c.packInputs(Word::fromUint(4, 0xA), en(true));
  EXPECT_EQ(packed.width(), 5);
  EXPECT_EQ(packed.slice(0, 4).toUint(), 0xAu);  // state in low bits
  EXPECT_EQ(packed.bit(4), Logic::L1);
}

TEST(SeqNetlist, BadShapesRejected) {
  EXPECT_THROW(makeCounter(0), std::invalid_argument);
  EXPECT_THROW(makeLfsr(1, 1), std::invalid_argument);
  EXPECT_THROW(makeLfsr(8, 0), std::invalid_argument);  // no taps
  EXPECT_THROW(makeAccumulator(0), std::invalid_argument);
  const SeqNetlist c = makeCounter(2);
  EXPECT_THROW(c.packInputs(Word::fromUint(3, 0), en(true)),
               std::invalid_argument);
}

TEST(SeqEvaluator, CounterCountsWhenEnabled) {
  const SeqNetlist c = makeCounter(4);
  SeqEvaluator ev(c);
  // Output reflects the state *before* the clock edge.
  EXPECT_EQ(ev.step(en(true)).toUint(), 0u);
  EXPECT_EQ(ev.step(en(true)).toUint(), 1u);
  EXPECT_EQ(ev.step(en(false)).toUint(), 2u);  // hold
  EXPECT_EQ(ev.step(en(true)).toUint(), 2u);
  EXPECT_EQ(ev.step(en(true)).toUint(), 3u);
}

TEST(SeqEvaluator, CounterWrapsAround) {
  const SeqNetlist c = makeCounter(3);
  SeqEvaluator ev(c);
  Word last;
  for (int i = 0; i < 9; ++i) last = ev.step(en(true));
  EXPECT_EQ(last.toUint(), 0u);  // 8 increments wrap the 3-bit counter
}

TEST(SeqEvaluator, ResetRestoresInitialState) {
  const SeqNetlist c = makeCounter(4);
  SeqEvaluator ev(c);
  for (int i = 0; i < 5; ++i) ev.step(en(true));
  ev.reset();
  EXPECT_EQ(ev.step(en(true)).toUint(), 0u);
}

TEST(SeqEvaluator, LfsrVisitsManyStatesAndHolds) {
  // Maximal-length taps for width 4: x^4 + x^3 + 1 -> taps on bits 3, 2.
  const SeqNetlist l = makeLfsr(4, 0b1100);
  SeqEvaluator ev(l);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 15; ++i) seen.insert(ev.step(en(true)).toUint());
  EXPECT_GE(seen.size(), 8u);  // cycles through many distinct states
  const std::uint64_t held = ev.step(en(false)).toUint();
  EXPECT_EQ(ev.step(en(false)).toUint(), held);  // disabled: frozen
}

TEST(SeqEvaluator, AccumulatorSums) {
  const int w = 8;
  const SeqNetlist a = makeAccumulator(w);
  SeqEvaluator ev(a);
  auto input = [&](bool enable, std::uint64_t d) {
    Word in(w + 1);
    in.setBit(0, fromBool(enable));
    for (int i = 0; i < w; ++i) in.setBit(1 + i, fromBool(((d >> i) & 1) != 0));
    return in;
  };
  ev.step(input(true, 10));
  ev.step(input(true, 20));
  ev.step(input(false, 99));                       // disabled: ignored
  EXPECT_EQ(ev.step(input(true, 0)).toUint(), 30u);  // observe 10+20
}

TEST(SeqEvaluator, PersistentFaultCorruptsStateOverTime) {
  const SeqNetlist c = makeCounter(4);
  // Stuck the enable-gated toggle of bit 0 at 0: the counter can never
  // leave even states via bit 0.
  const NetId t0 = c.comb().findNet("t0");
  ASSERT_NE(t0, kNoNet);
  SeqEvaluator good(c);
  SeqEvaluator bad(c, StuckFault{t0, Logic::L0});
  bool diverged = false;
  for (int i = 0; i < 8; ++i) {
    if (good.step(en(true)) != bad.step(en(true))) {
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(SeqEvaluator, RunFromResetIsDeterministic) {
  Rng rng(31);
  const SeqNetlist m = makeRandomMachine(rng, 4, 3, 2, 25);
  std::vector<Word> inputs;
  Rng stim(7);
  for (int i = 0; i < 30; ++i) inputs.push_back(Word::fromUint(3, stim.next()));
  SeqEvaluator a(m), b(m);
  EXPECT_EQ(a.run(inputs), b.run(inputs));
}

class SeqVsOracle : public ::testing::TestWithParam<int> {};

// Every step of every machine — fault-free and under each collapsed fault
// of its core, primary inputs included — equals one scalar oracle pass over
// (state, inputs) split into {next state, outputs}, with X/Z stimulus.
TEST_P(SeqVsOracle, EveryCollapsedFaultStepsLikeTheScalarOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const int stateBits = 2 + static_cast<int>(rng.below(4));
  const int inputBits = 1 + static_cast<int>(rng.below(4));
  const SeqNetlist m = makeRandomMachine(
      rng, stateBits, inputBits, 1 + static_cast<int>(rng.below(3)),
      15 + static_cast<int>(rng.below(30)));
  const oracles::ScalarEvaluator oracle(m.comb());
  std::vector<std::optional<StuckFault>> faults{std::nullopt};
  for (const StuckFault& f : fault::collapseAll(m.comb()).representatives) {
    faults.emplace_back(f);
  }
  std::vector<Word> stimulus;
  for (int c = 0; c < 12; ++c) {
    Word in = Word::fromUint(inputBits, rng.next());
    if (rng.chance(0.25)) in.setBit(0, rng.chance(0.5) ? Logic::X : Logic::Z);
    stimulus.push_back(in);
  }
  for (const std::optional<StuckFault>& f : faults) {
    SeqEvaluator ev(m, f);
    Word state = m.resetState();
    for (std::size_t c = 0; c < stimulus.size(); ++c) {
      const auto [next, outs] =
          m.splitOutputs(oracle.evalOutputs(m.packInputs(state, stimulus[c]), f));
      ASSERT_EQ(ev.step(stimulus[c]), outs)
          << "seed=" << GetParam() << " cycle=" << c
          << " fault net=" << (f ? f->net : kNoNet);
      ASSERT_EQ(ev.state(), next);
      state = next;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqVsOracle, ::testing::Range(1, 7));

TEST(SeqEvaluator, SharedEngineMustBeCompiledFromTheSameMachine) {
  Rng rng(5);
  const SeqNetlist m = makeRandomMachine(rng, 3, 2, 2, 20);
  const SeqNetlist copy = m;
  auto engine = std::make_shared<const PackedEvaluator>(m.comb());
  SeqEvaluator shared(m, engine);
  SeqEvaluator own(m);
  EXPECT_EQ(shared.step(Word::fromUint(2, 1)), own.step(Word::fromUint(2, 1)));
  // An engine compiled from another copy is refused: that copy may die
  // first.
  EXPECT_THROW(SeqEvaluator(copy, engine), std::invalid_argument);
  EXPECT_THROW(SeqEvaluator(m, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace vcad::gate
