// Read-through simulation state: a scheduler with a base run reads the
// base's connector values wherever it has not written its own, and never a
// value the base run no longer owns. SimulationController::runInjection
// builds fault injection on it: only the forced outputs' fanout is
// simulated.
#include <gtest/gtest.h>

#include "core/circuit.hpp"
#include "core/scheduler.hpp"
#include "core/sim_controller.hpp"
#include "core/slot_registry.hpp"

namespace vcad {
namespace {

/// One 8-bit input port on `c`, so Module::readInput can be exercised.
class Reader : public Module {
 public:
  Reader(std::string name, Connector& c) : Module(std::move(name)) {
    in_ = &addInput("in", c);
  }
  Word read(Scheduler& s) const {
    const SimContext ctx{s, nullptr};
    return readInput(ctx, *in_);
  }
  Port* in_;
};

/// out = (in + 1) mod 256.
class Incrementer : public Module {
 public:
  Incrementer(std::string name, Connector& in, Connector& out)
      : Module(std::move(name)) {
    in_ = &addInput("in", in);
    out_ = &addOutput("out", out);
  }
  void processInputEvent(const SignalToken&, SimContext& ctx) override {
    const Word v = readInput(ctx, *in_);
    emit(ctx, *out_,
         v.isFullyKnown() ? Word::fromUint(8, (v.toUint() + 1) & 0xFF)
                          : Word::allX(8));
  }
  Port* in_;
  Port* out_;
};

SlotRef runOf(const Scheduler& s) { return {s.slot(), s.slotGeneration()}; }

Word readThrough(const Connector& c, const Scheduler& s) {
  return c.valueOrBase(s.slot(), s.slotGeneration(), s.base());
}

TEST(ReadThrough, UnwrittenConnectorReadsTheBaseValue) {
  WordConnector c(8, "c");
  Reader r("r", c);
  Scheduler base;
  Scheduler run;
  c.setValue(base.slot(), base.slotGeneration(), Word::fromUint(8, 0x5A));
  run.setBase(runOf(base));
  EXPECT_EQ(readThrough(c, run).toUint(), 0x5Au);
  EXPECT_EQ(r.read(run).toUint(), 0x5Au);
  // The run's own slot is untouched: the plain accessor still reads all-X.
  EXPECT_FALSE(c.value(run.slot(), run.slotGeneration()).isFullyKnown());
}

TEST(ReadThrough, WrittenConnectorReadsItsOwnValue) {
  WordConnector c(8, "c");
  Reader r("r", c);
  Scheduler base;
  Scheduler run;
  c.setValue(base.slot(), base.slotGeneration(), Word::fromUint(8, 0x5A));
  run.setBase(runOf(base));
  c.setValue(run.slot(), run.slotGeneration(), Word::fromUint(8, 0x11));
  EXPECT_EQ(readThrough(c, run).toUint(), 0x11u);
  EXPECT_EQ(r.read(run).toUint(), 0x11u);
  // The base only ever gets read.
  EXPECT_EQ(c.value(base.slot(), base.slotGeneration()).toUint(), 0x5Au);
}

TEST(ReadThrough, WithoutABaseUnwrittenReadsAllX) {
  WordConnector c(8, "c");
  Reader r("r", c);
  Scheduler other;
  Scheduler run;
  c.setValue(other.slot(), other.slotGeneration(), Word::fromUint(8, 0x5A));
  EXPECT_FALSE(run.base());
  EXPECT_EQ(readThrough(c, run), Word::allX(8));
  EXPECT_EQ(r.read(run), Word::allX(8));
}

TEST(ReadThrough, ResetDropsTheBase) {
  WordConnector c(8, "c");
  Scheduler base;
  Scheduler run;
  c.setValue(base.slot(), base.slotGeneration(), Word::fromUint(8, 0x5A));
  run.setBase(runOf(base));
  c.setValue(run.slot(), run.slotGeneration(), Word::fromUint(8, 0x11));
  run.reset();
  EXPECT_FALSE(run.base());
  EXPECT_EQ(readThrough(c, run), Word::allX(8));
}

TEST(ReadThrough, RenewedBaseReadsAllXNeverThePreviousPattern) {
  // The campaign engine resets its fault-free controller between patterns:
  // a run still pointing at the old pattern's generation must not see the
  // stale value, nor the next pattern's once the base writes again.
  WordConnector c(8, "c");
  Scheduler base;
  Scheduler run;
  c.setValue(base.slot(), base.slotGeneration(), Word::fromUint(8, 0x5A));
  run.setBase(runOf(base));
  base.reset();
  EXPECT_EQ(readThrough(c, run), Word::allX(8));
  c.setValue(base.slot(), base.slotGeneration(), Word::fromUint(8, 0x77));
  EXPECT_EQ(readThrough(c, run), Word::allX(8));
}

TEST(ReadThrough, ReleasedBaseReadsAllX) {
  WordConnector c(8, "c");
  Scheduler run;
  {
    Scheduler base;
    c.setValue(base.slot(), base.slotGeneration(), Word::fromUint(8, 0x5A));
    run.setBase(runOf(base));
  }
  EXPECT_EQ(readThrough(c, run), Word::allX(8));
}

TEST(ReadThrough, BaseMustBeAnotherRun) {
  Scheduler s;
  EXPECT_THROW(s.setBase(runOf(s)), std::invalid_argument);
  EXPECT_THROW(s.setBase(SlotRef{SlotRegistry::kCapacity, 1}),
               std::invalid_argument);
}

/// a -> inc1 -> b -> inc2 -> c (open-ended primary output).
struct Chain {
  Circuit top{"top"};
  Connector& a = top.makeWord(8, "a");
  Connector& b = top.makeWord(8, "b");
  Connector& c = top.makeWord(8, "c");
  Incrementer& inc1 = top.make<Incrementer>("inc1", a, b);
  Incrementer& inc2 = top.make<Incrementer>("inc2", b, c);
};

TEST(ReadThrough, RunInjectionSimulatesOnlyTheForcedFanout) {
  Chain d;
  SimulationController ff(d.top);
  ff.inject(d.a, Word::fromUint(8, 3));
  EXPECT_EQ(ff.start(), 3u);  // a -> inc1, b -> inc2, latch c
  EXPECT_EQ(d.c.value(ff.scheduler().id()).toUint(), 5u);

  SimulationController inj(d.top);
  EXPECT_EQ(inj.runInjection(ff, d.inc1, {{d.inc1.out_, Word::fromUint(8, 9)}}),
            2u);  // b -> inc2, latch c
  const Scheduler& s = inj.scheduler();
  EXPECT_EQ(readThrough(d.c, s).toUint(), 10u);
  EXPECT_EQ(readThrough(d.b, s).toUint(), 9u);
  EXPECT_EQ(readThrough(d.a, s).toUint(), 3u);  // read through, not rerun
  // The fault-free run is untouched.
  EXPECT_EQ(d.c.value(ff.scheduler().id()).toUint(), 5u);

  // Forcing the last stage reaches no module at all.
  inj.reset();
  EXPECT_EQ(inj.runInjection(ff, d.inc2, {{d.inc2.out_, Word::fromUint(8, 0)}}),
            1u);
  EXPECT_EQ(readThrough(d.c, inj.scheduler()).toUint(), 0u);
  EXPECT_EQ(readThrough(d.b, inj.scheduler()).toUint(), 4u);
}

}  // namespace
}  // namespace vcad
