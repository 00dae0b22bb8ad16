// Levelized golden runs against the event-driven runs they replace: after
// the same pattern, every connector of the design must read the same in
// the run SimulationController::start() settled and in the run
// LevelizedPass::settle() computed. Covered: every combinational matrix
// generator family at small scale, realized with local NetlistModules and
// with remote IP components, on random patterns with X and Z inputs,
// settled in batches of 1, 7, 32 and 80 live runs; a module with no input
// port, modules with only undriven inputs, and the designs that must keep
// the event path (a delayed fanout branch, a non-combinational module, a
// loop, a recording netlist module). The matrix's packed block public part
// is held to the scalar evaluator over batches around the 64-lane pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/levelized.hpp"
#include "core/rng.hpp"
#include "core/sim_controller.hpp"
#include "core/wiring.hpp"
#include "fault/block_design.hpp"
#include "fault/virtual_sim.hpp"
#include "integration/matrix_harness.hpp"
#include "ip/remote_component.hpp"
#include "oracles/oracles.hpp"

namespace vcad {
namespace {

/// Drives a fixed word whatever its inputs, so any evaluation shows: a
/// module no event reaches must keep its outputs all-X.
class Tie final : public Module {
 public:
  Tie(std::string name, const std::vector<Connector*>& inputs,
      Connector& out, Word value)
      : Module(std::move(name)), value_(std::move(value)) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      addInput("i" + std::to_string(i), *inputs[i]);
    }
    out_ = &addOutput("o", out);
  }
  void processInputEvent(const SignalToken&, SimContext& ctx) override {
    emit(ctx, *out_, value_);
  }
  bool combinational() const override { return true; }
  void evaluate(std::size_t patterns, std::span<const Word>,
                std::span<Word> out) const override {
    std::fill_n(out.begin(), patterns, value_);
  }

 private:
  Word value_;
  Port* out_ = nullptr;
};

Logic randomLogic(Rng& rng, double unknown) {
  if (rng.chance(unknown)) return rng.chance(0.5) ? Logic::X : Logic::Z;
  return rng.chance(0.5) ? Logic::L1 : Logic::L0;
}

/// One word per primary input; a share `unknown` of the bits is X or Z.
std::vector<Word> randomPattern(Rng& rng, const std::vector<Connector*>& pis,
                                double unknown) {
  std::vector<Word> pattern;
  for (const Connector* pi : pis) {
    Word w(pi->width());
    for (int b = 0; b < w.width(); ++b) w.setBit(b, randomLogic(rng, unknown));
    pattern.push_back(w);
  }
  return pattern;
}

/// Settles one pattern on one run through `pass`.
void settleOne(LevelizedPass& pass, const Scheduler& run,
               const std::vector<Word>& pattern) {
  const Scheduler* runs[] = {&run};
  pass.settle(runs, {&pattern, 1});
}

/// Every connector's value after each pattern settles through events, one
/// reference run per pattern: reference[p][k] is design.connectors()[k].
std::vector<std::vector<Word>> eventReference(
    Circuit& design, const std::vector<Connector*>& pis,
    const std::vector<std::vector<Word>>& patterns) {
  std::vector<std::vector<Word>> reference;
  SimulationController events(design);
  for (const std::vector<Word>& pattern : patterns) {
    events.reset();
    for (std::size_t i = 0; i < pis.size(); ++i) {
      events.inject(*pis[i], pattern[i]);
    }
    events.start();
    const Scheduler& e = events.scheduler();
    std::vector<Word>& values = reference.emplace_back();
    for (const auto& conn : design.connectors()) {
      values.push_back(conn->value(e.slot(), e.slotGeneration()));
    }
  }
  design.clearSchedulerState(events.scheduler().slot());
  return reference;
}

/// Settles `patterns` through `pass` in batches of `batch` live
/// controllers and expects every connector of every run to read what the
/// event-driven run of its pattern left. Returns how many connector values
/// of the reference are fully known.
int expectSameConnectors(Circuit& design, const std::vector<Connector*>& pis,
                         LevelizedPass& pass,
                         const std::vector<std::vector<Word>>& patterns,
                         std::size_t batch, const std::string& label) {
  const std::vector<std::vector<Word>> reference =
      eventReference(design, pis, patterns);
  std::vector<std::unique_ptr<SimulationController>> runs(
      std::min(batch, patterns.size()));
  for (auto& run : runs) run = std::make_unique<SimulationController>(design);
  int known = 0;
  for (std::size_t base = 0; base < patterns.size(); base += batch) {
    const std::size_t n = std::min(batch, patterns.size() - base);
    std::vector<const Scheduler*> schedulers;
    for (std::size_t i = 0; i < n; ++i) {
      if (base != 0) runs[i]->reset();
      schedulers.push_back(&runs[i]->scheduler());
    }
    pass.settle(schedulers, std::span(patterns).subspan(base, n));
    for (std::size_t i = 0; i < n; ++i) {
      const Scheduler& l = runs[i]->scheduler();
      const std::string at = label + " batch " + std::to_string(batch) +
                             " pattern " + std::to_string(base + i);
      EXPECT_EQ(l.dispatched(), 0u) << at;
      const std::vector<Word>& want = reference[base + i];
      for (std::size_t k = 0; k < want.size(); ++k) {
        const Connector& conn = *design.connectors()[k];
        EXPECT_EQ(conn.value(l.slot(), l.slotGeneration()), want[k])
            << at << " connector " << conn.name();
        known += want[k].isFullyKnown() ? 1 : 0;
      }
    }
  }
  for (const auto& run : runs) {
    design.clearSchedulerState(run->scheduler().slot());
  }
  return known;
}

/// The golden-run batch sizes the differential covers: one run, an odd
/// batch, the engine's default and one past 64 that is no multiple of it.
/// 80 live runs stay within the arena (the event reference run is
/// released before they are leased).
constexpr std::size_t kSettleBatches[] = {1, 7, 32, 80};

/// Runs expectSameConnectors over 80 random patterns, settled in every
/// batch of kSettleBatches: the first eight fully known, the rest with X
/// and Z bits.
void expectDifferentialOverPatterns(Circuit& design,
                                    const std::vector<Connector*>& pis,
                                    std::uint64_t seed,
                                    const std::string& label) {
  std::optional<LevelizedPass> pass = LevelizedPass::plan(design, pis);
  ASSERT_TRUE(pass.has_value()) << label;
  Rng rng(seed);
  std::vector<std::vector<Word>> patterns;
  for (int p = 0; p < 80; ++p) {
    const double unknown = p < 8 ? 0.0 : (p % 3 == 0 ? 0.1 : 0.4);
    patterns.push_back(randomPattern(rng, pis, unknown));
  }
  for (const std::size_t batch : kSettleBatches) {
    const int known =
        expectSameConnectors(design, pis, *pass, patterns, batch, label);
    EXPECT_GT(known, 0) << label << ": no connector ever carried a known value";
  }
}

struct FamilyCase {
  gate::CircuitFamily family;
  int scale;
};

class LevelizedFamilies : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(LevelizedFamilies, LocalNetlistModulesMatchTheEventPath) {
  const matrix::MatrixDesign d = matrix::makeMatrixDesign(
      {GetParam().family, GetParam().scale, 0x1E7E1});
  fault::BlockDesign::Instantiation inst = d.design.instantiate();
  expectDifferentialOverPatterns(*inst.circuit, inst.piConns, 0xA11CE,
                                 d.spec.name() + " local");
}

TEST_P(LevelizedFamilies, RemoteComponentsMatchTheEventPath) {
  const matrix::MatrixDesign d = matrix::makeMatrixDesign(
      {GetParam().family, GetParam().scale, 0x1E7E1});
  ip::ProviderServer server("provider.host", nullptr);
  matrix::registerMatrixCatalog(server, d);
  rmi::RmiChannel channel(server, net::NetworkProfile::ideal());
  ip::ProviderHandle handle(channel);
  const std::uint64_t callsBefore = channel.stats().calls;

  fault::BlockDesign::GenericInstantiation gen = d.design.instantiateWith(
      [&](int b, const std::string& name, std::shared_ptr<const gate::Netlist>,
          const std::vector<Connector*>& ins,
          const std::vector<Connector*>& outs) -> std::unique_ptr<Module> {
        std::vector<std::pair<std::string, Connector*>> inPorts, outPorts;
        for (std::size_t i = 0; i < ins.size(); ++i) {
          inPorts.emplace_back("i" + std::to_string(i), ins[i]);
        }
        for (std::size_t i = 0; i < outs.size(); ++i) {
          outPorts.emplace_back("o" + std::to_string(i), outs[i]);
        }
        ip::RemoteConfig cfg;
        cfg.collectPower = false;
        return std::make_unique<ip::RemoteComponent>(
            name, handle, "BLK" + std::to_string(b), 1, std::move(inPorts),
            std::move(outPorts), cfg);
      });
  const std::uint64_t setupCalls = channel.stats().calls - callsBefore;
  expectDifferentialOverPatterns(*gen.circuit, gen.piConns, 0xB0B,
                                 d.spec.name() + " remote");
  // Public parts evaluate locally on both paths: no call after set-up.
  EXPECT_EQ(channel.stats().calls - callsBefore, setupCalls);
}

INSTANTIATE_TEST_SUITE_P(
    SmallScale, LevelizedFamilies,
    ::testing::Values(FamilyCase{gate::CircuitFamily::Cone, 0},
                      FamilyCase{gate::CircuitFamily::Cone, 1},
                      FamilyCase{gate::CircuitFamily::Datapath, 0},
                      FamilyCase{gate::CircuitFamily::Datapath, 1}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      return std::string(gate::familyName(info.param.family)) + "_s" +
             std::to_string(info.param.scale);
    });

// The scenario matrix's block public part evaluates a batch on the packed
// engine, 64 patterns per pass: batches below, at and past one pass and
// past two must equal the scalar evaluator word for word.
TEST(MatrixPublicPart, PackedBatchesEqualTheScalarEvaluator) {
  for (const FamilyCase fc : {FamilyCase{gate::CircuitFamily::Cone, 1},
                              FamilyCase{gate::CircuitFamily::Datapath, 1}}) {
    const matrix::MatrixDesign d =
        matrix::makeMatrixDesign({fc.family, fc.scale, 0x9A7});
    const matrix::MatrixPublicPartSource source(d);
    Rng rng(0x5CA1A);
    for (std::size_t b = 0; b < d.blocks.size(); ++b) {
      const gate::Netlist& nl = *d.blocks[b];
      const gate::NetlistEvaluator scalar(nl);
      const ip::PublicPart pub =
          source.downloadPublicPart("BLK" + std::to_string(b), 1);
      ASSERT_TRUE(pub.hasFunctional());
      for (const std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
        std::vector<Word> in;
        for (std::size_t i = 0; i < n; ++i) {
          in.push_back(Word::fromUint(nl.inputCount(), rng.next()));
        }
        std::vector<Word> out(n);
        pub.functional(in, out, rmi::Sandbox{});
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], scalar.evalOutputs(in[i]))
              << gate::familyName(fc.family) << " block " << b << " batch "
              << n << " word " << i;
        }
      }
    }
  }
}

std::shared_ptr<const gate::Netlist> andGate() {
  auto nl = std::make_shared<gate::Netlist>();
  const gate::NetId a = nl->addInput("a");
  const gate::NetId b = nl->addInput("b");
  nl->markOutput(nl->addGate(gate::GateType::And, {a, b}, "y"));
  return nl;
}

TEST(LevelizedPass, ModulesNoEventReachesKeepAllXOutputs) {
  Circuit c("edges");
  Connector& a = c.makeBit("a");
  // A module with no input port.
  Connector& tied = c.makeBit("tied");
  c.make<Tie>("noInputs", std::vector<Connector*>{}, tied,
              Word::fromUint(1, 1));
  // A module reading only an undriven connector, and one reading only
  // undriven connectors (one of them an unactivated module's output).
  Connector& undriven = c.makeBit("undriven");
  Connector& fromUndriven = c.makeBit("fromUndriven");
  c.make<Buffer>("undrivenBuf", undriven, fromUndriven);
  Connector& tied2 = c.makeBit("tied2");
  c.make<Tie>("onlyUndriven", std::vector<Connector*>{&fromUndriven, &tied},
              tied2, Word::fromUint(1, 0));
  // An activated module mixing a primary input with an unactivated driver.
  Connector& y = c.makeBit("y");
  c.adopt(gate::makeBitLevelModule("and", andGate(), {&a, &tied2}, {&y}));

  std::optional<LevelizedPass> pass = LevelizedPass::plan(c, {&a});
  ASSERT_TRUE(pass.has_value());

  for (const Logic v : {Logic::L0, Logic::L1, Logic::X, Logic::Z}) {
    const std::vector<Word> pattern{Word::fromLogic(v)};
    expectSameConnectors(c, {&a}, *pass, {pattern}, 1, pattern[0].toString());
    SimulationController sim(c);
    settleOne(*pass, sim.scheduler(), pattern);
    const auto read = [&](const Connector& conn) {
      return conn.value(sim.scheduler().slot(),
                        sim.scheduler().slotGeneration());
    };
    EXPECT_EQ(read(tied), Word::allX(1));
    EXPECT_EQ(read(fromUndriven), Word::allX(1));
    EXPECT_EQ(read(tied2), Word::allX(1));
    // AND(v, X): 0 for a 0 input, X otherwise.
    EXPECT_EQ(read(y), v == Logic::L0 ? Word::fromUint(1, 0) : Word::allX(1));
    c.clearSchedulerState(sim.scheduler().slot());
  }
}

TEST(LevelizedPass, BuffersChainThroughAndOpenEndedOutputsLatch) {
  Circuit c("chain");
  Connector& a = c.makeWord(5, "a");
  Connector& m = c.makeWord(5, "m");
  Connector& o = c.makeWord(5, "o");
  // Declared out of order: the pass must still evaluate b1 before b2.
  c.make<Buffer>("b2", m, o);
  c.make<Buffer>("b1", a, m);
  std::optional<LevelizedPass> pass = LevelizedPass::plan(c, {&a});
  ASSERT_TRUE(pass.has_value());
  expectSameConnectors(c, {&a}, *pass, {{Word::fromString("1XZ01")}}, 1,
                       "chain");
  SimulationController sim(c);
  EXPECT_THROW(settleOne(*pass, sim.scheduler(), {}), std::invalid_argument);
  EXPECT_THROW(settleOne(*pass, sim.scheduler(), {Word(4)}),
               std::invalid_argument);
  // One scheduler per pattern.
  const Scheduler* one[] = {&sim.scheduler()};
  const std::vector<std::vector<Word>> two{{Word(5)}, {Word(5)}};
  EXPECT_THROW(pass->settle(one, two), std::invalid_argument);
  c.clearSchedulerState(sim.scheduler().slot());
}

TEST(LevelizedPass, DesignsThatMustKeepTheEventPathAreRejected) {
  {  // A fanout with a delayed branch.
    Circuit c("delayed");
    Connector& a = c.makeBit("a");
    Connector& o0 = c.makeBit("o0");
    Connector& o1 = c.makeBit("o1");
    c.make<Fanout>("fan", a, std::vector<Fanout::Branch>{{&o0, 0}, {&o1, 2}});
    EXPECT_FALSE(LevelizedPass::plan(c, {&a}).has_value());
  }
  {  // The same fanout with zero-delay branches is combinational.
    Circuit c("undelayed");
    Connector& a = c.makeBit("a");
    Connector& o0 = c.makeBit("o0");
    Connector& o1 = c.makeBit("o1");
    c.make<Fanout>("fan", a, std::vector<Fanout::Branch>{{&o0, 0}, {&o1, 0}});
    EXPECT_TRUE(LevelizedPass::plan(c, {&a}).has_value());
  }
  {  // A non-combinational leaf.
    Circuit c("delay");
    Connector& a = c.makeBit("a");
    Connector& o = c.makeBit("o");
    c.make<Delay>("d", a, o, 0);
    EXPECT_FALSE(LevelizedPass::plan(c, {&a}).has_value());
  }
  {  // A combinational loop.
    Circuit c("loop");
    Connector& a = c.makeBit("a");
    Connector& p = c.makeBit("p");
    Connector& q = c.makeBit("q");
    c.make<Buffer>("in", a, c.makeBit("unused"));
    c.make<Buffer>("fwd", p, q);
    c.make<Buffer>("back", q, p);
    EXPECT_FALSE(LevelizedPass::plan(c, {&a}).has_value());
  }
  {  // A netlist module recording its patterns for power estimation.
    Circuit c("recording");
    Connector& a = c.makeBit("a");
    Connector& b = c.makeBit("b");
    Connector& y = c.makeBit("y");
    auto mod = gate::makeBitLevelModule("and", andGate(), {&a, &b}, {&y});
    mod->setRecordPatterns(true);
    c.adopt(std::move(mod));
    EXPECT_FALSE(LevelizedPass::plan(c, {&a, &b}).has_value());
  }
}

TEST(LevelizedPass, DelayedFanoutCampaignStaysOnEventsAndMatchesTheOracle) {
  // y = a AND b fans out to two primary outputs, one branch delayed: the
  // engine must settle golden runs through events and still agree with the
  // serial oracle.
  Circuit c("delayedCampaign");
  Connector& a = c.makeBit("a");
  Connector& b = c.makeBit("b");
  Connector& y = c.makeBit("y");
  Connector& o0 = c.makeBit("o0");
  Connector& o1 = c.makeBit("o1");
  auto mod = gate::makeBitLevelModule("and", andGate(), {&a, &b}, {&y});
  gate::NetlistModule& andMod = *mod;
  c.adopt(std::move(mod));
  c.make<Fanout>("fan", y, std::vector<Fanout::Branch>{{&o0, 1}, {&o1, 0}});
  ASSERT_FALSE(LevelizedPass::plan(c, {&a, &b}).has_value());

  fault::LocalFaultBlock block(andMod, true, {true, true});
  const std::vector<std::vector<Word>> patterns{
      {Word::fromUint(1, 1), Word::fromUint(1, 1)},
      {Word::fromUint(1, 0), Word::fromUint(1, 1)},
      {Word::fromUint(1, 1), Word::fromUint(1, 0)}};
  const fault::CampaignResult oracle =
      oracles::serialCampaign(c, {&block}, {&a, &b}, {&o0, &o1}, patterns);
  fault::VirtualFaultSimulator sim(c, {&block}, {&a, &b}, {&o0, &o1});
  const fault::CampaignResult got = sim.run(patterns);
  EXPECT_EQ(got.faultList, oracle.faultList);
  EXPECT_EQ(got.detected, oracle.detected);
  EXPECT_EQ(got.detectedAfterPattern, oracle.detectedAfterPattern);
  EXPECT_EQ(got.injections, oracle.injections);
  EXPECT_GT(got.detected.size(), 0u);
}

}  // namespace
}  // namespace vcad
