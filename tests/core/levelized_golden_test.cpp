// Levelized golden runs against the event-driven runs they replace: after
// the same pattern, every connector of the design must read the same in
// the run SimulationController::start() settled and in the run
// LevelizedPass::settle() computed. Covered: every combinational matrix
// generator family at small scale, realized with local NetlistModules and
// with remote IP components, on random patterns with X and Z inputs; a
// module with no input port, modules with only undriven inputs, and the
// designs that must keep the event path (a delayed fanout branch, a
// non-combinational module, a loop, a recording netlist module).
#include <gtest/gtest.h>

#include <memory>
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
  void evaluate(std::span<const Word>, std::span<Word> out) const override {
    out[0] = value_;
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

/// Settles `pattern` through events and through `pass` on two controllers
/// and expects every connector of `design` to read the same in both.
/// Returns how many connectors carry a fully known value.
int expectSameConnectors(Circuit& design, const std::vector<Connector*>& pis,
                         LevelizedPass& pass, const std::vector<Word>& pattern,
                         const std::string& label) {
  SimulationController events(design);
  for (std::size_t i = 0; i < pis.size(); ++i) {
    events.inject(*pis[i], pattern[i]);
  }
  events.start();
  SimulationController levelized(design);
  pass.settle(levelized.scheduler(), pattern);
  EXPECT_EQ(levelized.scheduler().dispatched(), 0u) << label;

  const Scheduler& e = events.scheduler();
  const Scheduler& l = levelized.scheduler();
  int known = 0;
  for (const auto& conn : design.connectors()) {
    const Word want = conn->value(e.slot(), e.slotGeneration());
    EXPECT_EQ(conn->value(l.slot(), l.slotGeneration()), want)
        << label << " connector " << conn->name();
    known += want.isFullyKnown() ? 1 : 0;
  }
  design.clearSchedulerState(e.slot());
  design.clearSchedulerState(l.slot());
  return known;
}

/// Runs expectSameConnectors over 32 random patterns: the first eight fully
/// known, the rest with X and Z bits.
void expectDifferentialOverPatterns(Circuit& design,
                                    const std::vector<Connector*>& pis,
                                    std::uint64_t seed,
                                    const std::string& label) {
  std::optional<LevelizedPass> pass = LevelizedPass::plan(design, pis);
  ASSERT_TRUE(pass.has_value()) << label;
  Rng rng(seed);
  int known = 0;
  for (int p = 0; p < 32; ++p) {
    const double unknown = p < 8 ? 0.0 : (p < 20 ? 0.1 : 0.4);
    known += expectSameConnectors(design, pis, *pass,
                                  randomPattern(rng, pis, unknown),
                                  label + " pattern " + std::to_string(p));
  }
  EXPECT_GT(known, 0) << label << ": no connector ever carried a known value";
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
    expectSameConnectors(c, {&a}, *pass, pattern, pattern[0].toString());
    SimulationController sim(c);
    pass->settle(sim.scheduler(), pattern);
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
  expectSameConnectors(c, {&a}, *pass, {Word::fromString("1XZ01")}, "chain");
  SimulationController sim(c);
  EXPECT_THROW(pass->settle(sim.scheduler(), {}), std::invalid_argument);
  EXPECT_THROW(pass->settle(sim.scheduler(), {Word(4)}),
               std::invalid_argument);
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
