// Differential proof of read-through fault injection: the campaign engine
// and the serial oracle inject by forcing a row's faulty outputs on top of
// the pattern's fault-free run and simulating only their fanout. On the
// scenario-matrix cone and datapath designs and on a hand-built design with
// reconvergent fanout through Fanout and Delay modules, the engine at every
// grid setting must reproduce the serial oracle field by field, and both
// the flat full-disclosure SerialFaultSimulator and a full re-simulation
// injection oracle kept here: a faulty run from the primary inputs with the
// component's event handling overridden.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/slot_registry.hpp"
#include "core/wiring.hpp"
#include "fault/block_design.hpp"
#include "fault/engine_grid.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "integration/matrix_harness.hpp"
#include "oracles/oracles.hpp"

namespace vcad::fault {
namespace {

/// A design realized on the backplane plus the flat view of the same
/// structure (block names match, so fault names map 1:1).
struct Rig {
  BlockDesign design;
  std::unique_ptr<Circuit> circuit;
  std::vector<Connector*> pis;
  std::vector<Connector*> pos;
  std::vector<gate::NetlistModule*> blocks;
  std::vector<std::unique_ptr<LocalFaultBlock>> clients;

  std::vector<FaultClient*> components() {
    std::vector<FaultClient*> out;
    for (auto& c : clients) out.push_back(c.get());
    return out;
  }

  void attachClients() {
    for (gate::NetlistModule* m : blocks) {
      clients.push_back(std::make_unique<LocalFaultBlock>(
          *m, /*dominance=*/true, FaultScope{false, true}));
    }
  }
};

Rig matrixRig(gate::CircuitFamily family) {
  matrix::MatrixDesign d = matrix::makeMatrixDesign({family, 1, 7});
  Rig r;
  r.design = d.design;
  BlockDesign::Instantiation inst = r.design.instantiate();
  r.circuit = std::move(inst.circuit);
  r.pis = std::move(inst.piConns);
  r.pos = std::move(inst.poConns);
  r.blocks = std::move(inst.blockModules);
  r.attachClients();
  return r;
}

/// Three blocks chained A -> B -> C, with A.0 reconverging at C both
/// through B and directly, over fanout branches and net delays:
///
///   p0 p1 p2 -> A;  A.0 -fanout-> B.i0 (delay 2), Delay(3) -> C.i1
///                   A.1 -Delay(1)-> B.i2;  p3 -> B.i1
///   B.0 -> C.i0;    B.1 -fanout-> C.i2 (delay 1), primary output
///   C.0, C.1 -> primary outputs
Rig handBuiltRig() {
  Rig r;
  Rng rng(0xc0ffee);
  std::vector<std::shared_ptr<const gate::Netlist>> nl;
  for (int b = 0; b < 3; ++b) {
    Rng blockRng(rng.next());
    nl.push_back(std::make_shared<const gate::Netlist>(
        gate::makeRandomNetlist(blockRng, 3, 12, 2)));
  }
  BlockDesign& d = r.design;
  for (int i = 0; i < 4; ++i) d.addPrimaryInput("p" + std::to_string(i));
  const int a = d.addBlock("blkA", nl[0]);
  const int b = d.addBlock("blkB", nl[1]);
  const int c = d.addBlock("blkC", nl[2]);
  for (int pin = 0; pin < 3; ++pin) d.connect({-1, pin}, a, pin);
  d.connect({a, 0}, b, 0);
  d.connect({-1, 3}, b, 1);
  d.connect({a, 1}, b, 2);
  d.connect({b, 0}, c, 0);
  d.connect({a, 0}, c, 1);
  d.connect({b, 1}, c, 2);
  d.markPrimaryOutput(c, 0);
  d.markPrimaryOutput(c, 1);
  d.markPrimaryOutput(b, 1);

  r.circuit = std::make_unique<Circuit>("handbuilt");
  Circuit& top = *r.circuit;
  for (int i = 0; i < 4; ++i) {
    r.pis.push_back(&top.makeBit("p" + std::to_string(i)));
  }
  Connector& a0 = top.makeBit("A.0");
  Connector& a1 = top.makeBit("A.1");
  Connector& a0b = top.makeBit("A.0#B");
  Connector& a0cEarly = top.makeBit("A.0#C");
  Connector& a0c = top.makeBit("A.0#C.delayed");
  Connector& a1b = top.makeBit("A.1#B");
  Connector& b0 = top.makeBit("B.0");
  Connector& b1 = top.makeBit("B.1");
  Connector& b1c = top.makeBit("B.1#C");
  Connector& b1po = top.makeBit("B.1#po");
  Connector& c0 = top.makeBit("C.0");
  Connector& c1 = top.makeBit("C.1");
  top.make<Fanout>("fan:A.0", a0,
                   std::vector<Fanout::Branch>{{&a0b, 2}, {&a0cEarly, 0}});
  top.make<Delay>("dly:A.0", a0cEarly, a0c, 3);
  top.make<Delay>("dly:A.1", a1, a1b, 1);
  top.make<Fanout>("fan:B.1", b1,
                   std::vector<Fanout::Branch>{{&b1c, 1}, {&b1po, 0}});
  const auto block = [&](const char* name, int id,
                         std::vector<Connector*> ins,
                         std::vector<Connector*> outs) {
    auto mod = gate::makeBitLevelModule(name, nl[static_cast<size_t>(id)],
                                        ins, outs);
    r.blocks.push_back(mod.get());
    top.adopt(std::move(mod));
  };
  block("blkA", a, {r.pis[0], r.pis[1], r.pis[2]}, {&a0, &a1});
  block("blkB", b, {&a0b, r.pis[3], &a1b}, {&b0, &b1});
  block("blkC", c, {&b0, &a0c, &b1c}, {&c0, &c1});
  r.pos = {&c0, &c1, &b1po};
  r.attachClients();
  return r;
}

Rig makeRig(const std::string& name) {
  if (name == "cone") return matrixRig(gate::CircuitFamily::Cone);
  if (name == "datapath") return matrixRig(gate::CircuitFamily::Datapath);
  return handBuiltRig();
}

std::vector<Word> randomPatterns(std::size_t width, int count,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(Word::fromUint(static_cast<int>(width), rng.next()));
  }
  return out;
}

void applyPattern(SimulationController& sim, const Rig& r,
                  const std::vector<Word>& pattern) {
  for (std::size_t i = 0; i < r.pis.size(); ++i) {
    sim.inject(*r.pis[i], pattern[i]);
  }
  sim.start();
}

/// The pre-read-through serial campaign, reduced to its decisions: every
/// injection re-simulates the whole design from the primary inputs with the
/// faulty component's event handling replaced by its forced outputs.
CampaignResult fullResimulationCampaign(
    Rig& r, const std::vector<std::vector<Word>>& patterns) {
  CampaignResult res;
  for (auto& comp : r.clients) {
    for (const std::string& f : comp->faultList()) {
      res.faultList.push_back(comp->module().name() + "/" + f);
    }
  }
  for (const std::vector<Word>& pattern : patterns) {
    SimulationController ff(*r.circuit);
    applyPattern(ff, r, pattern);
    const SimContext ffCtx{ff.scheduler(), nullptr};
    std::vector<Word> golden;
    for (Connector* po : r.pos) {
      golden.push_back(po->value(ff.scheduler().id()));
    }
    for (auto& comp : r.clients) {
      const std::string prefix = comp->module().name() + "/";
      const DetectionTable table =
          comp->detectionTable(comp->observedInputs(ffCtx));
      for (const DetectionTable::Row& row : table.rows()) {
        bool anyUndetected = false;
        for (const std::string& f : row.faults) {
          anyUndetected |= res.detected.count(prefix + f) == 0;
        }
        if (!anyUndetected) continue;
        SimulationController inj(*r.circuit);
        inj.forceOutputs(comp->module(), comp->overridesFor(row.faultyOutput));
        applyPattern(inj, r, pattern);
        ++res.injections;
        bool observable = false;
        for (std::size_t k = 0; k < r.pos.size(); ++k) {
          observable |= r.pos[k]->value(inj.scheduler().id()) != golden[k];
        }
        if (observable) {
          for (const std::string& f : row.faults) {
            res.detected.insert(prefix + f);
          }
        }
        r.circuit->clearSchedulerState(inj.scheduler().slot());
      }
    }
    r.circuit->clearSchedulerState(ff.scheduler().slot());
    res.detectedAfterPattern.push_back(res.detected.size());
  }
  return res;
}

CampaignResult flatSerialCampaign(const Rig& r, const CampaignResult& virt,
                                  const std::vector<Word>& packed) {
  const gate::Netlist flat = r.design.flatten();
  std::vector<gate::StuckFault> faults;
  for (const std::string& qs : virt.faultList) {
    faults.push_back(flatFaultOf(flat, qs));
  }
  SerialFaultSimulator serial(flat, faults, virt.faultList);
  return serial.run(packed);
}

void expectSameDecisions(const CampaignResult& got, const CampaignResult& want,
                         const std::string& label) {
  EXPECT_EQ(got.faultList, want.faultList) << label;
  EXPECT_EQ(got.detected, want.detected) << label;
  EXPECT_EQ(got.detectedAfterPattern, want.detectedAfterPattern) << label;
}

class ReadThroughInjection : public ::testing::TestWithParam<std::string> {};

TEST_P(ReadThroughInjection, EveryEngineMatchesFlatSerialAndFullResimulation) {
  Rig r = makeRig(GetParam());
  const std::vector<Word> packed = randomPatterns(r.pis.size(), 10, 0x1ead);
  const auto patterns = unpackPatterns(packed, r.pis.size());

  const CampaignResult oracle = fullResimulationCampaign(r, patterns);
  const CampaignResult flat = flatSerialCampaign(r, oracle, packed);
  ASSERT_GT(oracle.injections, 0u);
  ASSERT_GT(oracle.detected.size(), 0u);
  expectSameDecisions(oracle, flat, GetParam() + " oracle vs flat");

  const CampaignResult serial = oracles::serialCampaign(
      *r.circuit, r.components(), r.pis, r.pos, patterns);
  expectSameDecisions(serial, oracle, GetParam() + " serial oracle");
  EXPECT_EQ(serial.injections, oracle.injections) << GetParam();

  const auto cells = grid::expectGridMatchesOracle(
      serial,
      [&](std::size_t batch) {
        return grid::runEngine(*r.circuit, r.components(), r.pis, r.pos,
                               patterns, batch);
      },
      GetParam());
  for (const grid::Cell& cell : cells) {
    expectSameDecisions(cell.result, flat, cell.label + " vs flat");
    expectSameDecisions(cell.result, oracle,
                        cell.label + " vs full re-simulation");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, ReadThroughInjection,
    ::testing::Values("cone", "datapath", "handbuilt"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

/// Events an injection into `blockIndex` delivers, with each delivered
/// token's description appended to `delivered`.
std::size_t injectAndTrace(Rig& r, std::size_t blockIndex,
                           const std::vector<Word>& pattern,
                           std::vector<std::string>& delivered) {
  SimulationController ff(*r.circuit);
  applyPattern(ff, r, pattern);
  FaultClient& comp = *r.clients[blockIndex];
  // Flip every output against the fault-free run, so each one changes.
  const std::vector<Port*> outs = comp.module().outputPorts();
  Word faulty(static_cast<int>(outs.size()));
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const Logic good =
        outs[i]->connector()->value(ff.scheduler().id()).scalar();
    faulty.setBit(static_cast<int>(i),
                  good == Logic::L1 ? Logic::L0 : Logic::L1);
  }
  SimulationController inj(*r.circuit);
  LogSink trace;
  inj.scheduler().setTraceSink(&trace);
  const std::size_t events =
      inj.runInjection(ff, comp.module(), comp.overridesFor(faulty));
  for (const LogEntry& e : trace.entries()) delivered.push_back(e.message);
  r.circuit->clearSchedulerState(inj.scheduler().slot());
  r.circuit->clearSchedulerState(ff.scheduler().slot());
  return events;
}

TEST(ReadThroughEvents, PrimaryOutputOnlyBlockDeliversNoEventToAnyBlock) {
  for (const std::string name : {"cone", "handbuilt"}) {
    Rig r = makeRig(name);
    // The last block feeds nothing but primary outputs in both designs.
    const std::size_t last = r.blocks.size() - 1;
    const auto pattern =
        unpackPatterns(randomPatterns(r.pis.size(), 1, 0x5eed), r.pis.size())
            .front();
    std::vector<std::string> delivered;
    const std::size_t events = injectAndTrace(r, last, pattern, delivered);
    EXPECT_EQ(events, r.blocks[last]->outputPorts().size()) << name;
    for (const std::string& d : delivered) {
      EXPECT_NE(d.find(" latch "), std::string::npos) << name << ": " << d;
    }
  }
}

TEST(ReadThroughEvents, UpstreamBlockSimulatesOnlyItsFanout) {
  Rig r = makeRig("handbuilt");
  const auto pattern =
      unpackPatterns(randomPatterns(r.pis.size(), 1, 0x5eed), r.pis.size())
          .front();
  std::vector<std::string> delivered;
  const std::size_t events = injectAndTrace(r, 0, pattern, delivered);
  // blkA's fanout reaches C; nothing is delivered to blkA's input ports,
  // which only primary inputs drive.
  bool reachedC = false;
  for (const std::string& d : delivered) {
    EXPECT_EQ(d.find("-> blkA."), std::string::npos) << d;
    reachedC |= d.find("-> blkC.") != std::string::npos;
  }
  EXPECT_TRUE(reachedC);

  SimulationController full(*r.circuit);
  applyPattern(full, r, pattern);
  EXPECT_LT(events, full.scheduler().dispatched());
  r.circuit->clearSchedulerState(full.scheduler().slot());
}

TEST(ReadThroughCapacity, BatchBeyondArenaFailsLoudlyAndRecovers) {
  // The engine pins one fault-free run per batch position plus one
  // injection controller, so batch + 1 must fit in the slot arena's
  // kCapacity - 1 leasable slots (slot 0 is reserved).
  Rig r = makeRig("handbuilt");
  const std::size_t n = SlotRegistry::kCapacity + 2;
  const auto patterns = unpackPatterns(
      randomPatterns(r.pis.size(), static_cast<int>(n), 7), r.pis.size());
  ASSERT_EQ(SlotRegistry::global().leased(), 0u);
  VirtualFaultSimulator tooWide(*r.circuit, r.components(), r.pis, r.pos);
  tooWide.setTableBatch(SlotRegistry::kCapacity - 1);
  EXPECT_THROW(tooWide.run(patterns), std::runtime_error);

  // Exactly a full arena fits.
  VirtualFaultSimulator full(*r.circuit, r.components(), r.pis, r.pos);
  full.setTableBatch(SlotRegistry::kCapacity - 2);
  VirtualFaultSimulator serial(*r.circuit, r.components(), r.pis, r.pos);
  const CampaignResult gold = serial.run(patterns);
  const CampaignResult atCapacity = full.run(patterns);
  EXPECT_EQ(atCapacity.slotsLeased, SlotRegistry::kCapacity - 1);
  expectSameDecisions(atCapacity, gold, "full arena");

  VirtualFaultSimulator fits(*r.circuit, r.components(), r.pis, r.pos);
  fits.setTableBatch(64);
  expectSameDecisions(fits.run(patterns), gold, "batch 64 after exhaustion");
}

}  // namespace
}  // namespace vcad::fault
