// Campaign-level golden tests for the packed bit-parallel engine: every
// consumer (serial campaigns, detection-table batches, dictionaries, ATPG,
// the virtual campaign at lane-width table batches) must produce results
// bit-identical to the scalar and serial reference paths.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/atpg.hpp"
#include "fault/block_design.hpp"
#include "fault/dictionary.hpp"
#include "fault/engine_grid.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "oracles/oracles.hpp"

namespace vcad::fault {
namespace {

using gate::Netlist;

std::vector<Word> randomPatterns(Rng& rng, int width, std::size_t n,
                                 int unknownPct = 0) {
  std::vector<Word> out;
  out.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    Word w(width);
    for (int i = 0; i < width; ++i) {
      if (rng.below(100) < static_cast<std::uint64_t>(unknownPct)) {
        w.setBit(i, rng.below(2) == 0 ? Logic::X : Logic::Z);
      } else {
        w.setBit(i, rng.below(2) == 0 ? Logic::L0 : Logic::L1);
      }
    }
    out.push_back(std::move(w));
  }
  return out;
}

void expectCampaignsIdentical(const CampaignResult& packed,
                              const CampaignResult& scalar,
                              const std::string& label) {
  EXPECT_EQ(packed.faultList, scalar.faultList) << label;
  EXPECT_EQ(packed.detected, scalar.detected) << label;
  EXPECT_EQ(packed.detectedAfterPattern, scalar.detectedAfterPattern) << label;
  EXPECT_EQ(packed.faultSimEvaluations, scalar.faultSimEvaluations) << label;
}

TEST(PackedSerialCampaign, BitIdenticalToScalarOnFixedCircuits) {
  Rng rng(0x5eed01);
  const Netlist circuits[] = {gate::makeHalfAdder(),
                              gate::makeRippleCarryAdder(4),
                              gate::makeArrayMultiplier(3)};
  // Pattern counts straddling the 64-lane block boundary.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 200u}) {
    for (const Netlist& nl : circuits) {
      const auto patterns = randomPatterns(rng, nl.inputCount(), n);
      SerialFaultSimulator sim(nl);
      expectCampaignsIdentical(
          sim.run(patterns), oracles::runScalar(sim, patterns),
          "n=" + std::to_string(n) + " inputs=" +
              std::to_string(nl.inputCount()));
    }
  }
}

TEST(PackedSerialCampaign, BitIdenticalOnRandomNetlistsWithUnknowns) {
  Rng rng(0x5eed02);
  for (int trial = 0; trial < 10; ++trial) {
    Rng gen(rng.next());
    const Netlist nl =
        gate::makeRandomNetlist(gen, 3 + static_cast<int>(rng.below(6)),
                                10 + static_cast<int>(rng.below(40)),
                                1 + static_cast<int>(rng.below(3)));
    const auto patterns =
        randomPatterns(rng, nl.inputCount(), 90, trial % 2 == 0 ? 0 : 20);
    SerialFaultSimulator sim(nl, /*dominance=*/trial % 2 == 0);
    expectCampaignsIdentical(sim.run(patterns),
                             oracles::runScalar(sim, patterns),
                             "trial=" + std::to_string(trial));
  }
}

TEST(PackedDetectionTables, BatchMatchesScalarBuilderPerConfig) {
  Rng rng(0x5eed03);
  for (int trial = 0; trial < 6; ++trial) {
    Rng gen(rng.next());
    const Netlist nl = gate::makeRandomNetlist(
        gen, 4 + static_cast<int>(rng.below(4)), 25, 2);
    const oracles::ScalarEvaluator eval(nl);
    const gate::PackedEvaluator packed(nl);
    const CollapsedFaults collapsed = collapseAll(nl);
    // More than one block, with X/Z-carrying configurations mixed in.
    const auto inputs =
        randomPatterns(rng, nl.inputCount(), 70, trial % 2 == 0 ? 0 : 30);

    const auto tables = buildDetectionTables(packed, collapsed, inputs);
    ASSERT_EQ(tables.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const DetectionTable scalar =
          oracles::buildDetectionTable(eval, collapsed, inputs[i]);
      EXPECT_EQ(tables[i].inputs(), scalar.inputs());
      EXPECT_EQ(tables[i].faultFreeOutput(), scalar.faultFreeOutput());
      ASSERT_EQ(tables[i].rows().size(), scalar.rows().size()) << i;
      for (std::size_t r = 0; r < scalar.rows().size(); ++r) {
        EXPECT_EQ(tables[i].rows()[r].faultyOutput,
                  scalar.rows()[r].faultyOutput);
        EXPECT_EQ(tables[i].rows()[r].faults, scalar.rows()[r].faults);
      }
    }
  }
}

TEST(PackedDictionary, BuildMatchesScalarTablePerConfiguration) {
  // 7 inputs = 128 configurations: exercises a full 64-lane block plus a
  // second one.
  Rng gen(0x5eed04);
  const Netlist nl = gate::makeRandomNetlist(gen, 7, 30, 2);
  const oracles::ScalarEvaluator eval(nl);
  const CollapsedFaults collapsed =
      collapseAll(nl, true, /*includePrimaryInputs=*/false,
                  /*includePrimaryOutputNets=*/false);
  const FaultDictionary dict = FaultDictionary::build(nl, collapsed);
  ASSERT_EQ(dict.tableCount(), 128u);
  for (std::uint64_t v = 0; v < 128; ++v) {
    const Word in = Word::fromUint(7, v);
    const DetectionTable scalar =
        oracles::buildDetectionTable(eval, collapsed, in);
    const DetectionTable& packed = dict.tableFor(in);
    net::ByteBuffer a, b;
    packed.serialize(a);
    scalar.serialize(b);
    EXPECT_EQ(a.bytes(), b.bytes()) << "config " << v;
  }
}

/// The pre-packed random-ATPG loop, verbatim, as the golden reference.
AtpgResult scalarGenerateTests(const Netlist& netlist,
                               const AtpgOptions& options) {
  const CollapsedFaults collapsed = collapseAll(netlist);
  oracles::ScalarEvaluator eval(netlist);
  Rng rng(options.seed);

  AtpgResult res;
  res.faultCount = collapsed.size();
  if (collapsed.representatives.empty()) return res;

  const auto detectsWhich = [&](const std::vector<bool>& detected,
                                const Word& pattern) {
    const Word golden = eval.evalOutputs(pattern);
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < collapsed.representatives.size(); ++i) {
      if (detected[i]) continue;
      if (eval.evalOutputs(pattern, collapsed.representatives[i]) != golden) {
        hits.push_back(i);
      }
    }
    return hits;
  };

  std::vector<bool> detected(collapsed.size(), false);
  std::size_t detectedCount = 0;
  int uselessStreak = 0;
  while (static_cast<int>(res.candidatesTried) < options.maxPatterns &&
         uselessStreak < options.giveUpAfterUseless) {
    const Word candidate = Word::fromUint(netlist.inputCount(), rng.next());
    ++res.candidatesTried;
    const auto hits = detectsWhich(detected, candidate);
    if (hits.empty()) {
      ++uselessStreak;
      continue;
    }
    uselessStreak = 0;
    for (std::size_t i : hits) detected[i] = true;
    detectedCount += hits.size();
    res.patterns.push_back(candidate);
    if (static_cast<double>(detectedCount) >=
        options.targetCoverage * static_cast<double>(collapsed.size())) {
      break;
    }
  }

  res.beforeCompaction = res.patterns.size();
  res.patterns =
      compactTests(netlist, collapsed.representatives, res.patterns);
  std::vector<bool> finalDetected(collapsed.size(), false);
  std::size_t finalCount = 0;
  for (const Word& p : res.patterns) {
    for (std::size_t i : detectsWhich(finalDetected, p)) {
      finalDetected[i] = true;
      ++finalCount;
    }
  }
  res.coverage =
      static_cast<double>(finalCount) / static_cast<double>(collapsed.size());
  return res;
}

TEST(PackedAtpg, GenerateTestsBitIdenticalToScalarLoop) {
  Rng rng(0x5eed05);
  for (int trial = 0; trial < 6; ++trial) {
    Rng gen(rng.next());
    const Netlist nl = gate::makeRandomNetlist(
        gen, 4 + static_cast<int>(rng.below(5)),
        15 + static_cast<int>(rng.below(40)), 2);
    AtpgOptions opt;
    opt.seed = rng.next();
    // Sweep stop conditions across block boundaries: tight candidate
    // budgets, small useless streaks, and coverage targets that trip
    // mid-block.
    opt.maxPatterns = trial % 2 == 0 ? 100 : 1000;
    opt.giveUpAfterUseless = trial % 3 == 0 ? 10 : 100;
    opt.targetCoverage = trial % 2 == 0 ? 0.8 : 1.0;

    const AtpgResult packed = generateTests(nl, opt);
    const AtpgResult scalar = scalarGenerateTests(nl, opt);
    const std::string label = "trial=" + std::to_string(trial);
    EXPECT_EQ(packed.patterns, scalar.patterns) << label;
    EXPECT_EQ(packed.coverage, scalar.coverage) << label;
    EXPECT_EQ(packed.faultCount, scalar.faultCount) << label;
    EXPECT_EQ(packed.candidatesTried, scalar.candidatesTried) << label;
    EXPECT_EQ(packed.beforeCompaction, scalar.beforeCompaction) << label;
  }
}

TEST(PackedAtpg, AdderCoverageStaysHigh) {
  const Netlist nl = gate::makeRippleCarryAdder(4);
  AtpgOptions opt;
  opt.targetCoverage = 1.0;
  const AtpgResult res = generateTests(nl, opt);
  EXPECT_GE(res.coverage, 0.95);
  EXPECT_FALSE(res.patterns.empty());
  EXPECT_LE(res.patterns.size(), res.beforeCompaction);
}

// --- virtual campaign with pack-width-aligned table batches ---------------

std::shared_ptr<const Netlist> share(Netlist nl) {
  return std::make_shared<const Netlist>(std::move(nl));
}

struct Scenario {
  BlockDesign design;
  BlockDesign::Instantiation inst;
  std::vector<std::unique_ptr<LocalFaultBlock>> clients;
  int nPis = 0;

  std::vector<FaultClient*> components() {
    std::vector<FaultClient*> out;
    for (auto& c : clients) out.push_back(c.get());
    return out;
  }
};

Scenario makeScenario(std::uint64_t seed) {
  auto s = Scenario{};
  Rng rng(seed);
  s.nPis = 4 + static_cast<int>(rng.below(3));
  for (int i = 0; i < s.nPis; ++i) {
    s.design.addPrimaryInput("pi" + std::to_string(i));
  }
  std::vector<std::pair<int, int>> sources;
  for (int i = 0; i < s.nPis; ++i) sources.emplace_back(-1, i);

  const int nBlocks = 2 + static_cast<int>(rng.below(3));
  for (int b = 0; b < nBlocks; ++b) {
    const int ins = 2 + static_cast<int>(rng.below(3));
    const int gates = 5 + static_cast<int>(rng.below(10));
    const int outs = 1 + static_cast<int>(rng.below(2));
    Rng blockRng(rng.next());
    const int id = s.design.addBlock(
        "blk" + std::to_string(b),
        share(gate::makeRandomNetlist(blockRng, ins, gates, outs)));
    for (int pin = 0; pin < ins; ++pin) {
      const auto src = sources[rng.below(sources.size())];
      s.design.connect({src.first, src.second}, id, pin);
    }
    for (int pin = 0; pin < outs; ++pin) sources.emplace_back(id, pin);
  }
  for (int b = 0; b < nBlocks; ++b) {
    for (int pin = 0; pin < s.design.blockNetlist(b).outputCount(); ++pin) {
      s.design.markPrimaryOutput(b, pin);
    }
  }
  s.inst = s.design.instantiate();
  for (int b = 0; b < nBlocks; ++b) {
    s.clients.push_back(std::make_unique<LocalFaultBlock>(
        *s.inst.blockModules[static_cast<size_t>(b)], true,
        FaultScope{false, true}));
  }
  return s;
}

TEST(PackAlignedBatches, LaneWidthBatchFetchesOncePerComponentPerBatch) {
  // A batch of 64 fills the packed table builder's lanes in one round trip
  // per component.
  Scenario s = makeScenario(0x5eed06);
  Rng rng(0x5eed09);
  const auto patterns = randomPatterns(rng, s.nPis, 80);

  VirtualFaultSimulator serial(*s.inst.circuit, s.components(),
                               s.inst.piConns, s.inst.poConns);
  const CampaignResult gold = serial.runPacked(patterns);

  VirtualFaultSimulator batched(*s.inst.circuit, s.components(),
                                s.inst.piConns, s.inst.poConns);
  batched.setTableBatch(64);
  const CampaignResult res = batched.runPacked(patterns);
  const std::size_t batches = 2;  // 64 + 16 patterns
  EXPECT_GE(res.tableFetchRoundTrips, s.clients.size());
  EXPECT_LE(res.tableFetchRoundTrips, batches * s.clients.size());
  EXPECT_EQ(res.detectionTablesRequested, gold.detectionTablesRequested);
  EXPECT_EQ(res.detected, gold.detected);
}

TEST(PackAlignedBatches, BatchSweepBitIdenticalToSerialVirtual) {
  Scenario s = makeScenario(0x5eed07);
  Rng rng(0x5eed08);
  const auto patterns = randomPatterns(rng, s.nPis, 80);

  const auto unpacked =
      unpackPatterns(patterns, static_cast<std::size_t>(s.nPis));
  const CampaignResult gold =
      oracles::serialCampaign(*s.inst.circuit, s.components(),
                              s.inst.piConns, s.inst.poConns, unpacked);

  // Batch 64 is one full lane block per fetch; 80 patterns make it two.
  grid::expectGridMatchesOracle(
      gold,
      [&](std::size_t batch) {
        return grid::runEngine(*s.inst.circuit, s.components(),
                               s.inst.piConns, s.inst.poConns, unpacked,
                               batch);
      },
      "80 patterns");
}

}  // namespace
}  // namespace vcad::fault
