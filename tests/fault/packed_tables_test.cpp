// Differential tests for the fault-parallel detection-table builder: each
// lane of a pass is one (configuration, fault) pair, so calls with more than
// 64 faults, several configurations per pass, and passes that straddle two
// configurations must all serialize byte-identically to the scalar
// buildDetectionTable oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "fault/detection.hpp"
#include "fault/dictionary.hpp"
#include "gate/family.hpp"
#include "gate/generators.hpp"
#include "obs/metrics.hpp"

namespace vcad::fault {
namespace {

using gate::Netlist;

std::vector<Word> randomConfigs(Rng& rng, int width, std::size_t n,
                                int unknownPct) {
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

std::vector<std::uint8_t> bytesOf(const DetectionTable& t) {
  net::ByteBuffer buf;
  t.serialize(buf);
  return buf.bytes();
}

/// Packed tables for `inputs` must serialize exactly as the scalar builder's.
void expectMatchesScalar(const Netlist& nl, const CollapsedFaults& collapsed,
                         const std::vector<Word>& inputs,
                         const std::string& label) {
  const gate::NetlistEvaluator eval(nl);
  const gate::PackedEvaluator packed(nl);
  const auto tables = buildDetectionTables(packed, collapsed, inputs);
  ASSERT_EQ(tables.size(), inputs.size()) << label;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(bytesOf(tables[i]),
              bytesOf(buildDetectionTable(eval, collapsed, inputs[i])))
        << label << " config " << i << " " << inputs[i].toString();
  }
}

/// The first `n` representatives only (a fault count per call).
CollapsedFaults firstFaults(const CollapsedFaults& all, std::size_t n) {
  CollapsedFaults out;
  out.representatives.assign(
      all.representatives.begin(),
      all.representatives.begin() +
          static_cast<std::ptrdiff_t>(std::min(n, all.size())));
  return out;
}

TEST(FaultParallelTables, LargeConesOneConfigurationMatchScalar) {
  Rng rng(0x7ab1e01);
  for (int gates : {256, 1024, 2048}) {
    const Netlist nl = gate::makeRandomCone(rng.next(), 16, gates, 8);
    // collapseAll defaults: primary-input and primary-output-net faults in.
    const CollapsedFaults collapsed = collapseAll(nl);
    ASSERT_GT(collapsed.size(), 64u);
    for (int unknownPct : {0, 25}) {
      expectMatchesScalar(nl, collapsed,
                          randomConfigs(rng, nl.inputCount(), 1, unknownPct),
                          "cone" + std::to_string(gates));
    }
  }
}

TEST(FaultParallelTables, LargeRandomNetlistsMatchScalarAcrossConfigCounts) {
  Rng rng(0x7ab1e02);
  // {gates, configurations}: several configurations per call, up to 2,048
  // gates, with X/Z-carrying configurations mixed in.
  const std::pair<int, std::size_t> cases[] = {
      {2048, 1}, {512, 3}, {256, 64}, {256, 130}};
  for (const auto& [gates, nCfg] : cases) {
    const Netlist nl = gate::makeRandomNetlist(rng, 12, gates, 6);
    const CollapsedFaults collapsed = collapseAll(nl);
    expectMatchesScalar(nl, collapsed,
                        randomConfigs(rng, nl.inputCount(), nCfg, 20),
                        "random" + std::to_string(gates) + "x" +
                            std::to_string(nCfg));
  }
}

TEST(FaultParallelTables, FaultCountsAroundTheLaneWidth) {
  Rng rng(0x7ab1e03);
  const Netlist nl = gate::makeRandomCone(rng.next(), 10, 256, 6);
  const CollapsedFaults all = collapseAll(nl);
  ASSERT_GT(all.size(), 65u);
  for (std::size_t nFaults : {1u, 63u, 64u, 65u}) {
    const CollapsedFaults some = firstFaults(all, nFaults);
    for (std::size_t nCfg : {1u, 3u, 64u, 130u}) {
      expectMatchesScalar(nl, some,
                          randomConfigs(rng, nl.inputCount(), nCfg, 10),
                          std::to_string(nFaults) + " faults x " +
                              std::to_string(nCfg) + " configs");
    }
  }
}

TEST(FaultParallelTables, BothPolaritiesOfOneNetShareAPass) {
  // No dominance: stuck-at-0 and stuck-at-1 of one net both survive and sit
  // in adjacent lanes of one force; with 2 faults per configuration, each
  // pass also holds 32 configurations at once.
  Rng rng(0x7ab1e04);
  const Netlist nl = gate::makeRandomNetlist(rng, 8, 40, 3);
  const CollapsedFaults all = collapseAll(nl, /*dominance=*/false);
  for (const StuckFault& f : all.representatives) {
    if (f.stuck != Logic::L0 || nl.isPrimaryInput(f.net)) continue;
    const auto sa1 = std::find(all.representatives.begin(),
                               all.representatives.end(),
                               StuckFault{f.net, Logic::L1});
    if (sa1 == all.representatives.end()) continue;
    CollapsedFaults pair;
    pair.representatives = {f, *sa1};
    expectMatchesScalar(nl, pair, randomConfigs(rng, nl.inputCount(), 70, 15),
                        "net " + nl.netName(f.net));
  }
  // And both polarities of a primary input.
  const NetId pi = nl.primaryInputs().front();
  CollapsedFaults piPair;
  piPair.representatives = {{pi, Logic::L0}, {pi, Logic::L1}};
  expectMatchesScalar(nl, piPair, randomConfigs(rng, nl.inputCount(), 5, 30),
                      "primary input");
}

TEST(FaultParallelTables, PassCountsAndLaneFill) {
  if (!obs::kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  Rng rng(0x7ab1e05);
  const Netlist nl = gate::makeRandomCone(rng.next(), 16, 1024, 8);
  const CollapsedFaults collapsed = collapseAll(nl);
  const gate::PackedEvaluator packed(nl);
  obs::Registry& reg = obs::Registry::global();
  const auto passesNow = [&] {
    return reg.snapshot().counterOr("gate.tablePasses");
  };
  const auto lanesNow = [&] {
    return reg.snapshot().counterOr("gate.tableLanes");
  };
  const std::size_t f = collapsed.size();

  // One configuration: ⌈F/64⌉ passes, every fault one lane.
  std::uint64_t p0 = passesNow(), l0 = lanesNow();
  buildDetectionTables(packed, collapsed,
                       randomConfigs(rng, nl.inputCount(), 1, 0));
  EXPECT_EQ(passesNow() - p0, (f + 63) / 64);
  EXPECT_EQ(lanesNow() - l0, f);

  // Fewer than 64 faults: several configurations share a pass, never more
  // passes than one per fault per 64 configurations.
  const CollapsedFaults ten = firstFaults(collapsed, 10);
  p0 = passesNow();
  l0 = lanesNow();
  buildDetectionTables(packed, ten, randomConfigs(rng, nl.inputCount(), 130, 0));
  EXPECT_EQ(passesNow() - p0, 10u + 10u + 1u);  // groups of 64, 64 and 2
  EXPECT_LE(passesNow() - p0, 3u * 10u);
  EXPECT_EQ(lanesNow() - l0, 130u * 10u);
}

TEST(FaultParallelTables, DictionaryOverBlockWithFewFaults) {
  Rng rng(0x7ab1e06);
  const Netlist nl = gate::makeRandomNetlist(rng, 7, 12, 2);
  const CollapsedFaults collapsed = collapseAll(nl);
  ASSERT_LT(collapsed.size(), 64u);
  const gate::NetlistEvaluator eval(nl);
  const FaultDictionary dict = FaultDictionary::build(nl, collapsed);
  ASSERT_EQ(dict.tableCount(), 128u);
  for (std::uint64_t v = 0; v < 128; ++v) {
    const Word in = Word::fromUint(7, v);
    EXPECT_EQ(bytesOf(dict.tableFor(in)),
              bytesOf(buildDetectionTable(eval, collapsed, in)))
        << "config " << v;
  }
}

TEST(FaultParallelTables, ConcurrentBuildsOnOneEvaluatorMatchSerial) {
  // The provider's parallel dispatch builds tables from many threads on one
  // shared evaluator; any scratch state cached inside it would race here
  // (and fail the ThreadSanitizer build).
  Rng rng(0x7ab1e07);
  const Netlist nl = gate::makeRandomCone(rng.next(), 12, 512, 6);
  const CollapsedFaults collapsed = collapseAll(nl);
  const gate::PackedEvaluator packed(nl);
  constexpr int kThreads = 8;
  std::vector<std::vector<Word>> work;
  std::vector<std::vector<std::vector<std::uint8_t>>> serial(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    work.push_back(randomConfigs(rng, nl.inputCount(), 1 + t % 3, 10));
    for (const DetectionTable& table :
         buildDetectionTables(packed, collapsed, work.back())) {
      serial[static_cast<std::size_t>(t)].push_back(bytesOf(table));
    }
  }
  std::vector<std::vector<std::vector<std::uint8_t>>> parallel(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 4; ++rep) {
        std::vector<std::vector<std::uint8_t>> got;
        for (const DetectionTable& table : buildDetectionTables(
                 packed, collapsed, work[static_cast<std::size_t>(t)])) {
          got.push_back(bytesOf(table));
        }
        parallel[static_cast<std::size_t>(t)] = std::move(got);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace vcad::fault
