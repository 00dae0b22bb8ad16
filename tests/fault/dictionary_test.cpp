#include "fault/dictionary.hpp"

#include <gtest/gtest.h>

#include "fault/block_design.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "oracles/oracles.hpp"

namespace vcad::fault {
namespace {

TEST(Dictionary, MatchesDynamicTablesExactly) {
  const gate::Netlist ip1 = gate::makeIp1HalfAdder();
  const auto collapsed = collapseAll(ip1, true, false, false);
  const auto dict = FaultDictionary::build(ip1, collapsed);
  oracles::ScalarEvaluator eval(ip1);
  ASSERT_EQ(dict.tableCount(), 4u);
  for (unsigned v = 0; v < 4; ++v) {
    const Word in = Word::fromUint(2, v);
    const DetectionTable& fromDict = dict.tableFor(in);
    const DetectionTable dynamic =
        oracles::buildDetectionTable(eval, collapsed, in);
    ASSERT_EQ(fromDict.rows().size(), dynamic.rows().size()) << v;
    for (size_t r = 0; r < dynamic.rows().size(); ++r) {
      EXPECT_EQ(fromDict.rows()[r].faultyOutput, dynamic.rows()[r].faultyOutput);
      EXPECT_EQ(fromDict.rows()[r].faults, dynamic.rows()[r].faults);
    }
  }
}

TEST(Dictionary, SizeGrowsExponentiallyWithInputs) {
  std::size_t prev = 0;
  for (int w = 2; w <= 4; ++w) {
    const gate::Netlist nl = gate::makeArrayMultiplier(w);
    const auto collapsed = collapseAll(nl, true, false, false);
    const auto dict = FaultDictionary::build(nl, collapsed);
    EXPECT_EQ(dict.tableCount(), 1ULL << (2 * w));
    EXPECT_GT(dict.sizeBytes(), 3 * prev)  // ~4x tables, larger each
        << "width " << w;
    prev = dict.sizeBytes();
  }
}

TEST(Dictionary, ExponentialWallEnforced) {
  const gate::Netlist big = gate::makeArrayMultiplier(16);  // 32 inputs
  const auto collapsed = collapseAll(big, true, false, false);
  EXPECT_THROW(FaultDictionary::build(big, collapsed, 16),
               std::invalid_argument);
}

TEST(Dictionary, RejectsUnknownInputs) {
  const gate::Netlist ip1 = gate::makeIp1HalfAdder();
  const auto dict =
      FaultDictionary::build(ip1, collapseAll(ip1, true, false, false));
  Word in(2);
  in.setBit(0, Logic::L1);  // bit 1 still X
  EXPECT_THROW(dict.tableFor(in), std::invalid_argument);
  EXPECT_THROW(dict.tableFor(Word::fromUint(3, 0)), std::invalid_argument);
}

TEST(Dictionary, SerializationRoundTrip) {
  const gate::Netlist ha = gate::makeHalfAdder();
  const auto dict =
      FaultDictionary::build(ha, collapseAll(ha, true, true, true));
  net::ByteBuffer buf;
  dict.serialize(buf);
  EXPECT_EQ(buf.size(), dict.sizeBytes());
  const auto back = FaultDictionary::deserialize(buf);
  EXPECT_EQ(back.inputBits(), dict.inputBits());
  EXPECT_EQ(back.tableCount(), dict.tableCount());
  EXPECT_EQ(back.faultList(), dict.faultList());
  for (unsigned v = 0; v < 4; ++v) {
    const Word in = Word::fromUint(2, v);
    EXPECT_EQ(back.tableFor(in).rows().size(),
              dict.tableFor(in).rows().size());
  }
}

TEST(Dictionary, CampaignWithDictionaryClientMatchesDynamic) {
  // The same virtual fault campaign, once with on-demand tables and once
  // from a shipped dictionary: identical detections.
  BlockDesign d;
  const int a = d.addPrimaryInput("A");
  const int b = d.addPrimaryInput("B");
  const int c = d.addPrimaryInput("C");
  const int ha1 = d.addBlock(
      "HA1", std::make_shared<const gate::Netlist>(gate::makeIp1HalfAdder()));
  const int ha2 = d.addBlock(
      "HA2", std::make_shared<const gate::Netlist>(gate::makeIp1HalfAdder()));
  d.connect({-1, a}, ha1, 0);
  d.connect({-1, b}, ha1, 1);
  d.connect({ha1, 0}, ha2, 0);
  d.connect({-1, c}, ha2, 1);
  d.markPrimaryOutput(ha1, 1, "C1");
  d.markPrimaryOutput(ha2, 0, "S");
  d.markPrimaryOutput(ha2, 1, "C2");
  auto inst = d.instantiate();

  LocalFaultBlock dyn1(*inst.blockModules[0]);
  LocalFaultBlock dyn2(*inst.blockModules[1]);
  const gate::Netlist& ip1 = d.blockNetlist(0);
  const auto dict =
      FaultDictionary::build(ip1, collapseAll(ip1, true, false, false));
  DictionaryFaultClient lib1(*inst.blockModules[0], dict);
  DictionaryFaultClient lib2(*inst.blockModules[1], dict);

  std::vector<Word> pats;
  for (unsigned v = 0; v < 8; ++v) pats.push_back(Word::fromUint(3, v));

  VirtualFaultSimulator dynSim(*inst.circuit, {&dyn1, &dyn2}, inst.piConns,
                               inst.poConns);
  VirtualFaultSimulator dictSim(*inst.circuit, {&lib1, &lib2}, inst.piConns,
                                inst.poConns);
  const auto dynRes = dynSim.runPacked(pats);
  const auto dictRes = dictSim.runPacked(pats);
  EXPECT_EQ(dynRes.detected, dictRes.detected);
  EXPECT_EQ(dynRes.faultList, dictRes.faultList);
}

}  // namespace
}  // namespace vcad::fault
