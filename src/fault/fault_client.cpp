#include "fault/fault_client.hpp"

#include <stdexcept>

#include "cache/key.hpp"

namespace vcad::fault {

std::vector<DetectionTable> FaultClient::detectionTables(
    const std::vector<Word>& inputs) {
  std::vector<DetectionTable> out;
  out.reserve(inputs.size());
  for (const Word& w : inputs) out.push_back(detectionTable(w));
  return out;
}

std::vector<cache::Value> FaultClient::serializedTables(
    const std::vector<Word>& inputs) {
  std::vector<DetectionTable> tables;
  if (inputs.size() == 1) {
    tables.push_back(detectionTable(inputs.front()));
  } else {
    tables = detectionTables(inputs);
  }
  std::vector<cache::Value> out;
  out.reserve(tables.size());
  for (const DetectionTable& t : tables) {
    net::ByteBuffer buf;
    t.serialize(buf);
    out.push_back(
        std::make_shared<const std::vector<std::uint8_t>>(buf.release()));
  }
  return out;
}

Word FaultClient::observedInputs(const SimContext& ctx) {
  Module& m = module();
  const auto ins = m.inputPorts();
  int width = 0;
  for (const Port* p : ins) width += p->width();
  Word w(width);
  int bit = 0;
  for (Port* p : ins) {
    w.insert(bit, m.readInput(ctx, *p));
    bit += p->width();
  }
  return w;
}

std::vector<Scheduler::OutputOverride> FaultClient::overridesFor(
    const Word& faultyOutputs) {
  Module& m = module();
  const auto outs = m.outputPorts();
  std::vector<Scheduler::OutputOverride> ov;
  int bit = 0;
  for (Port* p : outs) {
    if (bit + p->width() > faultyOutputs.width()) {
      throw std::invalid_argument(
          "overridesFor: faulty output word narrower than module outputs");
    }
    ov.push_back({p, faultyOutputs.slice(bit, p->width())});
    bit += p->width();
  }
  if (bit != faultyOutputs.width()) {
    throw std::invalid_argument(
        "overridesFor: faulty output word wider than module outputs");
  }
  return ov;
}

LocalFaultBlock::LocalFaultBlock(gate::NetlistModule& module, bool dominance,
                                 FaultScope scope)
    : module_(module),
      collapsed_(collapseAll(module.netlist(), dominance, scope.includeInputs,
                             scope.includeOutputs)),
      packed_(module.netlist()),
      digest_(cache::netlistDigest(module.netlist())) {}

std::vector<std::string> LocalFaultBlock::faultList() {
  return symbolicFaultList(module_.netlist(), collapsed_);
}

DetectionTable LocalFaultBlock::detectionTable(const Word& inputs) {
  return std::move(buildDetectionTables(packed_, collapsed_, {inputs})[0]);
}

std::vector<DetectionTable> LocalFaultBlock::detectionTables(
    const std::vector<Word>& inputs) {
  return buildDetectionTables(packed_, collapsed_, inputs);
}

std::vector<cache::Value> LocalFaultBlock::serializedTables(
    const std::vector<Word>& inputs) {
  return buildSerializedTables(packed_, collapsed_, inputs);
}

}  // namespace vcad::fault
