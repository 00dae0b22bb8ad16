// The scalar netlist evaluator: one pattern per pass, one Logic value per
// net, gates walked in topological order. It is the reference the packed
// engine (gate::PackedEvaluator, the library's only evaluator) is held to.
#include <stdexcept>

#include "oracles/oracles.hpp"

namespace vcad::oracles {

ScalarEvaluator::ScalarEvaluator(const gate::Netlist& nl)
    : nl_(&nl), topo_(nl.topoOrder()) {}

std::vector<Logic> ScalarEvaluator::evaluate(
    const Word& inputs, std::optional<gate::StuckFault> fault) const {
  std::vector<Logic> value;
  evaluateInto(inputs, value, fault);
  return value;
}

void ScalarEvaluator::evaluateInto(
    const Word& inputs, std::vector<Logic>& value,
    std::optional<gate::StuckFault> fault) const {
  if (inputs.width() != nl_->inputCount()) {
    throw std::invalid_argument("ScalarEvaluator: input width " +
                                std::to_string(inputs.width()) +
                                " != PI count " +
                                std::to_string(nl_->inputCount()));
  }
  value.assign(static_cast<size_t>(nl_->netCount()), Logic::X);
  const auto& pis = nl_->primaryInputs();
  const std::uint64_t inValue = inputs.valuePlane();
  const std::uint64_t inKnown = inputs.knownPlane();
  const std::uint64_t inZ = inputs.zPlane();
  for (size_t i = 0; i < pis.size(); ++i) {
    const std::uint64_t bit = 1ULL << i;
    value[static_cast<size_t>(pis[i])] =
        (inKnown & bit) != 0 ? ((inValue & bit) != 0 ? Logic::L1 : Logic::L0)
                             : ((inZ & bit) != 0 ? Logic::Z : Logic::X);
  }
  if (fault && nl_->isPrimaryInput(fault->net)) {
    value[static_cast<size_t>(fault->net)] = fault->stuck;
  }
  // Gate inputs are gathered into a fixed stack window (heap fallback only
  // for pathologically wide gates), so the whole pass is allocation-free
  // when `value` arrives with capacity.
  constexpr int kInlineFanin = 32;
  Logic window[kInlineFanin];
  std::vector<Logic> wide;
  for (int g : topo_) {
    const gate::GateNode& gn = nl_->gates()[static_cast<size_t>(g)];
    const int n = static_cast<int>(gn.inputs.size());
    const Logic* ins;
    if (n <= kInlineFanin) {
      for (int i = 0; i < n; ++i) {
        window[i] = value[static_cast<size_t>(gn.inputs[static_cast<size_t>(i)])];
      }
      ins = window;
    } else {
      wide.clear();
      for (gate::NetId in : gn.inputs) {
        wide.push_back(value[static_cast<size_t>(in)]);
      }
      ins = wide.data();
    }
    Logic out = gate::evalGate(gn.type, ins, n);
    if (fault && fault->net == gn.output) out = fault->stuck;
    value[static_cast<size_t>(gn.output)] = out;
  }
}

Word ScalarEvaluator::outputsOf(const std::vector<Logic>& netValues) const {
  const auto& pos = nl_->primaryOutputs();
  const int width = static_cast<int>(pos.size());
  if (width > Word::kMaxWidth) {
    throw std::invalid_argument("ScalarEvaluator: " + std::to_string(width) +
                                " primary outputs exceed a Word");
  }
  std::uint64_t value = 0;
  std::uint64_t known = 0;
  std::uint64_t z = 0;
  for (int i = 0; i < width; ++i) {
    const std::uint64_t bit = 1ULL << i;
    switch (netValues[static_cast<size_t>(pos[static_cast<size_t>(i)])]) {
      case Logic::L1:
        value |= bit;
        [[fallthrough]];
      case Logic::L0:
        known |= bit;
        break;
      case Logic::Z:
        z |= bit;
        break;
      case Logic::X:
        break;
    }
  }
  return Word::fromPlanes(width, value, known, z);
}

Word ScalarEvaluator::evalOutputs(const Word& inputs,
                                   std::optional<gate::StuckFault> fault) const {
  return outputsOf(evaluate(inputs, fault));
}

}  // namespace vcad::oracles
