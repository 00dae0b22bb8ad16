#include "ip/private_component.hpp"

namespace vcad::ip {

PrivateComponent::PrivateComponent(std::shared_ptr<const gate::Netlist> netlist,
                                   gate::TechParams tech, bool dominance,
                                   int computeScale)
    : netlist_(std::move(netlist)),
      packed_(*netlist_),
      tech_(tech),
      collapsed_(fault::collapseAll(*netlist_, dominance,
                                    /*includePrimaryInputs=*/false,
                                    /*includePrimaryOutputNets=*/false)),
      computeScale_(computeScale < 1 ? 1 : computeScale) {}

Word PrivateComponent::eval(const Word& inputs) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    history_.push_back(inputs);
    ++evalCount_;
  }
  // Per-thread scratch, reused across calls and the calibration loop:
  // provider workers may evaluate concurrently.
  thread_local std::vector<gate::LanePlanes> planes;
  Word out;
  for (int i = 0; i < computeScale_; ++i) {
    // Repeats past the first are calibrated extra work standing in for a
    // heavyweight backend.
    packed_.evalOutputs(std::span<const Word>(&inputs, 1),
                        std::span<Word>(&out, 1), planes);
  }
  return out;
}

double PrivateComponent::powerMw(const std::vector<Word>& patterns,
                                 std::size_t& billedPatterns) {
  if (!patterns.empty()) {
    billedPatterns = patterns.size();
    return gate::gateLevelPower(packed_, patterns, tech_).avgPowerMw;
  }
  std::vector<Word> recorded;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    recorded = history_;
  }
  billedPatterns = recorded.size();
  return gate::gateLevelPower(packed_, recorded, tech_).avgPowerMw;
}

double PrivateComponent::timingNs() const {
  return gate::criticalPathNs(*netlist_, tech_);
}

double PrivateComponent::areaUm2() const {
  return gate::areaOf(*netlist_, tech_);
}

std::vector<std::string> PrivateComponent::faultList() const {
  return fault::symbolicFaultList(*netlist_, collapsed_);
}

std::vector<cache::Value> PrivateComponent::serializedTables(
    const std::vector<Word>& inputs) const {
  return fault::buildSerializedTables(packed_, collapsed_, inputs);
}

std::size_t PrivateComponent::evalCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evalCount_;
}

}  // namespace vcad::ip
