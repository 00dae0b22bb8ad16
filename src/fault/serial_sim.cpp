#include "fault/serial_sim.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace vcad::fault {

SerialFaultSimulator::SerialFaultSimulator(const Netlist& netlist,
                                           std::vector<StuckFault> faults,
                                           std::vector<std::string> symbols)
    : netlist_(netlist),
      packed_(netlist),
      faults_(std::move(faults)),
      symbols_(std::move(symbols)) {
  if (faults_.size() != symbols_.size()) {
    throw std::invalid_argument(
        "SerialFaultSimulator: faults/symbols size mismatch");
  }
}

SerialFaultSimulator::SerialFaultSimulator(const Netlist& netlist,
                                           bool dominance)
    : netlist_(netlist), packed_(netlist) {
  const CollapsedFaults c = collapseAll(netlist, dominance);
  faults_ = c.representatives;
  for (const StuckFault& f : faults_) symbols_.push_back(symbolOf(netlist, f));
}

CampaignResult SerialFaultSimulator::run(const std::vector<Word>& patterns) {
  CampaignResult res;
  res.faultList = symbols_;
  constexpr std::size_t kUndetected = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> firstDetectedAt(faults_.size(), kUndetected);

  std::vector<gate::LanePlanes> golden, faulty;
  for (std::size_t base = 0; base < patterns.size();
       base += gate::PackedEvaluator::kLanes) {
    const std::size_t lanes = std::min<std::size_t>(
        gate::PackedEvaluator::kLanes, patterns.size() - base);
    const auto block = packed_.pack(patterns, base, lanes);
    packed_.evaluate(block, golden);
    res.faultSimEvaluations += lanes;  // one fault-free pass per pattern
    for (std::size_t i = 0; i < faults_.size(); ++i) {
      if (firstDetectedAt[i] != kUndetected) continue;  // fault dropping
      packed_.evaluate(block, faulty, &faults_[i]);
      const std::uint64_t diff = packed_.outputDiffMask(
          golden, faulty, static_cast<int>(lanes));
      if (diff != 0) {
        const int lane = std::countr_zero(diff);
        firstDetectedAt[i] = base + static_cast<std::size_t>(lane);
        res.detected.insert(symbols_[i]);
        // Scalar schedule: evaluated at every pattern up to detection.
        res.faultSimEvaluations += static_cast<std::uint64_t>(lane) + 1;
      } else {
        res.faultSimEvaluations += lanes;
      }
    }
  }

  // Cumulative per-pattern coverage curve from the detection lanes.
  std::vector<std::size_t> newlyAt(patterns.size(), 0);
  for (std::size_t at : firstDetectedAt) {
    if (at != kUndetected) ++newlyAt[at];
  }
  std::size_t cumulative = 0;
  res.detectedAfterPattern.reserve(patterns.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    cumulative += newlyAt[p];
    res.detectedAfterPattern.push_back(cumulative);
  }
  return res;
}

StuckFault flatFaultOf(const Netlist& flat, const std::string& qualifiedSymbol) {
  if (qualifiedSymbol.size() < 4) {
    throw std::invalid_argument("bad fault symbol: " + qualifiedSymbol);
  }
  const std::string suffix = qualifiedSymbol.substr(qualifiedSymbol.size() - 3);
  if (suffix != "sa0" && suffix != "sa1") {
    throw std::invalid_argument("bad fault symbol suffix: " + qualifiedSymbol);
  }
  const std::string netName =
      qualifiedSymbol.substr(0, qualifiedSymbol.size() - 3);
  const NetId net = flat.findNet(netName);
  if (net == gate::kNoNet) {
    throw std::invalid_argument("no net '" + netName +
                                "' in flattened netlist");
  }
  return StuckFault{net, suffix == "sa0" ? Logic::L0 : Logic::L1};
}

}  // namespace vcad::fault
