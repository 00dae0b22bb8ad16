#include "gate/netlist.hpp"
#include "oracles/oracles.hpp"

namespace vcad::oracles {

fault::CampaignResult runScalar(const fault::SerialFaultSimulator& sim,
                                const std::vector<Word>& patterns) {
  const gate::NetlistEvaluator eval(sim.netlist());
  const std::vector<gate::StuckFault>& faults = sim.faults();
  fault::CampaignResult res;
  res.faultList = sim.symbols();
  std::vector<bool> detected(faults.size(), false);

  for (const Word& pattern : patterns) {
    const Word golden = eval.evalOutputs(pattern);
    ++res.faultSimEvaluations;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (detected[i]) continue;  // fault dropping
      const Word faulty = eval.evalOutputs(pattern, faults[i]);
      ++res.faultSimEvaluations;
      if (faulty != golden) {
        detected[i] = true;
        res.detected.insert(res.faultList[i]);
      }
    }
    res.detectedAfterPattern.push_back(res.detected.size());
  }
  return res;
}

}  // namespace vcad::oracles
