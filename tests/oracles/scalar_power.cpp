#include <algorithm>

#include "gate/netlist.hpp"
#include "oracles/oracles.hpp"

namespace vcad::oracles {

gate::PowerResult gateLevelPowerScalar(const gate::Netlist& nl,
                                       const std::vector<Word>& patterns,
                                       const gate::TechParams& tech) {
  gate::PowerResult res;
  if (patterns.size() < 2) return res;
  ScalarEvaluator eval(nl);
  std::vector<Logic> prev = eval.evaluate(patterns[0]);
  std::vector<Logic> curr;
  for (std::size_t p = 1; p < patterns.size(); ++p) {
    eval.evaluateInto(patterns[p], curr);
    const double ePj = gate::transitionEnergyPj(nl, prev, curr, tech);
    // power for this transition: E / T, T = 1/clockHz.
    const double pMw = ePj * 1e-12 * tech.clockHz * 1e3;
    res.peakPowerMw = std::max(res.peakPowerMw, pMw);
    res.avgPowerMw += pMw;
    res.totalToggles += gate::toggles(prev, curr);
    ++res.transitions;
    std::swap(prev, curr);
  }
  res.avgPowerMw /= static_cast<double>(res.transitions);
  return res;
}

}  // namespace vcad::oracles
