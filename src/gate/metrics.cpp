#include "gate/metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "gate/packed_eval.hpp"

namespace vcad::gate {

double areaOf(const Netlist& nl, const TechParams& tech) {
  double area = 0.0;
  for (const GateNode& g : nl.gates()) {
    switch (g.type) {
      case GateType::Const0:
      case GateType::Const1:
        break;  // tie cells: negligible
      case GateType::Not:
      case GateType::Buf:
        area += tech.inverterAreaUm2;
        break;
      default:
        area += tech.areaPerInputUm2 * static_cast<double>(g.inputs.size());
        break;
    }
  }
  return area;
}

double criticalPathNs(const Netlist& nl, const TechParams& tech) {
  const std::vector<int> lvl = nl.levels();
  int maxLevel = 0;
  for (NetId out : nl.primaryOutputs()) {
    maxLevel = std::max(maxLevel, lvl[static_cast<size_t>(out)]);
  }
  return tech.delayPerLevelNs * static_cast<double>(maxLevel);
}

double netCapfF(const Netlist& nl, NetId net, const TechParams& tech) {
  return tech.capBasefF +
         tech.capPerFanoutfF * static_cast<double>(nl.fanoutOf(net));
}

std::uint64_t toggles(const std::vector<Logic>& prev,
                      const std::vector<Logic>& curr) {
  if (prev.size() != curr.size()) {
    throw std::invalid_argument("toggles: snapshot size mismatch");
  }
  std::uint64_t n = 0;
  for (size_t i = 0; i < prev.size(); ++i) {
    const bool known = isKnown(prev[i]) && isKnown(curr[i]);
    if (!known || prev[i] != curr[i]) ++n;
  }
  return n;
}

double transitionEnergyPj(const Netlist& nl, const std::vector<Logic>& prev,
                          const std::vector<Logic>& curr,
                          const TechParams& tech) {
  if (prev.size() != curr.size() ||
      prev.size() != static_cast<size_t>(nl.netCount())) {
    throw std::invalid_argument("transitionEnergyPj: snapshot size mismatch");
  }
  double energyfFV2 = 0.0;
  for (NetId n = 0; n < nl.netCount(); ++n) {
    const size_t i = static_cast<size_t>(n);
    const bool known = isKnown(prev[i]) && isKnown(curr[i]);
    if (!known || prev[i] != curr[i]) {
      energyfFV2 += netCapfF(nl, n, tech);
    }
  }
  // 1/2 * C[fF] * V^2 -> femtojoules; convert to picojoules.
  return 0.5 * energyfFV2 * tech.vdd * tech.vdd * 1e-3;
}

namespace {

/// Packed sweep over consecutive-pattern transitions. Blocks overlap by one
/// lane so every (p-1, p) pair lives inside a block. For each transition the
/// per-net cap contributions accumulate in net-id order — the exact
/// floating-point addition order of the scalar transitionEnergyPj loop — so
/// derived powers match the scalar path bit for bit. `onTransition` receives
/// (energy in fF*V^2, toggled-net count) per transition, in pattern order.
template <typename Fn>
void packedTransitionSweep(const Netlist& nl,
                           const std::vector<Word>& patterns,
                           const TechParams& tech, Fn onTransition) {
  PackedEvaluator packed(nl);
  const int nets = nl.netCount();
  std::vector<double> capfF(static_cast<size_t>(nets));
  for (NetId n = 0; n < nets; ++n) {
    capfF[static_cast<size_t>(n)] = netCapfF(nl, n, tech);
  }
  std::vector<LanePlanes> planes;
  double pairEnergy[PackedEvaluator::kLanes];
  std::uint64_t pairToggles[PackedEvaluator::kLanes];
  std::size_t p0 = 0;
  while (p0 + 1 < patterns.size()) {
    const std::size_t lanes = std::min<std::size_t>(
        PackedEvaluator::kLanes, patterns.size() - p0);
    const int pairs = static_cast<int>(lanes) - 1;
    const std::uint64_t pairMask = (1ULL << pairs) - 1;
    packed.evaluate(packed.pack(patterns, p0, lanes), planes);
    for (int t = 0; t < pairs; ++t) {
      pairEnergy[t] = 0.0;
      pairToggles[t] = 0;
    }
    for (NetId n = 0; n < nets; ++n) {
      const LanePlanes& q = planes[static_cast<size_t>(n)];
      // Toggle between lanes t and t+1: either side unknown (pessimistic),
      // or both known and the value planes differ.
      const std::uint64_t bothKnown = q.known & (q.known >> 1);
      std::uint64_t t =
          (((q.val ^ (q.val >> 1)) & bothKnown) | ~bothKnown) & pairMask;
      const double cap = capfF[static_cast<size_t>(n)];
      while (t != 0) {
        const int b = std::countr_zero(t);
        t &= t - 1;
        pairEnergy[b] += cap;
        ++pairToggles[b];
      }
    }
    for (int t = 0; t < pairs; ++t) onTransition(pairEnergy[t], pairToggles[t]);
    p0 += lanes - 1;  // overlap: the last lane seeds the next block
  }
}

}  // namespace

PowerResult gateLevelPower(const Netlist& nl, const std::vector<Word>& patterns,
                           const TechParams& tech) {
  PowerResult res;
  if (patterns.size() < 2) return res;
  packedTransitionSweep(
      nl, patterns, tech,
      [&](double energyfFV2, std::uint64_t togglesHere) {
        const double ePj = 0.5 * energyfFV2 * tech.vdd * tech.vdd * 1e-3;
        const double pMw = ePj * 1e-12 * tech.clockHz * 1e3;
        res.peakPowerMw = std::max(res.peakPowerMw, pMw);
        res.avgPowerMw += pMw;
        res.totalToggles += togglesHere;
        ++res.transitions;
      });
  res.avgPowerMw /= static_cast<double>(res.transitions);
  return res;
}

std::vector<double> transitionEnergiesPj(const Netlist& nl,
                                         const std::vector<Word>& patterns,
                                         const TechParams& tech) {
  std::vector<double> out;
  if (patterns.size() < 2) return out;
  out.reserve(patterns.size() - 1);
  packedTransitionSweep(nl, patterns, tech,
                        [&](double energyfFV2, std::uint64_t) {
                          out.push_back(0.5 * energyfFV2 * tech.vdd *
                                        tech.vdd * 1e-3);
                        });
  return out;
}

}  // namespace vcad::gate
