// Static and dynamic cost metrics computed from a gate-level netlist.
//
// These are the "accurate" metric sources that require knowledge of the
// component's private implementation: area from per-gate cell areas, delay
// from the critical path, and power from switching activity (toggle counts)
// weighted by per-net capacitance. The power model substitutes for the PPP
// gate-level power simulator used in the paper's experiments: like PPP, it
// needs the gate-level netlist, so it can only run where the netlist lives —
// on the IP provider's server.
#pragma once

#include <cstdint>
#include <vector>

#include "gate/netlist.hpp"

namespace vcad::gate {

/// Technology-ish constants. Units are arbitrary but consistent; defaults
/// give power numbers in the tens-of-mW range for a 16-bit multiplier, the
/// ballpark of Table 1.
struct TechParams {
  double vdd = 2.5;              // volts
  double capBasefF = 2.0;        // intrinsic output cap per gate, fF
  double capPerFanoutfF = 1.5;   // extra cap per fanout, fF
  double clockHz = 50e6;         // pattern rate for average power
  double areaPerInputUm2 = 6.0;  // cell area per gate input, um^2
  double inverterAreaUm2 = 4.0;  // NOT/BUF area, um^2
  double delayPerLevelNs = 0.35; // per-logic-level delay, ns
};

/// Total cell area in um^2.
double areaOf(const Netlist& nl, const TechParams& tech = {});

/// Critical-path delay in ns (levelized).
double criticalPathNs(const Netlist& nl, const TechParams& tech = {});

/// Output capacitance of one net in fF.
double netCapfF(const Netlist& nl, NetId net, const TechParams& tech = {});

/// Counts per-net toggles between two full-evaluation snapshots; unknown
/// values count as toggles (pessimistic).
std::uint64_t toggles(const std::vector<Logic>& prev,
                      const std::vector<Logic>& curr);

/// Switching energy (pJ) of one pattern transition: sum over toggled nets of
/// 1/2 C V^2.
double transitionEnergyPj(const Netlist& nl, const std::vector<Logic>& prev,
                          const std::vector<Logic>& curr,
                          const TechParams& tech = {});

/// Gate-level average-power evaluation of a pattern sequence (mW): total
/// switching energy divided by the sequence duration at tech.clockHz.
/// `patterns` are primary-input words; evaluation starts from patterns[0]
/// (no energy charged for the first pattern).
///
/// Evaluated on the packed bit-parallel engine, 64 patterns per pass; the
/// per-net toggle counts come from popcounts over XOR-ed lane planes. The
/// result is bit-identical (including floating point) to walking the scalar
/// evaluator one pattern at a time and summing transitionEnergyPj.
struct PowerResult {
  double avgPowerMw = 0.0;
  double peakPowerMw = 0.0;      // max per-transition power
  std::uint64_t totalToggles = 0;
  std::uint64_t transitions = 0;
};
PowerResult gateLevelPower(const Netlist& nl, const std::vector<Word>& patterns,
                           const TechParams& tech = {});

/// Per-transition switching energies (pJ) of a pattern sequence on the
/// packed engine: energies[t] covers patterns[t] -> patterns[t+1].
/// Bit-identical to calling transitionEnergyPj on consecutive scalar
/// snapshots.
std::vector<double> transitionEnergiesPj(const Netlist& nl,
                                         const std::vector<Word>& patterns,
                                         const TechParams& tech = {});

}  // namespace vcad::gate
