// SerialFaultSimulator: the classic full-disclosure baseline.
//
// Operates on a single flat netlist (which only someone owning every
// component could construct) and simulates each fault explicitly per
// pattern. Used to (a) validate that virtual fault simulation detects
// exactly the same faults, and (b) quantify what the virtual protocol costs
// relative to unrestricted access.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "fault/model.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/packed_eval.hpp"

namespace vcad::fault {

class SerialFaultSimulator {
 public:
  /// Simulates the given fault set (named by `symbols`, parallel to
  /// `faults`) on the flat netlist.
  SerialFaultSimulator(const Netlist& netlist, std::vector<StuckFault> faults,
                       std::vector<std::string> symbols);

  /// Convenience: faults = collapsed fault universe of the netlist itself.
  SerialFaultSimulator(const Netlist& netlist, bool dominance = true);

  /// Runs the campaign: for each pattern, fault-free evaluation plus one
  /// faulty evaluation per undetected fault (with fault dropping).
  ///
  /// Executes on the packed bit-parallel engine — patterns are processed in
  /// 64-wide blocks, one fault propagated across all lanes per pass — and
  /// produces the CampaignResult of the classic one-pattern-at-a-time
  /// loop field for field: same detected set, same per-pattern coverage
  /// curve, and the same faultSimEvaluations count (a fault detected at
  /// pattern p is charged one evaluation for every pattern up to and
  /// including p, exactly the scalar dropping schedule).
  CampaignResult run(const std::vector<Word>& patterns);

  const Netlist& netlist() const { return netlist_; }
  const std::vector<StuckFault>& faults() const { return faults_; }
  const std::vector<std::string>& symbols() const { return symbols_; }

 private:
  const Netlist& netlist_;
  gate::PackedEvaluator packed_;
  std::vector<StuckFault> faults_;
  std::vector<std::string> symbols_;
};

/// Maps a component-qualified fault symbol ("MULT/n42sa0") to the
/// corresponding stuck-at fault in a flattened BlockDesign netlist (net
/// "MULT/n42"). Throws when the net does not exist.
StuckFault flatFaultOf(const Netlist& flat, const std::string& qualifiedSymbol);

}  // namespace vcad::fault
