// Reference paths the shipped library no longer carries: the scalar netlist
// evaluator and the one-at-a-time loops the optimized engines replaced, kept
// here as differential-test oracles. The library evaluates netlists only on
// gate::PackedEvaluator; tests and benches link vcad_oracles to hold it (and
// everything built on it) to these. Nothing under src/ does.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/result_store.hpp"
#include "core/circuit.hpp"
#include "fault/detection.hpp"
#include "fault/fault_client.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/metrics.hpp"

namespace vcad::oracles {

/// The scalar evaluator: complete input-to-output passes, one pattern at a
/// time and one Logic value per net, optionally with one injected stuck-at
/// fault. It precomputes the topological order once and is immutable
/// afterwards. Every packed pass must decode to what it computes.
class ScalarEvaluator {
 public:
  explicit ScalarEvaluator(const gate::Netlist& nl);

  const gate::Netlist& netlist() const { return *nl_; }

  /// Full evaluation. `inputs` bit i corresponds to primaryInputs()[i].
  /// Returns the value of every net.
  std::vector<Logic> evaluate(const Word& inputs,
                              std::optional<gate::StuckFault> fault = {}) const;

  /// Same, writing every net value into `values` (resized to netCount()),
  /// so a reused vector keeps the pass free of heap traffic.
  void evaluateInto(const Word& inputs, std::vector<Logic>& values,
                    std::optional<gate::StuckFault> fault = {}) const;

  /// Extracts the primary-output word from a net-value vector.
  Word outputsOf(const std::vector<Logic>& netValues) const;

  /// Convenience: evaluate and return only the outputs.
  Word evalOutputs(const Word& inputs,
                   std::optional<gate::StuckFault> fault = {}) const;

 private:
  const gate::Netlist* nl_;
  std::vector<int> topo_;
};

/// The serial virtual fault campaign: per pattern, a fault-free run on a
/// fresh controller, then per component one detectionTable() fetch on a
/// client cache miss and one read-through injection per row with undetected
/// faults, each on a fresh controller. Rows are dropped as soon as their
/// faults are detected. `store` (optional) backs the table caches exactly
/// as VirtualFaultSimulator::setResultStore does.
fault::CampaignResult serialCampaign(
    Circuit& design, const std::vector<fault::FaultClient*>& components,
    const std::vector<Connector*>& primaryInputs,
    const std::vector<Connector*>& primaryOutputs,
    const std::vector<std::vector<Word>>& patterns,
    std::shared_ptr<cache::ResultStore> store = nullptr,
    std::uint64_t storeNamespace = 0);

/// The classic flat serial fault simulation: one pattern at a time on the
/// scalar evaluator, one faulty evaluation per undetected fault. Same
/// fault set and symbols as `sim`.
fault::CampaignResult runScalar(const fault::SerialFaultSimulator& sim,
                                const std::vector<Word>& patterns);

/// The scalar detection-table builder: simulate the component under every
/// collapsed fault for `inputs`, one fault at a time, and group the
/// erroneous outputs by output pattern string (fault names sorted). The
/// packed fault::buildDetectionTables must match it byte for byte.
fault::DetectionTable buildDetectionTable(
    const ScalarEvaluator& eval, const fault::CollapsedFaults& collapsed,
    const Word& inputs);

/// Gate-level average power walking the scalar evaluator one pattern at a
/// time and summing transitionEnergyPj per consecutive pair.
gate::PowerResult gateLevelPowerScalar(const gate::Netlist& nl,
                                       const std::vector<Word>& patterns,
                                       const gate::TechParams& tech = {});

}  // namespace vcad::oracles
