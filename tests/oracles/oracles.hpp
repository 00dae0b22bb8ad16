// Reference paths the shipped library no longer carries: the one-at-a-time
// loops the optimized engines replaced, kept here as differential-test
// oracles. Tests and benches link vcad_oracles; nothing under src/ does.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/result_store.hpp"
#include "core/circuit.hpp"
#include "fault/fault_client.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/metrics.hpp"

namespace vcad::oracles {

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

/// Gate-level average power walking the scalar evaluator one pattern at a
/// time and summing transitionEnergyPj per consecutive pair.
gate::PowerResult gateLevelPowerScalar(const gate::Netlist& nl,
                                       const std::vector<Word>& patterns,
                                       const gate::TechParams& tech = {});

}  // namespace vcad::oracles
