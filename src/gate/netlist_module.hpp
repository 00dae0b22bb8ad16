// NetlistModule: wraps a gate-level netlist as a backplane module, so
// gate-level components participate in event-driven simulation alongside
// word-level (RTL) modules — the mixed-level system descriptions the paper
// supports.
//
// Ports are declared as *groups*: a group maps one connector (1 bit or a
// word) onto a contiguous run of netlist primary inputs/outputs. Factory
// helpers cover the two common layouts (one 1-bit port per pin; one word
// port per operand).
//
// On every input event the module re-evaluates the netlist with the current
// input configuration on the packed engine (one lane) and emits only the
// output groups whose value changed (event-driven suppression). Per-scheduler
// state tracks the previous net snapshot (one byte per net, decoded from
// lane 0), toggle counts, switching energy, and (optionally) the input
// pattern history used by dynamic power estimators. Batched evaluate() runs
// the same engine, up to 64 patterns per pass.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/module.hpp"
#include "gate/metrics.hpp"
#include "gate/netlist.hpp"
#include "gate/packed_eval.hpp"

namespace vcad::gate {

class NetlistModule : public Module {
 public:
  struct PortGroup {
    std::string name;
    Connector* conn = nullptr;
    int firstPin = 0;  // index into primaryInputs()/primaryOutputs()
    int width = 1;
  };

  NetlistModule(std::string name, std::shared_ptr<const Netlist> netlist,
                std::vector<PortGroup> inputs, std::vector<PortGroup> outputs,
                TechParams tech = {});

  const Netlist& netlist() const { return *netlist_; }
  const TechParams& tech() const { return tech_; }

  /// When enabled, each evaluated input configuration is appended to the
  /// per-scheduler pattern history (consumed by dynamic power estimators).
  void setRecordPatterns(bool on) { recordPatterns_ = on; }

  /// Input events within one simulation instant are coalesced with a
  /// zero-delay self token, so simultaneous pin updates cause exactly one
  /// netlist evaluation (one pattern, glitch-free activity counting).
  void processInputEvent(const SignalToken& token, SimContext& ctx) override;
  void processSelfEvent(const SelfToken& token, SimContext& ctx) override;

  /// Combinational while no pattern history is recorded; evaluate() then
  /// runs the packed engine over the batch, so the levelized pass leaves
  /// the activity counters untouched.
  bool combinational() const override { return !recordPatterns_; }
  void evaluate(std::size_t patterns, std::span<const Word> in,
                std::span<Word> out) const override;

  /// Current full input word (one bit per netlist PI) as seen by `ctx`.
  Word currentInputs(const SimContext& ctx) const;

  /// Per-scheduler activity counters.
  std::uint64_t evaluations(const SimContext& ctx);
  std::uint64_t netToggles(const SimContext& ctx);
  double switchingEnergyPj(const SimContext& ctx);
  const std::vector<Word>& patternHistory(const SimContext& ctx);
  void clearPatternHistory(const SimContext& ctx);

 private:
  struct State : ModuleState {
    bool evalPending = false;
    bool hasPrev = false;
    std::vector<Logic> prevNets;
    Word lastOutputs;
    std::uint64_t evaluations = 0;
    std::uint64_t toggles = 0;
    double energyPj = 0.0;
    std::vector<Word> history;
  };

  State& stateOf(const SimContext& ctx) { return state<State>(ctx); }

  std::shared_ptr<const Netlist> netlist_;
  PackedEvaluator packed_;
  TechParams tech_;
  bool recordPatterns_ = false;
  std::vector<PortGroup> inGroups_;
  std::vector<PortGroup> outGroups_;
  std::vector<Port*> inPorts_;   // parallel to inGroups_
  std::vector<Port*> outPorts_;  // parallel to outGroups_
};

/// Builds a NetlistModule with one single-bit port per primary input/output,
/// wired to the given connectors in pin order.
std::unique_ptr<NetlistModule> makeBitLevelModule(
    std::string name, std::shared_ptr<const Netlist> netlist,
    const std::vector<Connector*>& inputConns,
    const std::vector<Connector*>& outputConns, TechParams tech = {});

}  // namespace vcad::gate
