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
// input configuration and emits only the output groups whose value changed
// (event-driven suppression). Per-scheduler state tracks the previous net
// snapshot, toggle counts, switching energy, and (optionally) the input
// pattern history used by dynamic power estimators.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/module.hpp"
#include "gate/incremental.hpp"
#include "gate/metrics.hpp"
#include "gate/netlist.hpp"

namespace vcad::gate {

class NetlistModule : public Module {
 public:
  /// Evaluation strategy per activation:
  ///  - FullPass: levelized full evaluation with exact activity accounting
  ///    (toggle counts, switching energy) — the default, required when the
  ///    module feeds power estimation.
  ///  - SelectiveTrace: event-driven incremental evaluation; much less work
  ///    per input change, but activity counters stay at zero (functional
  ///    simulation mode).
  enum class EvalMode { FullPass, SelectiveTrace };
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
  const NetlistEvaluator& evaluator() const { return evaluator_; }
  const TechParams& tech() const { return tech_; }

  /// When enabled, each evaluated input configuration is appended to the
  /// per-scheduler pattern history (consumed by dynamic power estimators).
  void setRecordPatterns(bool on) { recordPatterns_ = on; }

  /// Selects the evaluation strategy (see EvalMode). Affects schedulers
  /// whose state is created after the call; set before simulating.
  void setEvalMode(EvalMode mode) { evalMode_ = mode; }
  EvalMode evalMode() const { return evalMode_; }

  /// Input events within one simulation instant are coalesced with a
  /// zero-delay self token, so simultaneous pin updates cause exactly one
  /// netlist evaluation (one pattern, glitch-free activity counting).
  void processInputEvent(const SignalToken& token, SimContext& ctx) override;
  void processSelfEvent(const SelfToken& token, SimContext& ctx) override;

  /// Combinational while no pattern history is recorded and evaluation is
  /// the stateless FullPass; evaluate() then runs the full evaluator, so
  /// the levelized pass leaves the activity counters untouched.
  bool combinational() const override {
    return !recordPatterns_ && evalMode_ == EvalMode::FullPass;
  }
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
    std::unique_ptr<IncrementalEvaluator> incremental;
  };

  State& stateOf(const SimContext& ctx) { return state<State>(ctx); }

  std::shared_ptr<const Netlist> netlist_;
  NetlistEvaluator evaluator_;
  TechParams tech_;
  bool recordPatterns_ = false;
  EvalMode evalMode_ = EvalMode::FullPass;
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
