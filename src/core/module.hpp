// Module: the base class of every design component (JFP ModuleSkeleton).
//
// A module is specialized by (a) a set of methods executed when events reach
// it — processInputEvent() for functionality, processEstimationToken() for
// cost-metric evaluation — and (b) a set of ports identifying its
// connections.
//
// Per-simulation internal state is never stored in plain member variables:
// it lives in the slot-indexed state arena (state()), one flat lane per
// scheduler slot, so that concurrent simulations of the same design in
// different schedulers cannot interfere. Lanes are validated against the
// owning scheduler's slot generation: a stale lane (its scheduler was
// destroyed or reset()) is lazily dropped and rebuilt on first touch, so no
// explicit clearing is needed between runs. Access is lock-free — a slot is
// only ever touched by the thread running its scheduler.
//
// Estimator management follows the paper: providers register *candidate*
// estimators with addEstimator(); a SetupController then *binds* one
// estimator per parameter per setup, stored in a per-module hash table keyed
// by the setup's id; during simulation the current setup travels with every
// token, enabling runtime retrieval of the bound estimator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/estimation.hpp"
#include "core/port.hpp"
#include "core/scheduler.hpp"
#include "core/sim_time.hpp"
#include "core/slot_registry.hpp"
#include "core/token.hpp"

namespace vcad {

class Connector;

/// Base for per-scheduler module state (register contents, pattern buffers,
/// counters, ...). Subclasses are created lazily on first access.
class ModuleState {
 public:
  virtual ~ModuleState() = default;
};

class Module {
 public:
  explicit Module(std::string name);
  virtual ~Module();

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

  // --- ports ---------------------------------------------------------------

  /// Creates a port and attaches it to `conn`. Width is taken from the
  /// connector.
  Port& addInput(std::string portName, Connector& conn);
  Port& addOutput(std::string portName, Connector& conn);
  Port& addInOut(std::string portName, Connector& conn);

  /// Creates an unconnected port of explicit width.
  Port& addPort(std::string portName, PortDir dir, int width);

  const std::vector<std::unique_ptr<Port>>& ports() const { return ports_; }
  Port* findPort(const std::string& portName) const;
  std::vector<Port*> inputPorts() const;
  std::vector<Port*> outputPorts() const;

  // --- simulation interface --------------------------------------------

  /// Called once per scheduler before events flow (stimulus sources use it
  /// to schedule their first self event).
  virtual void initialize(SimContext& /*ctx*/) {}

  /// Functional behaviour: a new value arrived at input port
  /// `token.target()`. Default: ignore.
  virtual void processInputEvent(const SignalToken& /*token*/,
                                 SimContext& /*ctx*/) {}

  /// Self-scheduled wake-up (see selfSchedule()). Default: ignore.
  virtual void processSelfEvent(const SelfToken& /*token*/,
                                SimContext& /*ctx*/) {}

  // --- levelized evaluation ------------------------------------------------

  /// True when the module is a pure zero-delay function of its inputs.
  /// Contract: every activation drives every output port, with delay 0, a
  /// value that depends only on the current input-port values; the module
  /// has only In and Out ports, every output port is connected, and an
  /// activation has no effect beyond its outputs (no remote call, no
  /// recorded pattern, no state another run or a later reader depends on).
  /// Per-run module state may only suppress repeated identical outputs.
  /// A design whose leaves all say true can be settled by one topological
  /// pass of evaluate() calls (see LevelizedPass) instead of by events;
  /// the result must equal what the event-driven run leaves on every
  /// connector. Subclasses that change event handling must re-decide.
  virtual bool combinational() const { return false; }

  /// The combinational function over a batch of `patterns` independent
  /// runs, pattern-major: pattern p's input-port words are
  /// in[p*nIn, (p+1)*nIn) in inputPorts() order, and its output-port words
  /// go to out[p*nOut, (p+1)*nOut) in outputPorts() order, each a word of
  /// its port's width. Pattern p's outputs depend on pattern p's inputs
  /// alone, exactly as one activation of the event path would compute
  /// them. LevelizedPass is the one caller, one call per activated leaf
  /// and batch. Only called when combinational() is true; the default
  /// throws std::logic_error.
  virtual void evaluate(std::size_t patterns, std::span<const Word> in,
                        std::span<Word> out) const;

  /// Estimation request: evaluates the parameter with the estimator bound
  /// by the context's setup (or the null estimator) and deposits the result
  /// in the token's sink. Subclasses rarely need to override this.
  virtual void processEstimationToken(const EstimationToken& token,
                                      SimContext& ctx);

  // --- estimators --------------------------------------------------------

  /// Registers a candidate estimator for a parameter (typically called from
  /// the component constructor by the IP provider).
  void addEstimator(ParamKind kind, std::shared_ptr<Estimator> estimator);

  const std::vector<std::shared_ptr<Estimator>>& candidateEstimators(
      ParamKind kind) const;

  /// Binds the estimator a given setup selected for a parameter. Called by
  /// SetupController::apply().
  void bindEstimator(std::uint32_t setupId, ParamKind kind,
                     std::shared_ptr<Estimator> estimator);

  /// The estimator bound for (setup, parameter); the shared null estimator
  /// when nothing was bound.
  std::shared_ptr<Estimator> boundEstimator(std::uint32_t setupId,
                                            ParamKind kind) const;

  // --- hierarchy ---------------------------------------------------------

  /// Invokes `fn` on every *leaf* module reachable from this one. For plain
  /// modules that is the module itself; Circuit overrides this to recurse.
  virtual void visitLeaves(const std::function<void(Module&)>& fn);

  // --- helpers for subclasses --------------------------------------------

  /// Drives `value` on output port `out`: updates the attached connector and
  /// schedules a SignalToken at the peer port after `delay` ticks. Values
  /// driven on open (unconnected) ports are recorded per scheduler and can
  /// be read back with lastDriven().
  void emit(SimContext& ctx, Port& out, const Word& value, SimTime delay = 0);

  /// Schedules a SelfToken for this module `delay` ticks from now.
  void selfSchedule(SimContext& ctx, SimTime delay, int tag = 0);

  /// Current value at an input port, as seen by the context's scheduler
  /// (reading through to its base run where it wrote no value of its own).
  Word readInput(const SimContext& ctx, const Port& in) const;

  /// Last value driven on an *unconnected* output port by the context's
  /// scheduler (all-X if never driven).
  Word lastDriven(const SimContext& ctx, const Port& out) const;

  /// Per-scheduler state accessor. S must derive from ModuleState and be
  /// default-constructible; it is created on first access by each run. The
  /// (slot, generation) overload is the lock-free simulation path; the
  /// by-scheduler-id overload resolves the current generation through the
  /// registry for tests/controllers observing a live scheduler.
  template <typename S>
  S& state(const SimContext& ctx);
  template <typename S>
  S& stateFor(std::uint32_t slot, std::uint32_t generation);
  template <typename S>
  S& stateFor(std::uint32_t schedulerId);

  /// Physically drops per-slot state (all slots).
  void clearAllState();

  /// Physically drops the state one slot accumulated in this module.
  /// Generation bumps already clear state *logically*; campaigns call this
  /// at the end so long-lived designs do not pin the last run's objects.
  void clearStateFor(std::uint32_t slot);

  /// True when the slot holds state stamped with its current registry
  /// generation (debug/leak assertions).
  bool hasLiveStateFor(std::uint32_t slot) const;

 private:
  /// One arena lane: module state and open-port values a scheduler slot
  /// wrote, stamped with the slot generation current at write time. A lane
  /// whose generation does not match the accessing run's is stale and is
  /// dropped before reuse.
  struct StateSlot {
    std::uint32_t generation = 0;  // 0 = never written
    std::unique_ptr<ModuleState> state;
    std::unordered_map<std::string, Word> openPorts;
  };

  /// Write-path lane accessor: invalidates a stale lane and stamps the
  /// caller's generation.
  StateSlot& liveSlot(std::uint32_t slot, std::uint32_t generation) {
    StateSlot& e = stateSlots_[slot];
    if (e.generation != generation) {
      e.state.reset();
      e.openPorts.clear();
      e.generation = generation;
    }
    return e;
  }

  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;

  // One lane per arena slot, sized once at construction (reallocation under
  // concurrent slot owners would be a race).
  std::vector<StateSlot> stateSlots_;

  mutable std::mutex estimatorMutex_;
  std::unordered_map<int, std::vector<std::shared_ptr<Estimator>>> candidates_;
  // Key: setup id. "Inside each module, a hash table, whose key is a setup
  // controller, stores the relevant estimators."
  std::unordered_map<std::uint32_t,
                     std::unordered_map<int, std::shared_ptr<Estimator>>>
      bindings_;
};

// --- template implementation ------------------------------------------

template <typename S>
S& Module::stateFor(std::uint32_t slot, std::uint32_t generation) {
  static_assert(std::is_base_of_v<ModuleState, S>,
                "S must derive from ModuleState");
  StateSlot& e = liveSlot(slot, generation);
  if (!e.state) e.state = std::make_unique<S>();
  S* typed = dynamic_cast<S*>(e.state.get());
  if (typed == nullptr) {
    throw std::logic_error("Module '" + name_ +
                           "': inconsistent state type for scheduler " +
                           std::to_string(slot));
  }
  return *typed;
}

template <typename S>
S& Module::stateFor(std::uint32_t schedulerId) {
  return stateFor<S>(schedulerId,
                     SlotRegistry::global().currentGeneration(schedulerId));
}

template <typename S>
S& Module::state(const SimContext& ctx) {
  return stateFor<S>(ctx.scheduler.slot(), ctx.scheduler.slotGeneration());
}

}  // namespace vcad
