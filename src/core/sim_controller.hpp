// SimulationController: owns one scheduler, binds an estimation setup, and
// drives a design through a simulation run.
//
// One simulation controller per concurrent simulation: because all
// per-simulation state is keyed by scheduler id, many controllers can run
// over the same design — sequentially or on concurrent threads — without any
// reset or save/restore action between runs. A controller can also run a
// fault injection layered on another controller's finished fault-free run
// (runInjection): it reads through to that run and simulates only the
// fanout of the forced outputs, which is how virtual fault simulation
// injects faulty output configurations (see src/fault).
#pragma once

#include <memory>
#include <vector>

#include "core/circuit.hpp"
#include "core/scheduler.hpp"
#include "core/setup.hpp"
#include "core/token.hpp"

namespace vcad {

/// Convenience estimation sink accumulating all collected values.
class CollectingSink final : public EstimationSink {
 public:
  struct Item {
    Module* module;
    ParamKind kind;
    std::unique_ptr<ParamValue> value;
  };

  void collect(Module& module, ParamKind kind,
               std::unique_ptr<ParamValue> value) override;

  const std::vector<Item>& items() const { return items_; }

  /// Sum of all non-null scalar values for `kind` (cost metrics are local,
  /// additive properties the user can sum to obtain global design metrics).
  double sum(ParamKind kind) const;

  /// The value collected for (module, kind); nullptr when absent.
  const ParamValue* find(const Module& module, ParamKind kind) const;

  std::size_t nullCount() const;
  void clear() { items_.clear(); }

 private:
  std::vector<Item> items_;
};

class SimulationController {
 public:
  /// Binds the controller to a design and (optionally) an estimation setup.
  /// The setup must outlive the controller. If `applySetup` is true and a
  /// setup is given, setup->apply(design) runs immediately.
  explicit SimulationController(Circuit& design,
                                SetupController* setup = nullptr,
                                bool applySetup = true);

  Circuit& design() { return design_; }
  Scheduler& scheduler() { return scheduler_; }
  const SetupController* setup() const { return setup_; }

  /// Calls initialize() on every leaf module (stimulus sources schedule
  /// their first events here). Idempotent.
  void initialize();

  /// Returns the controller to its just-constructed state for another run:
  /// the scheduler drains, drops forced outputs, rewinds time, and renews
  /// its slot generation, which logically clears every connector value and
  /// module state of the previous run in O(1). The fault campaign
  /// reset-and-reuses its pinned controllers instead of paying
  /// construct/destroy (and slot lease churn) per injection.
  void reset();

  /// Runs the simulation until the event queue drains (or `until` passes).
  /// Calls initialize() first if needed. Returns delivered event count.
  std::size_t start(SimTime until = kSimTimeMax);

  /// Runs every event of the current time instant (the head event's time
  /// and all zero-delay follow-ups at the same tick). Returns false when no
  /// events are pending.
  bool runOneInstant();

  /// Schedules a value on a connector: the receiving endpoint gets a signal
  /// token after `delay` ticks. Used to drive primary inputs explicitly.
  void inject(Connector& conn, const Word& value, SimTime delay = 0);

  /// Sends an estimation token for `kind` to every leaf module at the
  /// current time and runs the scheduler until idle, collecting into `sink`.
  void estimateAll(ParamKind kind, EstimationSink& sink);

  /// Installs a faulty output configuration for `module` on this
  /// controller's scheduler (see Scheduler::setOutputOverride).
  void forceOutputs(const Module& module,
                    std::vector<Scheduler::OutputOverride> outputs);
  void clearForcedOutputs();

  /// Fault injection by read-through: forces `faulty`'s outputs to
  /// `outputs` on top of `faultFree`'s finished run and simulates only
  /// their fanout. Installs faultFree's run as this scheduler's base (see
  /// Scheduler::setBase), installs the output override, emits the forced
  /// values at t=0, and runs to quiescence without initialize(). Returns
  /// the delivered event count. Call it on a fresh or reset() controller.
  ///
  /// Precondition, which virtual fault simulation already assumes: the
  /// design is combinational and simulated in a single instant, and every
  /// module's outputs are a pure function of its current inputs (module
  /// state only suppresses repeated events). Then every connector outside
  /// the forced fanout keeps its fault-free value, and the primary outputs
  /// settle exactly as a full faulty re-simulation from the primary inputs
  /// would leave them.
  std::size_t runInjection(const SimulationController& faultFree,
                           Module& faulty,
                           std::vector<Scheduler::OutputOverride> outputs);

 private:
  Circuit& design_;
  const SetupController* setup_;
  Scheduler scheduler_;
  bool initialized_ = false;
};

/// Runs each controller's start() on its own thread and joins them all:
/// concurrent simulations of the same design under different setups.
void runConcurrently(const std::vector<SimulationController*>& controllers,
                     SimTime until = kSimTimeMax);

}  // namespace vcad
