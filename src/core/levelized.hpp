// LevelizedPass: settles a fault-free run of a combinational design in one
// topological pass of Module::evaluate() calls instead of through the event
// scheduler.
//
// When every leaf of a design is combinational() (a pure zero-delay function
// of its inputs) and the leaves form an acyclic graph, the value an
// event-driven run leaves on each connector after its primary inputs are
// driven at t=0 depends on the primary-input words alone: every activated
// module's last evaluation sees its final inputs. The pass computes those
// values directly. It writes the primary-input words into the run's slot,
// then evaluates the activated leaves in topological order (Kahn over
// connector drivers), reading each one's input connectors and writing its
// output connectors. No token, delta cycle or module state is involved.
//
// "Activated" follows the event path exactly: a leaf is evaluated only when
// some input port of it would receive an event, either as the port a
// primary input's injection targets or as the peer of an activated leaf's
// output. A leaf with no such port (no input port, or only undriven inputs)
// is never evaluated, so its outputs stay all-X, as they do when no event
// reaches it.
//
// A settled run reads exactly like a finished event-driven run, by
// Connector::value, Module::readInput, and as the read-through base of an
// injection run (SimulationController::runInjection).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/circuit.hpp"
#include "core/scheduler.hpp"

namespace vcad {

class LevelizedPass {
 public:
  /// The pass for `design` with patterns applied on `primaryInputs`, or
  /// nullopt when the design has to settle through events: some leaf is not
  /// combinational(), has an InOut port or an unconnected output port, or
  /// drives a primary input, or the leaves form a cycle.
  static std::optional<LevelizedPass> plan(
      Circuit& design, std::vector<Connector*> primaryInputs);

  /// Settles `pattern` (one word per primary input, in order) on
  /// `scheduler`'s slot at its current generation, as
  /// SimulationController::inject + start() would on a fresh or reset()
  /// controller. Throws std::invalid_argument on an arity or width
  /// mismatch.
  void settle(const Scheduler& scheduler, const std::vector<Word>& pattern);

 private:
  struct Step {
    const Module* module;
    std::vector<const Port*> inputs;   // inputPorts() order
    std::vector<Connector*> outputs;   // outputPorts() order
  };

  std::vector<Connector*> pis_;
  std::vector<Step> steps_;  // topological order
  std::vector<Word> in_;     // scratch, reused across steps
  std::vector<Word> out_;
};

}  // namespace vcad
