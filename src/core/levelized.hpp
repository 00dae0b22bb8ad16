// LevelizedPass: settles a fault-free run of a combinational design in one
// topological pass of Module::evaluate() calls instead of through the event
// scheduler.
//
// When every leaf of a design is combinational() (a pure zero-delay function
// of its inputs) and the leaves form an acyclic graph, the value an
// event-driven run leaves on each connector after its primary inputs are
// driven at t=0 depends on the primary-input words alone: every activated
// module's last evaluation sees its final inputs. The pass computes those
// values directly. It writes the primary-input words into each run's slot,
// then evaluates the activated leaves in topological order (Kahn over
// connector drivers), reading each one's input connectors and writing its
// output connectors. No token, delta cycle or module state is involved.
//
// The pass settles a batch of runs at once (a campaign's table batch of
// fault-free runs): per leaf it gathers every run's input words and makes
// one batched Module::evaluate call, so a leaf whose function has a fixed
// per-call cost (a remote component's public part, a packed netlist
// evaluator) pays it once per batch instead of once per pattern.
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
#include <span>
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

  /// Settles a batch: patterns[r] (one word per primary input, in order)
  /// on runs[r]'s slot at its current generation, for every r, as
  /// SimulationController::inject + start() would on fresh or reset()
  /// controllers. Each activated leaf is evaluated once for the whole
  /// batch: its input words are gathered from every run, one
  /// Module::evaluate call computes them pattern-major, and each run's
  /// outputs are scattered back to its slot. A single run passes one
  /// scheduler. Throws std::invalid_argument when the spans differ in
  /// length, on an arity mismatch (before anything is written) or a width
  /// mismatch.
  void settle(std::span<const Scheduler* const> runs,
              std::span<const std::vector<Word>> patterns);

 private:
  struct Step {
    const Module* module;
    std::vector<const Port*> inputs;   // inputPorts() order
    std::vector<Connector*> outputs;   // outputPorts() order
  };

  std::vector<Connector*> pis_;
  std::vector<Step> steps_;  // topological order
  std::vector<Word> in_;     // scratch, pattern-major, reused across steps
  std::vector<Word> out_;
};

}  // namespace vcad
