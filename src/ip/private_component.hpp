// PrivateComponent: the part of an IP component that never leaves the
// provider's server — the gate-level netlist and every computation that
// needs it (accurate evaluation, toggle-count power, timing, area, fault
// characterization, detection tables).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "fault/detection.hpp"
#include "fault/model.hpp"
#include "gate/metrics.hpp"
#include "gate/netlist.hpp"

namespace vcad::ip {

class PrivateComponent {
 public:
  /// `computeScale` repeats the accurate evaluation per call; it calibrates
  /// the server's per-event compute cost to a heavyweight simulator backend
  /// (the Verilog-XL/PPP process of the paper's testbed) for the timing
  /// experiments. Functional results are unaffected.
  PrivateComponent(std::shared_ptr<const gate::Netlist> netlist,
                   gate::TechParams tech = {}, bool dominance = true,
                   int computeScale = 1);

  int inputWidth() const { return netlist_->inputCount(); }
  int outputWidth() const { return netlist_->outputCount(); }

  /// Accurate functional evaluation; records the input in the server-side
  /// pattern history (the paper's "buffers the patterns remotely" MR case).
  Word eval(const Word& inputs);

  /// Gate-level toggle-count average power over `patterns`; with an empty
  /// argument, the history recorded by eval() is used instead. Returns the
  /// number of patterns billed through `billedPatterns`.
  double powerMw(const std::vector<Word>& patterns,
                 std::size_t& billedPatterns);

  double timingNs() const;
  double areaUm2() const;

  /// Phase-1 data for virtual fault simulation.
  std::vector<std::string> faultList() const;

  /// Phase-2 data: one detection table per input configuration, in order,
  /// built on the packed bit-parallel engine (64 configurations per fault
  /// pass), each as its serialized bytes.
  std::vector<cache::Value> serializedTables(
      const std::vector<Word>& inputs) const;

  const gate::Netlist& netlist() const { return *netlist_; }
  std::size_t evalCount() const;

 private:
  std::shared_ptr<const gate::Netlist> netlist_;
  gate::NetlistEvaluator evaluator_;
  gate::PackedEvaluator packed_;
  gate::TechParams tech_;
  fault::CollapsedFaults collapsed_;
  int computeScale_;

  mutable std::mutex mutex_;
  std::vector<Word> history_;
  std::size_t evalCount_ = 0;
};

}  // namespace vcad::ip
