// Detection tables: the dynamic, per-pattern testability information an IP
// provider returns during virtual fault simulation.
//
// For one input configuration of a component, the table lists every
// erroneous output pattern the component could produce under one of its
// internal (collapsed, symbolically named) stuck-at faults, together with
// the faults causing each error. The table is a local, IP-sensitive
// *parameter* (it derives from ParamValue), independently evaluable by the
// provider: it reveals input/output behaviour only, never structure.
#pragma once

#include <string>
#include <vector>

#include "core/estimation.hpp"
#include "fault/model.hpp"
#include "gate/packed_eval.hpp"
#include "net/serialize.hpp"

namespace vcad::fault {

class DetectionTable final : public ParamValue {
 public:
  struct Row {
    Word faultyOutput;
    std::vector<std::string> faults;  // symbolic names
  };

  DetectionTable() = default;
  DetectionTable(Word inputs, Word faultFreeOutput, std::vector<Row> rows)
      : inputs_(std::move(inputs)),
        faultFree_(std::move(faultFreeOutput)),
        rows_(std::move(rows)) {}

  const Word& inputs() const { return inputs_; }
  const Word& faultFreeOutput() const { return faultFree_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// The faulty output a given symbolic fault would produce, or nullptr when
  /// the fault is not excited by this input configuration.
  const Word* faultyOutputFor(const std::string& symbol) const;

  /// All faults producing a given erroneous output (empty when absent).
  std::vector<std::string> faultsFor(const Word& faultyOutput) const;

  std::size_t excitedFaultCount() const;

  std::string toString() const override;

  void serialize(net::ByteBuffer& buf) const;
  static DetectionTable deserialize(net::ByteBuffer& buf);

 private:
  Word inputs_;
  Word faultFree_;
  std::vector<Row> rows_;
};

/// Provider-side construction: simulate the component under every collapsed
/// fault for `inputs` and group the erroneous outputs. Deterministic row
/// order (by output pattern string).
DetectionTable buildDetectionTable(const gate::NetlistEvaluator& eval,
                                   const CollapsedFaults& collapsed,
                                   const Word& inputs);

/// Batched provider-side construction on the packed bit-parallel engine:
/// each lane of a pass holds one (configuration, collapsed fault) pair,
/// filled configuration-major, so a one-configuration call takes ⌈F/64⌉
/// passes for F faults and C configurations never take more than ⌈C/64⌉·F.
/// Every pass starts from the fault-free planes and re-evaluates only from
/// its first forced gate. The returned tables (one per input, same order)
/// are identical to calling buildDetectionTable per configuration.
std::vector<DetectionTable> buildDetectionTables(
    const gate::PackedEvaluator& packed, const CollapsedFaults& collapsed,
    const std::vector<Word>& inputs);

}  // namespace vcad::fault
