// Sequential netlists: a combinational core plus a state register, in the
// classic Huffman model. This is the substrate for the paper's claimed
// extension of virtual fault simulation "to general fault models and
// sequential circuits".
//
// Convention: the first `stateBits` primary inputs of the combinational
// core are the current-state bits, and the first `stateBits` primary
// outputs are the next-state bits. The remaining pins are the machine's
// real inputs and outputs.
#pragma once

#include <memory>
#include <optional>

#include "core/rng.hpp"
#include "gate/netlist.hpp"
#include "gate/packed_eval.hpp"

namespace vcad::gate {

class SeqNetlist {
 public:
  SeqNetlist(Netlist comb, int stateBits, Word resetState);

  const Netlist& comb() const { return comb_; }
  int stateBits() const { return stateBits_; }
  int inputBits() const { return comb_.inputCount() - stateBits_; }
  int outputBits() const { return comb_.outputCount() - stateBits_; }
  const Word& resetState() const { return resetState_; }

  /// Packs (state, inputs) into the combinational core's PI word.
  Word packInputs(const Word& state, const Word& inputs) const;

  /// Splits the core's PO word into {nextState, outputs}.
  std::pair<Word, Word> splitOutputs(const Word& combOutputs) const;

 private:
  Netlist comb_;
  int stateBits_;
  Word resetState_;
};

/// Steps a sequential machine, optionally with a persistent stuck-at fault
/// in the combinational core (the standard sequential fault model: the
/// fault is present on every cycle and corrupts both outputs and next
/// state). Each step is one lane of the packed engine compiled from
/// seq.comb(); `seq` must outlive the evaluator.
class SeqEvaluator {
 public:
  /// Compiles its own engine.
  explicit SeqEvaluator(const SeqNetlist& seq,
                        std::optional<StuckFault> fault = {});

  /// Shares `engine`, which must be compiled from this very `seq`'s core
  /// (throws std::invalid_argument otherwise, so an engine never points
  /// into a different, possibly shorter-lived, copy of the machine). The
  /// shadow machines of one fault block share one engine this way.
  SeqEvaluator(const SeqNetlist& seq,
               std::shared_ptr<const PackedEvaluator> engine,
               std::optional<StuckFault> fault = {});

  const Word& state() const { return state_; }
  void reset();
  void setState(Word state);

  /// One clock cycle: returns the machine outputs for `inputs` and advances
  /// the state register.
  Word step(const Word& inputs);

  /// Runs a whole input sequence from reset; returns per-cycle outputs.
  std::vector<Word> run(const std::vector<Word>& inputSequence);

 private:
  const SeqNetlist* seq_;
  std::shared_ptr<const PackedEvaluator> engine_;
  std::optional<StuckFault> fault_;
  Word state_;
};

// --- generators --------------------------------------------------------

/// Up-counter with enable: input {en}; output = counter value; state =
/// counter bits.
SeqNetlist makeCounter(int width);

/// Galois LFSR with enable input and serial-in XOR tap; output = register.
SeqNetlist makeLfsr(int width, std::uint64_t taps);

/// Accumulator: state += input when en; inputs {en, d[width]}; output =
/// accumulator value.
SeqNetlist makeAccumulator(int width);

/// Random Moore machine: random combinational next-state/output logic over
/// `stateBits` state bits and `inputBits` inputs.
SeqNetlist makeRandomMachine(Rng& rng, int stateBits, int inputBits,
                             int outputBits, int gates);

}  // namespace vcad::gate
