#include "gate/seq_netlist.hpp"

#include "gate/generators.hpp"

#include <stdexcept>

namespace vcad::gate {

SeqNetlist::SeqNetlist(Netlist comb, int stateBits, Word resetState)
    : comb_(std::move(comb)), stateBits_(stateBits),
      resetState_(std::move(resetState)) {
  if (stateBits < 0 || stateBits > comb_.inputCount() ||
      stateBits > comb_.outputCount()) {
    throw std::invalid_argument("SeqNetlist: bad state width");
  }
  if (resetState_.width() != stateBits) {
    throw std::invalid_argument("SeqNetlist: reset state width mismatch");
  }
  comb_.validate();
}

Word SeqNetlist::packInputs(const Word& state, const Word& inputs) const {
  if (state.width() != stateBits_ || inputs.width() != inputBits()) {
    throw std::invalid_argument("SeqNetlist::packInputs: width mismatch");
  }
  return Word::concat(inputs, state);  // state occupies the low PI bits
}

std::pair<Word, Word> SeqNetlist::splitOutputs(const Word& combOutputs) const {
  if (combOutputs.width() != comb_.outputCount()) {
    throw std::invalid_argument("SeqNetlist::splitOutputs: width mismatch");
  }
  return {combOutputs.slice(0, stateBits_),
          combOutputs.slice(stateBits_, outputBits())};
}

SeqEvaluator::SeqEvaluator(const SeqNetlist& seq,
                           std::optional<StuckFault> fault)
    : SeqEvaluator(seq, std::make_shared<const PackedEvaluator>(seq.comb()),
                   fault) {}

SeqEvaluator::SeqEvaluator(const SeqNetlist& seq,
                           std::shared_ptr<const PackedEvaluator> engine,
                           std::optional<StuckFault> fault)
    : seq_(&seq),
      engine_(std::move(engine)),
      fault_(fault),
      state_(seq.resetState()) {
  if (engine_ == nullptr || &engine_->netlist() != &seq.comb()) {
    throw std::invalid_argument(
        "SeqEvaluator: engine not compiled from this machine's core");
  }
}

void SeqEvaluator::reset() { state_ = seq_->resetState(); }

void SeqEvaluator::setState(Word state) {
  if (state.width() != seq_->stateBits()) {
    throw std::invalid_argument("SeqEvaluator::setState: width mismatch");
  }
  state_ = std::move(state);
}

Word SeqEvaluator::step(const Word& inputs) {
  thread_local std::vector<LanePlanes> planes;
  const Word combIn = seq_->packInputs(state_, inputs);
  Word combOut;
  engine_->evalOutputs(std::span<const Word>(&combIn, 1),
                       std::span<Word>(&combOut, 1), planes,
                       fault_ ? &*fault_ : nullptr);
  auto [nextState, outputs] = seq_->splitOutputs(combOut);
  state_ = std::move(nextState);
  return outputs;
}

std::vector<Word> SeqEvaluator::run(const std::vector<Word>& inputSequence) {
  reset();
  std::vector<Word> out;
  out.reserve(inputSequence.size());
  for (const Word& in : inputSequence) out.push_back(step(in));
  return out;
}

// --- generators --------------------------------------------------------

SeqNetlist makeCounter(int width) {
  if (width < 1) throw std::invalid_argument("counter width must be >= 1");
  Netlist nl;
  std::vector<NetId> q;
  for (int i = 0; i < width; ++i) q.push_back(nl.addInput("q" + std::to_string(i)));
  const NetId en = nl.addInput("en");
  // next[i] = q[i] XOR (en AND carry_i); carry_0 = 1.
  std::vector<NetId> next;
  NetId carry = nl.addGate(GateType::Const1, {}, "c0");
  for (int i = 0; i < width; ++i) {
    const NetId t = nl.addGate(GateType::And, {en, carry}, "t" + std::to_string(i));
    next.push_back(nl.addGate(GateType::Xor, {q[static_cast<size_t>(i)], t},
                              "n" + std::to_string(i)));
    carry = nl.addGate(GateType::And, {carry, q[static_cast<size_t>(i)]},
                       "cy" + std::to_string(i));
  }
  for (NetId n : next) nl.markOutput(n);  // next-state bits first
  for (NetId b : q) {
    nl.markOutput(nl.addGate(GateType::Buf, {b}, "o" + nl.netName(b)));
  }
  return SeqNetlist(std::move(nl), width, Word::fromUint(width, 0));
}

SeqNetlist makeLfsr(int width, std::uint64_t taps) {
  if (width < 2 || width > 32) {
    throw std::invalid_argument("lfsr width must be in [2, 32]");
  }
  Netlist nl;
  std::vector<NetId> q;
  for (int i = 0; i < width; ++i) q.push_back(nl.addInput("q" + std::to_string(i)));
  const NetId en = nl.addInput("en");
  const NetId enN = nl.addGate(GateType::Not, {en}, "enN");
  // Feedback bit = XOR of tapped positions.
  NetId fb = kNoNet;
  for (int i = 0; i < width; ++i) {
    if (((taps >> i) & 1) == 0) continue;
    fb = (fb == kNoNet)
             ? nl.addGate(GateType::Buf, {q[static_cast<size_t>(i)]},
                          "fb" + std::to_string(i))
             : nl.addGate(GateType::Xor, {fb, q[static_cast<size_t>(i)]},
                          "fbx" + std::to_string(i));
  }
  if (fb == kNoNet) throw std::invalid_argument("lfsr needs at least one tap");
  // next[0] = en ? fb : q[0]; next[i] = en ? q[i-1] : q[i].
  std::vector<NetId> next;
  for (int i = 0; i < width; ++i) {
    const NetId shifted = i == 0 ? fb : q[static_cast<size_t>(i - 1)];
    const NetId a = nl.addGate(GateType::And, {en, shifted},
                               "sa" + std::to_string(i));
    const NetId h = nl.addGate(GateType::And, {enN, q[static_cast<size_t>(i)]},
                               "sh" + std::to_string(i));
    next.push_back(nl.addGate(GateType::Or, {a, h}, "nx" + std::to_string(i)));
  }
  for (NetId n : next) nl.markOutput(n);
  for (int i = 0; i < width; ++i) {
    nl.markOutput(nl.addGate(GateType::Buf, {q[static_cast<size_t>(i)]},
                             "out" + std::to_string(i)));
  }
  return SeqNetlist(std::move(nl), width, Word::fromUint(width, 1));
}

SeqNetlist makeAccumulator(int width) {
  if (width < 1) throw std::invalid_argument("accumulator width must be >= 1");
  Netlist nl;
  std::vector<NetId> acc;
  for (int i = 0; i < width; ++i) acc.push_back(nl.addInput("acc" + std::to_string(i)));
  const NetId en = nl.addInput("en");
  std::vector<NetId> d;
  for (int i = 0; i < width; ++i) d.push_back(nl.addInput("d" + std::to_string(i)));
  // sum = acc + d (mod 2^width); next = en ? sum : acc.
  const NetId enN = nl.addGate(GateType::Not, {en}, "enN");
  NetId carry = nl.addGate(GateType::Const0, {}, "c0");
  std::vector<NetId> next;
  for (int i = 0; i < width; ++i) {
    const NetId a = acc[static_cast<size_t>(i)];
    const NetId b = d[static_cast<size_t>(i)];
    const NetId axb = nl.addGate(GateType::Xor, {a, b}, "axb" + std::to_string(i));
    const NetId sum = nl.addGate(GateType::Xor, {axb, carry}, "s" + std::to_string(i));
    const NetId g = nl.addGate(GateType::And, {a, b}, "g" + std::to_string(i));
    const NetId p = nl.addGate(GateType::And, {axb, carry}, "p" + std::to_string(i));
    carry = nl.addGate(GateType::Or, {g, p}, "cy" + std::to_string(i));
    const NetId take = nl.addGate(GateType::And, {en, sum}, "tk" + std::to_string(i));
    const NetId hold = nl.addGate(GateType::And, {enN, a}, "hd" + std::to_string(i));
    next.push_back(nl.addGate(GateType::Or, {take, hold}, "nx" + std::to_string(i)));
  }
  for (NetId n : next) nl.markOutput(n);
  for (NetId a : acc) {
    nl.markOutput(nl.addGate(GateType::Buf, {a}, "o" + nl.netName(a)));
  }
  return SeqNetlist(std::move(nl), width, Word::fromUint(width, 0));
}

SeqNetlist makeRandomMachine(Rng& rng, int stateBits, int inputBits,
                             int outputBits, int gates) {
  // Build random logic over state+input bits, then pick nets for next-state
  // and outputs.
  const Netlist base =
      makeRandomNetlist(rng, stateBits + inputBits, gates,
                        stateBits + outputBits);
  return SeqNetlist(base, stateBits,
                    Word::fromUint(stateBits, rng.next()));
}

}  // namespace vcad::gate
