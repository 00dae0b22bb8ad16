// PackedEvaluator: compiled, levelized, bit-parallel netlist evaluation —
// 64 independent lanes per pass. A lane is one input pattern, optionally
// with its own stuck-at fault: pattern-parallel campaigns put 64 patterns
// against one fault, the detection-table builder puts 64 (configuration,
// fault) pairs into one pass.
//
// The netlist is flattened once into cache-friendly CSR arrays (gate opcode,
// input-net index spans, output net, all in topological order). Four-valued
// logic is encoded as two 64-bit planes per net — `val` (the value bit,
// canonical 0 wherever unknown) and `known` (strong 0/1) — so every gate
// evaluates all 64 lanes with a handful of branch-free bitwise operations.
// A third `z` plane records high impedance; only primary inputs can carry it
// (every gate operator normalizes Z to X, exactly like the scalar 4-valued
// algebra in core/logic.cpp), so the gate loop never touches it.
//
// Stuck-at injection is a per-lane force list: each entry forces a subset of
// one net's lanes to 0 or 1 right after the net's driver evaluates (or at
// input load for a primary-input net). A pass whose lane k carries fault k
// decodes, lane for lane, to the scalar 4-valued evaluation with that fault
// (the differential tests hold it to oracles::ScalarEvaluator in
// tests/oracles); the single-fault evaluate() is the one-entry, all-lanes
// case of the same gate loop. reevaluate() starts from a fault-free
// evaluation and re-runs only the gates from the first one a force can
// reach.
//
// evalOutputs() is the engine's words-in, output-words-out entry point, and
// the library's only combinational evaluator: batched golden runs, the
// event-driven NetlistModule (one lane), the provider's accurate evaluation
// and the sequential shadow machines all call it.
//
// Two-plane forms (per lane; one = known & val, zero = known & ~val):
//   AND : one = AND over inputs' one;  zero = OR  over inputs' zero
//   OR  : one = OR  over inputs' one;  zero = AND over inputs' zero
//   XOR : known = aK & bK;             val = (aV ^ bV) & known
//   NOT : known = aK;                  val = zero(a)
// with known = one | zero, val = one for AND/OR, and the inverting variants
// (NAND/NOR/XNOR) swapping val for its complement within known.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/word.hpp"
#include "gate/netlist.hpp"

namespace vcad::gate {

/// One 64-lane slice of a net: bit k of each plane describes the net's
/// 4-valued value under lane k.
struct LanePlanes {
  std::uint64_t val = 0;    // value bit; canonical 0 where !known
  std::uint64_t known = 0;  // lane holds a strong 0/1
  std::uint64_t z = 0;      // lane is high-impedance (primary inputs only)
};

class PackedEvaluator {
 public:
  /// Lanes evaluated per pass — one per bit of a machine word.
  static constexpr int kLanes = 64;

  explicit PackedEvaluator(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  /// A block of up to kLanes input patterns, transposed into one LanePlanes
  /// per primary input. Pack once, evaluate many times (fault campaigns
  /// reuse the same block for the fault-free pass and every injection).
  struct InputBlock {
    std::vector<LanePlanes> pi;  // per primary input, PI order
    int lanes = 0;
  };

  /// Transposes patterns[begin, begin+lanes) (each one primary-input word)
  /// into an InputBlock. Throws when lanes > kLanes or widths mismatch.
  InputBlock pack(std::span<const Word> patterns, std::size_t begin,
                  std::size_t lanes) const;

  /// Words in, output words out: evaluates inputs[i] (one primary-input
  /// word each) and writes its primary-output word to outputs[i], up to
  /// kLanes patterns per pass, with `fault` (when given) on every lane.
  /// `planes` is the caller's buffer, reused across calls; on return it
  /// holds every net of the last pass, whose first pattern sits in lane 0
  /// (a one-word call leaves that word's net values in lane 0). Throws
  /// std::invalid_argument when the spans' sizes or a word's width differ.
  void evalOutputs(std::span<const Word> inputs, std::span<Word> outputs,
                   std::vector<LanePlanes>& planes,
                   const StuckFault* fault = nullptr) const;

  /// Stuck-at forces on one net: the lanes in `lanes` are forced, to 1 where
  /// `ones` is set and to 0 elsewhere.
  struct LaneForce {
    NetId net = 0;
    std::uint64_t lanes = 0;
    std::uint64_t ones = 0;
  };

  /// Evaluates every lane of `in` in one pass; `planes` is resized to
  /// netCount(). Lanes >= in.lanes decode as X and must be ignored. A fault
  /// applies to every lane.
  void evaluate(const InputBlock& in, std::vector<LanePlanes>& planes,
                const StuckFault* fault = nullptr) const;

  /// Same pass with per-lane forces. `forces` must be ordered by
  /// topoPosition() of their nets (throws std::invalid_argument otherwise);
  /// two entries may name the same net with disjoint lanes.
  void evaluate(const InputBlock& in, std::vector<LanePlanes>& planes,
                std::span<const LaneForce> forces) const;

  /// Applies `forces` to `planes`, which must hold a complete fault-free
  /// evaluation (any mix of inputs per lane), and re-evaluates only the
  /// gates from the first one reading a forced net. The result equals a
  /// full evaluate() of the same lanes with the same forces.
  void reevaluate(std::vector<LanePlanes>& planes,
                  std::span<const LaneForce> forces) const;

  /// Compiled index of the gate driving `net`, or -1 for a primary input:
  /// the order a force list must follow.
  int topoPosition(NetId net) const {
    return driverPos_[static_cast<std::size_t>(net)];
  }

  /// Decodes one lane of one net (one entry of that lane's scalar net-value
  /// vector).
  Logic netValue(const std::vector<LanePlanes>& planes, NetId net,
                 int lane) const;

  /// Decodes one lane's primary-output word.
  Word outputsOf(const std::vector<LanePlanes>& planes, int lane) const;

  /// Lanes (bit k = lane k) where the two runs' primary outputs differ —
  /// exactly Word::operator!= applied per lane, limited to the low `lanes`
  /// bits.
  std::uint64_t outputDiffMask(const std::vector<LanePlanes>& a,
                               const std::vector<LanePlanes>& b,
                               int lanes) const;

 private:
  const Netlist* nl_;
  // Compiled CSR form; index g runs over gates in topological order.
  std::vector<std::uint8_t> op_;       // GateType
  std::vector<std::int32_t> outNet_;
  std::vector<std::int32_t> inBegin_;  // size gates+1; spans into inNets_
  std::vector<std::int32_t> inNets_;
  std::vector<std::int32_t> driverPos_;  // per net: compiled index of its
                                         // driver, or -1 (primary input)
  std::vector<std::int32_t> firstReader_;  // per net: lowest compiled index
                                           // reading it, or gate count

  // The one gate loop: evaluates gates [start, gateCount) over `planes`,
  // applying each force after its net's driver (forces whose driver lies
  // before `start` are applied up front).
  void run(std::vector<LanePlanes>& planes, std::size_t start,
           std::span<const LaneForce> forces) const;
};

}  // namespace vcad::gate
