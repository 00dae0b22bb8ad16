#include "gate/packed_eval.hpp"

#include <algorithm>
#include <stdexcept>

namespace vcad::gate {

PackedEvaluator::PackedEvaluator(const Netlist& nl) : nl_(&nl) {
  const std::vector<int> topo = nl.topoOrder();
  const std::size_t nGates = topo.size();
  op_.reserve(nGates);
  outNet_.reserve(nGates);
  inBegin_.reserve(nGates + 1);
  driverPos_.assign(static_cast<std::size_t>(nl.netCount()), -1);
  firstReader_.assign(static_cast<std::size_t>(nl.netCount()),
                      static_cast<std::int32_t>(nGates));
  inBegin_.push_back(0);
  for (std::size_t pos = 0; pos < nGates; ++pos) {
    const GateNode& gn = nl.gates()[static_cast<std::size_t>(topo[pos])];
    op_.push_back(static_cast<std::uint8_t>(gn.type));
    outNet_.push_back(gn.output);
    for (NetId in : gn.inputs) {
      inNets_.push_back(in);
      std::int32_t& first = firstReader_[static_cast<std::size_t>(in)];
      first = std::min(first, static_cast<std::int32_t>(pos));
    }
    inBegin_.push_back(static_cast<std::int32_t>(inNets_.size()));
    driverPos_[static_cast<std::size_t>(gn.output)] =
        static_cast<std::int32_t>(pos);
  }
}

namespace {

/// Transposes `words` (word l = lane l) into one LanePlanes per primary
/// input: bit i of word l lands in lane l of slot(i).
template <typename Slot>
void transpose(std::span<const Word> words, int nPi, Slot slot) {
  for (std::size_t l = 0; l < words.size(); ++l) {
    const Word& w = words[l];
    if (w.width() != nPi) {
      throw std::invalid_argument("PackedEvaluator: pattern width " +
                                  std::to_string(w.width()) + " != PI count " +
                                  std::to_string(nPi));
    }
    const std::uint64_t v = w.valuePlane();
    const std::uint64_t k = w.knownPlane();
    const std::uint64_t z = w.zPlane();
    for (int i = 0; i < nPi; ++i) {
      LanePlanes& p = slot(i);
      p.val |= ((v >> i) & 1u) << l;
      p.known |= ((k >> i) & 1u) << l;
      p.z |= ((z >> i) & 1u) << l;
    }
  }
}

inline void force(LanePlanes& p, const PackedEvaluator::LaneForce& f) {
  p.known |= f.lanes;
  p.val = (p.val & ~f.lanes) | (f.ones & f.lanes);
  p.z &= ~f.lanes;
}

/// One stuck-at fault on every lane.
PackedEvaluator::LaneForce allLanes(const StuckFault& fault) {
  return {fault.net, ~0ULL, fault.stuck == Logic::L1 ? ~0ULL : 0ULL};
}

}  // namespace

PackedEvaluator::InputBlock PackedEvaluator::pack(
    std::span<const Word> patterns, std::size_t begin,
    std::size_t lanes) const {
  if (lanes > static_cast<std::size_t>(kLanes)) {
    throw std::invalid_argument("PackedEvaluator::pack: more than 64 lanes");
  }
  if (begin + lanes > patterns.size()) {
    throw std::out_of_range("PackedEvaluator::pack: pattern range");
  }
  InputBlock block;
  block.pi.assign(static_cast<std::size_t>(nl_->inputCount()), LanePlanes{});
  block.lanes = static_cast<int>(lanes);
  transpose(patterns.subspan(begin, lanes), nl_->inputCount(),
            [&](int i) -> LanePlanes& {
              return block.pi[static_cast<std::size_t>(i)];
            });
  return block;
}

void PackedEvaluator::evalOutputs(std::span<const Word> inputs,
                                  std::span<Word> outputs,
                                  std::vector<LanePlanes>& planes,
                                  const StuckFault* fault) const {
  if (outputs.size() != inputs.size()) {
    throw std::invalid_argument(
        "PackedEvaluator::evalOutputs: output count != input count");
  }
  LaneForce all;
  std::span<const LaneForce> forces;
  if (fault != nullptr) {
    all = allLanes(*fault);
    forces = std::span<const LaneForce>(&all, 1);
  }
  const auto& pis = nl_->primaryInputs();
  for (std::size_t base = 0; base < inputs.size(); base += kLanes) {
    const std::size_t lanes =
        std::min<std::size_t>(kLanes, inputs.size() - base);
    planes.assign(static_cast<std::size_t>(nl_->netCount()), LanePlanes{});
    transpose(inputs.subspan(base, lanes), nl_->inputCount(),
              [&](int i) -> LanePlanes& {
                return planes[static_cast<std::size_t>(
                    pis[static_cast<std::size_t>(i)])];
              });
    run(planes, 0, forces);
    for (std::size_t l = 0; l < lanes; ++l) {
      outputs[base + l] = outputsOf(planes, static_cast<int>(l));
    }
  }
}

void PackedEvaluator::evaluate(const InputBlock& in,
                               std::vector<LanePlanes>& planes,
                               const StuckFault* fault) const {
  if (fault == nullptr) {
    evaluate(in, planes, std::span<const LaneForce>{});
    return;
  }
  const LaneForce all = allLanes(*fault);
  evaluate(in, planes, std::span<const LaneForce>(&all, 1));
}

void PackedEvaluator::evaluate(const InputBlock& in,
                               std::vector<LanePlanes>& planes,
                               std::span<const LaneForce> forces) const {
  const auto& pis = nl_->primaryInputs();
  if (in.pi.size() != pis.size()) {
    throw std::invalid_argument("PackedEvaluator: input block arity mismatch");
  }
  planes.assign(static_cast<std::size_t>(nl_->netCount()), LanePlanes{});
  for (std::size_t i = 0; i < pis.size(); ++i) {
    planes[static_cast<std::size_t>(pis[i])] = in.pi[i];
  }
  run(planes, 0, forces);
}

void PackedEvaluator::reevaluate(std::vector<LanePlanes>& planes,
                                 std::span<const LaneForce> forces) const {
  if (planes.size() != static_cast<std::size_t>(nl_->netCount())) {
    throw std::invalid_argument("PackedEvaluator::reevaluate: plane count");
  }
  // Gates before the first reader of any forced net see only fault-free
  // inputs, so their fault-free planes already are the answer.
  std::size_t start = op_.size();
  for (const LaneForce& f : forces) {
    const std::size_t net = static_cast<std::size_t>(f.net);
    if (net >= firstReader_.size()) {
      throw std::invalid_argument("PackedEvaluator: force on unknown net");
    }
    start = std::min(start, static_cast<std::size_t>(firstReader_[net]));
  }
  run(planes, start, forces);
}

void PackedEvaluator::run(std::vector<LanePlanes>& planes, std::size_t start,
                          std::span<const LaneForce> forces) const {
  std::size_t next = 0;  // first force not yet applied
  for (std::size_t i = 0; i < forces.size(); ++i) {
    const std::size_t net = static_cast<std::size_t>(forces[i].net);
    if (net >= driverPos_.size()) {
      throw std::invalid_argument("PackedEvaluator: force on unknown net");
    }
    if (i > 0 && driverPos_[net] < topoPosition(forces[i - 1].net)) {
      throw std::invalid_argument(
          "PackedEvaluator: force list not in topological order");
    }
    if (driverPos_[net] < static_cast<std::int32_t>(start)) {
      force(planes[net], forces[i]);
      next = i + 1;
    }
  }
  std::int32_t forceAt = next < forces.size() ? topoPosition(forces[next].net)
                                              : -1;
  const std::size_t nGates = op_.size();
  for (std::size_t g = start; g < nGates; ++g) {
    const std::int32_t* ins = inNets_.data() + inBegin_[g];
    const int n = inBegin_[g + 1] - inBegin_[g];
    std::uint64_t v = 0, k = 0;
    switch (static_cast<GateType>(op_[g])) {
      case GateType::Const0:
        k = ~0ULL;
        break;
      case GateType::Const1:
        v = ~0ULL;
        k = ~0ULL;
        break;
      case GateType::Buf: {
        const LanePlanes& a = planes[static_cast<std::size_t>(ins[0])];
        v = a.val;
        k = a.known;
        break;
      }
      case GateType::Not: {
        const LanePlanes& a = planes[static_cast<std::size_t>(ins[0])];
        v = a.known & ~a.val;
        k = a.known;
        break;
      }
      case GateType::Xor: {
        const LanePlanes& a = planes[static_cast<std::size_t>(ins[0])];
        const LanePlanes& b = planes[static_cast<std::size_t>(ins[1])];
        k = a.known & b.known;
        v = (a.val ^ b.val) & k;
        break;
      }
      case GateType::Xnor: {
        const LanePlanes& a = planes[static_cast<std::size_t>(ins[0])];
        const LanePlanes& b = planes[static_cast<std::size_t>(ins[1])];
        k = a.known & b.known;
        v = ~(a.val ^ b.val) & k;
        break;
      }
      case GateType::And:
      case GateType::Nand: {
        std::uint64_t one = ~0ULL, zero = 0ULL;
        for (int i = 0; i < n; ++i) {
          const LanePlanes& a = planes[static_cast<std::size_t>(ins[i])];
          one &= a.val;                 // val is canonical: val == known & val
          zero |= a.known & ~a.val;
        }
        k = one | zero;
        v = static_cast<GateType>(op_[g]) == GateType::And ? one : zero;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        std::uint64_t one = 0ULL, zero = ~0ULL;
        for (int i = 0; i < n; ++i) {
          const LanePlanes& a = planes[static_cast<std::size_t>(ins[i])];
          one |= a.val;
          zero &= a.known & ~a.val;
        }
        k = one | zero;
        v = static_cast<GateType>(op_[g]) == GateType::Or ? one : zero;
        break;
      }
    }
    LanePlanes& out = planes[static_cast<std::size_t>(outNet_[g])];
    out.val = v;
    out.known = k;
    out.z = 0;
    while (static_cast<std::int32_t>(g) == forceAt) {
      force(out, forces[next]);
      ++next;
      forceAt = next < forces.size() ? topoPosition(forces[next].net) : -1;
    }
  }
}

Logic PackedEvaluator::netValue(const std::vector<LanePlanes>& planes,
                                NetId net, int lane) const {
  const LanePlanes& p = planes.at(static_cast<std::size_t>(net));
  const std::uint64_t m = 1ULL << lane;
  if (p.known & m) return (p.val & m) ? Logic::L1 : Logic::L0;
  return (p.z & m) ? Logic::Z : Logic::X;
}

Word PackedEvaluator::outputsOf(const std::vector<LanePlanes>& planes,
                                int lane) const {
  // Output i's lane bit lands at bit i of each of the word's planes.
  const auto& pos = nl_->primaryOutputs();
  if (pos.size() > static_cast<std::size_t>(Word::kMaxWidth)) {
    throw std::invalid_argument("PackedEvaluator: " +
                                std::to_string(pos.size()) +
                                " primary outputs exceed a Word");
  }
  std::uint64_t val = 0, known = 0, z = 0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const LanePlanes& p = planes[static_cast<std::size_t>(pos[i])];
    val |= (p.val >> lane & 1) << i;
    known |= (p.known >> lane & 1) << i;
    z |= (p.z >> lane & 1) << i;
  }
  return Word::fromPlanes(static_cast<int>(pos.size()), val, known, z);
}

std::uint64_t PackedEvaluator::outputDiffMask(
    const std::vector<LanePlanes>& a, const std::vector<LanePlanes>& b,
    int lanes) const {
  std::uint64_t diff = 0;
  for (NetId po : nl_->primaryOutputs()) {
    const LanePlanes& pa = a[static_cast<std::size_t>(po)];
    const LanePlanes& pb = b[static_cast<std::size_t>(po)];
    // Canonical planes make value identity plane identity, so a lane differs
    // iff any plane bit differs — exactly Word::operator!=.
    diff |= (pa.val ^ pb.val) | (pa.known ^ pb.known) | (pa.z ^ pb.z);
  }
  if (lanes >= kLanes) return diff;
  return diff & ((1ULL << lanes) - 1);
}

}  // namespace vcad::gate
