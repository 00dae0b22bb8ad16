#include "gate/family.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/rng.hpp"
#include "gate/generators.hpp"

namespace vcad::gate {

const char* familyName(CircuitFamily f) {
  switch (f) {
    case CircuitFamily::Cone:
      return "cone";
    case CircuitFamily::Datapath:
      return "datapath";
    case CircuitFamily::Controller:
      return "controller";
  }
  return "?";
}

std::string FamilySpec::name() const {
  return std::string(familyName(family)) + "_s" + std::to_string(scale) +
         "_seed" + std::to_string(seed);
}

void checkGeneratorInvariants(const Netlist& nl) {
  nl.validate();
  const std::vector<NetId> dead = deadInputs(nl, nl.primaryOutputs());
  if (!dead.empty()) {
    std::string msg = "generator invariant violated: dead primary inputs:";
    for (NetId pi : dead) msg += " " + nl.netName(pi);
    throw std::logic_error(msg);
  }
}

std::vector<NetId> embedNetlist(Netlist& dst, const Netlist& src,
                                const std::vector<NetId>& inputs,
                                const std::string& prefix) {
  if (inputs.size() != src.primaryInputs().size()) {
    throw std::invalid_argument("embedNetlist: input binding count mismatch");
  }
  std::vector<NetId> map(static_cast<size_t>(src.netCount()), kNoNet);
  for (size_t i = 0; i < inputs.size(); ++i) {
    map[static_cast<size_t>(src.primaryInputs()[i])] = inputs[i];
  }
  for (int g : src.topoOrder()) {
    const GateNode& gn = src.gates()[static_cast<size_t>(g)];
    std::vector<NetId> ins;
    ins.reserve(gn.inputs.size());
    for (NetId in : gn.inputs) ins.push_back(map[static_cast<size_t>(in)]);
    map[static_cast<size_t>(gn.output)] = dst.addGate(
        gn.type, std::move(ins), prefix + "/" + src.netName(gn.output));
  }
  std::vector<NetId> outs;
  outs.reserve(src.primaryOutputs().size());
  for (NetId o : src.primaryOutputs()) {
    outs.push_back(map[static_cast<size_t>(o)]);
  }
  return outs;
}

Netlist makeRandomCone(std::uint64_t seed, int nInputs, int nGates,
                       int nOutputs) {
  if (nInputs < 2 || nGates < 4 || nOutputs < 1 || nOutputs > nGates) {
    throw std::invalid_argument("makeRandomCone: bad shape");
  }
  // A private stream derived from the caller's seed: the generator never
  // reads global state, so one spec regenerates byte-identically forever.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xC04Eu);
  Netlist nl;
  std::vector<NetId> avail;
  for (int i = 0; i < nInputs; ++i) {
    avail.push_back(nl.addInput("pi" + std::to_string(i)));
  }
  static constexpr GateType kTypes[] = {GateType::And, GateType::Or,
                                        GateType::Nand, GateType::Nor,
                                        GateType::Xor, GateType::Xnor,
                                        GateType::Not};
  // Locality-biased operand selection: most operands come from a sliding
  // window of recent nets (deep local reconvergence); the rest are uniform
  // over everything so far (long-range fanout stems shared across cones).
  const std::size_t window =
      std::max<std::size_t>(12, static_cast<std::size_t>(nInputs));
  auto pick = [&]() -> NetId {
    if (avail.size() > window && rng.chance(0.6)) {
      return avail[avail.size() - 1 - rng.below(window)];
    }
    return avail[rng.below(avail.size())];
  };
  for (int g = 0; g < nGates; ++g) {
    const GateType t = kTypes[rng.below(7)];
    int arity = 2;
    if (t == GateType::Not) {
      arity = 1;
    } else if (t != GateType::Xor && t != GateType::Xnor &&
               rng.chance(0.3)) {
      arity = 3;
    }
    std::vector<NetId> ins;
    for (int k = 0; k < arity; ++k) ins.push_back(pick());
    avail.push_back(nl.addGate(t, std::move(ins)));
  }
  // Outputs prefer sink nets so most of the cone is observable.
  std::vector<NetId> sinks;
  for (NetId n = 0; n < nl.netCount(); ++n) {
    if (!nl.isPrimaryInput(n) && nl.readersOf(n).empty()) sinks.push_back(n);
  }
  std::vector<NetId> chosen;
  for (int i = 0; i < nOutputs; ++i) {
    if (!sinks.empty()) {
      const std::size_t k = rng.below(sinks.size());
      chosen.push_back(sinks[k]);
      sinks.erase(sinks.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      NetId n;
      do {
        n = static_cast<NetId>(
            rng.below(static_cast<std::uint64_t>(nl.netCount())));
      } while (nl.isPrimaryInput(n) ||
               std::find(chosen.begin(), chosen.end(), n) != chosen.end());
      chosen.push_back(n);
    }
  }
  foldDeadInputs(nl, chosen);
  for (NetId n : chosen) nl.markOutput(n);
  checkGeneratorInvariants(nl);
  return nl;
}

Netlist makeMacDatapath(int width, int lanes) {
  if (width < 2 || width > 16 || lanes < 1) {
    throw std::invalid_argument("makeMacDatapath: bad shape");
  }
  Netlist nl;
  const Netlist mult = makeArrayMultiplier(width);
  const Netlist add = makeRippleCarryAdder(2 * width);
  std::vector<NetId> sum;
  std::vector<NetId> couts;
  for (int l = 0; l < lanes; ++l) {
    std::vector<NetId> ops;
    for (int i = 0; i < width; ++i) {
      ops.push_back(nl.addInput("a" + std::to_string(l) + "_" +
                                std::to_string(i)));
    }
    for (int i = 0; i < width; ++i) {
      ops.push_back(nl.addInput("b" + std::to_string(l) + "_" +
                                std::to_string(i)));
    }
    std::vector<NetId> product =
        embedNetlist(nl, mult, ops, "m" + std::to_string(l));
    if (l == 0) {
      sum = std::move(product);
      continue;
    }
    std::vector<NetId> addIns = sum;
    addIns.insert(addIns.end(), product.begin(), product.end());
    std::vector<NetId> stage =
        embedNetlist(nl, add, addIns, "s" + std::to_string(l));
    couts.push_back(stage.back());  // the stage carry-out
    stage.pop_back();
    sum = std::move(stage);
  }
  for (NetId s : sum) nl.markOutput(s);
  for (NetId c : couts) nl.markOutput(c);
  checkGeneratorInvariants(nl);
  return nl;
}

SeqNetlist makeMacPipeline(int width) {
  if (width < 2 || width > 16) {
    throw std::invalid_argument("makeMacPipeline: bad width");
  }
  Netlist nl;
  std::vector<NetId> acc;
  for (int i = 0; i < 2 * width; ++i) {
    acc.push_back(nl.addInput("acc" + std::to_string(i)));
  }
  std::vector<NetId> ops;
  for (int i = 0; i < width; ++i) {
    ops.push_back(nl.addInput("a" + std::to_string(i)));
  }
  for (int i = 0; i < width; ++i) {
    ops.push_back(nl.addInput("b" + std::to_string(i)));
  }
  const std::vector<NetId> product =
      embedNetlist(nl, makeArrayMultiplier(width), ops, "mul");
  std::vector<NetId> addIns = acc;
  addIns.insert(addIns.end(), product.begin(), product.end());
  std::vector<NetId> stage =
      embedNetlist(nl, makeRippleCarryAdder(2 * width), addIns, "add");
  const NetId cout = stage.back();
  stage.pop_back();
  for (NetId s : stage) nl.markOutput(s);  // next-state bits first
  for (NetId a : acc) {
    nl.markOutput(nl.addGate(GateType::Buf, {a}, "o_" + nl.netName(a)));
  }
  nl.markOutput(cout);
  checkGeneratorInvariants(nl);
  return SeqNetlist(std::move(nl), 2 * width, Word::fromUint(2 * width, 0));
}

SeqNetlist makeController(std::uint64_t seed, int stateBits, int inputBits,
                          int outputBits, int nGates) {
  if (stateBits < 1 || inputBits < 1 || outputBits < 1) {
    throw std::invalid_argument("makeController: bad shape");
  }
  Netlist comb = makeRandomCone(seed ^ 0xC7124F5Eu, stateBits + inputBits,
                                nGates, stateBits + outputBits);
  return SeqNetlist(std::move(comb), stateBits,
                    Word::fromUint(stateBits, 0));
}

namespace {
/// Per-scale shapes. Each +1 in scale roughly quadruples the gate count;
/// primary-input counts stay <= 64 so every family point remains evaluable
/// through the Word-based packed engine (and the scalar test oracle).
struct ConeShape {
  int inputs, gates, outputs;
};
ConeShape coneShape(int scale) {
  return ConeShape{8 * (scale + 1), 48 << (2 * scale), 4 * (scale + 1)};
}
struct MacShape {
  int width, lanes;
};
MacShape macShape(int scale) {
  switch (scale) {
    case 0:
      return MacShape{4, 2};
    case 1:
      return MacShape{8, 2};
    case 2:
      return MacShape{8, 4};
    case 3:
      return MacShape{16, 2};
    default:
      throw std::invalid_argument(
          "datapath family caps at scale 3 as one netlist (64-bit Word "
          "primary-input limit); larger datapaths are built as block "
          "designs");
  }
}
void checkScale(int scale) {
  if (scale < 0 || scale > 8) {
    throw std::invalid_argument("family scale out of range [0, 8]");
  }
}
}  // namespace

Netlist makeFamilyNetlist(const FamilySpec& spec) {
  checkScale(spec.scale);
  switch (spec.family) {
    case CircuitFamily::Cone: {
      const ConeShape s = coneShape(spec.scale);
      return makeRandomCone(spec.seed, s.inputs, s.gates, s.outputs);
    }
    case CircuitFamily::Datapath: {
      // Structurally deterministic: the datapath's shape is a function of
      // scale alone (the seed selects nothing).
      const MacShape s = macShape(spec.scale);
      return makeMacDatapath(s.width, s.lanes);
    }
    case CircuitFamily::Controller:
      return makeFamilyMachine(spec).comb();
  }
  throw std::invalid_argument("unknown family");
}

SeqNetlist makeFamilyMachine(const FamilySpec& spec) {
  checkScale(spec.scale);
  if (spec.family != CircuitFamily::Controller) {
    throw std::invalid_argument("makeFamilyMachine: not a sequential family");
  }
  return makeController(spec.seed, 4 + 2 * spec.scale, 4 + spec.scale,
                        4 + spec.scale, 48 << (2 * spec.scale));
}

}  // namespace vcad::gate
