#include "gate/netlist.hpp"

#include <algorithm>
#include <stdexcept>

namespace vcad::gate {

std::string toString(GateType t) {
  switch (t) {
    case GateType::Buf:
      return "BUF";
    case GateType::Not:
      return "NOT";
    case GateType::And:
      return "AND";
    case GateType::Or:
      return "OR";
    case GateType::Nand:
      return "NAND";
    case GateType::Nor:
      return "NOR";
    case GateType::Xor:
      return "XOR";
    case GateType::Xnor:
      return "XNOR";
    case GateType::Const0:
      return "CONST0";
    case GateType::Const1:
      return "CONST1";
  }
  return "?";
}

std::pair<int, int> arityOf(GateType t) {
  switch (t) {
    case GateType::Buf:
    case GateType::Not:
      return {1, 1};
    case GateType::Const0:
    case GateType::Const1:
      return {0, 0};
    case GateType::Xor:
    case GateType::Xnor:
      return {2, 2};
    default:
      return {2, -1};
  }
}

Logic evalGate(GateType t, const Logic* ins, int n) {
  const auto [lo, hi] = arityOf(t);
  if (n < lo || (hi >= 0 && n > hi)) {
    throw std::invalid_argument("evalGate: " + toString(t) + " with " +
                                std::to_string(n) + " inputs");
  }
  switch (t) {
    case GateType::Const0:
      return Logic::L0;
    case GateType::Const1:
      return Logic::L1;
    case GateType::Buf:
      return logicBuf(ins[0]);
    case GateType::Not:
      return logicNot(ins[0]);
    case GateType::Xor:
      return logicXor(ins[0], ins[1]);
    case GateType::Xnor:
      return logicXnor(ins[0], ins[1]);
    case GateType::And:
    case GateType::Nand: {
      Logic acc = Logic::L1;
      for (int i = 0; i < n; ++i) acc = logicAnd(acc, ins[i]);
      return t == GateType::And ? acc : logicNot(acc);
    }
    case GateType::Or:
    case GateType::Nor: {
      Logic acc = Logic::L0;
      for (int i = 0; i < n; ++i) acc = logicOr(acc, ins[i]);
      return t == GateType::Or ? acc : logicNot(acc);
    }
  }
  return Logic::X;
}

// --- Netlist ---------------------------------------------------------------

NetId Netlist::addNet(std::string name) {
  const NetId id = static_cast<NetId>(nets_.size());
  if (name.empty()) name = "n" + std::to_string(id);
  nets_.push_back(Net{std::move(name), -1, false, false, {}});
  return id;
}

NetId Netlist::addInput(std::string name) {
  const NetId id = addNet(std::move(name));
  nets_[static_cast<size_t>(id)].isInput = true;
  inputs_.push_back(id);
  return id;
}

void Netlist::markOutput(NetId net) {
  auto& n = nets_.at(static_cast<size_t>(net));
  if (n.isOutput) {
    throw std::logic_error("net '" + n.name + "' already marked as output");
  }
  n.isOutput = true;
  outputs_.push_back(net);
}

NetId Netlist::addGate(GateType type, std::vector<NetId> inputs,
                       std::string outName) {
  const NetId out = addNet(std::move(outName));
  addGateDriving(type, std::move(inputs), out);
  return out;
}

void Netlist::addGateDriving(GateType type, std::vector<NetId> inputs,
                             NetId out) {
  auto [lo, hi] = arityOf(type);
  const int n = static_cast<int>(inputs.size());
  if (n < lo || (hi >= 0 && n > hi)) {
    throw std::invalid_argument("gate " + toString(type) + " with " +
                                std::to_string(n) + " inputs");
  }
  auto& outNet = nets_.at(static_cast<size_t>(out));
  if (outNet.driver != -1 || outNet.isInput) {
    throw std::logic_error("net '" + outNet.name + "' already driven");
  }
  const int gateIdx = static_cast<int>(gates_.size());
  for (NetId in : inputs) {
    nets_.at(static_cast<size_t>(in)).readers.push_back(gateIdx);
  }
  outNet.driver = gateIdx;
  gates_.push_back(GateNode{type, std::move(inputs), out});
}

const std::string& Netlist::netName(NetId id) const {
  return nets_.at(static_cast<size_t>(id)).name;
}

NetId Netlist::findNet(const std::string& name) const {
  for (NetId i = 0; i < netCount(); ++i) {
    if (nets_[static_cast<size_t>(i)].name == name) return i;
  }
  return kNoNet;
}

bool Netlist::isPrimaryInput(NetId id) const {
  return nets_.at(static_cast<size_t>(id)).isInput;
}

bool Netlist::isPrimaryOutput(NetId id) const {
  return nets_.at(static_cast<size_t>(id)).isOutput;
}

int Netlist::driverOf(NetId id) const {
  return nets_.at(static_cast<size_t>(id)).driver;
}

const std::vector<int>& Netlist::readersOf(NetId id) const {
  return nets_.at(static_cast<size_t>(id)).readers;
}

int Netlist::fanoutOf(NetId id) const {
  const Net& n = nets_.at(static_cast<size_t>(id));
  return static_cast<int>(n.readers.size()) + (n.isOutput ? 1 : 0);
}

void Netlist::validate() const {
  for (NetId i = 0; i < netCount(); ++i) {
    const Net& n = nets_[static_cast<size_t>(i)];
    if (!n.isInput && n.driver == -1) {
      throw std::logic_error("net '" + n.name + "' is undriven");
    }
    if (n.isInput && n.driver != -1) {
      throw std::logic_error("primary input '" + n.name + "' is gate-driven");
    }
  }
  (void)topoOrder();  // throws on combinational cycles
}

std::vector<int> Netlist::topoOrder() const {
  // Kahn's algorithm over gates; a gate is ready once all its input nets
  // are available (primary inputs or already-evaluated gate outputs).
  std::vector<int> pending(gates_.size(), 0);
  std::vector<int> ready;
  for (size_t g = 0; g < gates_.size(); ++g) {
    int deps = 0;
    for (NetId in : gates_[g].inputs) {
      if (nets_[static_cast<size_t>(in)].driver != -1) ++deps;
    }
    pending[g] = deps;
    if (deps == 0) ready.push_back(static_cast<int>(g));
  }
  std::vector<int> order;
  order.reserve(gates_.size());
  while (!ready.empty()) {
    const int g = ready.back();
    ready.pop_back();
    order.push_back(g);
    const NetId out = gates_[static_cast<size_t>(g)].output;
    for (int reader : nets_[static_cast<size_t>(out)].readers) {
      if (--pending[static_cast<size_t>(reader)] == 0) ready.push_back(reader);
    }
  }
  if (order.size() != gates_.size()) {
    throw std::logic_error("netlist contains a combinational cycle");
  }
  return order;
}

std::vector<int> Netlist::levels() const {
  std::vector<int> level(nets_.size(), 0);
  for (int g : topoOrder()) {
    const GateNode& gn = gates_[static_cast<size_t>(g)];
    int maxIn = 0;
    for (NetId in : gn.inputs) {
      maxIn = std::max(maxIn, level[static_cast<size_t>(in)]);
    }
    level[static_cast<size_t>(gn.output)] = maxIn + 1;
  }
  return level;
}

}  // namespace vcad::gate
