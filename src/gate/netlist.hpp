// Gate-level netlist: a directed acyclic graph of primitive gates over
// named single-bit nets.
//
// Every net has exactly one driver (a primary input or a gate output).
// Primary outputs are nets marked as observable. The netlist is the private
// implementation view of an IP component: it is what providers keep on their
// server and what accurate (gate-level) estimation and fault simulation
// require.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/logic.hpp"
#include "core/word.hpp"

namespace vcad::gate {

using NetId = int;
inline constexpr NetId kNoNet = -1;

enum class GateType {
  Buf,
  Not,
  And,
  Or,
  Nand,
  Nor,
  Xor,
  Xnor,
  Const0,
  Const1,
};

std::string toString(GateType t);

/// Number of inputs a gate type accepts: {min, max} (max -1 = unbounded).
std::pair<int, int> arityOf(GateType t);

/// Evaluates one gate over 4-valued inputs.
Logic evalGate(GateType t, const Logic* ins, int n);

inline Logic evalGate(GateType t, const std::vector<Logic>& ins) {
  return evalGate(t, ins.data(), static_cast<int>(ins.size()));
}

struct GateNode {
  GateType type;
  std::vector<NetId> inputs;
  NetId output = kNoNet;
};

/// A single stuck-at fault on a net.
struct StuckFault {
  NetId net = kNoNet;
  Logic stuck = Logic::L0;  // L0 or L1

  bool operator==(const StuckFault& o) const {
    return net == o.net && stuck == o.stuck;
  }
  bool operator<(const StuckFault& o) const {
    return net != o.net ? net < o.net : stuck < o.stuck;
  }
};

class Netlist {
 public:
  /// Creates a fresh internal net. Auto-names it "n<k>" if name is empty.
  NetId addNet(std::string name = "");

  /// Creates a primary-input net.
  NetId addInput(std::string name);

  /// Marks an existing net as a primary output (order of calls defines the
  /// output bit order).
  void markOutput(NetId net);

  /// Adds a gate driving a fresh net; returns the output net id.
  NetId addGate(GateType type, std::vector<NetId> inputs,
                std::string outName = "");

  /// Adds a gate driving an existing (so far undriven) net.
  void addGateDriving(GateType type, std::vector<NetId> inputs, NetId out);

  // --- queries ---------------------------------------------------------

  int netCount() const { return static_cast<int>(nets_.size()); }
  int gateCount() const { return static_cast<int>(gates_.size()); }
  int inputCount() const { return static_cast<int>(inputs_.size()); }
  int outputCount() const { return static_cast<int>(outputs_.size()); }

  const std::vector<NetId>& primaryInputs() const { return inputs_; }
  const std::vector<NetId>& primaryOutputs() const { return outputs_; }
  const std::vector<GateNode>& gates() const { return gates_; }

  const std::string& netName(NetId id) const;
  NetId findNet(const std::string& name) const;  // kNoNet when absent
  bool isPrimaryInput(NetId id) const;
  bool isPrimaryOutput(NetId id) const;

  /// Gate index driving a net, or -1 for primary inputs.
  int driverOf(NetId id) const;

  /// Gate indices reading a net.
  const std::vector<int>& readersOf(NetId id) const;

  /// Fanout count of a net (number of gate inputs it feeds, plus 1 if it is
  /// a primary output).
  int fanoutOf(NetId id) const;

  /// Verifies structural sanity: every net driven exactly once (except
  /// primary inputs, driven by the environment), gate arities respected,
  /// no combinational cycles. Throws std::logic_error on violation.
  void validate() const;

  /// Gates in topological order (inputs before readers). Throws on cycles.
  std::vector<int> topoOrder() const;

  /// Logic level of each net (primary inputs = 0); computed on topo order.
  std::vector<int> levels() const;

 private:
  struct Net {
    std::string name;
    int driver = -1;            // gate index; -1 for PI / undriven
    bool isInput = false;
    bool isOutput = false;
    std::vector<int> readers;   // gate indices
  };

  std::vector<Net> nets_;
  std::vector<GateNode> gates_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
};

}  // namespace vcad::gate
