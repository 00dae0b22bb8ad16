#include "gate/netlist_module.hpp"

#include <stdexcept>

#include "core/connector.hpp"

namespace vcad::gate {

NetlistModule::NetlistModule(std::string name,
                             std::shared_ptr<const Netlist> netlist,
                             std::vector<PortGroup> inputs,
                             std::vector<PortGroup> outputs, TechParams tech)
    : Module(std::move(name)),
      netlist_(std::move(netlist)),
      packed_(*netlist_),
      tech_(tech),
      inGroups_(std::move(inputs)),
      outGroups_(std::move(outputs)) {
  int coveredIn = 0;
  for (const PortGroup& g : inGroups_) {
    if (g.conn == nullptr || g.conn->width() != g.width) {
      throw std::invalid_argument("NetlistModule '" + this->name() +
                                  "': bad input group '" + g.name + "'");
    }
    if (g.firstPin < 0 || g.firstPin + g.width > netlist_->inputCount()) {
      throw std::out_of_range("NetlistModule '" + this->name() +
                              "': input group '" + g.name +
                              "' exceeds PI count");
    }
    inPorts_.push_back(&addInput(g.name, *g.conn));
    coveredIn += g.width;
  }
  if (coveredIn != netlist_->inputCount()) {
    throw std::invalid_argument("NetlistModule '" + this->name() +
                                "': input groups cover " +
                                std::to_string(coveredIn) + " of " +
                                std::to_string(netlist_->inputCount()) +
                                " primary inputs");
  }
  int coveredOut = 0;
  for (const PortGroup& g : outGroups_) {
    if (g.conn == nullptr || g.conn->width() != g.width) {
      throw std::invalid_argument("NetlistModule '" + this->name() +
                                  "': bad output group '" + g.name + "'");
    }
    if (g.firstPin < 0 || g.firstPin + g.width > netlist_->outputCount()) {
      throw std::out_of_range("NetlistModule '" + this->name() +
                              "': output group '" + g.name +
                              "' exceeds PO count");
    }
    outPorts_.push_back(&addOutput(g.name, *g.conn));
    coveredOut += g.width;
  }
  if (coveredOut != netlist_->outputCount()) {
    throw std::invalid_argument("NetlistModule '" + this->name() +
                                "': output groups cover " +
                                std::to_string(coveredOut) + " of " +
                                std::to_string(netlist_->outputCount()) +
                                " primary outputs");
  }
}

Word NetlistModule::currentInputs(const SimContext& ctx) const {
  Word inputs(netlist_->inputCount());
  for (size_t gi = 0; gi < inGroups_.size(); ++gi) {
    inputs.insert(inGroups_[gi].firstPin, readInput(ctx, *inPorts_[gi]));
  }
  return inputs;
}

void NetlistModule::evaluate(std::size_t patterns, std::span<const Word> in,
                             std::span<Word> out) const {
  const std::size_t nIn = inGroups_.size();
  const std::size_t nOut = outGroups_.size();
  // Per-thread scratch: const evaluate() may run on several schedulers'
  // threads at once.
  thread_local std::vector<Word> inputs;
  thread_local std::vector<Word> outputs;
  thread_local std::vector<LanePlanes> planes;
  inputs.assign(patterns, Word(netlist_->inputCount()));
  outputs.resize(patterns);
  for (std::size_t p = 0; p < patterns; ++p) {
    for (size_t gi = 0; gi < nIn; ++gi) {
      inputs[p].insert(inGroups_[gi].firstPin, in[p * nIn + gi]);
    }
  }
  packed_.evalOutputs(inputs, outputs, planes);
  for (std::size_t p = 0; p < patterns; ++p) {
    for (size_t gi = 0; gi < nOut; ++gi) {
      out[p * nOut + gi] =
          outputs[p].slice(outGroups_[gi].firstPin, outGroups_[gi].width);
    }
  }
}

void NetlistModule::processInputEvent(const SignalToken&, SimContext& ctx) {
  State& st = stateOf(ctx);
  if (st.evalPending) return;
  st.evalPending = true;
  selfSchedule(ctx, 0);
}

void NetlistModule::processSelfEvent(const SelfToken&, SimContext& ctx) {
  State& st = stateOf(ctx);
  st.evalPending = false;
  const Word inputs = currentInputs(ctx);
  ++st.evaluations;
  if (recordPatterns_) st.history.push_back(inputs);

  // One lane of the packed engine. The activity counters read every net
  // from lane 0 into a one-byte-per-net snapshot; the previous snapshot's
  // buffer becomes the next decode target.
  thread_local std::vector<LanePlanes> planes;
  thread_local std::vector<Logic> nets;
  Word outs;
  packed_.evalOutputs(std::span<const Word>(&inputs, 1),
                      std::span<Word>(&outs, 1), planes);
  nets.resize(static_cast<std::size_t>(netlist_->netCount()));
  for (NetId n = 0; n < netlist_->netCount(); ++n) {
    nets[static_cast<std::size_t>(n)] = packed_.netValue(planes, n, 0);
  }
  if (st.hasPrev) {
    st.toggles += toggles(st.prevNets, nets);
    st.energyPj += transitionEnergyPj(*netlist_, st.prevNets, nets, tech_);
  }
  st.prevNets.swap(nets);
  const bool changed = !st.hasPrev || outs != st.lastOutputs;
  st.lastOutputs = outs;
  st.hasPrev = true;
  if (!changed) return;  // event-driven suppression of unchanged outputs
  for (size_t gi = 0; gi < outGroups_.size(); ++gi) {
    const PortGroup& g = outGroups_[gi];
    emit(ctx, *outPorts_[gi], outs.slice(g.firstPin, g.width));
  }
}

std::uint64_t NetlistModule::evaluations(const SimContext& ctx) {
  return stateOf(ctx).evaluations;
}

std::uint64_t NetlistModule::netToggles(const SimContext& ctx) {
  return stateOf(ctx).toggles;
}

double NetlistModule::switchingEnergyPj(const SimContext& ctx) {
  return stateOf(ctx).energyPj;
}

const std::vector<Word>& NetlistModule::patternHistory(const SimContext& ctx) {
  return stateOf(ctx).history;
}

void NetlistModule::clearPatternHistory(const SimContext& ctx) {
  stateOf(ctx).history.clear();
}

std::unique_ptr<NetlistModule> makeBitLevelModule(
    std::string name, std::shared_ptr<const Netlist> netlist,
    const std::vector<Connector*>& inputConns,
    const std::vector<Connector*>& outputConns, TechParams tech) {
  if (static_cast<int>(inputConns.size()) != netlist->inputCount() ||
      static_cast<int>(outputConns.size()) != netlist->outputCount()) {
    throw std::invalid_argument(
        "makeBitLevelModule: connector counts must match netlist pin counts");
  }
  std::vector<NetlistModule::PortGroup> ins;
  std::vector<NetlistModule::PortGroup> outs;
  for (size_t i = 0; i < inputConns.size(); ++i) {
    ins.push_back({netlist->netName(netlist->primaryInputs()[i]),
                   inputConns[i], static_cast<int>(i), 1});
  }
  for (size_t i = 0; i < outputConns.size(); ++i) {
    outs.push_back({netlist->netName(netlist->primaryOutputs()[i]),
                    outputConns[i], static_cast<int>(i), 1});
  }
  return std::make_unique<NetlistModule>(std::move(name), std::move(netlist),
                                         std::move(ins), std::move(outs), tech);
}

}  // namespace vcad::gate
