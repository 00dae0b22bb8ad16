#include "core/levelized.hpp"

#include <stdexcept>
#include <unordered_map>

namespace vcad {

std::optional<LevelizedPass> LevelizedPass::plan(
    Circuit& design, std::vector<Connector*> primaryInputs) {
  std::vector<Module*> leaves;
  design.visitLeaves([&](Module& m) { leaves.push_back(&m); });
  std::unordered_map<const Module*, std::size_t> leafIndex;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    leafIndex.emplace(leaves[i], i);
  }
  const auto leafOf = [&](const Port* p) -> const std::size_t* {
    if (p == nullptr) return nullptr;
    const auto it = leafIndex.find(&p->module());
    return it == leafIndex.end() ? nullptr : &it->second;
  };

  for (const Module* m : leaves) {
    if (!m->combinational()) return std::nullopt;
    for (const auto& p : m->ports()) {
      if (p->dir() == PortDir::InOut) return std::nullopt;
      if (p->dir() == PortDir::Out && p->connector() == nullptr) {
        return std::nullopt;
      }
    }
  }
  // A leaf driving a primary input would race the injected word.
  for (const Connector* pi : primaryInputs) {
    for (const Port* e : pi->endpoints()) {
      if (e->canDrive() && leafOf(e) != nullptr) return std::nullopt;
    }
  }

  // Kahn over connector drivers: leaf j precedes leaf i when an output port
  // of j drives an input port of i.
  const std::size_t n = leaves.size();
  std::vector<std::vector<std::size_t>> readers(n);
  std::vector<std::size_t> pendingDrivers(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const Port* in : leaves[i]->inputPorts()) {
      const Connector* c = in->connector();
      if (c == nullptr) continue;
      const Port* peer = c->peerOf(*in);
      if (peer == nullptr || !peer->canDrive()) continue;
      if (const std::size_t* driver = leafOf(peer)) {
        readers[*driver].push_back(i);
        ++pendingDrivers[i];
      }
    }
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pendingDrivers[i] == 0) order.push_back(i);
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (const std::size_t r : readers[order[k]]) {
      if (--pendingDrivers[r] == 0) order.push_back(r);
    }
  }
  if (order.size() != n) return std::nullopt;  // combinational loop

  // Activation, in topological order: SimulationController::inject sends a
  // primary input's word to the connector's first receiving endpoint, and
  // Module::emit sends an output's word to its peer.
  std::vector<char> activated(n, 0);
  const auto activate = [&](const Port* target) {
    if (const std::size_t* i = leafOf(target)) activated[*i] = 1;
  };
  for (const Connector* pi : primaryInputs) {
    for (const Port* e : pi->endpoints()) {
      if (!e->canReceive()) continue;
      activate(e);
      break;
    }
  }
  LevelizedPass pass;
  pass.pis_ = std::move(primaryInputs);
  for (const std::size_t i : order) {
    if (activated[i] == 0) continue;
    Step step{leaves[i], {}, {}};
    for (const Port* in : leaves[i]->inputPorts()) step.inputs.push_back(in);
    for (const Port* out : leaves[i]->outputPorts()) {
      Connector* c = out->connector();
      step.outputs.push_back(c);
      const Port* peer = c->peerOf(*out);
      if (peer != nullptr && peer->canReceive()) activate(peer);
    }
    pass.steps_.push_back(std::move(step));
  }
  return pass;
}

void LevelizedPass::settle(std::span<const Scheduler* const> runs,
                           std::span<const std::vector<Word>> patterns) {
  if (runs.size() != patterns.size()) {
    throw std::invalid_argument("settle needs one scheduler per pattern");
  }
  for (const std::vector<Word>& pattern : patterns) {
    if (pattern.size() != pis_.size()) {
      throw std::invalid_argument(
          "pattern arity does not match primary inputs");
    }
  }
  const std::size_t n = runs.size();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < pis_.size(); ++i) {
      pis_[i]->setValue(runs[r]->slot(), runs[r]->slotGeneration(),
                        patterns[r][i]);
    }
  }
  for (const Step& step : steps_) {
    const std::size_t nOut = step.outputs.size();
    in_.clear();
    for (const Scheduler* run : runs) {
      const std::uint32_t slot = run->slot();
      const std::uint32_t generation = run->slotGeneration();
      for (const Port* p : step.inputs) {
        const Connector* c = p->connector();
        in_.push_back(c != nullptr ? c->value(slot, generation)
                                   : Word::allX(p->width()));
      }
    }
    out_.assign(n * nOut, Word());
    step.module->evaluate(n, in_, out_);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < nOut; ++k) {
        step.outputs[k]->setValue(runs[r]->slot(), runs[r]->slotGeneration(),
                                  out_[r * nOut + k]);
      }
    }
  }
}

}  // namespace vcad
