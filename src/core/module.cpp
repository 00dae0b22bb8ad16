#include "core/module.hpp"

#include <stdexcept>

#include "core/connector.hpp"
#include "core/setup.hpp"

namespace vcad {

Module::Module(std::string name) : name_(std::move(name)) {
  stateSlots_.resize(SlotRegistry::kCapacity);
}

Module::~Module() = default;

// --- ports -----------------------------------------------------------

Port& Module::addInput(std::string portName, Connector& conn) {
  Port& p = addPort(std::move(portName), PortDir::In, conn.width());
  conn.attach(p);
  return p;
}

Port& Module::addOutput(std::string portName, Connector& conn) {
  Port& p = addPort(std::move(portName), PortDir::Out, conn.width());
  conn.attach(p);
  return p;
}

Port& Module::addInOut(std::string portName, Connector& conn) {
  Port& p = addPort(std::move(portName), PortDir::InOut, conn.width());
  conn.attach(p);
  return p;
}

Port& Module::addPort(std::string portName, PortDir dir, int width) {
  if (findPort(portName) != nullptr) {
    throw std::logic_error("Module '" + name_ + "' already has a port named " +
                           portName);
  }
  ports_.push_back(std::make_unique<Port>(*this, std::move(portName), dir, width));
  return *ports_.back();
}

Port* Module::findPort(const std::string& portName) const {
  for (const auto& p : ports_) {
    if (p->name() == portName) return p.get();
  }
  return nullptr;
}

std::vector<Port*> Module::inputPorts() const {
  std::vector<Port*> out;
  for (const auto& p : ports_) {
    if (p->dir() == PortDir::In) out.push_back(p.get());
  }
  return out;
}

std::vector<Port*> Module::outputPorts() const {
  std::vector<Port*> out;
  for (const auto& p : ports_) {
    if (p->dir() == PortDir::Out) out.push_back(p.get());
  }
  return out;
}

// --- levelized evaluation ---------------------------------------------------

void Module::evaluate(std::size_t /*patterns*/, std::span<const Word> /*in*/,
                      std::span<Word> /*out*/) const {
  throw std::logic_error("Module '" + name_ + "' is not combinational");
}

// --- estimation --------------------------------------------------------

void Module::processEstimationToken(const EstimationToken& token,
                                    SimContext& ctx) {
  std::shared_ptr<Estimator> est = NullEstimator::instance();
  if (ctx.setup != nullptr) {
    est = boundEstimator(ctx.setup->id(), token.kind());
  }
  EstimationContext ectx;
  ectx.module = this;
  ectx.scheduler = &ctx.scheduler;
  ectx.setup = ctx.setup;
  token.sink().collect(*this, token.kind(), est->estimate(ectx));
}

void Module::addEstimator(ParamKind kind, std::shared_ptr<Estimator> estimator) {
  if (!estimator) {
    throw std::invalid_argument("addEstimator: null estimator");
  }
  std::lock_guard<std::mutex> lock(estimatorMutex_);
  candidates_[static_cast<int>(kind)].push_back(std::move(estimator));
}

const std::vector<std::shared_ptr<Estimator>>& Module::candidateEstimators(
    ParamKind kind) const {
  static const std::vector<std::shared_ptr<Estimator>> kEmpty;
  std::lock_guard<std::mutex> lock(estimatorMutex_);
  auto it = candidates_.find(static_cast<int>(kind));
  return it != candidates_.end() ? it->second : kEmpty;
}

void Module::bindEstimator(std::uint32_t setupId, ParamKind kind,
                           std::shared_ptr<Estimator> estimator) {
  std::lock_guard<std::mutex> lock(estimatorMutex_);
  bindings_[setupId][static_cast<int>(kind)] = std::move(estimator);
}

std::shared_ptr<Estimator> Module::boundEstimator(std::uint32_t setupId,
                                                  ParamKind kind) const {
  std::lock_guard<std::mutex> lock(estimatorMutex_);
  auto bit = bindings_.find(setupId);
  if (bit != bindings_.end()) {
    auto eit = bit->second.find(static_cast<int>(kind));
    if (eit != bit->second.end()) return eit->second;
  }
  return NullEstimator::instance();
}

// --- hierarchy -----------------------------------------------------------

void Module::visitLeaves(const std::function<void(Module&)>& fn) { fn(*this); }

// --- helpers ---------------------------------------------------------

void Module::emit(SimContext& ctx, Port& out, const Word& value,
                  SimTime delay) {
  if (!out.canDrive()) {
    throw std::logic_error("Module '" + name_ + "' cannot drive input port " +
                           out.fullName());
  }
  Connector* conn = out.connector();
  if (conn == nullptr) {
    // Open port: record the value so tests / controllers can observe it.
    liveSlot(ctx.scheduler.slot(), ctx.scheduler.slotGeneration())
        .openPorts[out.name()] = value;
    return;
  }
  Port* peer = conn->peerOf(out);
  if (peer == nullptr || !peer->canReceive()) {
    // Open-ended connector (e.g. an observation point): latch the value at
    // the scheduled time.
    ctx.scheduler.schedule(std::make_unique<LatchToken>(*conn, value), delay);
    return;
  }
  ctx.scheduler.schedule(std::make_unique<SignalToken>(*peer, value), delay);
}

void Module::selfSchedule(SimContext& ctx, SimTime delay, int tag) {
  ctx.scheduler.schedule(std::make_unique<SelfToken>(*this, tag), delay);
}

Word Module::readInput(const SimContext& ctx, const Port& in) const {
  const Connector* conn = in.connector();
  if (conn == nullptr) return Word::allX(in.width());
  return conn->valueOrBase(ctx.scheduler.slot(),
                           ctx.scheduler.slotGeneration(),
                           ctx.scheduler.base());
}

Word Module::lastDriven(const SimContext& ctx, const Port& out) const {
  // Read-only: a stale lane is left untouched and reads as all-X.
  const StateSlot& e = stateSlots_[ctx.scheduler.slot()];
  if (e.generation == ctx.scheduler.slotGeneration()) {
    auto pit = e.openPorts.find(out.name());
    if (pit != e.openPorts.end()) return pit->second;
  }
  return Word::allX(out.width());
}

void Module::clearAllState() {
  for (StateSlot& e : stateSlots_) {
    e.generation = 0;
    e.state.reset();
    e.openPorts.clear();
  }
}

void Module::clearStateFor(std::uint32_t slot) {
  if (slot >= stateSlots_.size()) return;
  StateSlot& e = stateSlots_[slot];
  e.generation = 0;
  e.state.reset();
  e.openPorts.clear();
}

bool Module::hasLiveStateFor(std::uint32_t slot) const {
  const StateSlot& e = stateSlots_[slot];
  if (e.generation == 0) return false;
  if (e.generation != SlotRegistry::global().currentGeneration(slot)) {
    return false;
  }
  return e.state != nullptr || !e.openPorts.empty();
}

}  // namespace vcad
