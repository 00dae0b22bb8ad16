#include "core/sim_controller.hpp"

#include <stdexcept>
#include <thread>

namespace vcad {

// --- CollectingSink --------------------------------------------------------

void CollectingSink::collect(Module& module, ParamKind kind,
                             std::unique_ptr<ParamValue> value) {
  items_.push_back(Item{&module, kind, std::move(value)});
}

double CollectingSink::sum(ParamKind kind) const {
  double total = 0.0;
  for (const auto& item : items_) {
    if (item.kind == kind && !item.value->isNull()) {
      total += item.value->asDouble();
    }
  }
  return total;
}

const ParamValue* CollectingSink::find(const Module& module,
                                       ParamKind kind) const {
  for (const auto& item : items_) {
    if (item.module == &module && item.kind == kind) return item.value.get();
  }
  return nullptr;
}

std::size_t CollectingSink::nullCount() const {
  std::size_t n = 0;
  for (const auto& item : items_) {
    if (item.value->isNull()) ++n;
  }
  return n;
}

// --- SimulationController --------------------------------------------------

SimulationController::SimulationController(Circuit& design,
                                           SetupController* setup,
                                           bool applySetup)
    : design_(design), setup_(setup) {
  scheduler_.setSetup(setup);
  if (setup != nullptr && applySetup) {
    setup->apply(design);
  }
}

void SimulationController::reset() {
  scheduler_.reset();
  initialized_ = false;
}

void SimulationController::initialize() {
  if (initialized_) return;
  initialized_ = true;
  SimContext ctx{scheduler_, setup_};
  design_.visitLeaves([&](Module& m) { m.initialize(ctx); });
}

std::size_t SimulationController::start(SimTime until) {
  initialize();
  if (until == kSimTimeMax) return scheduler_.run();
  return scheduler_.runUntil(until);
}

bool SimulationController::runOneInstant() {
  initialize();
  if (scheduler_.empty()) return false;
  // All events of the head instant share the head event's timestamp; step()
  // advances now() to it, then runUntil(now) drains the zero-delay cascade.
  scheduler_.step();
  scheduler_.runUntil(scheduler_.now());
  return true;
}

void SimulationController::inject(Connector& conn, const Word& value,
                                  SimTime delay) {
  // Find the receiving endpoint; with one endpoint it must be receivable.
  Port* target = nullptr;
  for (Port* p : conn.endpoints()) {
    if (p->canReceive()) {
      target = p;
      break;
    }
  }
  if (target == nullptr) {
    // Unconsumed input (or pure observation point): latch the value so it is
    // still visible to readers of the connector.
    scheduler_.schedule(std::make_unique<LatchToken>(conn, value), delay);
    return;
  }
  scheduler_.schedule(std::make_unique<SignalToken>(*target, value), delay);
}

void SimulationController::estimateAll(ParamKind kind, EstimationSink& sink) {
  initialize();
  design_.visitLeaves([&](Module& m) {
    scheduler_.schedule(std::make_unique<EstimationToken>(m, kind, sink));
  });
  scheduler_.runUntil(scheduler_.now());
}

void SimulationController::forceOutputs(
    const Module& module, std::vector<Scheduler::OutputOverride> outputs) {
  scheduler_.setOutputOverride(module, std::move(outputs));
}

void SimulationController::clearForcedOutputs() {
  scheduler_.clearAllOverrides();
}

std::size_t SimulationController::runInjection(
    const SimulationController& faultFree, Module& faulty,
    std::vector<Scheduler::OutputOverride> outputs) {
  const Scheduler& base = faultFree.scheduler_;
  scheduler_.setBase(SlotRef{base.slot(), base.slotGeneration()});
  // The override stays installed: any event the fanout sends back into the
  // faulty module re-drives the forced values instead of its logic.
  scheduler_.setOutputOverride(faulty, std::move(outputs));
  SimContext ctx{scheduler_, setup_};
  for (const auto& o : *scheduler_.findOverride(faulty)) {
    faulty.emit(ctx, *o.port, o.value);
  }
  return scheduler_.run();
}

void runConcurrently(const std::vector<SimulationController*>& controllers,
                     SimTime until) {
  std::vector<std::thread> threads;
  threads.reserve(controllers.size());
  for (SimulationController* c : controllers) {
    threads.emplace_back([c, until] { c->start(until); });
  }
  for (auto& t : threads) t.join();
}

}  // namespace vcad
