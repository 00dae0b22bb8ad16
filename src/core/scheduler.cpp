#include "core/scheduler.hpp"

#include <stdexcept>

#include "core/module.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vcad {

namespace {
/// Registry ids for the scheduler's bulk-flushed metrics. Per-token work
/// stays registry-free: dispatch counts flush once per run()/runUntil()
/// call, and per-token instants are gated behind the tracer's verbose mode.
struct SchedMetrics {
  obs::Registry::MetricId dispatched, resets;
  obs::Registry::MetricId peakQueueDepth;

  static const SchedMetrics& get() {
    static const SchedMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return SchedMetrics{r.counter("sched.dispatched"),
                          r.counter("sched.resets"),
                          r.gauge("sched.peakQueueDepth")};
    }();
    return m;
  }
};
}  // namespace

Scheduler::Scheduler() {
  const SlotRegistry::Lease lease = SlotRegistry::global().acquire();
  slot_ = lease.slot;
  generation_ = lease.generation;
}

Scheduler::~Scheduler() {
  drainQueue();
  // Returning the slot bumps its generation: every arena entry this run
  // wrote is logically cleared without touching the design.
  SlotRegistry::global().release(slot_);
}

void Scheduler::drainQueue() {
  while (!queue_.empty()) {
    delete queue_.top().token;
    queue_.pop();
  }
}

void Scheduler::reset() {
  drainQueue();
  overrides_.clear();
  base_ = SlotRef{};
  now_ = 0;
  seq_ = 0;
  dispatched_ = 0;
  peakQueueDepth_ = 0;
  generation_ = SlotRegistry::global().renew(slot_);
  ++resets_;
  obs::Registry::global().add(SchedMetrics::get().resets);
}

void Scheduler::setBase(SlotRef base) {
  if (base.slot >= SlotRegistry::kCapacity || base.slot == slot_) {
    throw std::invalid_argument(
        "Scheduler::setBase: the base must be another scheduler's run");
  }
  base_ = base;
}

void Scheduler::schedule(std::unique_ptr<Token> token, SimTime delay) {
  if (!token) {
    throw std::invalid_argument("Scheduler::schedule: null token");
  }
  const SimTime t = now_ + delay;
  token->time_ = t;
  queue_.push(Entry{t, seq_++, token.release()});
  if (queue_.size() > peakQueueDepth_) peakQueueDepth_ = queue_.size();
}

bool Scheduler::step() {
  if (queue_.empty()) return false;
  Entry e = queue_.top();
  queue_.pop();
  std::unique_ptr<Token> token(e.token);
  now_ = e.time;
  ++dispatched_;
  if (trace_ != nullptr) {
    trace_->info("@" + std::to_string(now_) + " " + token->describe());
  }
  // Structured sibling of the LogSink trace: one instant event per
  // delivered token, but only in verbose tracing (per-token volume).
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.verbose()) {
    tracer.instant("sched.dispatch", "sched",
                   {{"slot", static_cast<double>(slot_)},
                    {"time", static_cast<double>(now_)},
                    {"queueDepth", static_cast<double>(queue_.size())}});
  }
  SimContext ctx{*this, setup_};
  token->deliver(ctx);
  return true;
}

std::size_t Scheduler::run(std::size_t maxEvents) {
  std::size_t n = 0;
  // The limit is exact: dispatching maxEvents events is allowed, attempting
  // one more throws before it is delivered.
  while (!queue_.empty()) {
    if (n >= maxEvents) {
      throw std::runtime_error(
          "Scheduler::run exceeded event limit (combinational loop or "
          "runaway self-trigger?)");
    }
    step();
    ++n;
  }
  flushRunMetrics(n);
  return n;
}

std::size_t Scheduler::runUntil(SimTime until, std::size_t maxEvents) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.top().time <= until) {
    if (n >= maxEvents) {
      throw std::runtime_error("Scheduler::runUntil exceeded event limit");
    }
    step();
    ++n;
  }
  flushRunMetrics(n);
  return n;
}

void Scheduler::flushRunMetrics(std::size_t dispatchedNow) {
  if (dispatchedNow == 0) return;
  obs::Registry& reg = obs::Registry::global();
  const SchedMetrics& ids = SchedMetrics::get();
  reg.add(ids.dispatched, dispatchedNow);
  reg.maxGauge(ids.peakQueueDepth,
               static_cast<std::int64_t>(peakQueueDepth_));
}

void Scheduler::setOutputOverride(const Module& module,
                                  std::vector<OutputOverride> outputs) {
  for (const auto& o : outputs) {
    if (o.port == nullptr || !o.port->canDrive()) {
      throw std::invalid_argument(
          "setOutputOverride: override target must be a drivable port of "
          "the module");
    }
  }
  overrides_[&module] = std::move(outputs);
}

void Scheduler::clearOutputOverride(const Module& module) {
  overrides_.erase(&module);
}

void Scheduler::clearAllOverrides() { overrides_.clear(); }

const std::vector<Scheduler::OutputOverride>* Scheduler::findOverride(
    const Module& module) const {
  auto it = overrides_.find(&module);
  return it != overrides_.end() ? &it->second : nullptr;
}

}  // namespace vcad
