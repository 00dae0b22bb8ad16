// Connectors tie two ports together and forward events between modules.
//
// A connector is a point-to-point, zero-delay link: exactly one driving
// endpoint and one receiving endpoint (bidirectional ports may play either
// role). Multi-fanout nets and net delays are modelled by explicit modules
// (see fanout.hpp), which keeps the connector semantics trivial and lets a
// designer give different delays to different fanout branches.
//
// The connector also holds the *current value* of the link — independently
// for every scheduler, so concurrent simulations of the same design never
// interfere. Values live in a flat per-slot array of the simulation-state
// arena (see slot_registry.hpp): the hot-path accessors take the owning
// scheduler's (slot, generation) pair and are a single lock-free array
// index; an entry whose stamped generation does not match the reader's
// reads as all-X, which is how released/reset slots are cleared in O(1).
// A fault-injection run reads through to its fault-free base run wherever
// it has not written a value of its own (valueOrBase), so it only has to
// simulate what its forced outputs change.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/port.hpp"
#include "core/slot_registry.hpp"
#include "core/word.hpp"

namespace vcad {

class Connector {
 public:
  explicit Connector(int width, std::string name = "");
  virtual ~Connector() = default;

  Connector(const Connector&) = delete;
  Connector& operator=(const Connector&) = delete;

  int width() const { return width_; }
  const std::string& name() const { return name_; }

  /// Attaches a port. A connector accepts at most two endpoints; width must
  /// match; at most one pure-In and one pure-Out endpoint make sense, and
  /// two pure-In or two pure-Out endpoints are rejected.
  void attach(Port& port);

  /// The endpoint on the other side of `port`, or nullptr if the connector
  /// is open-ended.
  Port* peerOf(const Port& port) const;

  const std::vector<Port*>& endpoints() const { return endpoints_; }

  /// Hot-path accessors: value as observed by the scheduler owning `slot`
  /// at `generation` (all-X before the run's first event on this link).
  /// Lock-free array indexing — a slot is only ever touched by the thread
  /// running its scheduler, so no synchronization is needed.
  Word value(std::uint32_t slot, std::uint32_t generation) const {
    const SlotValue& e = values_[slot];
    return e.generation == generation ? e.value : Word::allX(width_);
  }
  void setValue(std::uint32_t slot, std::uint32_t generation, const Word& w);

  /// Read-through accessor for a run layered on a base run (see
  /// Scheduler::setBase): the run's own value where it wrote one, else the
  /// base run's value while that run is still current, else all-X. With no
  /// base it is value(slot, generation). The base slot is only read.
  Word valueOrBase(std::uint32_t slot, std::uint32_t generation,
                   SlotRef base) const {
    const SlotValue& e = values_[slot];
    if (e.generation == generation) return e.value;
    if (base) {
      const SlotValue& b = values_[base.slot];
      if (b.generation == base.generation &&
          SlotRegistry::global().isCurrent(base)) {
        return b.value;
      }
    }
    return Word::allX(width_);
  }

  /// Compat accessors addressed by scheduler id alone: resolve the slot's
  /// current generation through the registry (one atomic load). Simulation
  /// internals use the (slot, generation) fast path instead; these serve
  /// tests and controllers that observe a live scheduler's results.
  Word value(std::uint32_t schedulerId) const {
    return value(schedulerId, SlotRegistry::global().currentGeneration(schedulerId));
  }
  void setValue(std::uint32_t schedulerId, const Word& w) {
    setValue(schedulerId, SlotRegistry::global().currentGeneration(schedulerId), w);
  }

  /// Physically drops the value stored for one slot, or for all slots.
  void clearValue(std::uint32_t slot);
  void clearAllValues();

  /// True when the slot holds a value stamped with its current registry
  /// generation (debug/leak assertions: a finished campaign must leave no
  /// live value behind).
  bool hasLiveValue(std::uint32_t slot) const;

 private:
  struct SlotValue {
    std::uint32_t generation = 0;  // 0 = never written (registry gens >= 1)
    Word value;
  };

  int width_;
  std::string name_;
  std::vector<Port*> endpoints_;
  // One lane per arena slot, sized once at construction so concurrent
  // simulations can never trigger a reallocation race.
  std::vector<SlotValue> values_;
};

/// Single-bit connector for gate-level links.
class BitConnector final : public Connector {
 public:
  explicit BitConnector(std::string name = "") : Connector(1, std::move(name)) {}
};

/// Multi-bit connector for word-level (RTL) links.
class WordConnector final : public Connector {
 public:
  explicit WordConnector(int width, std::string name = "")
      : Connector(width, std::move(name)) {}
};

}  // namespace vcad
