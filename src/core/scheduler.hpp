// The event scheduler: handles scheduling and delivery of all tokens.
//
// Multiple schedulers can be instantiated and run in concurrent threads over
// the same design without interference: all per-simulation state (connector
// values, module internal state) lives in the flat slot-indexed state arena
// (see slot_registry.hpp). Each scheduler leases one dense slot for its
// lifetime — id() is that slot — and stamps every write with its current
// slot generation, so hot-path state access is a lock-free array index and
// reset()/destruction invalidate all of a run's state in O(1) by bumping
// the generation. A module can only schedule a new token on the scheduler
// that delivered the current one.
//
// The scheduler also implements the two hooks used by virtual fault
// simulation: the *output override*, which replaces a module's event
// handling with a fixed (faulty) assignment to its outputs regardless of
// its inputs, and the read-through *base*, a finished fault-free run whose
// connector values this scheduler reads wherever it has not written its own
// (see setBase).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/log.hpp"
#include "core/sim_time.hpp"
#include "core/slot_registry.hpp"
#include "core/token.hpp"

namespace vcad {

class Module;
class Port;
class SetupController;

class Scheduler {
 public:
  using Id = std::uint32_t;

  Scheduler();
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// The arena slot leased by this scheduler; doubles as its unique id
  /// among concurrently live schedulers. Slots are recycled after
  /// destruction, so ids are NOT unique across time — per-run state is
  /// disambiguated by slotGeneration().
  Id id() const { return slot_; }
  std::uint32_t slot() const { return slot_; }
  /// The slot generation this scheduler stamps on every state write; bumped
  /// by reset(), which logically clears the run's state in O(1).
  std::uint32_t slotGeneration() const { return generation_; }

  SimTime now() const { return now_; }

  /// Returns the scheduler to its just-constructed state for reuse by a
  /// later run: drains pending tokens, drops output overrides and the
  /// read-through base, rewinds time, and renews the slot generation so
  /// every connector value and module state written by the previous run
  /// reads as all-X / empty again — no traversal of the design needed.
  /// Owner-thread only.
  void reset();

  /// Read-through base: the (slot, generation) of a finished fault-free
  /// run of the same design. Wherever this run has not written a connector
  /// value of its own, Module::readInput and Connector::valueOrBase see the
  /// base run's value instead of all-X, so a fault-injection run only has
  /// to simulate the fanout of what it forces. The base is only read; it
  /// must not run, reset or be destroyed while this run reads it (a base
  /// renewed or released anyway reads as all-X, never as a stale value).
  /// Module state is not read through. reset() drops the base.
  void setBase(SlotRef base);
  SlotRef base() const { return base_; }

  /// Times this scheduler has been reset() (pool-reuse accounting).
  std::uint64_t resets() const { return resets_; }

  /// The setup in effect for tokens dispatched by this scheduler; passed to
  /// modules in the SimContext of every delivery.
  void setSetup(const SetupController* setup) { setup_ = setup; }
  const SetupController* setup() const { return setup_; }

  /// Event tracing: when a sink is installed, every delivered token is
  /// logged as "@<time> <description>" (debugging aid; adds per-event
  /// cost, leave off in benchmarks).
  void setTraceSink(LogSink* sink) { trace_ = sink; }

  /// Enqueues a token for delivery `delay` ticks from now. Zero-delay
  /// tokens are delivered in FIFO order within the current tick.
  void schedule(std::unique_ptr<Token> token, SimTime delay = 0);

  /// Delivers the next pending token; returns false when the queue is empty.
  bool step();

  /// Runs until the event queue drains. `maxEvents` guards against
  /// divergence (e.g. combinational loops); throws std::runtime_error when
  /// exceeded. Returns the number of tokens delivered by this call.
  std::size_t run(std::size_t maxEvents = 100'000'000);

  /// Runs while pending events have time <= `until`.
  std::size_t runUntil(SimTime until, std::size_t maxEvents = 100'000'000);

  bool empty() const { return queue_.empty(); }
  std::uint64_t dispatched() const { return dispatched_; }
  /// High-water mark of pending tokens since construction/reset().
  std::size_t peakQueueDepth() const { return peakQueueDepth_; }

  // --- fault-injection support -------------------------------------------

  /// One forced output assignment: when any signal event reaches `module`,
  /// the scheduler drives `value` on `port` instead of invoking the module's
  /// own event handling.
  struct OutputOverride {
    Port* port;
    Word value;
  };

  void setOutputOverride(const Module& module,
                         std::vector<OutputOverride> outputs);
  void clearOutputOverride(const Module& module);
  void clearAllOverrides();

  /// Used by SignalToken::deliver: returns the override for `module`, or
  /// nullptr when the module behaves normally under this scheduler.
  const std::vector<OutputOverride>* findOverride(const Module& module) const;

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Token* token;  // owned; unique_ptr is not movable inside priority_queue
                   // comparators on some implementations, so we manage
                   // ownership manually and release in the destructor.
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  void drainQueue();
  /// Bulk-flushes per-run registry metrics (dispatch count, queue peak) so
  /// the per-token path stays registry-free.
  void flushRunMetrics(std::size_t dispatchedNow);

  std::uint32_t slot_;
  std::uint32_t generation_;
  SlotRef base_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t resets_ = 0;
  std::size_t peakQueueDepth_ = 0;
  const SetupController* setup_ = nullptr;
  LogSink* trace_ = nullptr;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_map<const Module*, std::vector<OutputOverride>> overrides_;
};

}  // namespace vcad
