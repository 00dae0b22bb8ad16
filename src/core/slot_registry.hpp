// SlotRegistry: the lease manager of the simulation-state arena.
//
// Every Scheduler leases one dense slot index for its lifetime; Connector
// values, Module state and open-port values live in flat per-slot arrays
// indexed by that slot, so hot-path access is a plain array index with no
// lock and no hash lookup. Slots are recycled through a free list when a
// scheduler is destroyed, which keeps the arena bounded no matter how many
// short-lived schedulers a fault campaign churns through.
//
// Staleness is handled with generations instead of traversal: each slot
// carries a monotonically increasing generation (starting at 1; a stored
// generation of 0 means "never written"). State entries stamp the
// generation current at write time; a read whose generation does not match
// sees all-X / empty. release() and renew() bump the generation, which
// logically clears every entry the slot ever touched in O(1) — no walk over
// the design is needed to reuse a slot or reset() a scheduler.
//
// Thread-ownership rule: a leased slot's arena entries are only ever touched
// by the thread currently running its scheduler. acquire()/release() are
// serialized by the registry mutex, and handing a scheduler to another
// thread (runConcurrently) synchronizes through thread start and join, so
// no per-entry synchronization is needed on the simulation path.
//
// The registry is process-global rather than per-Circuit: connectors and
// modules size their slot arrays from kCapacity at construction, before they
// are adopted into any circuit, and a scheduler may drive designs spanning
// several circuits (hierarchies, test rigs), so the lease space must be
// shared by everything a scheduler can touch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace vcad {

/// One simulation run's address in the arena: its scheduler's slot and the
/// generation that run stamps on its writes. A generation of 0 never names
/// a run (registry generations start at 1), so SlotRef{} means "none".
struct SlotRef {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;

  explicit operator bool() const { return generation != 0; }
};

class SlotRegistry {
 public:
  /// Arena size. Slot 0 is reserved, so at most kCapacity - 1 schedulers
  /// are live at once. Arena arrays are sized to this at construction so
  /// they never reallocate (reallocation under a concurrent reader would be
  /// a race). 128 comfortably covers the widest existing consumer (a
  /// 64-pattern batch plus its injection controller) while keeping the
  /// per-connector footprint in the kilobytes.
  static constexpr std::uint32_t kCapacity = 128;

  struct Lease {
    std::uint32_t slot;
    std::uint32_t generation;
  };

  SlotRegistry();

  SlotRegistry(const SlotRegistry&) = delete;
  SlotRegistry& operator=(const SlotRegistry&) = delete;

  /// Leases a free slot. Throws std::runtime_error when all slots are in
  /// use — the arena fails loudly instead of silently corrupting state.
  Lease acquire();

  /// Returns a slot to the free list and bumps its generation, logically
  /// clearing every arena entry the leaseholder wrote.
  void release(std::uint32_t slot);

  /// Bumps the generation of a live slot (Scheduler::reset()): O(1) logical
  /// clear of the slot's state without giving the slot up. Returns the new
  /// generation. Owner-thread only.
  std::uint32_t renew(std::uint32_t slot);

  /// Current generation of a slot. Used by the by-scheduler-id compat
  /// accessors; throws std::out_of_range for slot >= kCapacity.
  std::uint32_t currentGeneration(std::uint32_t slot) const;

  /// True while `run` is its slot's live run: neither renewed nor released
  /// since it was addressed. Read-through readers (Connector::valueOrBase)
  /// check this so a reset or destroyed base run reads as all-X.
  bool isCurrent(SlotRef run) const {
    return run && generations_[run.slot].load(std::memory_order_acquire) ==
                      run.generation;
  }

  // --- metrics -----------------------------------------------------------

  /// Slots currently leased.
  std::uint32_t leased() const;
  /// High-water mark of concurrently leased slots since the last
  /// restartPeakTracking() call.
  std::uint32_t peakLeased() const;
  /// Total acquire() calls over the registry's lifetime.
  std::uint64_t totalLeases() const;
  /// Resets the peak to the current leased count (campaigns call this at
  /// start so peakLeased() reports their own concurrency).
  void restartPeakTracking();

  static SlotRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::vector<std::uint32_t> freeList_;  // LIFO; back() is leased next
  std::uint32_t leased_ = 0;
  std::uint32_t peakLeased_ = 0;
  std::uint64_t totalLeases_ = 0;
  // Atomic because compat accessors read generations from threads other
  // than the one releasing/renewing; the hot path never touches these (the
  // scheduler caches its generation at lease/renew time).
  std::array<std::atomic<std::uint32_t>, kCapacity> generations_;
};

}  // namespace vcad
