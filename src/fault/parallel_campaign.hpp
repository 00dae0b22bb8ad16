// ParallelFaultSimulator: the worker-pool variant of the virtual
// fault-simulation campaign.
//
// The serial VirtualFaultSimulator is a triple loop — one injection at a
// time, one blocking detection-table round trip per (pattern, component).
// Over a WAN profile the campaign is latency-bound exactly the way the
// paper's buffering section warns against. This engine removes both
// bottlenecks while producing bit-identical results:
//
//   * Batched table fetch: patterns are processed in batches; per component,
//     the batch's unseen input configurations ship in ONE GetDetectionTables
//     round trip (the paper's pattern-buffering mechanism applied to fault
//     characterization). The NetworkModel is charged one message pair per
//     batch instead of one per configuration.
//   * Parallel injection: the per-row fault-injection jobs of each pattern
//     shard across N worker threads. Each worker pins one pooled
//     SimulationController — one slot of the state arena — for the whole
//     campaign and reset()s it between jobs (an O(1) generation renew), so
//     the backplane isolates the concurrent runs with no save/restore and
//     no per-injection controller churn, exactly the paper's
//     multi-scheduler guarantee. Injection is read-through
//     (SimulationController::runInjection): a job forces its row's faulty
//     outputs on top of the pattern's fault-free run and simulates only
//     their fanout. Each batch position pins its own fault-free controller,
//     so a batch's fault-free runs stay readable, read-only, while its
//     injections run concurrently. Per-job detection verdicts are recorded
//     lock-free and merged after the pattern's pool barrier.
//
// Equivalence to the serial path: fault list, detected set, and the
// per-pattern coverage curve (detectedAfterPattern) are identical. Patterns
// are still committed in order — a pattern's injection jobs are built from
// the detected set as of the previous pattern — and detection only ever adds
// faults, so intra-pattern ordering cannot change the outcome. Only the
// `injections` effort counter may exceed the serial run's, because rows are
// not dropped mid-pattern by their concurrent siblings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/result_store.hpp"
#include "core/sim_controller.hpp"
#include "fault/fault_client.hpp"
#include "fault/virtual_sim.hpp"

namespace vcad::fault {

struct ParallelCampaignConfig {
  std::size_t threads = 4;    // injection worker threads (<= 1 runs inline)
  std::size_t batchSize = 4;  // patterns whose detection tables are fetched
                              // per round trip (1 = unbatched)
  bool cacheTables = true;    // client-side detection-table cache
  /// Shared result store consulted (and warmed) by the per-component table
  /// caches: configurations a previous campaign already characterized are
  /// served locally, removed from the batched fetch, and counted as
  /// CampaignResult::tableStoreHits. Null = pin-map caching only. Requires
  /// cacheTables.
  std::shared_ptr<cache::ResultStore> resultStore;
  std::uint64_t storeNamespace = 0;  // tenant namespace for the store keys
};

class ParallelFaultSimulator {
 public:
  /// Same contract as VirtualFaultSimulator: `components` are the design's
  /// fault-participating blocks, `primaryInputs`/`primaryOutputs` the
  /// connectors where patterns are applied and responses observed.
  ParallelFaultSimulator(Circuit& design, std::vector<FaultClient*> components,
                         std::vector<Connector*> primaryInputs,
                         std::vector<Connector*> primaryOutputs,
                         ParallelCampaignConfig config = {});

  /// Runs the two-phase campaign over the given patterns (one word per
  /// primary-input connector per pattern).
  CampaignResult run(const std::vector<std::vector<Word>>& patterns);

  /// Convenience for all-single-bit primary inputs: bit i of each packed
  /// word drives primaryInputs[i].
  CampaignResult runPacked(const std::vector<Word>& packedPatterns);

  const ParallelCampaignConfig& config() const { return config_; }

 private:
  void applyPattern(SimulationController& sim,
                    const std::vector<Word>& pattern);

  Circuit& design_;
  std::vector<FaultClient*> components_;
  std::vector<Connector*> pis_;
  std::vector<Connector*> pos_;
  ParallelCampaignConfig config_;
};

}  // namespace vcad::fault
