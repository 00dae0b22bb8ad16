// VirtualFaultSimulator: fault simulation of an IP-based design without IP
// disclosure — the paper's central contribution.
//
// Two-phase protocol:
//   Phase 1 (static):  build the design fault list as the union of every
//                      component's symbolic fault list.
//   Phase 2 (dynamic): per test pattern, simulate the fault-free design,
//                      hand each component its observed input configuration,
//                      receive a detection table, and for each table row
//                      with undetected faults inject the erroneous output
//                      configuration into the fault-free design. If a
//                      primary output differs from the fault-free response,
//                      every fault in the row is detected and dropped from
//                      the list.
//
// Injection is read-through (SimulationController::runInjection): the
// injection run takes the pattern's finished fault-free run as its base,
// emits the component's forced outputs at t=0 with the component's event
// handling replaced by the forced assignment, and simulates only their
// fanout cone. Every connector the injection does not write reads the
// fault-free value, so the primary outputs compare exactly as after a full
// faulty re-simulation from the primary inputs. This relies on the design
// being combinational and single-instant, with modules that are pure
// functions of their inputs — which the protocol already assumes.
//
// One engine runs phase 2, on the calling thread. Patterns are processed in
// batches (setTableBatch): per component, the batch's unseen input
// configurations are fetched in one round trip (the paper's pattern
// buffering applied to fault characterization). A single missing
// configuration goes out as detectionTable (GetDetectionTable), two or more
// as one detectionTables (GetDetectionTables) call, so batch 1 puts exactly
// the per-pattern traffic on the wire. The campaign pins one
// SimulationController per batch position for the fault-free runs and one
// for injections — one slot of the state arena each — and reset()s them
// between runs (an O(1) generation renew) instead of reconstructing them.
//
// Every batch size produces the same CampaignResult: patterns commit
// strictly in order and a row's skip decision reads only its own faults,
// which no other row of the pattern holds, so the fault list, detected set,
// coverage curve, injection count and table/cache/store accounting are
// identical. Only tableFetchRoundTrips shrinks with the batch.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/result_store.hpp"
#include "core/sim_controller.hpp"
#include "fault/fault_client.hpp"

namespace vcad::fault {

struct CampaignResult {
  std::vector<std::string> faultList;       // qualified "<module>/<symbol>"
  std::set<std::string> detected;
  std::vector<std::size_t> detectedAfterPattern;  // cumulative per pattern

  // Protocol/effort accounting for the ablation benches.
  std::uint64_t detectionTablesRequested = 0;
  std::uint64_t tableFetchRoundTrips = 0;  // provider message pairs spent on
                                           // tables; < requested when the
                                           // batched GetDetectionTables
                                           // method amortizes them
  std::uint64_t tableCacheHits = 0;  // repeated input configurations served
                                     // from the client-side cache (the paper:
                                     // pattern 1101 "leads to the same
                                     // detection table" as 1100)
  std::uint64_t tableStoreHits = 0;  // configurations this campaign had not
                                     // seen but the shared result store had:
                                     // no client fetch happened, the table
                                     // came from a previous campaign/session
                                     // (not counted in
                                     // detectionTablesRequested)
  std::uint64_t injections = 0;
  std::uint64_t faultSimEvaluations = 0;  // serial baseline only

  // Arena/scheduler metrics: how many scheduler slots the campaign leased
  // from the SlotRegistry, the high-water mark of concurrently live
  // schedulers while it ran, and how often pinned controllers were
  // reset-and-reused instead of reconstructed.
  std::uint64_t slotsLeased = 0;
  std::uint32_t peakConcurrentSchedulers = 0;
  std::uint64_t schedulerResets = 0;

  double coverage() const {
    return faultList.empty() ? 0.0
                             : static_cast<double>(detected.size()) /
                                   static_cast<double>(faultList.size());
  }
};

class VirtualFaultSimulator {
 public:
  /// `components` are the design's fault-participating blocks;
  /// `primaryInputs`/`primaryOutputs` are the connectors where patterns are
  /// applied and responses observed. All connectors must belong to `design`.
  VirtualFaultSimulator(Circuit& design, std::vector<FaultClient*> components,
                        std::vector<Connector*> primaryInputs,
                        std::vector<Connector*> primaryOutputs);

  /// Runs the two-phase campaign over the given patterns. Each pattern
  /// holds one word per primary-input connector, in order.
  CampaignResult run(const std::vector<std::vector<Word>>& patterns);

  /// Convenience for all-single-bit primary inputs: bit i of each packed
  /// word drives primaryInputs[i].
  CampaignResult runPacked(const std::vector<Word>& packedPatterns);

  /// Attaches a shared result store to the per-component table caches:
  /// configurations another campaign (or session, or process — the store
  /// may be disk-backed) already characterized are served locally with no
  /// client fetch, counted as CampaignResult::tableStoreHits. Only
  /// components with a non-zero versionDigest() participate.
  void setResultStore(std::shared_ptr<cache::ResultStore> store,
                      std::uint64_t ns = 0) {
    store_ = std::move(store);
    storeNamespace_ = ns;
  }

  /// Patterns per detection-table fetch (default 1; 0 counts as 1). The
  /// campaign pins one fault-free controller per batch position plus one
  /// injection controller, so batch + 1 must fit in the SlotRegistry's
  /// arena.
  void setTableBatch(std::size_t n) { batch_ = n == 0 ? 1 : n; }

 private:
  /// Simulates one pattern fault-free on `sim` (a fresh or reset
  /// controller). The run stays readable for observed component inputs,
  /// the golden primary outputs, and as the injections' read-through base.
  void applyPattern(SimulationController& sim,
                    const std::vector<Word>& pattern);

  Circuit& design_;
  std::vector<FaultClient*> components_;
  std::vector<Connector*> pis_;
  std::vector<Connector*> pos_;
  std::size_t batch_ = 1;
  std::shared_ptr<cache::ResultStore> store_;
  std::uint64_t storeNamespace_ = 0;
};

/// Expands packed single-bit patterns (bit i -> primary input i) into the
/// one-word-per-input form run() consumes.
std::vector<std::vector<Word>> unpackPatterns(
    const std::vector<Word>& packedPatterns, std::size_t primaryInputs);

/// True when a finished injection run (reading through to its fault-free
/// base) leaves some primary output different from the fault-free response
/// `golden`.
bool outputsDiffer(const Scheduler& injection,
                   const std::vector<Connector*>& primaryOutputs,
                   const std::vector<Word>& golden);

}  // namespace vcad::fault
