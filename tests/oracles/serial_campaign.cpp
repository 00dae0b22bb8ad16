#include <string>

#include "core/sim_controller.hpp"
#include "core/slot_registry.hpp"
#include "fault/table_cache.hpp"
#include "oracles/oracles.hpp"

namespace vcad::oracles {

fault::CampaignResult serialCampaign(
    Circuit& design, const std::vector<fault::FaultClient*>& components,
    const std::vector<Connector*>& primaryInputs,
    const std::vector<Connector*>& primaryOutputs,
    const std::vector<std::vector<Word>>& patterns,
    std::shared_ptr<cache::ResultStore> store, std::uint64_t storeNamespace) {
  SlotRegistry& registry = SlotRegistry::global();
  const std::uint64_t leasesBefore = registry.totalLeases();
  registry.restartPeakTracking();
  fault::CampaignResult res;

  // Phase 1: the union of the components' symbolic fault lists.
  for (fault::FaultClient* comp : components) {
    const std::string prefix = comp->module().name() + "/";
    for (const std::string& s : comp->faultList()) {
      res.faultList.push_back(prefix + s);
    }
  }

  // Phase 2. The caches attach after phase 1: remote stubs learn their
  // netlist-version digest from the GetFaultList response.
  std::vector<fault::DetectionTableCache> tableCache(components.size());
  if (store != nullptr) {
    for (std::size_t c = 0; c < components.size(); ++c) {
      tableCache[c].attachStore(store, components[c]->versionDigest(),
                                storeNamespace);
    }
  }
  for (const std::vector<Word>& pattern : patterns) {
    SimulationController ff(design);
    for (std::size_t i = 0; i < primaryInputs.size(); ++i) {
      ff.inject(*primaryInputs[i], pattern[i]);
    }
    ff.start();
    const SimContext ffCtx{ff.scheduler(), nullptr};
    std::vector<Word> golden;
    for (Connector* po : primaryOutputs) {
      golden.push_back(po->value(ff.scheduler().id()));
    }

    for (std::size_t c = 0; c < components.size(); ++c) {
      fault::FaultClient& comp = *components[c];
      const std::string prefix = comp.module().name() + "/";
      const Word inputs = comp.observedInputs(ffCtx);
      const std::string key = inputs.toString();
      fault::DetectionTableCache& cache = tableCache[c];
      const fault::DetectionTable* table = cache.findPinned(key);
      if (table != nullptr) {
        ++res.tableCacheHits;
      } else if ((table = cache.findStored(key, inputs)) != nullptr) {
        ++res.tableStoreHits;
      } else {
        table = cache.insert(key, inputs, comp.detectionTable(inputs));
        ++res.detectionTablesRequested;
        ++res.tableFetchRoundTrips;
      }

      for (const fault::DetectionTable::Row& row : table->rows()) {
        bool anyUndetected = false;
        for (const std::string& f : row.faults) {
          anyUndetected |= res.detected.count(prefix + f) == 0;
        }
        if (!anyUndetected) continue;
        SimulationController inj(design);
        inj.runInjection(ff, comp.module(),
                         comp.overridesFor(row.faultyOutput));
        ++res.injections;
        if (fault::outputsDiffer(inj.scheduler(), primaryOutputs, golden)) {
          for (const std::string& f : row.faults) {
            res.detected.insert(prefix + f);
          }
        }
        design.clearSchedulerState(inj.scheduler().id());
      }
    }
    design.clearSchedulerState(ff.scheduler().id());
    res.detectedAfterPattern.push_back(res.detected.size());
  }

  res.slotsLeased = registry.totalLeases() - leasesBefore;
  res.peakConcurrentSchedulers = registry.peakLeased();
  return res;
}

}  // namespace vcad::oracles
