#include "fault/virtual_sim.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/slot_registry.hpp"
#include "fault/table_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vcad::fault {

namespace {

/// CampaignResult under its registry names (campaign.*).
void report(const CampaignResult& res, obs::Registry::Tally& t) {
  t.count("campaign.runs", 1);
  t.count("campaign.patterns", res.detectedAfterPattern.size());
  t.count("campaign.faults", res.faultList.size());
  t.count("campaign.detected", res.detected.size());
  t.count("campaign.injections", res.injections);
  t.count("campaign.tablesRequested", res.detectionTablesRequested);
  t.count("campaign.tableRoundTrips", res.tableFetchRoundTrips);
  t.count("campaign.tableCacheHits", res.tableCacheHits);
  t.count("campaign.tableStoreHits", res.tableStoreHits);
  t.count("campaign.slotsLeased", res.slotsLeased);
  t.count("campaign.schedulerResets", res.schedulerResets);
  t.peak("campaign.peakConcurrentSchedulers",
         static_cast<std::int64_t>(res.peakConcurrentSchedulers));
}

}  // namespace

VirtualFaultSimulator::VirtualFaultSimulator(
    Circuit& design, std::vector<FaultClient*> components,
    std::vector<Connector*> primaryInputs,
    std::vector<Connector*> primaryOutputs)
    : design_(design),
      components_(std::move(components)),
      pis_(std::move(primaryInputs)),
      pos_(std::move(primaryOutputs)) {
  if (components_.empty()) {
    throw std::invalid_argument("VirtualFaultSimulator: no components");
  }
  if (pis_.empty() || pos_.empty()) {
    throw std::invalid_argument(
        "VirtualFaultSimulator: need primary inputs and outputs");
  }
}

void VirtualFaultSimulator::applyPattern(SimulationController& sim,
                                         const std::vector<Word>& pattern) {
  if (pattern.size() != pis_.size()) {
    throw std::invalid_argument("pattern arity does not match primary inputs");
  }
  for (std::size_t i = 0; i < pis_.size(); ++i) {
    sim.inject(*pis_[i], pattern[i]);
  }
  sim.start();
}

CampaignResult VirtualFaultSimulator::run(
    const std::vector<std::vector<Word>>& patterns) {
  SlotRegistry& registry = SlotRegistry::global();
  const std::uint64_t leasesBefore = registry.totalLeases();
  registry.restartPeakTracking();

  obs::SpanScope campaignSpan("campaign.run", "campaign");
  campaignSpan.arg("batch", static_cast<double>(batch_));
  CampaignResult res;

  // --- Phase 1: compose the symbolic fault lists -------------------------
  std::vector<std::string> prefixes(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    prefixes[c] = components_[c]->module().name() + "/";
    for (const std::string& s : components_[c]->faultList()) {
      res.faultList.push_back(prefixes[c] + s);
    }
  }

  // --- Phase 2 -----------------------------------------------------------
  // One pinned injection controller, and one pinned fault-free controller
  // per batch position: a batch's golden runs must stay readable until its
  // last injection, because every injection reads through to its
  // pattern's run. Each is reset before its next run. This is batch + 1
  // arena slots for the whole campaign (the SlotRegistry throws once its
  // kCapacity - 1 leasable slots are taken).
  SimulationController inj(design_);
  std::vector<std::unique_ptr<SimulationController>> faultFree(
      std::min(batch_, patterns.size()));
  for (auto& ff : faultFree) {
    ff = std::make_unique<SimulationController>(design_);
  }

  // Per-component table cache keyed by observed input configuration
  // (pinned tables have stable addresses, so rows are bound by pointer
  // across later insertions), with an optional view onto the shared result
  // store. Attached after phase 1: remote stubs learn their netlist-version
  // digest from the GetFaultList response.
  std::vector<DetectionTableCache> cache(components_.size());
  if (store_ != nullptr) {
    for (std::size_t c = 0; c < components_.size(); ++c) {
      cache[c].attachStore(store_, components_[c]->versionDigest(),
                           storeNamespace_);
    }
  }

  struct PatternRun {
    std::vector<Word> golden;      // fault-free primary-output snapshot
    std::vector<Word> compInputs;  // observed inputs, one per component
  };

  for (std::size_t base = 0; base < patterns.size(); base += batch_) {
    const std::size_t nBatch = std::min(batch_, patterns.size() - base);
    obs::SpanScope batchSpan("campaign.batch", "campaign");
    batchSpan.arg("base", static_cast<double>(base));
    batchSpan.arg("patterns", static_cast<double>(nBatch));

    // --- Fault-free runs, one per batch position: golden responses and
    // observed component inputs are snapshotted, and the runs stay live as
    // the injections' read-through bases. --------------------------------
    std::vector<PatternRun> runs(nBatch);
    for (std::size_t i = 0; i < nBatch; ++i) {
      SimulationController& sim = *faultFree[i];
      if (base != 0) {
        sim.reset();
        ++res.schedulerResets;
      }
      applyPattern(sim, patterns[base + i]);
      PatternRun& pr = runs[i];
      const SimContext ctx{sim.scheduler(), nullptr};
      pr.golden.reserve(pos_.size());
      for (Connector* po : pos_) {
        pr.golden.push_back(po->value(sim.scheduler().slot(),
                                      sim.scheduler().slotGeneration()));
      }
      pr.compInputs.reserve(components_.size());
      for (FaultClient* comp : components_) {
        pr.compInputs.push_back(comp->observedInputs(ctx));
      }
    }

    // --- Table fetch, in component order: per component, the batch's
    // configurations that are neither pinned nor in the store go out in
    // one round trip. ------------------------------------------------------
    obs::SpanScope tableFetchSpan("campaign.tableFetch", "campaign");
    std::vector<std::vector<const DetectionTable*>> tables(
        nBatch, std::vector<const DetectionTable*>(components_.size()));
    for (std::size_t c = 0; c < components_.size(); ++c) {
      DetectionTableCache& compCache = cache[c];
      std::vector<std::string> keys(nBatch);
      std::set<std::string> pending;     // keys of this batch's misses
      std::vector<std::size_t> misses;   // batch position of each miss
      std::vector<Word> missing;         // its input configuration
      for (std::size_t i = 0; i < nBatch; ++i) {
        const Word& inputs = runs[i].compInputs[c];
        keys[i] = inputs.toString();
        const DetectionTable*& table = tables[i][c];
        if ((table = compCache.findPinned(keys[i])) != nullptr ||
            pending.count(keys[i]) != 0) {
          ++res.tableCacheHits;
        } else if ((table = compCache.findStored(keys[i], inputs)) !=
                   nullptr) {
          ++res.tableStoreHits;
        } else {
          pending.insert(keys[i]);
          misses.push_back(i);
          missing.push_back(inputs);
          ++res.detectionTablesRequested;
        }
      }
      if (missing.empty()) continue;
      FaultClient& comp = *components_[c];
      std::vector<DetectionTable> fetched;
      if (missing.size() == 1) {
        fetched.push_back(comp.detectionTable(missing.front()));
      } else {
        fetched = comp.detectionTables(missing);
        if (fetched.size() != missing.size()) {
          throw std::runtime_error(
              "detectionTables returned a short batch for component " +
              comp.module().name());
        }
      }
      ++res.tableFetchRoundTrips;
      for (std::size_t j = 0; j < missing.size(); ++j) {
        compCache.insert(keys[misses[j]], missing[j], std::move(fetched[j]));
      }
      for (std::size_t i = 0; i < nBatch; ++i) {
        if (tables[i][c] == nullptr) {
          tables[i][c] = compCache.findPinned(keys[i]);
        }
      }
    }
    tableFetchSpan.end();

    // --- Injections: patterns commit strictly in order (preserving the
    // per-pattern coverage curve). A row is skipped once all its faults
    // are detected. Rows of one table are fault-disjoint (each fault has
    // one faulty output under fixed inputs) and component fault names
    // carry distinct "<module>/" prefixes, so each skip decision sees the
    // detected set as of pattern start. Each injection resets the pinned
    // controller and reads through to the pattern's fault-free run. -------
    for (std::size_t i = 0; i < nBatch; ++i) {
      obs::SpanScope patternSpan("campaign.pattern", "campaign");
      patternSpan.arg("pattern", static_cast<double>(base + i));
      const std::uint64_t injectionsBefore = res.injections;
      for (std::size_t c = 0; c < components_.size(); ++c) {
        FaultClient& comp = *components_[c];
        for (const DetectionTable::Row& row : tables[i][c]->rows()) {
          const bool undetected = std::any_of(
              row.faults.begin(), row.faults.end(), [&](const std::string& f) {
                return res.detected.count(prefixes[c] + f) == 0;
              });
          if (!undetected) continue;
          inj.reset();
          ++res.schedulerResets;
          inj.runInjection(*faultFree[i], comp.module(),
                           comp.overridesFor(row.faultyOutput));
          if (obs::Tracer::global().verbose()) {
            obs::Tracer::global().instant(
                "campaign.inject", "campaign",
                {{"component", static_cast<double>(c)},
                 {"rowFaults", static_cast<double>(row.faults.size())}});
          }
          ++res.injections;
          if (outputsDiffer(inj.scheduler(), pos_, runs[i].golden)) {
            for (const std::string& f : row.faults) {
              res.detected.insert(prefixes[c] + f);
            }
          }
        }
      }
      res.detectedAfterPattern.push_back(res.detected.size());
      patternSpan.arg("injections",
                      static_cast<double>(res.injections - injectionsBefore));
      patternSpan.arg("detected", static_cast<double>(res.detected.size()));
    }
  }

  // Physically release the pinned controllers' arena entries before they
  // die so a finished campaign leaves nothing behind, then verify it.
  const auto release = [&](SimulationController& sim) {
    design_.clearSchedulerState(sim.scheduler().id());
    assert(design_.residualStateCount(sim.scheduler().slot()) == 0 &&
           "clearSchedulerState left live pinned state behind");
  };
  release(inj);
  for (const auto& ff : faultFree) release(*ff);
  res.slotsLeased = registry.totalLeases() - leasesBefore;
  res.peakConcurrentSchedulers = registry.peakLeased();
  campaignSpan.arg("patterns", static_cast<double>(patterns.size()));
  campaignSpan.arg("faults", static_cast<double>(res.faultList.size()));
  campaignSpan.arg("detected", static_cast<double>(res.detected.size()));
  campaignSpan.arg("injections", static_cast<double>(res.injections));
  obs::Registry::global().fold(
      [&res](obs::Registry::Tally& t) { report(res, t); });
  return res;
}

bool outputsDiffer(const Scheduler& injection,
                   const std::vector<Connector*>& primaryOutputs,
                   const std::vector<Word>& golden) {
  for (std::size_t k = 0; k < primaryOutputs.size(); ++k) {
    if (primaryOutputs[k]->valueOrBase(injection.slot(),
                                       injection.slotGeneration(),
                                       injection.base()) != golden[k]) {
      return true;
    }
  }
  return false;
}

CampaignResult VirtualFaultSimulator::runPacked(
    const std::vector<Word>& packedPatterns) {
  return run(unpackPatterns(packedPatterns, pis_.size()));
}

std::vector<std::vector<Word>> unpackPatterns(
    const std::vector<Word>& packedPatterns, std::size_t primaryInputs) {
  std::vector<std::vector<Word>> unpacked;
  unpacked.reserve(packedPatterns.size());
  for (const Word& w : packedPatterns) {
    if (w.width() != static_cast<int>(primaryInputs)) {
      throw std::invalid_argument("packed pattern width != primary inputs");
    }
    std::vector<Word> p;
    p.reserve(primaryInputs);
    for (std::size_t i = 0; i < primaryInputs; ++i) {
      p.push_back(Word::fromLogic(w.bit(static_cast<int>(i))));
    }
    unpacked.push_back(std::move(p));
  }
  return unpacked;
}

}  // namespace vcad::fault
