#include "fault/virtual_sim.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/slot_registry.hpp"
#include "fault/table_cache.hpp"
#include "fault/worker_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vcad::fault {

namespace {
struct CampaignMetrics {
  obs::Registry::MetricId runs, patterns, faults, detected, injections,
      tablesRequested, tableRoundTrips, tableCacheHits, tableStoreHits,
      slotsLeased, schedulerResets;
  obs::Registry::MetricId peakConcurrentSchedulers;

  static const CampaignMetrics& get() {
    static const CampaignMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return CampaignMetrics{r.counter("campaign.runs"),
                             r.counter("campaign.patterns"),
                             r.counter("campaign.faults"),
                             r.counter("campaign.detected"),
                             r.counter("campaign.injections"),
                             r.counter("campaign.tablesRequested"),
                             r.counter("campaign.tableRoundTrips"),
                             r.counter("campaign.tableCacheHits"),
                             r.counter("campaign.tableStoreHits"),
                             r.counter("campaign.slotsLeased"),
                             r.counter("campaign.schedulerResets"),
                             r.gauge("campaign.peakConcurrentSchedulers")};
    }();
    return m;
  }
};

/// Mirrors a finished campaign's accounting into the global obs::Registry
/// (campaign.* counters / gauges); the CampaignResult stays the source of
/// truth.
void recordCampaignMetrics(const CampaignResult& res) {
  const CampaignMetrics& ids = CampaignMetrics::get();
  obs::Registry& reg = obs::Registry::global();
  reg.add(ids.runs);
  reg.add(ids.patterns, res.detectedAfterPattern.size());
  reg.add(ids.faults, res.faultList.size());
  reg.add(ids.detected, res.detected.size());
  reg.add(ids.injections, res.injections);
  reg.add(ids.tablesRequested, res.detectionTablesRequested);
  reg.add(ids.tableRoundTrips, res.tableFetchRoundTrips);
  reg.add(ids.tableCacheHits, res.tableCacheHits);
  reg.add(ids.tableStoreHits, res.tableStoreHits);
  reg.add(ids.slotsLeased, res.slotsLeased);
  reg.add(ids.schedulerResets, res.schedulerResets);
  reg.maxGauge(ids.peakConcurrentSchedulers,
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
  campaignSpan.arg("workers", static_cast<double>(workers_));
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
  // Each lane pins one controller — one arena slot — for the whole
  // campaign; lane w is only ever driven by pool thread w (or the caller
  // when inline), so the slot arena's thread-ownership rule makes every
  // state access lock-free.
  WorkerPool pool(workers_ > 1 ? workers_ : 0);
  std::vector<std::unique_ptr<SimulationController>> lanes(pool.lanes());
  for (auto& lane : lanes) {
    lane = std::make_unique<SimulationController>(design_);
  }
  res.injectionWorkers = workers_;
  res.workerInjections.assign(pool.lanes(), 0);
  std::vector<std::uint64_t> laneResets(pool.lanes(), 0);

  // One pinned fault-free controller per batch position: a batch's golden
  // runs must stay readable until its last injection, because every
  // injection reads through to its pattern's run. Each is reset before it
  // takes the next batch's pattern; the pool barrier hands it between
  // threads. Together with the lanes this is batch + lanes arena slots for
  // the whole campaign (the SlotRegistry throws past kCapacity).
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
  struct Job {
    std::size_t comp;
    const DetectionTable::Row* row;
    bool observable = false;
  };

  for (std::size_t base = 0; base < patterns.size(); base += batch_) {
    const std::size_t nBatch = std::min(batch_, patterns.size() - base);
    obs::SpanScope batchSpan("campaign.batch", "campaign");
    batchSpan.arg("base", static_cast<double>(base));
    batchSpan.arg("patterns", static_cast<double>(nBatch));

    // --- Fault-free runs, one per batch position, sharded across the
    // pool: golden responses and observed component inputs are
    // snapshotted inside the job, and the runs stay live as the
    // injections' read-through bases. -----------------------------------
    std::vector<PatternRun> runs(nBatch);
    pool.parallelFor(nBatch, [&](std::size_t w, std::size_t i) {
      SimulationController& sim = *faultFree[i];
      if (base != 0) {
        sim.reset();
        ++laneResets[w];
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
    });

    // --- Table fetch on the coordinating thread, in component order: per
    // component, the batch's configurations that are neither pinned nor
    // in the store go out in one round trip. ------------------------------
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
    // per-pattern coverage curve). Row skip decisions use the detected set
    // as of pattern start, which matches one-row-at-a-time dropping: rows
    // of one table are fault-disjoint (each fault has one faulty output
    // under fixed inputs) and component fault names carry distinct
    // "<module>/" prefixes. Each job resets its lane and reads through to
    // the pattern's fault-free run, which no thread writes until the next
    // batch. --------------------------------------------------------------
    for (std::size_t i = 0; i < nBatch; ++i) {
      obs::SpanScope patternSpan("campaign.pattern", "campaign");
      patternSpan.arg("pattern", static_cast<double>(base + i));
      std::vector<Job> jobs;
      for (std::size_t c = 0; c < components_.size(); ++c) {
        for (const DetectionTable::Row& row : tables[i][c]->rows()) {
          for (const std::string& f : row.faults) {
            if (res.detected.find(prefixes[c] + f) == res.detected.end()) {
              jobs.push_back(Job{c, &row, false});
              break;
            }
          }
        }
      }

      const SimulationController& ff = *faultFree[i];
      const std::vector<Word>& golden = runs[i].golden;
      pool.parallelFor(jobs.size(), [&](std::size_t w, std::size_t j) {
        Job& job = jobs[j];
        FaultClient& comp = *components_[job.comp];
        SimulationController& inj = *lanes[w];
        inj.reset();
        ++laneResets[w];
        inj.runInjection(ff, comp.module(),
                         comp.overridesFor(job.row->faultyOutput));
        if (obs::Tracer::global().verbose()) {
          obs::Tracer::global().instant(
              "campaign.inject", "campaign",
              {{"lane", static_cast<double>(w)},
               {"component", static_cast<double>(job.comp)},
               {"rowFaults", static_cast<double>(job.row->faults.size())}});
        }
        job.observable = outputsDiffer(inj.scheduler(), pos_, golden);
        ++res.workerInjections[w];
      });

      // Merge after the pool barrier, in job order — no detected-set mutex.
      for (const Job& job : jobs) {
        if (!job.observable) continue;
        for (const std::string& f : job.row->faults) {
          res.detected.insert(prefixes[job.comp] + f);
        }
      }
      res.injections += jobs.size();
      res.detectedAfterPattern.push_back(res.detected.size());
      patternSpan.arg("injections", static_cast<double>(jobs.size()));
      patternSpan.arg("detected", static_cast<double>(res.detected.size()));
    }
  }

  // Physically release the pinned controllers' arena entries before they
  // die so a finished campaign leaves nothing behind, then verify it.
  for (const auto* pinned : {&lanes, &faultFree}) {
    for (const auto& sim : *pinned) {
      design_.clearSchedulerState(sim->scheduler().id());
      assert(design_.residualStateCount(sim->scheduler().slot()) == 0 &&
             "clearSchedulerState left live pinned state behind");
    }
  }
  for (std::uint64_t r : laneResets) res.schedulerResets += r;
  res.slotsLeased = registry.totalLeases() - leasesBefore;
  res.peakConcurrentSchedulers = registry.peakLeased();
  campaignSpan.arg("patterns", static_cast<double>(patterns.size()));
  campaignSpan.arg("faults", static_cast<double>(res.faultList.size()));
  campaignSpan.arg("detected", static_cast<double>(res.detected.size()));
  campaignSpan.arg("injections", static_cast<double>(res.injections));
  recordCampaignMetrics(res);
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
