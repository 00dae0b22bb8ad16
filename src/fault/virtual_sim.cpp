#include "fault/virtual_sim.hpp"

#include <cassert>
#include <map>
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
}  // namespace

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
  return injectionWorkers_ == 0 ? runSerialInjection(patterns)
                                : runPooled(patterns);
}

CampaignResult VirtualFaultSimulator::runSerialInjection(
    const std::vector<std::vector<Word>>& patterns) {
  SlotRegistry& registry = SlotRegistry::global();
  const std::uint64_t leasesBefore = registry.totalLeases();
  registry.restartPeakTracking();

  obs::SpanScope campaignSpan("campaign.serial", "campaign");
  CampaignResult res;

  // --- Phase 1: compose the symbolic fault lists -------------------------
  std::vector<std::vector<std::string>> qualified(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    const std::string prefix = components_[c]->module().name() + "/";
    for (const std::string& s : components_[c]->faultList()) {
      qualified[c].push_back(prefix + s);
      res.faultList.push_back(prefix + s);
    }
  }

  // --- Phase 2: per-pattern dynamic estimation ----------------------------
  // Per-component detection-table cache keyed by the component's observed
  // input configuration, with an optional view onto the shared result
  // store. Attached after phase 1: remote stubs learn their netlist-version
  // digest from the GetFaultList response, so it is known by now.
  std::vector<DetectionTableCache> tableCache(components_.size());
  if (store_ != nullptr) {
    for (std::size_t c = 0; c < components_.size(); ++c) {
      tableCache[c].attachStore(store_, components_[c]->versionDigest(),
                                storeNamespace_);
    }
  }
  std::size_t patternIndex = 0;
  for (const std::vector<Word>& pattern : patterns) {
    obs::SpanScope patternSpan("campaign.pattern", "campaign");
    patternSpan.arg("pattern", static_cast<double>(patternIndex++));
    const std::uint64_t injectionsBefore = res.injections;
    // Fault-free reference run.
    SimulationController ff(design_);
    applyPattern(ff, pattern);
    const SimContext ffCtx{ff.scheduler(), nullptr};
    std::vector<Word> goldenPo;
    goldenPo.reserve(pos_.size());
    for (Connector* po : pos_) goldenPo.push_back(po->value(ff.scheduler().id()));

    for (std::size_t c = 0; c < components_.size(); ++c) {
      FaultClient& comp = *components_[c];
      const std::string prefix = comp.module().name() + "/";
      const Word inputs = comp.observedInputs(ffCtx);
      const std::string cacheKey = inputs.toString();
      auto& cache = tableCache[c];
      // Bind the table by reference: copying a cached DetectionTable for
      // every (pattern, component) pair was pure per-pattern overhead.
      DetectionTable fetched;
      const DetectionTable* table = nullptr;
      if (cacheTables_) {
        table = cache.findPinned(cacheKey);
        if (table != nullptr) {
          ++res.tableCacheHits;
        } else if ((table = cache.findStored(cacheKey, inputs)) != nullptr) {
          ++res.tableStoreHits;
        } else {
          table = cache.insert(cacheKey, inputs, comp.detectionTable(inputs));
          ++res.detectionTablesRequested;
          ++res.tableFetchRoundTrips;
        }
      } else {
        fetched = comp.detectionTable(inputs);
        ++res.detectionTablesRequested;
        ++res.tableFetchRoundTrips;
        table = &fetched;
      }

      for (const DetectionTable::Row& row : table->rows()) {
        // Skip rows whose faults are all already detected.
        bool anyUndetected = false;
        for (const std::string& f : row.faults) {
          if (res.detected.find(prefix + f) == res.detected.end()) {
            anyUndetected = true;
            break;
          }
        }
        if (!anyUndetected) continue;

        // Inject the erroneous output configuration on a fresh controller
        // that reads through to the fault-free run.
        SimulationController inj(design_);
        inj.runInjection(ff, comp.module(),
                         comp.overridesFor(row.faultyOutput));
        ++res.injections;
        if (obs::Tracer::global().verbose()) {
          obs::Tracer::global().instant(
              "campaign.inject", "campaign",
              {{"component", static_cast<double>(c)},
               {"rowFaults", static_cast<double>(row.faults.size())}});
        }

        if (outputsDiffer(inj.scheduler(), pos_, goldenPo)) {
          for (const std::string& f : row.faults) res.detected.insert(prefix + f);
        }
        design_.clearSchedulerState(inj.scheduler().id());
      }
    }
    design_.clearSchedulerState(ff.scheduler().id());
    assert(design_.residualStateCount(ff.scheduler().slot()) == 0 &&
           "clearSchedulerState left live state behind");
    res.detectedAfterPattern.push_back(res.detected.size());
    patternSpan.arg("injections",
                    static_cast<double>(res.injections - injectionsBefore));
    patternSpan.arg("detected", static_cast<double>(res.detected.size()));
  }

  res.slotsLeased = registry.totalLeases() - leasesBefore;
  res.peakConcurrentSchedulers = registry.peakLeased();
  campaignSpan.arg("patterns", static_cast<double>(patterns.size()));
  campaignSpan.arg("faults", static_cast<double>(res.faultList.size()));
  campaignSpan.arg("detected", static_cast<double>(res.detected.size()));
  campaignSpan.arg("injections", static_cast<double>(res.injections));
  recordCampaignMetrics(res);
  return res;
}

CampaignResult VirtualFaultSimulator::runPooled(
    const std::vector<std::vector<Word>>& patterns) {
  SlotRegistry& registry = SlotRegistry::global();
  const std::uint64_t leasesBefore = registry.totalLeases();
  registry.restartPeakTracking();

  obs::SpanScope campaignSpan("campaign.pooled", "campaign");
  campaignSpan.arg("workers", static_cast<double>(injectionWorkers_));
  CampaignResult res;

  // --- Phase 1: identical to the serial engine ---------------------------
  std::vector<std::string> prefixes(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    prefixes[c] = components_[c]->module().name() + "/";
    for (const std::string& s : components_[c]->faultList()) {
      res.faultList.push_back(prefixes[c] + s);
    }
  }

  // --- Phase 2: pooled concurrent injection ------------------------------
  // One pinned controller per pool lane plus one for the fault-free
  // reference run; all are leased once and reset-and-reused, so a whole
  // campaign consumes injectionWorkers_ + 1 slots no matter how many
  // patterns and injections it executes.
  WorkerPool pool(injectionWorkers_ > 1 ? injectionWorkers_ : 0);
  std::vector<std::unique_ptr<SimulationController>> lanes(pool.lanes());
  for (auto& lane : lanes) {
    lane = std::make_unique<SimulationController>(design_);
  }
  SimulationController ff(design_);
  res.injectionWorkers = injectionWorkers_;
  res.workerInjections.assign(pool.lanes(), 0);

  std::vector<DetectionTableCache> tableCache(components_.size());
  if (store_ != nullptr) {
    for (std::size_t c = 0; c < components_.size(); ++c) {
      tableCache[c].attachStore(store_, components_[c]->versionDigest(),
                                storeNamespace_);
    }
  }

  struct Job {
    std::size_t comp;
    const DetectionTable::Row* row;
    bool observable = false;
  };

  bool firstPattern = true;
  std::size_t patternIndex = 0;
  for (const std::vector<Word>& pattern : patterns) {
    obs::SpanScope patternSpan("campaign.pattern", "campaign");
    patternSpan.arg("pattern", static_cast<double>(patternIndex++));
    // Fault-free reference run on the pinned ff controller.
    if (!firstPattern) {
      ff.reset();
      ++res.schedulerResets;
    }
    firstPattern = false;
    applyPattern(ff, pattern);
    const SimContext ffCtx{ff.scheduler(), nullptr};
    std::vector<Word> goldenPo;
    goldenPo.reserve(pos_.size());
    for (Connector* po : pos_) {
      goldenPo.push_back(po->value(ff.scheduler().id()));
    }

    // Table fetch stays serial on the coordinator, in component order, so
    // the round-trip/cache accounting matches the serial engine exactly.
    // Uncached tables must outlive this pattern's injection jobs; reserve
    // keeps the row pointers stable.
    std::vector<DetectionTable> freshTables;
    freshTables.reserve(components_.size());
    std::vector<Job> jobs;
    for (std::size_t c = 0; c < components_.size(); ++c) {
      FaultClient& comp = *components_[c];
      const Word inputs = comp.observedInputs(ffCtx);
      const DetectionTable* table = nullptr;
      if (cacheTables_) {
        auto& cache = tableCache[c];
        const std::string cacheKey = inputs.toString();
        table = cache.findPinned(cacheKey);
        if (table != nullptr) {
          ++res.tableCacheHits;
        } else if ((table = cache.findStored(cacheKey, inputs)) != nullptr) {
          ++res.tableStoreHits;
        } else {
          table = cache.insert(cacheKey, inputs, comp.detectionTable(inputs));
          ++res.detectionTablesRequested;
          ++res.tableFetchRoundTrips;
        }
      } else {
        freshTables.push_back(comp.detectionTable(inputs));
        ++res.detectionTablesRequested;
        ++res.tableFetchRoundTrips;
        table = &freshTables.back();
      }

      // Row skip decisions use the detected set as of pattern start. This
      // reproduces the serial engine's per-row decisions exactly: rows of
      // one table are fault-disjoint (a fault's faulty output under fixed
      // inputs is unique, so each fault appears in exactly one row) and
      // component fault names carry distinct "<module>/" prefixes, so
      // nothing detected mid-pattern can overlap another pending row of
      // the same pattern.
      for (const DetectionTable::Row& row : table->rows()) {
        bool anyUndetected = false;
        for (const std::string& f : row.faults) {
          if (res.detected.find(prefixes[c] + f) == res.detected.end()) {
            anyUndetected = true;
            break;
          }
        }
        if (anyUndetected) jobs.push_back(Job{c, &row, false});
      }
    }

    // Row injections shard across the lanes; lane w is only ever driven by
    // pool thread w, so per-slot arena state needs no locks. Each job
    // resets its lane (O(1) generation renew) instead of constructing a
    // controller, then reads through to the ff run, whose slot every lane
    // only reads until the pool barrier.
    std::vector<std::uint64_t> laneResets(lanes.size(), 0);
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
      job.observable = outputsDiffer(inj.scheduler(), pos_, goldenPo);
      ++res.workerInjections[w];
    });

    // Merge after the pool barrier, in job order (set union is
    // order-independent, but determinism keeps this auditable).
    for (const Job& job : jobs) {
      if (!job.observable) continue;
      for (const std::string& f : job.row->faults) {
        res.detected.insert(prefixes[job.comp] + f);
      }
    }
    res.injections += jobs.size();
    for (std::uint64_t r : laneResets) res.schedulerResets += r;
    res.detectedAfterPattern.push_back(res.detected.size());
    patternSpan.arg("injections", static_cast<double>(jobs.size()));
    patternSpan.arg("detected", static_cast<double>(res.detected.size()));
  }

  // Pooled lanes are logically clean after every reset; physically release
  // their arena entries before the controllers die so a finished campaign
  // leaves nothing behind, then verify it.
  design_.clearSchedulerState(ff.scheduler().id());
  assert(design_.residualStateCount(ff.scheduler().slot()) == 0 &&
         "clearSchedulerState left live ff state behind");
  for (auto& lane : lanes) {
    design_.clearSchedulerState(lane->scheduler().id());
    assert(design_.residualStateCount(lane->scheduler().slot()) == 0 &&
           "clearSchedulerState left live lane state behind");
  }

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
