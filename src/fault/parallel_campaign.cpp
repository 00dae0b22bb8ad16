#include "fault/parallel_campaign.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/slot_registry.hpp"
#include "fault/table_cache.hpp"
#include "fault/worker_pool.hpp"
#include "obs/trace.hpp"

namespace vcad::fault {

ParallelFaultSimulator::ParallelFaultSimulator(
    Circuit& design, std::vector<FaultClient*> components,
    std::vector<Connector*> primaryInputs,
    std::vector<Connector*> primaryOutputs, ParallelCampaignConfig config)
    : design_(design),
      components_(std::move(components)),
      pis_(std::move(primaryInputs)),
      pos_(std::move(primaryOutputs)),
      config_(config) {
  if (components_.empty()) {
    throw std::invalid_argument("ParallelFaultSimulator: no components");
  }
  if (pis_.empty() || pos_.empty()) {
    throw std::invalid_argument(
        "ParallelFaultSimulator: need primary inputs and outputs");
  }
  if (config_.threads == 0) config_.threads = 1;
  if (config_.batchSize == 0) config_.batchSize = 1;
}

void ParallelFaultSimulator::applyPattern(SimulationController& sim,
                                          const std::vector<Word>& pattern) {
  if (pattern.size() != pis_.size()) {
    throw std::invalid_argument("pattern arity does not match primary inputs");
  }
  for (std::size_t i = 0; i < pis_.size(); ++i) {
    sim.inject(*pis_[i], pattern[i]);
  }
  sim.start();
}

CampaignResult ParallelFaultSimulator::run(
    const std::vector<std::vector<Word>>& patterns) {
  SlotRegistry& registry = SlotRegistry::global();
  const std::uint64_t leasesBefore = registry.totalLeases();
  registry.restartPeakTracking();

  obs::SpanScope campaignSpan("campaign.parallel", "campaign");
  campaignSpan.arg("threads", static_cast<double>(config_.threads));
  campaignSpan.arg("batchSize", static_cast<double>(config_.batchSize));
  CampaignResult res;

  // --- Phase 1: compose the symbolic fault lists (identical to serial) ----
  std::vector<std::string> prefixes(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    prefixes[c] = components_[c]->module().name() + "/";
    for (const std::string& s : components_[c]->faultList()) {
      res.faultList.push_back(prefixes[c] + s);
    }
  }

  // Workers beyond the job count just park; one thread means run inline.
  // Each lane pins one pooled controller — one arena slot — for the whole
  // campaign; lane w is only ever driven by pool thread w, so the slot
  // arena's thread-ownership rule makes every state access lock-free.
  WorkerPool pool(config_.threads > 1 ? config_.threads : 0);
  std::vector<std::unique_ptr<SimulationController>> lanes(pool.lanes());
  for (auto& lane : lanes) {
    lane = std::make_unique<SimulationController>(design_);
  }
  res.injectionWorkers = config_.threads;
  res.workerInjections.assign(pool.lanes(), 0);
  std::vector<std::uint64_t> laneResets(pool.lanes(), 0);

  // One pinned fault-free controller per batch position: a batch's golden
  // runs must stay readable until its last injection, because every
  // injection reads through to its pattern's run. Each is reset before it
  // takes the next batch's pattern; the pool barrier hands it between
  // threads. Together with the lanes this is batchSize + lanes arena slots
  // for the whole campaign (the SlotRegistry throws past kCapacity).
  std::vector<std::unique_ptr<SimulationController>> faultFree(
      std::min(config_.batchSize, patterns.size()));
  for (auto& ff : faultFree) {
    ff = std::make_unique<SimulationController>(design_);
  }

  // Per-component table cache keyed by observed input configuration, as in
  // the serial engine (pinned tables have stable addresses, so they can be
  // bound by pointer across later insertions), with an optional view onto
  // the shared result store. Attached after phase 1: remote stubs learn
  // their netlist-version digest from the GetFaultList response.
  std::vector<DetectionTableCache> cache(components_.size());
  if (config_.resultStore != nullptr) {
    for (std::size_t c = 0; c < components_.size(); ++c) {
      cache[c].attachStore(config_.resultStore,
                           components_[c]->versionDigest(),
                           config_.storeNamespace);
    }
  }

  struct PatternRun {
    std::vector<Word> golden;      // fault-free primary-output snapshot
    std::vector<Word> compInputs;  // observed inputs, one per component
  };

  for (std::size_t base = 0; base < patterns.size();
       base += config_.batchSize) {
    const std::size_t batchEnd =
        std::min(base + config_.batchSize, patterns.size());
    const std::size_t nBatch = batchEnd - base;

    // --- Fault-free reference runs for the batch, sharded across the pool,
    // one pinned controller per batch position: golden responses and
    // observed component inputs are snapshotted inside the job, and the
    // runs stay live as the injections' read-through bases. --------------
    obs::SpanScope batchSpan("campaign.batch", "campaign");
    batchSpan.arg("base", static_cast<double>(base));
    batchSpan.arg("patterns", static_cast<double>(nBatch));

    std::vector<PatternRun> runs(nBatch);
    obs::SpanScope faultFreeSpan("campaign.faultFreeBatch", "campaign");
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
    faultFreeSpan.end();

    // --- Batched detection-table fetch: per component, every input
    // configuration of the batch not already cached ships in one
    // GetDetectionTables round trip. -------------------------------------
    obs::SpanScope tableFetchSpan("campaign.tableFetch", "campaign");
    std::vector<std::vector<const DetectionTable*>> tables(
        nBatch, std::vector<const DetectionTable*>(components_.size()));
    // Lifetime holder for uncached-mode tables (must outlive injections).
    std::vector<std::vector<DetectionTable>> fresh(components_.size());
    for (std::size_t c = 0; c < components_.size(); ++c) {
      if (config_.cacheTables) {
        auto& compCache = cache[c];
        std::vector<Word> missing;
        std::vector<std::string> missingKeys;
        std::map<std::string, std::size_t> pending;  // key -> missing index
        for (std::size_t i = 0; i < nBatch; ++i) {
          const Word& inputs = runs[i].compInputs[c];
          const std::string key = inputs.toString();
          if (compCache.findPinned(key) != nullptr ||
              pending.find(key) != pending.end()) {
            ++res.tableCacheHits;
          } else if (compCache.findStored(key, inputs) != nullptr) {
            // Shared-store hit: pinned locally, dropped from the batched
            // fetch entirely — no round trip, no request.
            ++res.tableStoreHits;
          } else {
            pending.emplace(key, missing.size());
            missing.push_back(inputs);
            missingKeys.push_back(key);
            ++res.detectionTablesRequested;
          }
        }
        if (!missing.empty()) {
          std::vector<DetectionTable> fetched =
              components_[c]->detectionTables(missing);
          if (fetched.size() != missing.size()) {
            throw std::runtime_error(
                "detectionTables returned a short batch for component " +
                components_[c]->module().name());
          }
          ++res.tableFetchRoundTrips;
          for (std::size_t j = 0; j < fetched.size(); ++j) {
            compCache.insert(missingKeys[j], missing[j],
                             std::move(fetched[j]));
          }
        }
        for (std::size_t i = 0; i < nBatch; ++i) {
          tables[i][c] =
              compCache.findPinned(runs[i].compInputs[c].toString());
        }
      } else {
        std::vector<Word> all;
        all.reserve(nBatch);
        for (std::size_t i = 0; i < nBatch; ++i) {
          all.push_back(runs[i].compInputs[c]);
        }
        fresh[c] = components_[c]->detectionTables(all);
        if (fresh[c].size() != all.size()) {
          throw std::runtime_error(
              "detectionTables returned a short batch for component " +
              components_[c]->module().name());
        }
        res.detectionTablesRequested += nBatch;
        ++res.tableFetchRoundTrips;
        for (std::size_t i = 0; i < nBatch; ++i) {
          tables[i][c] = &fresh[c][i];
        }
      }
    }
    tableFetchSpan.arg("roundTrips",
                       static_cast<double>(res.tableFetchRoundTrips));
    tableFetchSpan.arg("cacheHits", static_cast<double>(res.tableCacheHits));
    tableFetchSpan.end();

    // --- Injections: patterns commit strictly in order (preserving the
    // per-pattern coverage curve); within a pattern, the row jobs shard
    // across the pooled lanes, each job reset-and-reusing its lane instead
    // of constructing a controller and reading through to the pattern's
    // fault-free run, which no thread writes until the next batch. --------
    for (std::size_t i = 0; i < nBatch; ++i) {
      struct Job {
        std::size_t comp;
        const DetectionTable::Row* row;
        bool observable = false;
      };
      std::vector<Job> jobs;
      for (std::size_t c = 0; c < components_.size(); ++c) {
        for (const DetectionTable::Row& row : tables[i][c]->rows()) {
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

      const SimulationController& ff = *faultFree[i];
      const PatternRun& pr = runs[i];
      obs::SpanScope patternSpan("campaign.pattern", "campaign");
      patternSpan.arg("pattern", static_cast<double>(base + i));
      patternSpan.arg("injections", static_cast<double>(jobs.size()));
      pool.parallelFor(jobs.size(), [&](std::size_t w, std::size_t j) {
        Job& job = jobs[j];
        FaultClient& comp = *components_[job.comp];
        SimulationController& inj = *lanes[w];
        inj.reset();
        ++laneResets[w];
        inj.runInjection(ff, comp.module(),
                         comp.overridesFor(job.row->faultyOutput));
        job.observable = outputsDiffer(inj.scheduler(), pos_, pr.golden);
        ++res.workerInjections[w];
      });

      // Merge after the pool barrier — no detected-set mutex needed.
      for (const Job& job : jobs) {
        if (!job.observable) continue;
        for (const std::string& f : job.row->faults) {
          res.detected.insert(prefixes[job.comp] + f);
        }
      }
      res.injections += jobs.size();
      res.detectedAfterPattern.push_back(res.detected.size());
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

CampaignResult ParallelFaultSimulator::runPacked(
    const std::vector<Word>& packedPatterns) {
  return run(unpackPatterns(packedPatterns, pis_.size()));
}

}  // namespace vcad::fault
