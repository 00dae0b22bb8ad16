// Virtual fault-simulation throughput: the serial oracle (a fresh
// controller per injection, oracles::serialCampaign) vs the campaign engine
// across an injection-worker sweep (setInjectionWorkers), on multiplier IP
// campaigns. Reports wall time, injections/sec, speedup over serial,
// bit-identity of the CampaignResult, and the arena/scheduler metrics
// (slots leased, peak concurrent schedulers, pooled resets, lane balance).
//
// Usage: bench_virtual_sim [--quick] [--json PATH]
//
// Acceptance gate: on a host with >= 8 hardware threads, the engine at 8
// workers must reach >= 3x the serial phase-2 injection throughput on
// the mult16 campaign. On smaller hosts the sweep still runs (and the
// bit-identity check still applies) but the speedup gate is skipped — a
// pool cannot outrun the serial engine without cores to run on.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/rng.hpp"
#include "fault/block_design.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "oracles/oracles.hpp"

namespace vcad::bench {
namespace {

std::shared_ptr<const gate::Netlist> share(gate::Netlist nl) {
  return std::make_shared<const gate::Netlist>(std::move(nl));
}

double wallOf(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// A single w-bit array multiplier as a fault-participating IP block; the
/// campaign's fault list is the multiplier's own collapsed list, so early
/// patterns carry hundreds of row injections — the phase-2 work the pool
/// shards.
fault::BlockDesign makeMultCampaign(int w) {
  fault::BlockDesign d;
  const int pis = 2 * w;
  for (int i = 0; i < pis; ++i) d.addPrimaryInput("pi" + std::to_string(i));
  const int m = d.addBlock("MULT", share(gate::makeArrayMultiplier(w)));
  for (int i = 0; i < pis; ++i) d.connect({-1, i}, m, i);
  for (int i = 0; i < 2 * w; ++i) d.markPrimaryOutput(m, i);
  return d;
}

std::vector<Word> randomPatterns(int width, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(Word::fromUint(width, rng.next()));
  }
  return out;
}

struct Measurement {
  std::string name;         // campaign scenario
  std::size_t workers = 0;  // 0 = serial oracle
  double wallSec = 0.0;
  std::uint64_t injections = 0;
  bool identical = true;  // CampaignResult matches the serial reference
  std::uint64_t slotsLeased = 0;
  std::uint32_t peakSchedulers = 0;
  std::uint64_t schedulerResets = 0;
  double laneBalance = 1.0;  // min/max lane injection share (1.0 = even)

  double injectionsPerSec() const {
    return wallSec > 0.0 ? static_cast<double>(injections) / wallSec : 0.0;
  }
};

bool sameCampaign(const fault::CampaignResult& a,
                  const fault::CampaignResult& b) {
  return a.faultList == b.faultList && a.detected == b.detected &&
         a.detectedAfterPattern == b.detectedAfterPattern &&
         a.detectionTablesRequested == b.detectionTablesRequested &&
         a.tableFetchRoundTrips == b.tableFetchRoundTrips &&
         a.tableCacheHits == b.tableCacheHits && a.injections == b.injections;
}

/// Runs the scenario on the serial oracle, then on the engine across the
/// worker sweep; returns one Measurement per row (the oracle first).
std::vector<Measurement> sweepScenario(const std::string& name, int multBits,
                                       int patternCount) {
  const fault::BlockDesign d = makeMultCampaign(multBits);
  auto inst = d.instantiate();
  fault::LocalFaultBlock client(*inst.blockModules[0], /*dominance=*/true,
                                fault::FaultScope{false, true});
  std::vector<fault::FaultClient*> comps{&client};
  const auto pats =
      randomPatterns(d.primaryInputCount(), patternCount, 0xC0FFEE ^ multBits);

  std::vector<Measurement> rows;
  fault::CampaignResult serial;
  {
    Measurement m;
    m.name = name;
    m.workers = 0;
    const auto unpacked =
        fault::unpackPatterns(pats, inst.piConns.size());
    m.wallSec = wallOf([&] {
      serial = oracles::serialCampaign(*inst.circuit, comps, inst.piConns,
                                       inst.poConns, unpacked);
    });
    m.injections = serial.injections;
    m.slotsLeased = serial.slotsLeased;
    m.peakSchedulers = serial.peakConcurrentSchedulers;
    m.schedulerResets = serial.schedulerResets;
    rows.push_back(m);
  }

  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    Measurement m;
    m.name = name;
    m.workers = workers;
    fault::CampaignResult res;
    m.wallSec = wallOf([&] {
      fault::VirtualFaultSimulator sim(*inst.circuit, comps, inst.piConns,
                                       inst.poConns);
      sim.setInjectionWorkers(workers);
      res = sim.runPacked(pats);
    });
    m.injections = res.injections;
    m.identical = sameCampaign(res, serial);
    m.slotsLeased = res.slotsLeased;
    m.peakSchedulers = res.peakConcurrentSchedulers;
    m.schedulerResets = res.schedulerResets;
    if (!res.workerInjections.empty()) {
      std::uint64_t lo = res.workerInjections[0];
      std::uint64_t hi = res.workerInjections[0];
      for (std::uint64_t n : res.workerInjections) {
        lo = n < lo ? n : lo;
        hi = n > hi ? n : hi;
      }
      m.laneBalance = hi > 0 ? static_cast<double>(lo) /
                                   static_cast<double>(hi)
                             : 1.0;
    }
    rows.push_back(m);
  }
  return rows;
}

void printTable(const std::vector<Measurement>& rows) {
  std::printf("\n%-18s | %-7s | %9s | %10s | %11s | %7s | %5s | %4s | %6s | "
              "%7s | %4s\n",
              "campaign", "engine", "wall (ms)", "injections", "inj/sec",
              "speedup", "ident", "peak", "leased", "resets", "bal");
  for (int i = 0; i < 118; ++i) std::printf("-");
  std::printf("\n");
  double serialWall = 0.0;
  for (const Measurement& m : rows) {
    if (m.workers == 0) serialWall = m.wallSec;
    char engine[32];
    if (m.workers == 0) {
      std::snprintf(engine, sizeof engine, "serial");
    } else {
      std::snprintf(engine, sizeof engine, "pool-%zu", m.workers);
    }
    std::printf("%-18s | %-7s | %9.1f | %10llu | %11.0f | %6.2fx | %5s | "
                "%4u | %6llu | %7llu | %4.2f\n",
                m.name.c_str(), engine, m.wallSec * 1e3,
                static_cast<unsigned long long>(m.injections),
                m.injectionsPerSec(),
                m.wallSec > 0.0 ? serialWall / m.wallSec : 0.0,
                m.identical ? "YES" : "NO", m.peakSchedulers,
                static_cast<unsigned long long>(m.slotsLeased),
                static_cast<unsigned long long>(m.schedulerResets),
                m.laneBalance);
  }
}

void writeJson(const std::string& path, const std::vector<Measurement>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  double serialWall = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    if (m.workers == 0) serialWall = m.wallSec;
    std::fprintf(
        f,
        "  {\"campaign\": \"%s\", \"workers\": %zu, \"wall_sec\": %.6f, "
        "\"injections\": %llu, \"injections_per_sec\": %.1f, "
        "\"speedup\": %.3f, \"identical\": %s, \"slots_leased\": %llu, "
        "\"peak_schedulers\": %u, \"scheduler_resets\": %llu, "
        "\"lane_balance\": %.3f}%s\n",
        m.name.c_str(), m.workers, m.wallSec,
        static_cast<unsigned long long>(m.injections), m.injectionsPerSec(),
        m.wallSec > 0.0 ? serialWall / m.wallSec : 0.0,
        m.identical ? "true" : "false",
        static_cast<unsigned long long>(m.slotsLeased), m.peakSchedulers,
        static_cast<unsigned long long>(m.schedulerResets), m.laneBalance,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace vcad::bench

int main(int argc, char** argv) {
  using namespace vcad::bench;
  bool quick = false;
  std::string jsonPath;
  std::string obsPrefix;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strcmp(argv[i], "--obs") == 0 && i + 1 < argc) {
      obsPrefix = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json PATH] [--obs PREFIX]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!obsPrefix.empty()) vcad::obs::Tracer::global().setEnabled(true);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Virtual fault simulation: serial oracle vs engine phase-2 "
              "injection (%s mode, %u hardware threads)\n",
              quick ? "quick" : "full", hw);

  std::vector<Measurement> rows;
  {
    const auto r = sweepScenario("campaign/mult8", 4, quick ? 12 : 48);
    rows.insert(rows.end(), r.begin(), r.end());
  }
  {
    // The paper-scale campaign: a 16-input array-multiplier IP. Heavy per
    // injection, so quick mode trims the pattern budget.
    const auto r = sweepScenario("campaign/mult16", 8, quick ? 4 : 16);
    rows.insert(rows.end(), r.begin(), r.end());
  }

  printTable(rows);
  if (!jsonPath.empty()) writeJson(jsonPath, rows);
  if (!obsPrefix.empty()) writeObsArtifacts(obsPrefix);

  int rc = 0;
  for (const Measurement& m : rows) {
    if (!m.identical) {
      std::fprintf(stderr,
                   "FAIL: %s pool-%zu CampaignResult differs from serial\n",
                   m.name.c_str(), m.workers);
      rc = 1;
    }
  }

  // Throughput gate, meaningful only when the host can actually run 8
  // injection lanes in parallel.
  if (hw >= 8) {
    double serialWall = 0.0;
    for (const Measurement& m : rows) {
      if (m.name == "campaign/mult16" && m.workers == 0) serialWall = m.wallSec;
      if (m.name == "campaign/mult16" && m.workers == 8) {
        const double speedup = m.wallSec > 0.0 ? serialWall / m.wallSec : 0.0;
        if (speedup < 3.0) {
          std::fprintf(stderr,
                       "FAIL: campaign/mult16 pool-8 speedup %.2fx < 3x\n",
                       speedup);
          rc = 1;
        }
      }
    }
  } else {
    std::printf("(speedup gate skipped: only %u hardware threads)\n", hw);
  }
  return rc;
}
