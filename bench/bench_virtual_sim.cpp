// Virtual fault-simulation throughput: the serial oracle (a fresh
// controller per injection, oracles::serialCampaign) vs the campaign engine
// at table batch 1 and 64, on multiplier IP campaigns. Reports wall time,
// injections/sec, speedup over serial, bit-identity of the CampaignResult,
// and the arena/scheduler metrics (slots leased, peak concurrent
// schedulers, pinned-controller resets).
//
// Usage: bench_virtual_sim [--quick] [--json PATH] [--obs PREFIX]
//
// Exits non-zero when an engine row's CampaignResult differs from the
// serial oracle's.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
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
/// patterns carry hundreds of row injections.
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
  std::string name;       // campaign scenario
  std::size_t batch = 0;  // 0 = serial oracle
  double wallSec = 0.0;
  std::uint64_t injections = 0;
  bool identical = true;  // CampaignResult matches the serial reference
  std::uint64_t slotsLeased = 0;
  std::uint32_t peakSchedulers = 0;
  std::uint64_t schedulerResets = 0;

  double injectionsPerSec() const {
    return wallSec > 0.0 ? static_cast<double>(injections) / wallSec : 0.0;
  }
};

/// The engine's result at `batch` against the serial oracle's: every field
/// equal, except that batches above 1 may spend fewer table round trips.
bool sameCampaign(const fault::CampaignResult& engine,
                  const fault::CampaignResult& serial, std::size_t batch) {
  const bool roundTrips =
      batch == 1 ? engine.tableFetchRoundTrips == serial.tableFetchRoundTrips
                 : engine.tableFetchRoundTrips <= serial.tableFetchRoundTrips;
  return engine.faultList == serial.faultList &&
         engine.detected == serial.detected &&
         engine.detectedAfterPattern == serial.detectedAfterPattern &&
         engine.detectionTablesRequested == serial.detectionTablesRequested &&
         roundTrips && engine.tableCacheHits == serial.tableCacheHits &&
         engine.injections == serial.injections;
}

/// Runs the scenario on the serial oracle, then on the engine at each
/// table batch; returns one Measurement per row (the oracle first).
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
    m.batch = 0;
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

  for (std::size_t batch : {1u, 64u}) {
    Measurement m;
    m.name = name;
    m.batch = batch;
    fault::CampaignResult res;
    m.wallSec = wallOf([&] {
      fault::VirtualFaultSimulator sim(*inst.circuit, comps, inst.piConns,
                                       inst.poConns);
      sim.setTableBatch(batch);
      res = sim.runPacked(pats);
    });
    m.injections = res.injections;
    m.identical = sameCampaign(res, serial, batch);
    m.slotsLeased = res.slotsLeased;
    m.peakSchedulers = res.peakConcurrentSchedulers;
    m.schedulerResets = res.schedulerResets;
    rows.push_back(m);
  }
  return rows;
}

void printTable(const std::vector<Measurement>& rows) {
  std::printf("\n%-18s | %-8s | %9s | %10s | %11s | %7s | %5s | %4s | %6s | "
              "%7s\n",
              "campaign", "engine", "wall (ms)", "injections", "inj/sec",
              "speedup", "ident", "peak", "leased", "resets");
  for (int i = 0; i < 112; ++i) std::printf("-");
  std::printf("\n");
  double serialWall = 0.0;
  for (const Measurement& m : rows) {
    if (m.batch == 0) serialWall = m.wallSec;
    char engine[32];
    if (m.batch == 0) {
      std::snprintf(engine, sizeof engine, "serial");
    } else {
      std::snprintf(engine, sizeof engine, "batch-%zu", m.batch);
    }
    std::printf("%-18s | %-8s | %9.1f | %10llu | %11.0f | %6.2fx | %5s | "
                "%4u | %6llu | %7llu\n",
                m.name.c_str(), engine, m.wallSec * 1e3,
                static_cast<unsigned long long>(m.injections),
                m.injectionsPerSec(),
                m.wallSec > 0.0 ? serialWall / m.wallSec : 0.0,
                m.identical ? "YES" : "NO", m.peakSchedulers,
                static_cast<unsigned long long>(m.slotsLeased),
                static_cast<unsigned long long>(m.schedulerResets));
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
    if (m.batch == 0) serialWall = m.wallSec;
    std::fprintf(
        f,
        "  {\"campaign\": \"%s\", \"batch\": %zu, \"wall_sec\": %.6f, "
        "\"injections\": %llu, \"injections_per_sec\": %.1f, "
        "\"speedup\": %.3f, \"identical\": %s, \"slots_leased\": %llu, "
        "\"peak_schedulers\": %u, \"scheduler_resets\": %llu}%s\n",
        m.name.c_str(), m.batch, m.wallSec,
        static_cast<unsigned long long>(m.injections), m.injectionsPerSec(),
        m.wallSec > 0.0 ? serialWall / m.wallSec : 0.0,
        m.identical ? "true" : "false",
        static_cast<unsigned long long>(m.slotsLeased), m.peakSchedulers,
        static_cast<unsigned long long>(m.schedulerResets),
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

  std::printf("Virtual fault simulation: serial oracle vs the campaign "
              "engine (%s mode)\n",
              quick ? "quick" : "full");

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
                   "FAIL: %s batch-%zu CampaignResult differs from serial\n",
                   m.name.c_str(), m.batch);
      rc = 1;
    }
  }
  return rc;
}
