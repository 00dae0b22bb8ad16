// Packed-vs-scalar evaluation bench: measures the bit-parallel engine's
// throughput (patterns/sec) against the scalar NetlistEvaluator on the
// paper's circuits, the end-to-end serial fault-campaign speedup, and the
// provider's detection-table traffic shape (one configuration per table,
// reported in the same columns as tables/sec).
//
// Usage:
//   bench_packed_eval [--quick] [--json PATH]
//
// --quick shrinks pattern counts and circuit sizes for CI smoke runs;
// --json writes the measurements as a machine-readable JSON array (the CI
// artifact BENCH_packed_eval.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/rng.hpp"
#include "fault/detection.hpp"
#include "fault/serial_sim.hpp"
#include "gate/family.hpp"
#include "gate/generators.hpp"
#include "gate/packed_eval.hpp"
#include "oracles/oracles.hpp"

namespace vcad::bench {
namespace {

std::vector<Word> randomPatterns(int width, std::size_t count,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(Word::fromUint(width, rng.next()));
  }
  return out;
}

double secondsOf(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Measurement {
  std::string name;
  std::size_t gates = 0;
  std::size_t patterns = 0;
  double scalarPatternsPerSec = 0.0;
  double packedPatternsPerSec = 0.0;

  double speedup() const {
    return scalarPatternsPerSec > 0.0
               ? packedPatternsPerSec / scalarPatternsPerSec
               : 0.0;
  }
};

/// Raw evaluation throughput: full-netlist passes per second, scalar
/// (evaluateInto with a reused scratch buffer — its best case) vs packed.
Measurement evalThroughput(const std::string& name, const gate::Netlist& nl,
                           std::size_t nPatterns) {
  Measurement m;
  m.name = name;
  m.gates = static_cast<std::size_t>(nl.gateCount());
  m.patterns = nPatterns;
  const auto patterns = randomPatterns(nl.inputCount(), nPatterns, 0xbe1c4);

  const gate::NetlistEvaluator eval(nl);
  std::vector<Logic> scratch;
  int sinkAcc = 0;
  volatile int sink = 0;
  const double scalarSec = secondsOf([&] {
    for (const Word& p : patterns) {
      eval.evaluateInto(p, scratch);
      sinkAcc += static_cast<int>(scratch.back());
    }
  });

  const gate::PackedEvaluator packed(nl);
  std::vector<gate::LanePlanes> planes;
  const double packedSec = secondsOf([&] {
    for (std::size_t base = 0; base < patterns.size();
         base += gate::PackedEvaluator::kLanes) {
      const std::size_t lanes = std::min<std::size_t>(
          gate::PackedEvaluator::kLanes, patterns.size() - base);
      packed.evaluate(packed.pack(patterns, base, lanes), planes);
      sinkAcc += static_cast<int>(planes.back().val);
    }
  });
  sink = sinkAcc;
  (void)sink;

  m.scalarPatternsPerSec = static_cast<double>(nPatterns) / scalarSec;
  m.packedPatternsPerSec = static_cast<double>(nPatterns) / packedSec;
  return m;
}

/// End-to-end serial fault campaign (collapsed faults, fault dropping):
/// packed run() vs the scalar reference oracles::runScalar().
Measurement campaignThroughput(const std::string& name,
                               const gate::Netlist& nl,
                               std::size_t nPatterns) {
  Measurement m;
  m.name = name;
  m.gates = static_cast<std::size_t>(nl.gateCount());
  m.patterns = nPatterns;
  const auto patterns = randomPatterns(nl.inputCount(), nPatterns, 0xbe1c5);

  fault::SerialFaultSimulator sim(nl, true);
  std::size_t packedDetected = 0, scalarDetected = 0;
  const double packedSec =
      secondsOf([&] { packedDetected = sim.run(patterns).detected.size(); });
  const double scalarSec = secondsOf([&] {
    scalarDetected = oracles::runScalar(sim, patterns).detected.size();
  });
  if (packedDetected != scalarDetected) {
    std::fprintf(stderr, "FATAL: %s packed/scalar campaign disagree\n",
                 name.c_str());
    std::exit(1);
  }
  m.scalarPatternsPerSec = static_cast<double>(nPatterns) / scalarSec;
  m.packedPatternsPerSec = static_cast<double>(nPatterns) / packedSec;
  return m;
}

/// One detection table per call, as the provider serves them: one
/// configuration against every collapsed fault, scalar buildDetectionTable
/// vs the packed fault-parallel builder. "patterns" counts tables.
Measurement tableThroughput(const std::string& name, const gate::Netlist& nl,
                            std::size_t nTables) {
  Measurement m;
  m.name = name;
  m.gates = static_cast<std::size_t>(nl.gateCount());
  m.patterns = nTables;
  const auto configs = randomPatterns(nl.inputCount(), nTables, 0xbe1c6);
  const fault::CollapsedFaults collapsed = fault::collapseAll(nl);

  const gate::NetlistEvaluator eval(nl);
  std::vector<fault::DetectionTable> scalar, packedTables;
  const double scalarSec = secondsOf([&] {
    for (const Word& c : configs) {
      scalar.push_back(fault::buildDetectionTable(eval, collapsed, c));
    }
  });
  const gate::PackedEvaluator packed(nl);
  const double packedSec = secondsOf([&] {
    for (const Word& c : configs) {
      packedTables.push_back(
          std::move(fault::buildDetectionTables(packed, collapsed, {c})[0]));
    }
  });
  for (std::size_t i = 0; i < nTables; ++i) {
    if (scalar[i].toString() != packedTables[i].toString()) {
      std::fprintf(stderr, "FATAL: %s packed/scalar table %zu disagree\n",
                   name.c_str(), i);
      std::exit(1);
    }
  }
  m.scalarPatternsPerSec = static_cast<double>(nTables) / scalarSec;
  m.packedPatternsPerSec = static_cast<double>(nTables) / packedSec;
  return m;
}

void printTable(const std::vector<Measurement>& rows) {
  std::printf("\n%-28s %8s %9s %14s %14s %9s\n", "benchmark", "gates",
              "patterns", "scalar pat/s", "packed pat/s", "speedup");
  for (const Measurement& m : rows) {
    std::printf("%-28s %8zu %9zu %14.0f %14.0f %8.1fx\n", m.name.c_str(),
                m.gates, m.patterns, m.scalarPatternsPerSec,
                m.packedPatternsPerSec, m.speedup());
  }
}

void writeJson(const std::string& path, const std::vector<Measurement>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"gates\": %zu, \"patterns\": %zu, "
                 "\"scalar_patterns_per_sec\": %.1f, "
                 "\"packed_patterns_per_sec\": %.1f, \"speedup\": %.2f}%s\n",
                 m.name.c_str(), m.gates, m.patterns, m.scalarPatternsPerSec,
                 m.packedPatternsPerSec, m.speedup(),
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

  const std::size_t evalPatterns = quick ? 64 * 32 : 64 * 512;
  std::vector<Measurement> rows;
  std::printf("Packed bit-parallel evaluation vs scalar (%s mode)\n",
              quick ? "quick" : "full");

  rows.push_back(evalThroughput("eval/adder16",
                                vcad::gate::makeRippleCarryAdder(16),
                                evalPatterns));
  rows.push_back(evalThroughput("eval/mult8", vcad::gate::makeArrayMultiplier(8),
                                evalPatterns));
  rows.push_back(evalThroughput("eval/mult16",
                                vcad::gate::makeArrayMultiplier(16),
                                quick ? 64 * 8 : evalPatterns));

  rows.push_back(campaignThroughput("campaign/mult4",
                                    vcad::gate::makeArrayMultiplier(4),
                                    quick ? 64 : 256));
  if (!quick) {
    rows.push_back(campaignThroughput(
        "campaign/mult6", vcad::gate::makeArrayMultiplier(6), 256));
  }

  rows.push_back(tableThroughput(
      "table/cone1024", vcad::gate::makeRandomCone(0xc0e1024, 8, 1024, 4),
      quick ? 4 : 32));

  printTable(rows);
  if (!jsonPath.empty()) writeJson(jsonPath, rows);
  if (!obsPrefix.empty()) writeObsArtifacts(obsPrefix);

  // Acceptance gate: the packed engine must be >= 10x scalar on the paper's
  // 16-bit multiplier (raw evaluation throughput).
  for (const Measurement& m : rows) {
    if (m.name == "eval/mult16" && m.speedup() < 10.0) {
      std::fprintf(stderr, "FAIL: eval/mult16 speedup %.1fx < 10x\n",
                   m.speedup());
      return 1;
    }
  }
  return 0;
}
