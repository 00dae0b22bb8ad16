// Ablation bench for the test-generation extensions:
//
//   1. ATPG: compact test-set size vs. coverage target on the paper's
//      multiplier — how little pattern IP the user must develop (and can
//      keep private under the virtual protocol).
//   2. Compaction effectiveness: raw vs compacted pattern counts.
//
// Google-benchmark cases time ATPG and one full pass per single-bit input
// change: the scalar oracle evaluator (tests/oracles) against one lane of
// the packed engine, the library's only evaluator.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "fault/atpg.hpp"
#include "gate/packed_eval.hpp"
#include "oracles/oracles.hpp"

namespace vcad::bench {
namespace {

void atpgCurve() {
  std::printf("\n[1] ATPG on the 8-bit array multiplier: compact tests vs "
              "coverage target\n");
  std::printf("    %-8s | %9s | %13s | %10s | %10s\n", "target", "patterns",
              "pre-compact", "coverage", "candidates");
  printRule(66);
  const gate::Netlist nl = gate::makeArrayMultiplier(8);
  for (double target : {0.70, 0.80, 0.90, 0.95, 0.99}) {
    fault::AtpgOptions opt;
    opt.targetCoverage = target;
    opt.maxPatterns = 20000;
    opt.giveUpAfterUseless = 2000;
    const auto res = fault::generateTests(nl, opt);
    std::printf("    %7.0f%% | %9zu | %13zu | %9.1f%% | %10zu\n",
                100 * target, res.patterns.size(), res.beforeCompaction,
                100 * res.coverage, res.candidatesTried);
  }
}

void compactionAblation() {
  std::printf("\n[2] static compaction across circuits (target 95%%)\n");
  std::printf("    %-12s | %7s | %13s | %9s | %9s\n", "circuit", "faults",
              "pre-compact", "compacted", "coverage");
  printRule(64);
  struct C {
    const char* name;
    gate::Netlist nl;
  };
  std::vector<C> circuits;
  circuits.push_back({"adder16", gate::makeRippleCarryAdder(16)});
  circuits.push_back({"mult6", gate::makeArrayMultiplier(6)});
  circuits.push_back({"parity32", gate::makeParityTree(32)});
  circuits.push_back({"mux4", gate::makeMux(4)});
  for (auto& c : circuits) {
    fault::AtpgOptions opt;
    opt.targetCoverage = 0.95;
    opt.maxPatterns = 20000;
    opt.giveUpAfterUseless = 2000;
    const auto res = fault::generateTests(c.nl, opt);
    std::printf("    %-12s | %7zu | %13zu | %9zu | %8.1f%%\n", c.name,
                res.faultCount, res.beforeCompaction, res.patterns.size(),
                100 * res.coverage);
  }
}

void BM_FullPass(benchmark::State& state) {
  const gate::Netlist nl =
      gate::makeArrayMultiplier(static_cast<int>(state.range(0)));
  oracles::ScalarEvaluator eval(nl);
  Rng rng(1);
  Word in = Word::fromUint(nl.inputCount(), rng.next());
  for (auto _ : state) {
    in.setBit(static_cast<int>(rng.below(static_cast<std::uint64_t>(nl.inputCount()))),
              rng.chance(0.5) ? Logic::L1 : Logic::L0);
    benchmark::DoNotOptimize(eval.evalOutputs(in));
  }
}
BENCHMARK(BM_FullPass)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_PackedOneLane(benchmark::State& state) {
  const gate::Netlist nl =
      gate::makeArrayMultiplier(static_cast<int>(state.range(0)));
  const gate::PackedEvaluator packed(nl);
  std::vector<gate::LanePlanes> planes;
  Rng rng(1);
  Word in = Word::fromUint(nl.inputCount(), rng.next());
  Word out;
  for (auto _ : state) {
    in.setBit(static_cast<int>(rng.below(static_cast<std::uint64_t>(nl.inputCount()))),
              rng.chance(0.5) ? Logic::L1 : Logic::L0);
    packed.evalOutputs(std::span<const Word>(&in, 1), std::span<Word>(&out, 1),
                       planes);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_PackedOneLane)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_Atpg(benchmark::State& state) {
  const gate::Netlist nl =
      gate::makeArrayMultiplier(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    fault::AtpgOptions opt;
    opt.targetCoverage = 0.9;
    benchmark::DoNotOptimize(fault::generateTests(nl, opt).patterns.size());
  }
}
BENCHMARK(BM_Atpg)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vcad::bench

int main(int argc, char** argv) {
  std::printf("\nATPG and fast-simulation ablations\n");
  vcad::bench::atpgCurve();
  vcad::bench::compactionAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
