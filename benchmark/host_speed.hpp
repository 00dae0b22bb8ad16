// Host-speed reference for the benchmark's timings.
//
// On a shared host the speed of one fixed piece of code drifts by 1.5-2x
// over minutes and by +-20% within seconds, as other tenants load the
// machine. So the benchmark runs a kernel of its own, which shares nothing
// with the program under test, just before every timed set-up and
// campaign, and scales that interval by kReferenceKernelSec / (the
// kernel's time). A change to the program moves the scaled times exactly
// as it moves the raw ones; a change in host speed moves the kernel too
// and largely cancels.
//
// The kernel is bit-parallel evaluation of a random gate netlist, in two
// sizes, because host slowdowns hit cache-resident compute and work that
// misses the first-level caches differently (README, "Steadiness"):
//   Compute  2,048 gates, ~40 KB, stays in L1: the packed detection-table
//            compute of cone_cold;
//   Engine   65,536 gates, ~1.2 MB: the campaign engine, scheduler, stores
//            and transport of the datapath workloads, and every set-up.
#pragma once

#include <cstdint>
#include <vector>

#include "bench_util.hpp"

namespace vcad::benchmark {

enum class Kernel { Compute, Engine };

/// The kernel's time on the reference host in a quiet period (see README).
constexpr double kReferenceKernelSec = 0.020;

constexpr std::size_t kKernelInputs = 64;

/// Wall time of one run of `k`: about 4 million gate evaluations, 64
/// patterns wide, of 2-input NAND/OR/XOR gates whose fan-in comes from the
/// previous gates within a window.
inline double kernelSec(Kernel k) {
  struct Netlist {
    std::size_t gates, window;
    int passes;
    std::vector<std::uint32_t> a, b;
    std::vector<std::uint8_t> op;
    std::vector<std::uint64_t> value;
    Netlist(std::size_t g, std::size_t w, int p)
        : gates(g), window(w), passes(p), a(g), b(g), op(g), value(g) {
      std::uint64_t x = 0x9E3779B97F4A7C15ULL;
      auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
      };
      for (std::size_t i = kKernelInputs; i < gates; ++i) {
        const std::size_t lo = i > window ? i - window : 0;
        a[i] = static_cast<std::uint32_t>(lo + next() % (i - lo));
        b[i] = static_cast<std::uint32_t>(lo + next() % (i - lo));
        op[i] = static_cast<std::uint8_t>(next() % 3);
      }
    }
  };
  static Netlist compute(2048, 256, 8192);
  static Netlist engine(1 << 16, 4096, 64);
  Netlist& n = k == Kernel::Compute ? compute : engine;

  const auto start = Clock::now();
  std::uint64_t lcg = 1;
  for (int pass = 0; pass < n.passes; ++pass) {
    for (std::size_t g = 0; g < kKernelInputs; ++g) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      n.value[g] = lcg;
    }
    for (std::size_t g = kKernelInputs; g < n.gates; ++g) {
      const std::uint64_t p = n.value[n.a[g]];
      const std::uint64_t q = n.value[n.b[g]];
      n.value[g] = n.op[g] == 0 ? ~(p & q) : n.op[g] == 1 ? (p | q) : (p ^ q);
    }
  }
  volatile std::uint64_t sink = n.value[n.gates - 1];
  (void)sink;
  return secondsSince(start);
}

/// A wall time measured just after a kernel run of `kernelRawSec`, scaled
/// to the reference host's speed.
inline double scaledSec(double sec, double kernelRawSec) {
  return sec / kernelRawSec * kReferenceKernelSec;
}

}  // namespace vcad::benchmark
