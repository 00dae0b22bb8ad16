// The benchmark's three workloads and the settings they share.
//
//   cone_cold        packed detection-table compute (provider store misses),
//                    in-process loopback provider
//   datapath_socket  table round trips to a provider process over a Unix
//                    socket: transport, marshalling, job queue, provider
//                    result-store writes
//   datapath_warm    every table served from a warmed client-side result
//                    store: golden evaluation and injection
//
// Each is built from --seed only; the program receives the generated
// netlists and patterns, never the seed.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace vcad::benchmark {

inline const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"cone_cold", "datapath_socket",
                                                 "datapath_warm"};
  return names;
}

/// Oracle record of one workload: what every timed campaign must reproduce
/// bit for bit.
struct CampaignVerdict {
  std::uint64_t faults = 0;
  std::uint64_t detected = 0;
  /// Fault list, detected set and per-pattern coverage curve.
  std::uint64_t detectedDigest = 0;
  /// Serialized detection tables of every block at the all-zero input.
  std::uint64_t tableDigest = 0;
  /// Client fee ledger of one timed campaign of this workload.
  double feesCents = 0.0;
};

/// benchmark/expected.txt: the oracle at the default seed.
struct Expected {
  std::uint64_t seed = 0;
  std::map<std::string, CampaignVerdict> campaigns;
};

std::optional<Expected> loadExpected(const std::string& path);
std::string expectedText(const Expected& e);

struct Options {
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes and short phases: the ctest smoke run.
  bool smoke = false;
  /// Where provider sockets and trace files go. Relative, because a Unix
  /// socket path is limited to 107 bytes.
  std::string outDir = "build-bench/out";
  /// Path of the vcad_bench_provider executable.
  std::string providerBin;
  /// Oracle results to compare against; null runs the oracle after the
  /// measured phase instead.
  const Expected* expected = nullptr;
};

/// A provider socket path unique to this process and `tag`.
inline std::string socketPath(const Options& opt, const std::string& tag) {
  return opt.outDir + "/vb_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Measured with tracing off; every workload reports every one.
inline const std::vector<MetricDef>& endToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"campaign_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

/// Measured by the traced run (decorators on). A metric a workload does
/// not exercise reads 0 there.
inline const std::vector<MetricDef>& perLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"fault.self_s", "s"},
      {"fault.phase1_s", "s"},
      {"fault.injections", "count"},
      {"fault.tables_requested", "count"},
      {"fault.table_cache_hits", "count"},
      {"fault.table_cache_hit_ratio", "ratio"},
      {"core.events", "count"},
      {"core.ns_per_event", "ns"},
      {"core.slots_leased", "count"},
      {"core.scheduler_resets", "count"},
      {"gate.compute_s", "s"},
      {"gate.tables_computed", "count"},
      {"gate.configs_per_call", "count"},
      {"cache.hit_s", "s"},
      {"cache.provider_hits", "count"},
      {"cache.provider_misses", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.client_store_hits", "count"},
      {"cache.bytes", "bytes"},
      {"rmi.table_s", "s"},
      {"rmi.table_p50_ms", "ms"},
      {"rmi.table_p99_ms", "ms"},
      {"rmi.self_s", "s"},
      {"rmi.calls", "count"},
      {"rmi.bytes", "bytes"},
      {"rmi.retries", "count"},
      {"net.transport_s", "s"},
      {"net.frames", "count"},
      {"sim.network_s", "s"},
      {"sim.real_s", "s"},
      {"ip.dispatch_other_s", "s"},
      {"ip.dispatches", "count"},
      {"ip.queue_peak_depth", "count"},
      {"ip.sheds", "count"},
      {"ip.fees_cents", "cents"},
      {"obs.trace_overhead", "ratio"},
      {"host.kernel_ms", "ms"},
  };
  return defs;
}

/// Adds every metric of `defs` to `out`, in order, reading 0 for the ones
/// `values` lacks.
inline void emitMetrics(const std::vector<MetricDef>& defs,
                        const std::map<std::string, double>& values,
                        RunResult& out) {
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    out.add(d.name, it == values.end() ? 0.0 : it->second, d.unit);
  }
}

RunResult runCampaignWorkload(const std::string& name, const Options& opt);

/// Oracle run for --update-expected and for non-default seeds.
CampaignVerdict campaignOracle(const std::string& name, std::uint64_t seed,
                               bool smoke);

}  // namespace vcad::benchmark
