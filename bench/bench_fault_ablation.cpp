// Ablation bench for virtual fault simulation (the paper's Figures 4/5
// mechanism, scaled up):
//
//   1. Virtual (detection-table) vs full-disclosure serial simulation:
//      identical detected fault sets, and the protocol cost of IP
//      protection (tables requested, injections run, bytes shipped when the
//      IP block is remote).
//   2. Fault collapsing ablation: fault-list and detection-table sizes with
//      no collapsing / equivalence only / equivalence + dominance.
//   3. Network-profile sweep for the remote case: what detection-table
//      traffic costs over localhost / LAN / WAN.
//   4. (--cache) Result-store cold/warm sweep: the same remote campaign
//      against a fresh provider with an empty shared store (cold) and a
//      fresh provider re-attached to the warmed store (warm), plus an
//      uncached baseline. Reports hit rate and end-to-end speedup per
//      multiplier width; --min-warm-speedup gates CI on the widest cell.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "cache/result_store.hpp"
#include "common.hpp"
#include "fault/block_design.hpp"
#include "fault/dictionary.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"

namespace vcad::bench {
namespace {

using fault::BlockDesign;

std::shared_ptr<const gate::Netlist> share(gate::Netlist nl) {
  return std::make_shared<const gate::Netlist>(std::move(nl));
}

/// A mid-size 4-block design: adder feeding parity, mux and comparator.
BlockDesign makeDesign() {
  BlockDesign d;
  const int w = 4;
  for (int i = 0; i < 2 * w; ++i) d.addPrimaryInput("pi" + std::to_string(i));
  const int add = d.addBlock("ADD", share(gate::makeRippleCarryAdder(w)));
  const int par = d.addBlock("PAR", share(gate::makeParityTree(w + 1)));
  const int mux = d.addBlock("MUX", share(gate::makeMux(2)));
  const int cmp = d.addBlock("CMP", share(gate::makeComparator(2)));
  for (int i = 0; i < 2 * w; ++i) d.connect({-1, i}, add, i);
  for (int i = 0; i < w + 1; ++i) d.connect({add, i}, par, i);
  for (int i = 0; i < 4; ++i) d.connect({add, i}, mux, i);
  d.connect({add, 0}, mux, 4);
  d.connect({add, 3}, mux, 5);
  d.connect({add, 1}, cmp, 0);
  d.connect({-1, 0}, cmp, 1);
  d.connect({add, 2}, cmp, 2);
  d.connect({-1, 1}, cmp, 3);
  d.markPrimaryOutput(par, 0, "PARITY");
  d.markPrimaryOutput(mux, 0, "MUXOUT");
  d.markPrimaryOutput(cmp, 0, "EQ");
  d.markPrimaryOutput(add, w, "COUT");
  return d;
}

std::vector<Word> patterns(int width, int count) {
  Rng rng(0xFA117);
  std::vector<Word> out;
  for (int i = 0; i < count; ++i) out.push_back(Word::fromUint(width, rng.next()));
  return out;
}

double wallOf(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void virtualVsSerial() {
  const BlockDesign d = makeDesign();
  auto inst = d.instantiate();
  std::vector<std::unique_ptr<fault::LocalFaultBlock>> clients;
  for (int b = 0; b < d.blockCount(); ++b) {
    clients.push_back(std::make_unique<fault::LocalFaultBlock>(
        *inst.blockModules[static_cast<size_t>(b)], true,
        fault::FaultScope{false, true}));
  }
  std::vector<fault::FaultClient*> comps;
  for (auto& c : clients) comps.push_back(c.get());
  const auto pats = patterns(d.primaryInputCount(), 32);

  fault::CampaignResult vres;
  const double vWall = wallOf([&] {
    fault::VirtualFaultSimulator vsim(*inst.circuit, comps, inst.piConns,
                                      inst.poConns);
    vres = vsim.runPacked(pats);
  });

  const gate::Netlist flat = d.flatten();
  std::vector<gate::StuckFault> faults;
  for (const auto& qs : vres.faultList) {
    faults.push_back(fault::flatFaultOf(flat, qs));
  }
  fault::CampaignResult gold;
  const double sWall = wallOf([&] {
    fault::SerialFaultSimulator serial(flat, faults, vres.faultList);
    gold = serial.run(pats);
  });

  std::printf("\n[1] virtual vs full-disclosure serial (32 patterns, %zu "
              "faults, %d blocks)\n",
              vres.faultList.size(), d.blockCount());
  std::printf("    identical detected sets : %s (%zu faults, %.1f%% "
              "coverage)\n",
              vres.detected == gold.detected ? "YES" : "NO",
              vres.detected.size(), 100 * vres.coverage());
  std::printf("    identical drop order    : %s\n",
              vres.detectedAfterPattern == gold.detectedAfterPattern ? "YES"
                                                                     : "NO");
  std::printf("    virtual: %.1f ms (%llu tables fetched, %llu cache hits, "
              "%llu injections) | serial: %.1f ms (%llu evaluations)\n",
              vWall * 1e3,
              static_cast<unsigned long long>(vres.detectionTablesRequested),
              static_cast<unsigned long long>(vres.tableCacheHits),
              static_cast<unsigned long long>(vres.injections), sWall * 1e3,
              static_cast<unsigned long long>(gold.faultSimEvaluations));
  std::printf("    IP-protection overhead  : %.1fx wall time\n",
              vWall / sWall);
}

void collapsingAblation() {
  std::printf("\n[2] fault collapsing ablation (per block)\n");
  std::printf("    %-6s | %9s | %12s | %16s | %19s\n", "block", "raw",
              "equivalence", "equiv+dominance", "avg table rows");
  printRule(80);
  const BlockDesign d = makeDesign();
  for (int b = 0; b < d.blockCount(); ++b) {
    const gate::Netlist& nl = d.blockNetlist(b);
    const auto universe = fault::enumerateFaults(nl, false, true);
    const auto eq = fault::collapseEquivalent(nl, universe);
    const auto dom = fault::collapseDominance(nl, eq);
    // Average detection-table row count over all input configurations.
    gate::NetlistEvaluator ev(nl);
    double rows = 0;
    const int configs = 1 << nl.inputCount();
    for (int v = 0; v < configs; ++v) {
      rows += static_cast<double>(
          fault::buildDetectionTable(ev, dom,
                                     Word::fromUint(nl.inputCount(),
                                                    static_cast<std::uint64_t>(v)))
              .rows()
              .size());
    }
    std::printf("    %-6s | %9zu | %12zu | %16zu | %19.1f\n",
                d.blockName(b).c_str(), universe.size(), eq.size(), dom.size(),
                rows / configs);
  }
}

void remoteProfileSweep() {
  std::printf("\n[3] remote IP block: detection-table traffic by network "
              "profile (16 patterns on the multiplier IP)\n");
  std::printf("    %-10s | %9s | %12s | %14s\n", "profile", "RMI calls",
              "bytes", "sim stall (ms)");
  printRule(60);
  for (const auto& profile :
       {net::NetworkProfile::localhost(), net::NetworkProfile::lan(),
        net::NetworkProfile::wan()}) {
    ip::ProviderServer server("provider.host", nullptr);
    registerMultiplier(server);
    rmi::RmiChannel channel(server, profile);
    ip::ProviderHandle provider(channel);

    const int w = 4;
    Circuit c("remoteFault");
    auto& a = c.makeWord(w, "a");
    auto& b = c.makeWord(w, "b");
    auto& o = c.makeWord(2 * w, "o");
    ip::RemoteConfig cfg;
    cfg.collectPower = false;
    auto& mult = c.make<ip::RemoteComponent>(
        "MULT", provider, "MultFastLowPower", w,
        std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
        std::vector<std::pair<std::string, Connector*>>{{"o", &o}}, cfg);
    ip::RemoteFaultClient client(mult);

    const auto before = channel.stats();
    (void)client.faultList();
    Rng rng(5);
    for (int i = 0; i < 16; ++i) {
      (void)client.detectionTable(Word::fromUint(2 * w, rng.next()));
    }
    const auto after = channel.stats();
    std::printf("    %-10s | %9llu | %12llu | %14.2f\n", profile.name.c_str(),
                static_cast<unsigned long long>(after.calls - before.calls),
                static_cast<unsigned long long>(
                    after.bytesSent + after.bytesReceived - before.bytesSent -
                    before.bytesReceived),
                (after.blockingWallSec - before.blockingWallSec) * 1e3);
  }
}

void staticVsDynamic() {
  // The paper's core quantitative argument: shipping complete detection
  // information up front (a fault dictionary) grows exponentially with the
  // component's inputs, while a typical campaign touches only a few input
  // configurations — so dynamic per-pattern tables are the right exchange.
  std::printf("\n[4] static fault dictionary vs dynamic protocol "
              "(multiplier IP, 32-pattern campaign)\n");
  std::printf("    %-6s | %8s | %15s | %17s | %9s\n", "width", "configs",
              "dictionary (B)", "dynamic bytes (B)", "ratio");
  printRule(68);
  for (int w = 2; w <= 5; ++w) {
    const gate::Netlist nl = gate::makeArrayMultiplier(w);
    const auto collapsed = fault::collapseAll(nl, true, false, false);
    const auto dict = fault::FaultDictionary::build(nl, collapsed, 16);

    // Dynamic traffic: run the campaign against a remote instance and count
    // real bytes on the channel.
    ip::ProviderServer server("provider.host", nullptr);
    registerMultiplier(server);
    rmi::RmiChannel channel(server, net::NetworkProfile::ideal());
    ip::ProviderHandle provider(channel);
    Circuit c("d");
    auto& a = c.makeWord(w);
    auto& b = c.makeWord(w);
    auto& o = c.makeWord(2 * w);
    ip::RemoteConfig cfg;
    cfg.collectPower = false;
    auto& mult = c.make<ip::RemoteComponent>(
        "MULT", provider, "MultFastLowPower", static_cast<std::uint64_t>(w),
        std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
        std::vector<std::pair<std::string, Connector*>>{{"o", &o}}, cfg);
    ip::RemoteFaultClient client(mult);
    const auto before = channel.stats();
    (void)client.faultList();
    Rng rng(13);
    for (int p = 0; p < 32; ++p) {
      (void)client.detectionTable(Word::fromUint(2 * w, rng.next()));
    }
    const auto after = channel.stats();
    const std::size_t dynamicBytes =
        after.bytesSent + after.bytesReceived - before.bytesSent -
        before.bytesReceived;
    std::printf("    %6d | %8llu | %15zu | %17zu | %8.1fx\n", w,
                static_cast<unsigned long long>(dict.tableCount()),
                dict.sizeBytes(), dynamicBytes,
                static_cast<double>(dict.sizeBytes()) /
                    static_cast<double>(dynamicBytes));
  }
  std::printf("    (the dictionary doubles per extra input bit; dynamic "
              "traffic stays bounded by the patterns actually applied)\n");
}

/// Table-batch sweep: WAN round trips for the remote multiplier IP.
void tableBatchSweep() {
  std::printf("\n[5] campaign engine: GetDetectionTables batch sweep "
              "(16 patterns on the multiplier IP, WAN profile)\n");
  std::printf("    %-6s | %11s | %9s | %12s | %14s\n", "batch",
              "round trips", "RMI calls", "bytes", "sim stall (ms)");
  printRule(66);
  for (std::size_t batch : {1u, 2u, 4u, 8u}) {
    ip::ProviderServer server("provider.host", nullptr);
    registerMultiplier(server);
    rmi::RmiChannel channel(server, net::NetworkProfile::wan());
    ip::ProviderHandle provider(channel);

    const int w = 4;
    Circuit c("remoteFault");
    auto& a = c.makeWord(w, "a");
    auto& b = c.makeWord(w, "b");
    auto& o = c.makeWord(2 * w, "o");
    ip::RemoteConfig rcfg;
    rcfg.collectPower = false;
    auto& mult = c.make<ip::RemoteComponent>(
        "MULT", provider, "MultFastLowPower", w,
        std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
        std::vector<std::pair<std::string, Connector*>>{{"o", &o}}, rcfg);
    ip::RemoteFaultClient client(mult);

    std::vector<std::vector<Word>> pats2;
    Rng rng(21);
    for (int i = 0; i < 16; ++i) {
      pats2.push_back(
          {Word::fromUint(w, rng.next()), Word::fromUint(w, rng.next())});
    }
    fault::VirtualFaultSimulator sim(c, {&client}, {&a, &b}, {&o});
    sim.setTableBatch(batch);
    const auto before = channel.stats();
    const auto res = sim.run(pats2);
    const auto after = channel.stats();
    std::printf("    %6zu | %11llu | %9llu | %12llu | %14.2f\n", batch,
                static_cast<unsigned long long>(res.tableFetchRoundTrips),
                static_cast<unsigned long long>(after.calls - before.calls),
                static_cast<unsigned long long>(
                    after.bytesSent + after.bytesReceived - before.bytesSent -
                    before.bytesReceived),
                (after.blockingWallSec - before.blockingWallSec) * 1e3);
  }
  std::printf("    (one GetDetectionTables message pair serves the whole "
              "batch; stall shrinks with the per-call WAN latency)\n");
}

// ---------------------------------------------------------------------------
// --cache: result-store cold/warm differential sweep
// ---------------------------------------------------------------------------

/// The multiplier with a per-table fee, so the sweep can also check that a
/// warm hit bills exactly like a cold compute (the fee licenses the
/// detection data, not the provider's CPU time).
void registerCacheBenchMultiplier(ip::ProviderServer& server) {
  ip::IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ip::ModelLevel::Static;
  spec.testability = ip::ModelLevel::Dynamic;
  spec.fees.perDetectionTableCents = 0.05;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t w) {
        return std::make_shared<const gate::Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      multiplierPublicPart);
}

struct CacheCell {
  int width = 0;
  std::size_t patternCount = 0;
  std::uint64_t tables = 0;  // distinct configurations characterized
  double baseSec = 0, coldSec = 0, warmSec = 0;
  double hitRate = 0;  // warm-run channel hit rate over table requests
  bool identical = false;
  double speedup() const { return warmSec > 0 ? coldSec / warmSec : 0; }
};

CacheCell runCacheCell(int w, int nPats) {
  // One pattern set per width, fixed seed: the baseline, cold and warm
  // campaigns must be the *same* campaign.
  std::vector<std::vector<Word>> pats;
  Rng rng(0xCACE + static_cast<std::uint64_t>(w));
  for (int i = 0; i < nPats; ++i) {
    pats.push_back(
        {Word::fromUint(w, rng.next()), Word::fromUint(w, rng.next())});
  }

  const auto campaign = [&](const std::shared_ptr<cache::ResultStore>& store,
                            std::uint64_t channelSeed,
                            fault::CampaignResult& res,
                            rmi::ChannelStats& stats) {
    ip::ProviderServer server("provider.host", nullptr);
    registerCacheBenchMultiplier(server);
    if (store != nullptr) server.setResultStore(store);
    rmi::RmiChannel channel(server, net::NetworkProfile::ideal(), nullptr,
                            channelSeed);
    ip::ProviderHandle provider(channel);
    Circuit c("cacheBench");
    auto& a = c.makeWord(w, "a");
    auto& b = c.makeWord(w, "b");
    auto& o = c.makeWord(2 * w, "o");
    ip::RemoteConfig cfg;
    cfg.collectPower = false;
    auto& mult = c.make<ip::RemoteComponent>(
        "MULT", provider, "MultFastLowPower", static_cast<std::uint64_t>(w),
        std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
        std::vector<std::pair<std::string, Connector*>>{{"o", &o}}, cfg);
    ip::RemoteFaultClient client(mult);
    const double wall = wallOf([&] {
      fault::VirtualFaultSimulator sim(c, {&client}, {&a, &b}, {&o});
      res = sim.run(pats);
    });
    stats = channel.stats();
    return wall;
  };

  CacheCell cell;
  cell.width = w;
  cell.patternCount = pats.size();

  auto store = cache::ResultStore::inMemory();
  fault::CampaignResult base, cold, warm;
  rmi::ChannelStats baseStats, coldStats, warmStats;
  cell.baseSec = campaign(nullptr, 0xB0, base, baseStats);  // no store at all
  cell.coldSec = campaign(store, 0xC0, cold, coldStats);    // empty store
  cell.warmSec = campaign(store, 0xF0, warm, warmStats);    // warmed store
  cell.tables = cold.detectionTablesRequested;
  const std::uint64_t warmRequests =
      warmStats.cacheHits + warmStats.cacheMisses;
  cell.hitRate = warmRequests > 0
                     ? static_cast<double>(warmStats.cacheHits) /
                           static_cast<double>(warmRequests)
                     : 0.0;
  cell.identical = cold.detected == base.detected &&
                   warm.detected == base.detected &&
                   cold.detectedAfterPattern == base.detectedAfterPattern &&
                   warm.detectedAfterPattern == base.detectedAfterPattern &&
                   coldStats.feesCents == baseStats.feesCents &&
                   warmStats.feesCents == baseStats.feesCents;
  return cell;
}

void writeCacheJson(const std::string& path,
                    const std::vector<CacheCell>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CacheCell& m = rows[i];
    std::fprintf(f,
                 "  {\"width\": %d, \"patterns\": %zu, \"tables\": %llu, "
                 "\"baseline_sec\": %.6f, \"cold_sec\": %.6f, "
                 "\"warm_sec\": %.6f, \"speedup\": %.3f, "
                 "\"hit_rate\": %.4f, \"identical\": %s}%s\n",
                 m.width, m.patternCount,
                 static_cast<unsigned long long>(m.tables), m.baseSec,
                 m.coldSec, m.warmSec, m.speedup(), m.hitRate,
                 m.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int cacheSweep(int argc, char** argv) {
  bool quick = false;
  std::string jsonPath;
  double minWarmSpeedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cache") == 0) {
      continue;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strcmp(argv[i], "--min-warm-speedup") == 0 &&
               i + 1 < argc) {
      minWarmSpeedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s --cache [--quick] [--json PATH] "
                   "[--min-warm-speedup X]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::vector<int> widths =
      quick ? std::vector<int>{6, 10} : std::vector<int>{8, 12, 16};
  const int nPats = quick ? 32 : 48;

  std::printf("\nResult-store cold/warm sweep (remote multiplier campaign, "
              "%d patterns, %s mode)\n",
              nPats, quick ? "quick" : "full");
  std::printf("    %-6s | %7s | %10s | %10s | %10s | %8s | %9s | %10s\n",
              "width", "tables", "base (ms)", "cold (ms)", "warm (ms)",
              "speedup", "hit rate", "identical");
  printRule(88);
  std::vector<CacheCell> rows;
  for (int w : widths) {
    rows.push_back(runCacheCell(w, nPats));
    const CacheCell& m = rows.back();
    std::printf("    %6d | %7llu | %10.1f | %10.1f | %10.1f | %7.2fx | "
                "%8.1f%% | %10s\n",
                m.width, static_cast<unsigned long long>(m.tables),
                m.baseSec * 1e3, m.coldSec * 1e3, m.warmSec * 1e3,
                m.speedup(), m.hitRate * 100, m.identical ? "YES" : "NO");
  }
  std::printf("    (cold pays table characterization once into the shared "
              "store; warm replays the campaign against a fresh provider "
              "serving every table from the store)\n");

  if (!jsonPath.empty()) writeCacheJson(jsonPath, rows);

  for (const CacheCell& m : rows) {
    if (!m.identical) {
      std::fprintf(stderr,
                   "FAIL: width %d campaign not bit-identical across "
                   "baseline/cold/warm\n",
                   m.width);
      return 1;
    }
  }
  if (minWarmSpeedup > 0.0) {
    const CacheCell& widest = rows.back();
    if (widest.speedup() < minWarmSpeedup) {
      std::fprintf(stderr,
                   "FAIL: warm speedup %.2fx at width %d below the %.2fx "
                   "floor\n",
                   widest.speedup(), widest.width, minWarmSpeedup);
      return 1;
    }
    std::printf("    warm speedup gate: %.2fx >= %.2fx at width %d — OK\n",
                widest.speedup(), minWarmSpeedup, widest.width);
  }
  return 0;
}

void BM_DetectionTable(benchmark::State& state) {
  const auto nl = gate::makeArrayMultiplier(static_cast<int>(state.range(0)));
  gate::NetlistEvaluator ev(nl);
  const auto collapsed = fault::collapseAll(nl, true, false, false);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::buildDetectionTable(
        ev, collapsed, Word::fromUint(nl.inputCount(), rng.next())));
  }
  state.counters["faults"] = static_cast<double>(collapsed.size());
}
BENCHMARK(BM_DetectionTable)->Arg(2)->Arg(4)->Arg(6)->Unit(
    benchmark::kMillisecond);

void BM_SerialFaultSim(benchmark::State& state) {
  const auto nl = gate::makeArrayMultiplier(4);
  const auto pats = patterns(nl.inputCount(), 16);
  for (auto _ : state) {
    fault::SerialFaultSimulator serial(nl, true);
    benchmark::DoNotOptimize(serial.run(pats).detected.size());
  }
}
BENCHMARK(BM_SerialFaultSim)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vcad::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cache") == 0) {
      return vcad::bench::cacheSweep(argc, argv);
    }
  }
  std::printf("\nFault-simulation ablations (Figures 4/5 machinery at scale)\n");
  vcad::bench::virtualVsSerial();
  vcad::bench::collapsingAblation();
  vcad::bench::remoteProfileSweep();
  vcad::bench::staticVsDynamic();
  vcad::bench::tableBatchSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
