// RMI-layer ablations:
//
//   1. Marshalling cost: request marshal/unmarshal as the pattern batch
//      grows (the per-event cost that makes the MR scenario 3x slower in
//      the paper's Table 2).
//   2. Security-filter overhead: the marshalling filter's scan per request.
//   3. Blocking vs non-blocking estimation: how much WAN latency the
//      new-thread (non-blocking) gate-level runs hide.
//   4. Per-profile single-call cost.
//   5. (--async) pipelined RPC: the completion queue's latency hiding as a
//      function of in-flight depth × network profile, written to
//      BENCH_rmi_async.json with --json.
#include <benchmark/benchmark.h>

#include <cstring>
#include <future>
#include <vector>

#include "common.hpp"

namespace vcad::bench {
namespace {

rmi::Request makeBatchRequest(int nPatterns) {
  rmi::Request r;
  r.session = 1;
  r.instance = 1;
  r.method = rmi::MethodId::EstimatePower;
  std::vector<Word> batch;
  Rng rng(7);
  for (int i = 0; i < nPatterns; ++i) {
    batch.push_back(Word::fromUint(32, rng.next()));
  }
  r.args.addWordVector(batch);
  return r;
}

void blockingVsNonblocking() {
  std::printf("\n[3] blocking vs non-blocking remote estimation "
              "(ER over WAN, 100 patterns, buffer 5)\n");
  std::printf("    %-12s | %14s | %16s | %16s\n", "mode", "real (ms)",
              "blocked (ms)", "overlapped (ms)");
  printRule(70);
  for (bool nonblocking : {false, true}) {
    ip::ProviderServer server("provider.host", nullptr);
    registerMultiplier(server);
    PowerComputeStub stub(server);
    rmi::RmiChannel channel(stub, net::NetworkProfile::wan());
    ip::ProviderHandle provider(channel);

    const int w = 16;
    Circuit c("er");
    auto& A = c.makeWord(w);
    auto& B = c.makeWord(w);
    auto& O = c.makeWord(2 * w);
    c.make<rtl::RandomPrimaryInput>("INA", w, A, 100, 10, 1);
    c.make<rtl::RandomPrimaryInput>("INB", w, B, 100, 10, 2);
    ip::RemoteConfig cfg;
    cfg.patternBufferCapacity = 5;
    cfg.nonblockingEstimation = nonblocking;
    auto& mult = c.make<ip::RemoteComponent>(
        "MULT", provider, "MultFastLowPower", w,
        std::vector<std::pair<std::string, Connector*>>{{"a", &A}, {"b", &B}},
        std::vector<std::pair<std::string, Connector*>>{{"o", &O}}, cfg);

    SimulationController sim(c);
    const auto start = std::chrono::steady_clock::now();
    sim.start();
    SimContext ctx{sim.scheduler(), nullptr};
    (void)mult.finishPowerEstimation(ctx);
    const double cpu =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const auto& st = channel.stats();
    // Bounds for the non-blocking case: if the overlapped calls serialize,
    // the client eventually waits for their sum; if they fully parallelize
    // and hide behind client work, only the longest single call can stall
    // the end of the run.
    const double worst = cpu + st.blockingWallSec +
                         std::max(0.0, st.nonblockingWallSec - cpu);
    const double best = cpu + st.blockingWallSec +
                        std::max(0.0, st.maxNonblockingCallSec - cpu);
    std::printf("    %-12s | %7.1f..%-7.1f | %16.1f | %16.1f\n",
                nonblocking ? "non-blocking" : "blocking", best * 1e3,
                worst * 1e3, st.blockingWallSec * 1e3,
                st.nonblockingWallSec * 1e3);
  }
  std::printf("    (non-blocking estimation still pays for the batches, but "
              "overlapped with simulation — the paper's latency hiding)\n");
}

void perProfileCost() {
  std::printf("\n[4] single-call simulated cost per network profile "
              "(5-pattern power batch)\n");
  std::printf("    %-10s | %14s\n", "profile", "sim stall (ms)");
  printRule(32);
  for (const auto& profile :
       {net::NetworkProfile::localhost(), net::NetworkProfile::lan(),
        net::NetworkProfile::wan()}) {
    ip::ProviderServer server("provider.host", nullptr);
    registerMultiplier(server);
    rmi::RmiChannel channel(server, profile);
    ip::ProviderHandle provider(channel);
    rmi::Args args;
    args.addU64(8);
    auto resp = provider.call(rmi::MethodId::Instantiate, 0, std::move(args),
                              "MultFastLowPower");
    const auto id = resp.payload.readU64();
    const double before = channel.stats().blockingWallSec;
    rmi::Args pw;
    std::vector<Word> batch(5, Word::fromUint(16, 0xABCD));
    pw.addWordVector(batch);
    provider.call(rmi::MethodId::EstimatePower, id, std::move(pw));
    std::printf("    %-10s | %14.3f\n", profile.name.c_str(),
                (channel.stats().blockingWallSec - before) * 1e3);
  }
}

/// The --async sweep: N EstimatePower calls submitted to the completion
/// queue at each in-flight depth as callAsync futures, then each one
/// collected with get(). The simulated
/// ledger gives the serialized cost (sum of per-call round trips) and the
/// longest single call; the pipelined estimate divides the serialized cost
/// across the in-flight depth, floored by that longest call — the
/// latency-hiding ratio is serialized/pipelined.
void asyncPipelineSweep(const char* jsonPath) {
  constexpr int kCalls = 32;
  constexpr int kBatch = 5;
  std::printf("\n[5] pipelined async RPC (%d-call EstimatePower drain, "
              "batch %d)\n",
              kCalls, kBatch);
  std::printf("    %-10s | %5s | %14s | %14s | %12s | %10s\n", "profile",
              "depth", "serialized(ms)", "pipelined(ms)", "hiding (x)",
              "real (ms)");
  printRule(80);
  std::string json = "{\"bench\":\"rmi_async\",\"calls\":" +
                     std::to_string(kCalls) + ",\"results\":[";
  bool first = true;
  for (const auto& profile :
       {net::NetworkProfile::localhost(), net::NetworkProfile::lan(),
        net::NetworkProfile::wan()}) {
    for (std::size_t depth : {1u, 2u, 4u, 8u}) {
      ip::ProviderServer server("provider.host", nullptr);
      registerMultiplier(server);
      PowerComputeStub stub(server);
      rmi::RmiChannel channel(stub, profile);
      ip::ProviderHandle provider(channel);
      rmi::Args args;
      args.addU64(16);
      auto resp = provider.call(rmi::MethodId::Instantiate, 0, std::move(args),
                                "MultFastLowPower");
      const auto id = resp.payload.readU64();
      channel.resetStats();
      channel.setMaxInFlight(depth);

      const auto start = std::chrono::steady_clock::now();
      std::vector<std::future<rmi::Response>> inFlight;
      inFlight.reserve(kCalls);
      for (int i = 0; i < kCalls; ++i) {
        rmi::Args power;
        power.addWordVector(
            std::vector<Word>(kBatch, Word::fromUint(16, 0xABCD + i)));
        inFlight.push_back(provider.callAsync(rmi::MethodId::EstimatePower,
                                              id, std::move(power)));
      }
      int drained = 0;
      for (auto& call : inFlight) {
        if (call.get().ok()) ++drained;
      }
      const double realSec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const auto& st = channel.stats();
      const double serialized = st.nonblockingWallSec;
      const double pipelined =
          std::max(st.maxNonblockingCallSec,
                   serialized / static_cast<double>(depth));
      const double hiding = pipelined > 0 ? serialized / pipelined : 1.0;
      std::printf("    %-10s | %5zu | %14.3f | %14.3f | %12.2f | %10.2f\n",
                  profile.name.c_str(), depth, serialized * 1e3,
                  pipelined * 1e3, hiding, realSec * 1e3);
      if (drained != kCalls) {
        std::fprintf(stderr, "drained %d of %d calls!\n", drained, kCalls);
      }
      char entry[320];
      std::snprintf(entry, sizeof(entry),
                    "%s{\"profile\":\"%s\",\"depth\":%zu,"
                    "\"serializedSimSec\":%.9f,\"pipelinedSimSec\":%.9f,"
                    "\"maxCallSimSec\":%.9f,\"latencyHidingRatio\":%.4f,"
                    "\"realSec\":%.6f,\"drained\":%d}",
                    first ? "" : ",", profile.name.c_str(), depth, serialized,
                    pipelined, st.maxNonblockingCallSec, hiding, realSec,
                    drained);
      json += entry;
      first = false;
    }
  }
  json += "]}";
  if (jsonPath != nullptr) {
    std::FILE* f = std::fopen(jsonPath, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", jsonPath);
    } else {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", jsonPath);
    }
  }
  std::printf("    (pipelined = max(longest single call, serialized/depth): "
              "deeper in-flight windows hide proportionally more of the "
              "wire time, until one call's latency floors it)\n");
}

void BM_RequestMarshal(benchmark::State& state) {
  const rmi::Request req = makeBatchRequest(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    net::ByteBuffer wire = req.marshal();
    benchmark::DoNotOptimize(rmi::Request::unmarshal(wire));
  }
  state.counters["bytes"] = static_cast<double>(req.marshal().size());
}
BENCHMARK(BM_RequestMarshal)->Arg(1)->Arg(5)->Arg(20)->Arg(100)->Unit(
    benchmark::kMicrosecond);

void BM_SecurityFilter(benchmark::State& state) {
  const rmi::Request req = makeBatchRequest(static_cast<int>(state.range(0)));
  rmi::MarshalFilter filter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.admit(req));
  }
}
BENCHMARK(BM_SecurityFilter)->Arg(5)->Arg(100)->Unit(benchmark::kMicrosecond);

void BM_ChannelCall(benchmark::State& state) {
  ip::ProviderServer server("provider.host", nullptr);
  registerMultiplier(server);
  rmi::RmiChannel channel(server, net::NetworkProfile::ideal());
  ip::ProviderHandle provider(channel);
  rmi::Args args;
  args.addU64(8);
  auto resp = provider.call(rmi::MethodId::Instantiate, 0, std::move(args),
                            "MultFastLowPower");
  const auto id = resp.payload.readU64();
  for (auto _ : state) {
    rmi::Args ev;
    ev.addWord(Word::fromUint(16, 0x1234));
    benchmark::DoNotOptimize(
        provider.call(rmi::MethodId::EvalFunction, id, std::move(ev)));
  }
}
BENCHMARK(BM_ChannelCall)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vcad::bench

int main(int argc, char** argv) {
  bool asyncOnly = false;
  const char* jsonPath = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--async") == 0) {
      asyncOnly = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    }
  }
  if (asyncOnly) {
    std::printf("\nRMI async pipelining sweep\n");
    vcad::bench::asyncPipelineSweep(jsonPath);
    return 0;
  }
  std::printf("\nRMI overhead ablations\n");
  vcad::bench::blockingVsNonblocking();
  vcad::bench::perProfileCost();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
