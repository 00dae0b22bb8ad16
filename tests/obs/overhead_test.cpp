// The observability layer's two non-negotiables, as tests:
//
//  1. Tracing is read-only. A chaos campaign run with the tracer on must
//     produce bit-identical deterministic outcomes (coverage, ledgers,
//     fault schedules) to the same campaign with the tracer off — spans may
//     observe the simulation, never steer it.
//  2. Tracing is cheap. Non-verbose span recording must cost < 5% wall time
//     on the mult16 serial campaign. Wall-clock assertions are flaky on
//     loaded CI hosts, so the timing gate only arms when VCAD_PERF_ASSERT
//     is set; the determinism half always runs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "fault/block_design.hpp"
#include "fault/fault_client.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "obs/trace.hpp"
#include "rmi/chaos_harness.hpp"

namespace vcad::obs {
namespace {

using chaos::ChaosOutcome;
using chaos::runChaosCampaign;

TEST(ObsOverhead, TracingDoesNotChangeDeterministicOutcomes) {
  // Lossy profile so the run exercises retries, duplicate suppression, and
  // corrupted-frame drops — the paths where a tracing side effect on frame
  // bytes or timing would surface as a diverged fault schedule.
  const ChaosOutcome off = runChaosCampaign(
      net::FaultProfile::lossy(), 7, 6, 0, 1, nullptr, /*traced=*/false);
  const ChaosOutcome on = runChaosCampaign(
      net::FaultProfile::lossy(), 7, 6, 0, 1, nullptr, /*traced=*/true);

  // Campaign outcome.
  EXPECT_EQ(on.result.faultList, off.result.faultList);
  EXPECT_EQ(on.result.detected, off.result.detected);
  EXPECT_EQ(on.result.detectedAfterPattern, off.result.detectedAfterPattern);
  EXPECT_EQ(on.result.detectionTablesRequested,
            off.result.detectionTablesRequested);
  EXPECT_EQ(on.result.tableFetchRoundTrips, off.result.tableFetchRoundTrips);
  EXPECT_EQ(on.result.tableCacheHits, off.result.tableCacheHits);
  EXPECT_EQ(on.result.injections, off.result.injections);

  // Channel ledger (deterministic fields only: the wall/CPU seconds are
  // measured off the host clock and differ between any two runs).
  EXPECT_EQ(on.stats.calls, off.stats.calls);
  EXPECT_EQ(on.stats.blockedCalls, off.stats.blockedCalls);
  EXPECT_EQ(on.stats.asyncCalls, off.stats.asyncCalls);
  EXPECT_EQ(on.stats.securityRejections, off.stats.securityRejections);
  EXPECT_EQ(on.stats.bytesSent, off.stats.bytesSent);
  EXPECT_EQ(on.stats.bytesReceived, off.stats.bytesReceived);
  EXPECT_EQ(on.stats.retries, off.stats.retries);
  EXPECT_EQ(on.stats.timeouts, off.stats.timeouts);
  EXPECT_EQ(on.stats.duplicatesSuppressed, off.stats.duplicatesSuppressed);
  EXPECT_EQ(on.stats.corruptedFramesDropped, off.stats.corruptedFramesDropped);
  EXPECT_EQ(on.stats.transportFailures, off.stats.transportFailures);
  EXPECT_EQ(on.stats.networkSec, off.stats.networkSec);    // modelled, exact
  EXPECT_EQ(on.stats.feesCents, off.stats.feesCents);      // ledger, exact
  EXPECT_EQ(on.providerFeesCents, off.providerFeesCents);

  // The transport injected the exact same faults: plans are pure functions
  // of seed/key/attempt, and traced frames are byte-count identical.
  EXPECT_EQ(on.transport.attempts, off.transport.attempts);
  EXPECT_EQ(on.transport.droppedRequests, off.transport.droppedRequests);
  EXPECT_EQ(on.transport.droppedResponses, off.transport.droppedResponses);
  EXPECT_EQ(on.transport.duplicatedRequests, off.transport.duplicatedRequests);
  EXPECT_EQ(on.transport.corruptedRequests, off.transport.corruptedRequests);
  EXPECT_EQ(on.transport.corruptedResponses,
            off.transport.corruptedResponses);
  EXPECT_EQ(on.transport.reorders, off.transport.reorders);
  EXPECT_EQ(on.transport.stalls, off.transport.stalls);
  EXPECT_EQ(on.remoteErrors, off.remoteErrors);
  EXPECT_EQ(on.recoveries, off.recoveries);
}

std::shared_ptr<const gate::Netlist> share(gate::Netlist nl) {
  return std::make_shared<const gate::Netlist>(std::move(nl));
}

/// The bench's mult16 scenario: one 8-bit array multiplier block whose own
/// collapsed fault list drives the campaign.
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

double wallOf(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

TEST(ObsOverhead, SpanOverheadUnderFivePercentOnMult16Campaign) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  if (std::getenv("VCAD_PERF_ASSERT") == nullptr) {
    GTEST_SKIP() << "set VCAD_PERF_ASSERT=1 to arm the wall-clock gate";
  }

  const fault::BlockDesign d = makeMultCampaign(8);
  auto inst = d.instantiate();
  fault::LocalFaultBlock client(*inst.blockModules[0], /*dominance=*/true,
                                fault::FaultScope{false, true});
  std::vector<fault::FaultClient*> comps{&client};
  // Enough patterns that one campaign run takes tens of milliseconds —
  // a 5% margin on a too-small run is inside scheduler jitter.
  const auto pats = randomPatterns(d.primaryInputCount(), 16, 0xC0FFEE ^ 8);

  Tracer& tracer = Tracer::global();
  const bool wasEnabled = tracer.enabled();
  auto runOnce = [&] {
    fault::VirtualFaultSimulator sim(*inst.circuit, comps, inst.piConns,
                                     inst.poConns);
    const fault::CampaignResult res = sim.runPacked(pats);
    ASSERT_GT(res.injections, 0u);
  };
  // Min-of-5 on each side filters scheduler noise; warm-up run first so
  // neither side pays one-time costs (fault-list build, allocator warmup).
  runOnce();
  auto minOf5 = [&](bool traced) {
    double best = 1e300;
    for (int i = 0; i < 5; ++i) {
      tracer.clear();
      tracer.setEnabled(traced);
      const double t = wallOf(runOnce);
      tracer.setEnabled(false);
      if (t < best) best = t;
    }
    return best;
  };

  const double untraced = minOf5(false);
  const double traced = minOf5(true);
  tracer.setEnabled(wasEnabled);
  tracer.clear();

  EXPECT_LE(traced, untraced * 1.05)
      << "untraced " << untraced << "s vs traced " << traced << "s";
}

}  // namespace
}  // namespace vcad::obs
