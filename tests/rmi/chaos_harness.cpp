// Chaos suite: the end-to-end robustness contract of the unreliable
// transport layer. One virtual fault campaign against a remote multiplier IP
// is run under every shipped FaultProfile × several transport seeds (plus
// mid-run provider restarts), and whatever the transport does, the coverage
// tables and fee ledgers must come out bit-identical to the ideal run. The
// turbulence is allowed to show up in exactly one place: the channel's
// retry/timeout/replay counters.
#include "chaos_harness.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "oracles/oracles.hpp"

namespace vcad::chaos {
namespace {

/// Failed assertion parts recorded so far in the running test — lets a
/// helper detect that its own EXPECTs tripped.
int failedPartCount() {
  const testing::TestResult* result =
      testing::UnitTest::GetInstance()->current_test_info()->result();
  int failed = 0;
  for (int i = 0; i < result->total_part_count(); ++i) {
    if (result->GetTestPartResult(i).failed()) ++failed;
  }
  return failed;
}

/// The invariant every run must satisfy against the ideal-transport gold
/// outcome: same coverage, same fees, to the last bit. A broken invariant
/// additionally dumps the run's identity (profile, seed) and the tail of
/// its trace buffer, so the failing schedule can be replayed offline.
void expectMatchesGold(const ChaosOutcome& run, const ChaosOutcome& gold,
                       const std::string& label) {
  const int failedBefore = failedPartCount();
  EXPECT_EQ(run.result.faultList, gold.result.faultList) << label;
  EXPECT_EQ(run.result.detected, gold.result.detected) << label;
  EXPECT_EQ(run.result.detectedAfterPattern, gold.result.detectedAfterPattern)
      << label;
  // Bit-identical doubles, not EXPECT_DOUBLE_EQ: exactly-once execution means
  // the same fee terms accumulate in the same order on both sides.
  EXPECT_EQ(run.stats.feesCents, gold.stats.feesCents) << label;
  EXPECT_EQ(run.providerFeesCents, gold.providerFeesCents) << label;
  // Client and provider ledgers agree with each other, too.
  EXPECT_EQ(run.stats.feesCents, run.providerFeesCents) << label;
  EXPECT_EQ(run.remoteErrors, 0u) << label;
  if (failedPartCount() > failedBefore) {
    ADD_FAILURE() << chaosFailureReport(run);
  }
}

TEST(ChaosCampaign, IdealProfileIsQuietAndBillsBothLedgersEqually) {
  const ChaosOutcome gold = runChaosCampaign(net::FaultProfile::none(), 1);
  EXPECT_GT(gold.result.faultList.size(), 0u);
  EXPECT_GT(gold.result.detected.size(), 0u);
  EXPECT_GT(gold.stats.feesCents, 0.0);
  EXPECT_EQ(gold.stats.feesCents, gold.providerFeesCents);
  EXPECT_EQ(gold.stats.retries, 0u);
  EXPECT_EQ(gold.stats.timeouts, 0u);
  EXPECT_EQ(gold.stats.duplicatesSuppressed, 0u);
  EXPECT_EQ(gold.stats.corruptedFramesDropped, 0u);
  EXPECT_EQ(gold.stats.transportFailures, 0u);
  EXPECT_EQ(gold.transport.injected(), 0u);
  EXPECT_EQ(gold.recoveries, 0u);
  EXPECT_EQ(gold.remoteErrors, 0u);
}

TEST(ChaosCampaign, EveryShippedProfilePreservesResultsAndFees) {
  const ChaosOutcome gold = runChaosCampaign(net::FaultProfile::none(), 1);
  for (const net::FaultProfile& profile : net::FaultProfile::shipped()) {
    // Turbulence counters are summed over the seeds: one short run may
    // dodge a low-probability fault, but three seeded runs never all do
    // (and being seed-deterministic, this can never flake — only the
    // equality checks per run are the real contract).
    ChaosOutcome sum;
    for (std::uint64_t seed : {11u, 22u, 33u}) {
      const std::string label =
          "profile=" + profile.name + " seed=" + std::to_string(seed);
      const ChaosOutcome run = runChaosCampaign(profile, seed);
      expectMatchesGold(run, gold, label);
      sum.stats.retries += run.stats.retries;
      sum.stats.timeouts += run.stats.timeouts;
      sum.stats.duplicatesSuppressed += run.stats.duplicatesSuppressed;
      sum.stats.corruptedFramesDropped += run.stats.corruptedFramesDropped;
      sum.transport.droppedRequests += run.transport.injected();
    }
    // The profile actually struck — the equalities above were earned — and
    // the turbulence is visible where it should be: in the new ChannelStats
    // counters, per failure mode.
    EXPECT_GT(sum.transport.injected(), 0u) << profile.name;
    if (profile.name == "drop" || profile.name == "lossy") {
      EXPECT_GT(sum.stats.retries, 0u) << profile.name;
      EXPECT_GT(sum.stats.timeouts, 0u) << profile.name;
    }
    if (profile.name == "duplicate") {
      EXPECT_GT(sum.stats.duplicatesSuppressed, 0u) << profile.name;
    }
    if (profile.name == "corrupt") {
      EXPECT_GT(sum.stats.corruptedFramesDropped, 0u) << profile.name;
      EXPECT_GT(sum.stats.retries, 0u) << profile.name;
    }
    if (profile.name == "stall" || profile.name == "reorder") {
      // Stalled and stale responses surface as client deadline misses.
      EXPECT_GT(sum.stats.timeouts, 0u) << profile.name;
      EXPECT_GT(sum.stats.retries, 0u) << profile.name;
    }
  }
}

TEST(ChaosCampaign, SameSeedReplaysTheRunBitForBit) {
  const ChaosOutcome a = runChaosCampaign(net::FaultProfile::lossy(), 7);
  const ChaosOutcome b = runChaosCampaign(net::FaultProfile::lossy(), 7);
  EXPECT_EQ(a.result.faultList, b.result.faultList);
  EXPECT_EQ(a.result.detected, b.result.detected);
  EXPECT_EQ(a.result.detectedAfterPattern, b.result.detectedAfterPattern);
  // Every counter — and the simulated transport time, a double accumulated
  // across the whole run — replays exactly.
  EXPECT_EQ(a.stats.calls, b.stats.calls);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.timeouts, b.stats.timeouts);
  EXPECT_EQ(a.stats.duplicatesSuppressed, b.stats.duplicatesSuppressed);
  EXPECT_EQ(a.stats.corruptedFramesDropped, b.stats.corruptedFramesDropped);
  EXPECT_EQ(a.stats.transportFailures, b.stats.transportFailures);
  EXPECT_EQ(a.stats.bytesSent, b.stats.bytesSent);
  EXPECT_EQ(a.stats.bytesReceived, b.stats.bytesReceived);
  EXPECT_EQ(a.stats.networkSec, b.stats.networkSec);
  EXPECT_EQ(a.stats.feesCents, b.stats.feesCents);
  EXPECT_EQ(a.transport.attempts, b.transport.attempts);
  EXPECT_EQ(a.transport.injected(), b.transport.injected());
}

TEST(ChaosCampaign, BatchedLossyCampaignMatchesGold) {
  // The engine issues all RMI from the calling thread, and the fault plan
  // is a pure function of (seed, key, attempt) — so a batched campaign over
  // a lossy transport still reproduces the ideal run's coverage and fees.
  const ChaosOutcome gold = runChaosCampaign(net::FaultProfile::none(), 1);
  const ChaosOutcome run =
      runChaosCampaign(net::FaultProfile::lossy(), 5, 6, 0, /*batch=*/2);
  expectMatchesGold(run, gold, "lossy batch=2");
}

TEST(ChaosCampaign, EngineIsBitIdenticalToSerialUnderChaos) {
  // The engine at batch 1 must reproduce the serial oracle to the last
  // counter — not just coverage, but the whole protocol/effort ledger —
  // under a faulty transport, so the RMI fault schedule cannot move either.
  const ChaosOutcome serial = runChaosWith(
      [](ChaosRig& rig, const std::vector<std::vector<Word>>& patterns) {
        return oracles::serialCampaign(rig.circuit, rig.components(), rig.pis,
                                       rig.pos, patterns);
      },
      net::FaultProfile::lossy(), 9);
  const ChaosOutcome run = runChaosCampaign(net::FaultProfile::lossy(), 9);
  EXPECT_EQ(run.result.faultList, serial.result.faultList);
  EXPECT_EQ(run.result.detected, serial.result.detected);
  EXPECT_EQ(run.result.detectedAfterPattern,
            serial.result.detectedAfterPattern);
  EXPECT_EQ(run.result.detectionTablesRequested,
            serial.result.detectionTablesRequested);
  EXPECT_EQ(run.result.tableFetchRoundTrips,
            serial.result.tableFetchRoundTrips);
  EXPECT_EQ(run.result.tableCacheHits, serial.result.tableCacheHits);
  EXPECT_EQ(run.result.injections, serial.result.injections);
  EXPECT_EQ(run.stats.calls, serial.stats.calls);
  EXPECT_EQ(run.stats.feesCents, serial.stats.feesCents);
  EXPECT_EQ(run.stats.networkSec, serial.stats.networkSec);
  EXPECT_EQ(run.remoteErrors, 0u);
  // The engine reused its two pinned controllers (one fault-free, one
  // injection) instead of leasing a slot per injection.
  EXPECT_EQ(run.result.slotsLeased, 2u);
}

TEST(ChaosCampaign, CampaignSurvivesProviderRestart) {
  // The provider crashes after its 5th dispatched request — past the
  // instantiation, mid fault characterization. The session manifest replays,
  // the instance rebinds, and the coverage tables still match the
  // undisturbed run exactly.
  const ChaosOutcome gold = runChaosCampaign(net::FaultProfile::none(), 1);
  const ChaosOutcome run =
      runChaosCampaign(net::FaultProfile::none(), 1, 6, /*restartAfter=*/5);
  EXPECT_EQ(run.restarts, 1u);
  EXPECT_GE(run.recoveries, 1u);
  EXPECT_EQ(run.result.faultList, gold.result.faultList);
  EXPECT_EQ(run.result.detected, gold.result.detected);
  EXPECT_EQ(run.result.detectedAfterPattern, gold.result.detectedAfterPattern);
  EXPECT_EQ(run.remoteErrors, 0u);
  // The recovered session re-instantiated, so it billed one extra
  // instantiation — but the client and provider ledgers still agree.
  EXPECT_GT(run.stats.feesCents, gold.stats.feesCents);
}

TEST(ChaosCampaign, RestartUnderLossyTransportStillConverges) {
  // Worst case: the provider restarts while the transport is dropping,
  // duplicating, corrupting and stalling messages. Recovery and retries
  // compose; the coverage result is still bit-identical.
  const ChaosOutcome gold = runChaosCampaign(net::FaultProfile::none(), 1);
  const ChaosOutcome run =
      runChaosCampaign(net::FaultProfile::lossy(), 13, 6, /*restartAfter=*/7);
  EXPECT_EQ(run.restarts, 1u);
  EXPECT_GE(run.recoveries, 1u);
  EXPECT_EQ(run.result.faultList, gold.result.faultList);
  EXPECT_EQ(run.result.detected, gold.result.detected);
  EXPECT_EQ(run.result.detectedAfterPattern, gold.result.detectedAfterPattern);
  EXPECT_EQ(run.remoteErrors, 0u);
}

TEST(ChaosCampaign, CompletionQueuePathIsBitIdenticalToBlockingPath) {
  // Non-blocking EstimatePower (the paper's overlapped power estimation)
  // under a lossy transport: serial callAsync().get() traffic must charge
  // exactly what the same calls through call() charge — same retries, same
  // bytes, same deterministic networkSec and fees — with every call on the
  // overlap account and none on the blocking one.
  constexpr int kCalls = 24;
  ChaosRig blockingRig(net::FaultProfile::lossy(), 5);
  ChaosRig asyncRig(net::FaultProfile::lossy(), 5);
  const PowerTraffic blocking = runPowerTraffic(
      *blockingRig.provider, blockingRig.mult->instanceId(), kCalls, false);
  const PowerTraffic async = runPowerTraffic(
      *asyncRig.provider, asyncRig.mult->instanceId(), kCalls, true);
  EXPECT_EQ(blocking.failures, 0);
  EXPECT_EQ(async.failures, 0);
  EXPECT_GT(blocking.stats.retries, 0u);  // the lossy profile really bit
  EXPECT_EQ(async.stats.calls, blocking.stats.calls);
  EXPECT_EQ(async.stats.retries, blocking.stats.retries);
  EXPECT_EQ(async.stats.timeouts, blocking.stats.timeouts);
  EXPECT_EQ(async.stats.bytesSent, blocking.stats.bytesSent);
  EXPECT_EQ(async.stats.bytesReceived, blocking.stats.bytesReceived);
  EXPECT_EQ(async.stats.networkSec, blocking.stats.networkSec);
  EXPECT_EQ(async.stats.feesCents, blocking.stats.feesCents);
  EXPECT_EQ(async.stats.transportFailures, 0u);
  EXPECT_EQ(async.stats.asyncCalls, static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(async.stats.blockedCalls, 0u);
  EXPECT_GT(async.stats.nonblockingWallSec, 0.0);
  EXPECT_EQ(async.stats.blockingWallSec, 0.0);
  EXPECT_EQ(blocking.stats.asyncCalls, 0u);
  EXPECT_EQ(blocking.stats.nonblockingWallSec, 0.0);
}

TEST(ChaosCampaign, ExhaustedRetriesResumeWithSameKeyAndNeverDoubleBill) {
  // An ack-loss path: the server executes, but 60% of responses vanish — and
  // a tight 2-attempt budget forces TransportFailure declarations. The
  // handle re-issues each dead call with the SAME idempotency key, so the
  // channel resumes the key's attempt numbering (a verbatim re-run would
  // deterministically lose the same responses forever) and the provider
  // answers re-executions from its replay cache. Fees must not move.
  const ChaosOutcome gold = runChaosCampaign(net::FaultProfile::none(), 1);
  net::FaultProfile ackLoss;
  ackLoss.name = "ack-loss";
  ackLoss.dropResponseProb = 0.6;
  rmi::RetryPolicy tight;
  tight.maxAttempts = 2;
  const ChaosOutcome run = runChaosCampaign(ackLoss, 17, 6, 0, 1, &tight);
  expectMatchesGold(run, gold, "ack-loss");
  // The tight budget actually tripped, and the replay cache answered the
  // re-issues: every serverside execution past the first was suppressed.
  EXPECT_GT(run.stats.transportFailures, 0u);
  EXPECT_GT(run.stats.duplicatesSuppressed, 0u);
  EXPECT_GT(run.stats.retries, 0u);
}

}  // namespace
}  // namespace vcad::chaos
