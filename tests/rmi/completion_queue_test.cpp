// Completion-queue tests: the truly-async call path (submit / poll / wait /
// waitAny), the bounded worker pool that replaced thread-per-call
// std::async, and the regression tests for the RMI-layer bugfix sweep
// (resetStats race, callAsync thread bomb, mid-flight injector swap).
#include "rmi/channel.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "rmi/loopback_transport.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace vcad::rmi {
namespace {

/// Echo endpoint that records which OS threads dispatched it — a bounded
/// pool shows up as a bounded set of thread ids no matter how many calls
/// are pushed through.
class ThreadTrackingServer : public ServerEndpoint {
 public:
  Response dispatch(const Request& request) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      threadIds_.insert(std::this_thread::get_id());
      ++dispatched_;
    }
    Response r;
    Args args = request.args;
    r.payload.writeWord(args.takeWord());
    r.feeCents = 0.25;
    return r;
  }
  std::string hostName() const override { return "queue.host"; }

  std::size_t distinctThreads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return threadIds_.size();
  }
  int dispatched() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dispatched_;
  }

 private:
  mutable std::mutex mutex_;
  std::set<std::thread::id> threadIds_;
  int dispatched_ = 0;
};

/// Endpoint whose dispatch blocks until released — for observing calls
/// while they are genuinely in flight.
class GatedServer : public ServerEndpoint {
 public:
  Response dispatch(const Request& request) override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    Response r;
    Args args = request.args;
    r.payload.writeWord(args.takeWord());
    return r;
  }
  std::string hostName() const override { return "gated.host"; }

  void awaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, n] { return entered_ >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

Request echoRequest(std::uint64_t value) {
  Request r;
  r.method = MethodId::EvalFunction;
  r.args.addWord(Word::fromUint(32, value));
  return r;
}

TEST(CompletionQueue, SubmitWaitRoundTrip) {
  ThreadTrackingServer server;
  RmiChannel ch(server, net::NetworkProfile::lan());
  RmiChannel::CallHandle h = ch.submit(echoRequest(0xBEEF));
  ASSERT_TRUE(h.valid());
  Response resp = ch.wait(h);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.payload.readWord().toUint(), 0xBEEFu);
  EXPECT_EQ(ch.stats().asyncCalls, 1u);
  EXPECT_EQ(ch.stats().blockedCalls, 0u);
  EXPECT_GT(ch.stats().nonblockingWallSec, 0.0);
  EXPECT_DOUBLE_EQ(ch.stats().blockingWallSec, 0.0);
}

TEST(CompletionQueue, PollClaimsExactlyOnce) {
  ThreadTrackingServer server;
  RmiChannel ch(server, net::NetworkProfile::ideal());
  RmiChannel::CallHandle h = ch.submit(echoRequest(7));
  Response resp;
  // Spin until the pool finishes the job; poll must never block.
  while (!ch.poll(h, &resp)) std::this_thread::yield();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.payload.readWord().toUint(), 7u);
  // The handle was claimed: a second poll reports nothing.
  EXPECT_FALSE(ch.poll(h, &resp));
  // And wait() on the claimed handle fails typed instead of deadlocking.
  EXPECT_EQ(ch.wait(h).status, Status::TransportFailure);
}

TEST(CompletionQueue, PollWithNullClaimsAndDiscards) {
  ThreadTrackingServer server;
  RmiChannel ch(server, net::NetworkProfile::ideal());
  RmiChannel::CallHandle h = ch.submit(echoRequest(1));
  while (!ch.poll(h, nullptr)) std::this_thread::yield();
  EXPECT_FALSE(ch.poll(h, nullptr));
  EXPECT_FALSE(ch.waitAny().has_value());  // nothing left in flight
}

TEST(CompletionQueue, WaitOnUnknownHandleFailsTyped) {
  ThreadTrackingServer server;
  RmiChannel ch(server, net::NetworkProfile::ideal());
  RmiChannel::CallHandle bogus;
  bogus.id = 999999;
  Response resp = ch.wait(bogus);
  EXPECT_EQ(resp.status, Status::TransportFailure);
  EXPECT_FALSE(ch.wait(RmiChannel::CallHandle{}).ok());
}

TEST(CompletionQueue, WaitAnyDrainsEveryHandleExactlyOnce) {
  ThreadTrackingServer server;
  RmiChannel ch(server, net::NetworkProfile::lan());
  constexpr int kCalls = 24;
  std::set<std::uint64_t> submitted;
  for (int i = 0; i < kCalls; ++i) {
    submitted.insert(ch.submit(echoRequest(i)).id);
  }
  ASSERT_EQ(submitted.size(), static_cast<std::size_t>(kCalls));
  std::set<std::uint64_t> claimed;
  for (int i = 0; i < kCalls; ++i) {
    auto done = ch.waitAny();
    ASSERT_TRUE(done.has_value());
    ASSERT_TRUE(done->second.ok());
    EXPECT_TRUE(submitted.count(done->first.id)) << done->first.id;
    EXPECT_TRUE(claimed.insert(done->first.id).second)
        << "handle claimed twice: " << done->first.id;
  }
  EXPECT_FALSE(ch.waitAny().has_value());
  EXPECT_EQ(server.dispatched(), kCalls);
  EXPECT_EQ(ch.stats().asyncCalls, static_cast<std::uint64_t>(kCalls));
}

// Regression (bugfix sweep): callAsync used to spawn one std::async thread
// per call — a campaign of thousands of estimation calls was a thread bomb.
// Now every path runs on the bounded pool: the endpoint must never see more
// distinct dispatching threads than the pool depth, however many calls fly.
TEST(CompletionQueue, CallAsyncRunsOnBoundedPoolNotThreadPerCall) {
  ThreadTrackingServer server;
  RmiChannel ch(server, net::NetworkProfile::ideal());
  constexpr int kCalls = 200;
  std::vector<std::future<Response>> futures;
  futures.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) futures.push_back(ch.callAsync(echoRequest(i)));
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  EXPECT_EQ(server.dispatched(), kCalls);
  EXPECT_LE(server.distinctThreads(), ch.maxInFlight());
  EXPECT_EQ(ch.stats().asyncCalls, static_cast<std::uint64_t>(kCalls));
}

TEST(CompletionQueue, SetMaxInFlightResizesThePool) {
  ThreadTrackingServer server;
  RmiChannel ch(server, net::NetworkProfile::ideal());
  ch.setMaxInFlight(2);
  EXPECT_EQ(ch.maxInFlight(), 2u);
  std::vector<RmiChannel::CallHandle> handles;
  for (int i = 0; i < 50; ++i) handles.push_back(ch.submit(echoRequest(i)));
  for (auto h : handles) ASSERT_TRUE(ch.wait(h).ok());
  EXPECT_LE(server.distinctThreads(), 2u);
  // Resize drains in-flight work first, so it is safe mid-session.
  ch.setMaxInFlight(0);
  EXPECT_GE(ch.maxInFlight(), 2u);  // back to the default depth
  ASSERT_TRUE(ch.wait(ch.submit(echoRequest(99))).ok());
}

TEST(CompletionQueue, InFlightCounterTracksLiveCalls) {
  GatedServer server;
  RmiChannel ch(server, net::NetworkProfile::ideal());
  EXPECT_EQ(ch.inFlightCalls(), 0);
  RmiChannel::CallHandle h = ch.submit(echoRequest(5));
  server.awaitEntered(1);  // the worker is now inside transact/dispatch
  EXPECT_GE(ch.inFlightCalls(), 1);
  server.release();
  ASSERT_TRUE(ch.wait(h).ok());
  EXPECT_EQ(ch.inFlightCalls(), 0);
  // With no calls in flight the injector swap is legal (the mid-flight case
  // trips the debug assertion and an audit error instead).
  ch.setFaultInjector(nullptr);
}

TEST(CompletionQueue, PipelinedSubmissionsOverlapOnTheWireAccount) {
  ThreadTrackingServer server;
  RmiChannel ch(server, net::NetworkProfile::wan());
  constexpr int kCalls = 8;
  std::vector<RmiChannel::CallHandle> handles;
  for (int i = 0; i < kCalls; ++i) handles.push_back(ch.submit(echoRequest(i)));
  for (auto h : handles) ASSERT_TRUE(ch.wait(h).ok());
  const ChannelStats& s = ch.stats();
  // Every overlapped round trip lands on the overlap account; the longest
  // single call bounds the fully-pipelined wall clock from below.
  EXPECT_GT(s.nonblockingWallSec, 0.0);
  EXPECT_GT(s.maxNonblockingCallSec, 0.0);
  EXPECT_LT(s.maxNonblockingCallSec, s.nonblockingWallSec);
  EXPECT_DOUBLE_EQ(s.blockingWallSec, 0.0);
}

// Regression (bugfix sweep): resetStats() used to clear ChannelStats without
// taking the stats mutex — racing a concurrent campaign's accounting writes.
// Run it repeatedly against live traffic; under TSan this test is the
// regression gate, everywhere else it still checks end-state coherence.
TEST(CompletionQueue, ResetStatsMidCampaignIsRaceFree) {
  // The registry reads rmi.* from the channel's ledger, and a reset folds
  // the ledger into the registry's retired totals: across the concurrent
  // resets the registry must count every call exactly once and never run
  // backwards.
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t callsBefore = reg.snapshot().counterOr("rmi.calls");
  ThreadTrackingServer server;
  RmiChannel ch(server, net::NetworkProfile::lan());
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 60;
  std::atomic<bool> done{false};
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&ch, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        Response resp = ch.call(echoRequest(t * 1000 + i));
        ASSERT_TRUE(resp.ok());
      }
    });
  }
  std::thread resetter([&ch, &done, &reg, callsBefore] {
    std::uint64_t last = callsBefore;
    while (!done.load(std::memory_order_acquire)) {
      ch.resetStats();
      const std::uint64_t now = reg.snapshot().counterOr("rmi.calls");
      EXPECT_GE(now, last);
      last = now;
      std::this_thread::yield();
    }
  });
  for (auto& t : callers) t.join();
  done.store(true, std::memory_order_release);
  resetter.join();
  EXPECT_EQ(server.dispatched(), kThreads * kCallsPerThread);
  // After a final reset the ledger reads as pristine — partial clears would
  // leave stale debris behind.
  ch.resetStats();
  const ChannelStats& s = ch.stats();
  EXPECT_EQ(s.calls, 0u);
  EXPECT_EQ(s.bytesSent, 0u);
  EXPECT_DOUBLE_EQ(s.blockingWallSec, 0.0);
  EXPECT_DOUBLE_EQ(s.feesCents, 0.0);
  if constexpr (obs::kObsCompiledIn) {
    EXPECT_EQ(reg.snapshot().counterOr("rmi.calls") - callsBefore,
              static_cast<std::uint64_t>(kThreads * kCallsPerThread));
  }
}

TEST(CompletionQueue, ShedRetriesPauseInRealTime) {
  // A shed call retries after a real-time pause, never in a tight loop, so
  // shed clients leave the overloaded server's workers the CPU.
  GatedServer server;
  RmiChannel ch(server, net::NetworkProfile::ideal());
  auto& loopback = dynamic_cast<LoopbackTransport&>(ch.wire());
  loopback.setMaxConcurrentDispatches(1);
  RmiChannel::CallHandle gated = ch.submit(echoRequest(0xAA));
  server.awaitEntered(1);

  const auto start = std::chrono::steady_clock::now();
  const Response shed = ch.call(echoRequest(1));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(shed.status, Status::TransportFailure);
  EXPECT_GE(elapsed, kShedRetryPause * (ch.retryPolicy().maxAttempts - 1));

  server.release();
  ASSERT_TRUE(ch.wait(gated).ok());
}

// waitAny under fire: concurrent submitters and concurrent waitAny
// consumers racing over a capped loopback, so completions are a mix of
// successes and typed admission sheds that burned their attempt budget.
// Under TSan this is the completion-queue concurrency gate; everywhere else
// it still proves exactly-once claiming and loss-free accounting.
TEST(CompletionQueue, WaitAnyStressMixesShedsAndSuccesses) {
  GatedServer server;
  RmiChannel ch(server, net::NetworkProfile::ideal());
  auto& loopback = dynamic_cast<LoopbackTransport&>(ch.wire());
  loopback.setMaxConcurrentDispatches(1);

  // Phase 1 — deterministic sheds: one call occupies the only dispatch
  // slot; every later call's every attempt sees the slot taken, sheds
  // with a typed TooManyPending, and fails after its whole budget.
  RmiChannel::CallHandle gated = ch.submit(echoRequest(0xAA));
  server.awaitEntered(1);
  constexpr int kShedCalls = 19;
  for (int i = 0; i < kShedCalls; ++i) ch.submit(echoRequest(i));
  for (int i = 0; i < kShedCalls; ++i) {
    auto done = ch.waitAny();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->second.status, Status::TransportFailure);
  }
  const int budget = ch.retryPolicy().maxAttempts;
  EXPECT_EQ(ch.stats().shedResponses,
            static_cast<std::uint64_t>(kShedCalls * budget));
  EXPECT_EQ(ch.stats().transportFailures,
            static_cast<std::uint64_t>(kShedCalls));
  server.release();
  ASSERT_TRUE(ch.wait(gated).ok());

  // Phase 2 — the race: submitters and waitAny consumers run concurrently
  // against the still-capped transport. Outcomes are timing-dependent
  // (collisions shed and may exhaust the budget), but every submission must
  // be claimed exactly once and the ok/fail split must add up.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 45;
  constexpr int kTotal = kThreads * kPerThread;
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&ch, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ch.submit(echoRequest(t * 1000 + i));
      }
    });
  }
  std::atomic<int> claimed{0};
  std::atomic<int> okCount{0};
  std::atomic<int> failCount{0};
  std::mutex claimMutex;
  std::set<std::uint64_t> claimedIds;
  std::atomic<bool> doubleClaim{false};
  auto consume = [&] {
    while (claimed.load(std::memory_order_acquire) < kTotal) {
      auto done = ch.waitAny();
      if (!done.has_value()) {
        std::this_thread::yield();  // submitters may not have caught up yet
        continue;
      }
      claimed.fetch_add(1, std::memory_order_acq_rel);
      if (done->second.ok()) {
        ++okCount;
      } else {
        EXPECT_EQ(done->second.status, Status::TransportFailure);
        ++failCount;
      }
      std::lock_guard<std::mutex> lock(claimMutex);
      if (!claimedIds.insert(done->first.id).second) doubleClaim = true;
    }
  };
  std::thread consumerA(consume);
  std::thread consumerB(consume);
  for (auto& t : submitters) t.join();
  consumerA.join();
  consumerB.join();
  EXPECT_FALSE(doubleClaim.load()) << "a handle was claimed twice";
  EXPECT_EQ(claimedIds.size(), static_cast<std::size_t>(kTotal));
  EXPECT_EQ(okCount.load() + failCount.load(), kTotal);
  EXPECT_GE(okCount.load(), 1);  // the cap sheds, it does not starve
  EXPECT_FALSE(ch.waitAny().has_value());  // nothing left in flight
  EXPECT_EQ(ch.stats().asyncCalls,
            static_cast<std::uint64_t>(1 + kShedCalls + kTotal));
}

// Destroying a channel with submitted-but-unclaimed work must not hang or
// crash: queued future-shim jobs get a typed broken-promise response.
TEST(CompletionQueue, DestructionWithPendingWorkIsClean) {
  GatedServer server;
  std::future<Response> orphan;
  {
    RmiChannel ch(server, net::NetworkProfile::ideal());
    ch.setMaxInFlight(1);
    RmiChannel::CallHandle inFlight = ch.submit(echoRequest(1));
    server.awaitEntered(1);
    orphan = ch.callAsync(echoRequest(2));  // stuck behind the gated call
    server.release();
    ASSERT_TRUE(ch.wait(inFlight).ok());
    // `orphan` may or may not have started; the destructor must settle it.
  }
  Response resp = orphan.get();
  // Either the pool got to it before teardown (ok) or the destructor broke
  // it with a typed failure — never a std::broken_promise throw.
  if (!resp.ok()) {
    EXPECT_EQ(resp.status, Status::TransportFailure);
  }
}

}  // namespace
}  // namespace vcad::rmi
