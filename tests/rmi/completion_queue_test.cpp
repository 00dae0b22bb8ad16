// Completion-queue tests: the non-blocking call path (callAsync futures on
// the bounded worker pool that replaced thread-per-call std::async), and
// the regression tests for the RMI-layer bugfix sweep (resetStats race,
// callAsync thread bomb, mid-flight injector swap).
#include "rmi/channel.hpp"

#include <gtest/gtest.h>

#include "ip/multi_tenant_server.hpp"
#include "net/faulty_transport.hpp"
#include "net/socket_transport.hpp"
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

/// Echo endpoint counting its dispatches.
class EchoServer : public ServerEndpoint {
 public:
  Response dispatch(const Request& request) override {
    ++dispatched_;
    Response r;
    Args args = request.args;
    r.payload.writeWord(args.takeWord());
    r.feeCents = 0.25;
    return r;
  }
  std::string hostName() const override { return "queue.host"; }
  int dispatched() const { return dispatched_.load(); }

 private:
  std::atomic<int> dispatched_{0};
};

/// Loopback wire that records which OS threads send on it. The loopback
/// dispatches on its own single worker whatever the channel does, so the
/// channel's pool shows up here: a bounded pool is a bounded set of
/// sender thread ids, however many calls are pushed through.
class SenderTrackingWire final : public net::Transport {
 public:
  explicit SenderTrackingWire(ServerEndpoint& server) : inner_(server) {}
  void send(const net::RequestFrameHeader& header,
            const std::vector<std::uint8_t>& sealedPayload) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      senders_.insert(std::this_thread::get_id());
    }
    inner_.send(header, sealedPayload);
  }
  net::TransportReply awaitReply(std::uint64_t requestId,
                                 double realDeadlineSec) override {
    return inner_.awaitReply(requestId, realDeadlineSec);
  }
  void discard(std::uint64_t requestId) override { inner_.discard(requestId); }
  std::string peerName() const override { return inner_.peerName(); }

  std::size_t distinctSenders() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return senders_.size();
  }

 private:
  LoopbackTransport inner_;
  mutable std::mutex mutex_;
  std::set<std::thread::id> senders_;
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

/// A provider front end over TCP that sheds on demand: one queue worker,
/// a Compute-lane bound of 1, and a GatedServer shard. Once a gated call
/// holds the worker, fillLane() queues one raw frame in the Compute lane;
/// from then on every Compute-lane call (an EvalFunction) is answered with
/// a typed TooManyPending until release().
class GatedProvider {
 public:
  GatedProvider() : server_(factory(), config()) {
    port_ = server_.listenTcp(0);
    server_.start();
  }

  /// A channel over a fresh connection to the provider.
  std::unique_ptr<net::Transport> connect() const {
    return net::SocketTransport::connectTcp("127.0.0.1", port_);
  }

  GatedServer& gate() {
    while (shard_.load(std::memory_order_acquire) == nullptr) {
      std::this_thread::yield();
    }
    return *shard_.load(std::memory_order_acquire);
  }

  void fillLane() {
    filler_ = net::SocketTransport::connectTcp("127.0.0.1", port_);
    ASSERT_NE(filler_, nullptr);
    std::vector<std::uint8_t> payload = echoRequest(0xAB).marshal().bytes();
    net::sealFrame(payload);
    net::RequestFrameHeader h;
    h.methodId = static_cast<std::uint32_t>(MethodId::EvalFunction);
    h.requestId = 1;
    h.priority = net::JobPriority::Compute;
    filler_->send(h, payload);
    while (server_.queueStats().enqueued < 2) std::this_thread::yield();
  }

  /// Opens the gate; the lane's queued frame is then served.
  void release() {
    gate().release();
    EXPECT_EQ(filler_->awaitReply(1, 5.0).status, net::FrameStatus::Ok);
  }

 private:
  ip::MultiTenantProviderServer::EndpointFactory factory() {
    return [this](ip::TenantId) {
      auto shard = std::make_unique<GatedServer>();
      shard_.store(shard.get(), std::memory_order_release);
      return std::unique_ptr<ServerEndpoint>(std::move(shard));
    };
  }
  static ip::MultiTenantProviderServer::Config config() {
    ip::MultiTenantProviderServer::Config cfg;
    cfg.queue.workers = 1;
    cfg.queue.perPriorityDepth[static_cast<std::size_t>(
        net::JobPriority::Compute)] = 1;
    return cfg;
  }

  std::atomic<GatedServer*> shard_{nullptr};
  ip::MultiTenantProviderServer server_;
  std::uint16_t port_ = 0;
  std::unique_ptr<net::SocketTransport> filler_;
};

// Regression (bugfix sweep): callAsync used to spawn one std::async thread
// per call — a campaign of thousands of estimation calls was a thread bomb.
// Now every path runs on the bounded pool: the endpoint must never see more
// distinct dispatching threads than the pool depth, however many calls fly.
TEST(CompletionQueue, CallAsyncRunsOnBoundedPoolNotThreadPerCall) {
  EchoServer server;
  RmiChannel ch(std::make_unique<SenderTrackingWire>(server),
                net::NetworkProfile::ideal());
  auto& wire = dynamic_cast<SenderTrackingWire&>(ch.wire());
  constexpr int kCalls = 200;
  std::vector<std::future<Response>> futures;
  futures.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) futures.push_back(ch.callAsync(echoRequest(i)));
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  EXPECT_EQ(server.dispatched(), kCalls);
  EXPECT_LE(wire.distinctSenders(), ch.maxInFlight());
  EXPECT_EQ(ch.stats().asyncCalls, static_cast<std::uint64_t>(kCalls));
}

TEST(CompletionQueue, SetMaxInFlightResizesThePool) {
  EchoServer server;
  RmiChannel ch(std::make_unique<SenderTrackingWire>(server),
                net::NetworkProfile::ideal());
  auto& wire = dynamic_cast<SenderTrackingWire&>(ch.wire());
  ch.setMaxInFlight(2);
  EXPECT_EQ(ch.maxInFlight(), 2u);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 50; ++i) futures.push_back(ch.callAsync(echoRequest(i)));
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  EXPECT_LE(wire.distinctSenders(), 2u);
  // Resize drains in-flight work first, so it is safe mid-session.
  ch.setMaxInFlight(0);
  EXPECT_GE(ch.maxInFlight(), 2u);  // back to the default depth
  ASSERT_TRUE(ch.callAsync(echoRequest(99)).get().ok());
}

// Only destruction fails a call: a callAsync that races a resize is queued
// for the resized pool, never answered "channel shutting down".
TEST(CompletionQueue, CallAsyncRacingSetMaxInFlightIsQueued) {
  EchoServer server;
  RmiChannel ch(server, net::NetworkProfile::ideal());
  std::atomic<bool> done{false};
  std::thread resizer([&] {
    for (std::size_t n = 1; !done.load(std::memory_order_acquire);
         n = n % 4 + 1) {
      ch.setMaxInFlight(n);
    }
  });
  constexpr int kCalls = 300;
  std::vector<std::future<Response>> futures;
  futures.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(ch.callAsync(echoRequest(i)));
    std::this_thread::yield();
  }
  for (auto& f : futures) {
    const Response resp = f.get();
    EXPECT_TRUE(resp.ok()) << resp.error;
  }
  done.store(true, std::memory_order_release);
  resizer.join();
  EXPECT_EQ(ch.stats().asyncCalls, static_cast<std::uint64_t>(kCalls));
}

TEST(CompletionQueue, InFlightCounterTracksLiveCalls) {
  GatedServer server;
  RmiChannel ch(server, net::NetworkProfile::ideal());
  EXPECT_EQ(ch.inFlightCalls(), 0);
  std::future<Response> f = ch.callAsync(echoRequest(5));
  server.awaitEntered(1);  // the worker is now inside transact/dispatch
  EXPECT_GE(ch.inFlightCalls(), 1);
  server.release();
  ASSERT_TRUE(f.get().ok());
  EXPECT_EQ(ch.inFlightCalls(), 0);
  // With no calls in flight the injector swap is legal (the mid-flight case
  // trips the debug assertion and an audit error instead).
  ch.setFaultInjector(nullptr);
}

TEST(CompletionQueue, PipelinedSubmissionsOverlapOnTheWireAccount) {
  EchoServer server;
  RmiChannel ch(server, net::NetworkProfile::wan());
  constexpr int kCalls = 8;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kCalls; ++i) futures.push_back(ch.callAsync(echoRequest(i)));
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
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
  EchoServer server;
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
  GatedProvider provider;
  RmiChannel ch(provider.connect(), net::NetworkProfile::ideal());
  std::future<Response> gated = ch.callAsync(echoRequest(0xAA));
  provider.gate().awaitEntered(1);
  provider.fillLane();

  const auto start = std::chrono::steady_clock::now();
  const Response shed = ch.call(echoRequest(1));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(shed.status, Status::TransportFailure);
  EXPECT_GE(elapsed, kShedRetryPause * (ch.retryPolicy().maxAttempts - 1));

  provider.release();
  ASSERT_TRUE(gated.get().ok());
}

// callAsync under fire: concurrent callers against a provider whose queue
// admits one Compute-lane frame at a time, so completions are a mix of
// successes and typed admission sheds that burned their attempt budget.
// Under TSan this is the completion-queue concurrency gate; everywhere else
// it still proves every future settles once and the accounting loses
// nothing.
TEST(CompletionQueue, CallAsyncStressMixesShedsAndSuccesses) {
  GatedProvider provider;
  RmiChannel ch(provider.connect(), net::NetworkProfile::ideal());

  // Phase 1 — deterministic sheds: one call occupies the only worker and a
  // raw frame fills the Compute lane; every later call's every attempt
  // sheds with a typed TooManyPending and fails after its whole budget.
  std::future<Response> gated = ch.callAsync(echoRequest(0xAA));
  provider.gate().awaitEntered(1);
  provider.fillLane();
  constexpr int kShedCalls = 19;
  std::vector<std::future<Response>> shed;
  for (int i = 0; i < kShedCalls; ++i) shed.push_back(ch.callAsync(echoRequest(i)));
  for (auto& f : shed) EXPECT_EQ(f.get().status, Status::TransportFailure);
  const int budget = ch.retryPolicy().maxAttempts;
  EXPECT_EQ(ch.stats().shedResponses,
            static_cast<std::uint64_t>(kShedCalls * budget));
  EXPECT_EQ(ch.stats().transportFailures,
            static_cast<std::uint64_t>(kShedCalls));
  provider.release();
  ASSERT_TRUE(gated.get().ok());

  // Phase 2 — the race: callers submit and collect concurrently against the
  // still one-deep lane. Outcomes are timing-dependent (collisions shed
  // and may exhaust the budget), but every future must settle and the
  // ok/fail split must add up.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 45;
  constexpr int kTotal = kThreads * kPerThread;
  std::atomic<int> okCount{0};
  std::atomic<int> failCount{0};
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      std::vector<std::future<Response>> mine;
      mine.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        mine.push_back(ch.callAsync(echoRequest(t * 1000 + i)));
      }
      for (auto& f : mine) {
        const Response resp = f.get();
        if (resp.ok()) {
          ++okCount;
        } else {
          EXPECT_EQ(resp.status, Status::TransportFailure);
          ++failCount;
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(okCount.load() + failCount.load(), kTotal);
  EXPECT_GE(okCount.load(), 1);  // the lane sheds, it does not starve
  EXPECT_EQ(ch.stats().asyncCalls,
            static_cast<std::uint64_t>(1 + kShedCalls + kTotal));
  EXPECT_EQ(ch.stats().transportFailures,
            static_cast<std::uint64_t>(kShedCalls + failCount.load()));
}

// Destroying a channel with queued work must not hang or crash: a job that
// never ran settles its future with a typed TransportFailure.
TEST(CompletionQueue, DestructionWithPendingWorkIsClean) {
  GatedServer server;
  std::future<Response> inFlight;
  std::future<Response> orphan;
  std::thread releaser;
  {
    RmiChannel ch(server, net::NetworkProfile::ideal());
    ch.setMaxInFlight(1);
    inFlight = ch.callAsync(echoRequest(1));
    server.awaitEntered(1);
    orphan = ch.callAsync(echoRequest(2));  // stuck behind the gated call
    // Release the gate only once teardown is under way, so the destructor
    // usually finds `orphan` still queued.
    releaser = std::thread([&server] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      server.release();
    });
  }
  releaser.join();
  ASSERT_TRUE(inFlight.get().ok());
  Response resp = orphan.get();
  // Either the pool got to it before teardown (ok) or the destructor broke
  // it with a typed failure — never a std::broken_promise throw.
  if (!resp.ok()) {
    EXPECT_EQ(resp.status, Status::TransportFailure);
  }
}

}  // namespace
}  // namespace vcad::rmi
