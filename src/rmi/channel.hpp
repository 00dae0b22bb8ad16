// RmiChannel: the client's view of one provider server.
//
// The channel is byte-accurate: requests and responses are fully
// marshalled, the marshalling security filter inspects outgoing payloads,
// and a NetworkModel charges simulated wall-clock time (latency + bandwidth
// + jitter, plus shared-host contention) to a VirtualClock. Measured
// quantities (server CPU seconds) come from real thread timers.
//
// The wire underneath is a pluggable net::Transport: the default loopback
// backend hands frames to an in-process ProviderCore, while
// net::SocketTransport carries the same framed exchanges to a provider in
// another process, served by ip::MultiTenantProviderServer over its own
// ProviderCore (a single-tenant client is tenant 0, the default). Either
// way the server side runs one request path. Everything that
// decides the *simulated* outcome — fault plans, time charges, retries,
// backoff — runs client-side in the channel, so the two backends produce
// bit-identical coverage, fees, and networkSec for the same seeds.
//
// Blocking calls advance the client's wall clock; non-blocking calls (the
// paper's new-thread gate-level simulations) accumulate on a separate
// overlap account, so the harness can reconstruct how much latency was
// hidden behind client compute.
//
// Non-blocking calls (callAsync) run on a bounded completion-queue worker
// pool and hand back a std::future: several requests can be in flight at
// once, pipelined onto the transport and matched back by per-attempt
// request ids — not one OS thread per call.
//
// Thread safety: call() and callAsync() may be used concurrently from any
// number of threads (the channel's own completion-queue workers run
// non-blocking calls while caller threads issue blocking ones).
// Stats/model updates are guarded by one mutex. The loopback's core has a
// single job-queue worker, so a ServerEndpoint behind *this channel's
// loopback* only ever sees one in-flight request. Servers reached by many
// channels, or over a socket where the provider front end's workers
// dispatch concurrently (ProviderServer), must be internally thread-safe —
// see the dispatch-concurrency section in DESIGN.md.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/log.hpp"
#include "net/faulty_transport.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "rmi/protocol.hpp"
#include "rmi/security.hpp"

namespace vcad::rmi {

/// Server side of the wire: anything able to answer unmarshalled requests.
class ServerEndpoint {
 public:
  virtual ~ServerEndpoint() = default;
  virtual Response dispatch(const Request& request) = 0;
  virtual std::string hostName() const = 0;
};

/// How the channel survives an unreliable transport: per-attempt response
/// deadline, capped exponential backoff with deterministic jitter, and a
/// bounded attempt budget after which the call is declared a
/// TransportFailure (triggering session recovery upstream).
struct RetryPolicy {
  int maxAttempts = 5;            // transmissions per logical call
  double timeoutSec = 0.25;       // per-attempt response deadline (simulated)
  double backoffBaseSec = 0.02;   // first retry delay
  double backoffMaxSec = 0.5;     // backoff cap
  double backoffJitter = 0.25;    // uniform +/- fraction, derived from the
                                  // request's idempotency key (deterministic)

  /// Backoff charged before retransmission number `attempt` (2-based: the
  /// first retransmission is attempt 2). Pure function of (key, attempt).
  double backoffSec(std::uint64_t key, int attempt) const;
};

/// Real-time pause before retransmitting a call the server shed (typed
/// TooManyPending / Overloaded). The policy's backoff is charged to the
/// simulated clock only, so without it a crowd of shed clients would spin
/// against the overloaded server and starve its workers of CPU until their
/// attempt budgets ran out.
inline constexpr std::chrono::microseconds kShedRetryPause{200};

struct ChannelStats {
  std::uint64_t calls = 0;  // every attempted call, security rejections
                            // included (rejections never reach the server,
                            // but they are client requests all the same)
  std::uint64_t blockedCalls = 0;
  std::uint64_t asyncCalls = 0;
  std::uint64_t securityRejections = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t bytesReceived = 0;
  double blockingWallSec = 0.0;     // wire + server time the client waited on
  double nonblockingWallSec = 0.0;  // wire + server time overlapped with work
  double maxNonblockingCallSec = 0.0;  // longest single overlapped call (the
                                       // fully-parallel latency lower bound)
  double serverCpuSec = 0.0;        // measured provider compute
  double feesCents = 0.0;           // accumulated provider fees

  // --- unreliable-transport accounting ----------------------------------
  std::uint64_t retries = 0;   // retransmissions (attempts beyond the first)
  std::uint64_t timeouts = 0;  // attempts that hit the response deadline
                               // (dropped/stalled/stale/corrupted exchanges)
  std::uint64_t duplicatesSuppressed = 0;  // replay-cache answers observed:
                                           // duplicates and retried
                                           // non-idempotent calls the
                                           // provider refused to re-execute
  std::uint64_t corruptedFramesDropped = 0;  // checksum-rejected frames
  std::uint64_t transportFailures = 0;  // calls declared dead after the
                                        // attempt budget
  std::uint64_t shedResponses = 0;  // typed admission sheds received
                                    // (TooManyPending / Overloaded), counted
                                    // identically on every transport backend
  std::uint64_t quotaRejections = 0;  // typed QuotaExceeded rejections: the
                                      // provider refused the tenant, the
                                      // call failed without retrying
  double networkSec = 0.0;  // deterministic transport time only: wire
                            // delays + timeouts + backoff, NO server compute
                            // (bit-reproducible from the channel seed)

  // --- result-store accounting -------------------------------------------
  // Counted from the delivered Response's `cached` flag on store-eligible
  // methods (GetDetectionTable / GetDetectionTables), so loopback and
  // socket backends count identically by construction.
  std::uint64_t cacheHits = 0;    // delivered Ok responses served from the
                                  // provider's result store
  std::uint64_t cacheMisses = 0;  // delivered Ok responses the provider had
                                  // to execute (store miss or no store)
  std::uint64_t cacheEvictions = 0;  // always 0 on the client: evictions
                                     // happen in the provider store (see its
                                     // stats and the cache.evictions
                                     // counter); the field exists so every
                                     // stats surface has the same shape
  std::uint64_t cacheBytes = 0;  // payload bytes delivered from cache hits
};

class RmiChannel {
 public:
  /// In-process channel: wraps `server` in a loopback transport.
  RmiChannel(ServerEndpoint& server, net::NetworkProfile profile,
             LogSink* audit = nullptr, std::uint64_t seed = 0x5eed);

  /// Channel over an explicit transport (e.g. net::SocketTransport to a
  /// provider process).
  RmiChannel(std::unique_ptr<net::Transport> transport,
             net::NetworkProfile profile, LogSink* audit = nullptr,
             std::uint64_t seed = 0x5eed);

  ~RmiChannel();
  RmiChannel(const RmiChannel&) = delete;
  RmiChannel& operator=(const RmiChannel&) = delete;

  /// Synchronous call: the client stalls for the full round trip.
  Response call(const Request& request);

  // --- completion queue (non-blocking calls) ------------------------------

  /// Non-blocking call: enqueues `request` on the bounded worker pool and
  /// returns at once. The future yields the response; its round-trip cost
  /// lands on the overlap account (asyncCalls / nonblockingWallSec). A call
  /// still queued when the channel is destroyed yields a typed
  /// TransportFailure, never std::future_error.
  std::future<Response> callAsync(Request request);

  /// Resizes the worker pool (the in-flight depth). Blocks until currently
  /// queued work drains, then takes effect for subsequent calls; a call
  /// made while it runs is queued for the resized pool. 0 restores the
  /// default depth.
  void setMaxInFlight(std::size_t workers);
  std::size_t maxInFlight() const;

  // --- chaos / policy ------------------------------------------------------

  /// Routes every exchange through a fault-injecting chaos plan (the
  /// injector must outlive the channel; nullptr restores ideal
  /// exactly-once delivery). Swapping mid-traffic would corrupt attempt
  /// accounting, so an install while calls are in flight trips a loud
  /// assertion — install before traffic starts.
  void setFaultInjector(net::FaultyTransport* injector);
  net::FaultyTransport* faultInjector() const { return faultInjector_; }

  /// Calls currently inside the channel (transact in progress).
  int inFlightCalls() const {
    return inFlightCalls_.load(std::memory_order_acquire);
  }

  void setRetryPolicy(RetryPolicy policy) { policy_ = policy; }
  const RetryPolicy& retryPolicy() const { return policy_; }

  /// Real-time cap on waiting for one response frame from the transport
  /// (distinct from RetryPolicy::timeoutSec, which is simulated time). Only
  /// socket backends honour it; a loopback waits for its frame's answer,
  /// which always comes.
  void setRealAwaitSec(double sec) { realAwaitSec_ = sec; }

  /// Tenant id stamped into every request frame header, identifying whose
  /// quota/ledger/replay-shard this channel bills against on a multi-tenant
  /// provider. 0 (the default) is the anonymous single-tenant identity.
  /// Set before traffic starts; single-tenant servers ignore it.
  void setTenant(std::uint64_t tenantId) {
    tenantId_.store(tenantId, std::memory_order_release);
  }
  std::uint64_t tenant() const {
    return tenantId_.load(std::memory_order_acquire);
  }

  /// Mints a fresh idempotency key (same generator `call` uses to stamp
  /// unkeyed requests). A caller that re-issues a failed logical call with
  /// the SAME key is recognized by the provider's replay cache, and the
  /// channel resumes the key's attempt numbering where the failed call left
  /// off — under a deterministic fault schedule a verbatim re-run would
  /// otherwise replay the exact faults that killed it.
  std::uint64_t makeKey() { return stampKey(); }

  const ChannelStats& stats() const { return stats_; }
  void resetStats();

  /// Total simulated wall-clock seconds the client was stalled by this
  /// channel (the blocking account).
  double blockedWallSec() const { return stats_.blockingWallSec; }

  const net::NetworkProfile& profile() const { return model_.profile(); }

  /// The in-process endpoint behind a loopback channel; nullptr when the
  /// transport crosses a process boundary (use RemoteConfig's explicit
  /// PublicPartSource there).
  ServerEndpoint* endpointOrNull() { return endpoint_; }

  net::Transport& wire() { return *wire_; }

 private:
  struct Attempt {
    bool delivered = false;  // a valid response made it back
    Response response;
    std::size_t bytesSent = 0;
    std::size_t bytesReceived = 0;
    double wallSec = 0.0;     // total client wait for this attempt
    double networkSec = 0.0;  // deterministic share of wallSec
    double serverCpuSec = 0.0;
    std::uint64_t duplicatesSuppressed = 0;
    bool timedOut = false;
    bool corruptedFrame = false;
    bool shedByServer = false;   // typed TooManyPending / Overloaded reply
    bool quotaRejected = false;  // typed QuotaExceeded reply (terminal)
  };

  struct AsyncJob {
    Request request;
    std::promise<Response> promise;
  };

  Response transact(const Request& request, bool blocking);
  /// One transmission attempt: ships the frame (twice, when the fault plan
  /// duplicates), awaits the matching response frame, and collects the
  /// response — or times out per the fault plan.
  Attempt attemptOnce(const net::ByteBuffer& wire, const Request& request,
                      std::uint32_t attempt);
  std::uint64_t stampKey();
  /// Reports stats_ to the registry under the stats mutex.
  obs::Registry::Reporter reportLocked();
  void ensureWorkersLocked();
  /// Serves the queue until the channel stops or `pool` is retired.
  void workerLoop(std::uint64_t pool);

  ServerEndpoint* endpoint_;  // non-null only for loopback channels
  std::unique_ptr<net::Transport> ownedTransport_;
  net::Transport* wire_;
  net::NetworkModel model_;
  MarshalFilter filter_;
  LogSink* audit_;
  net::FaultyTransport* faultInjector_ = nullptr;
  RetryPolicy policy_;
  double realAwaitSec_ = 5.0;
  std::atomic<std::uint64_t> tenantId_{0};
  std::uint64_t keySalt_;
  std::atomic<std::uint64_t> nextKey_{1};
  /// Unique per transmission attempt (a retransmission gets a fresh id), so
  /// the transport can match out-of-order responses and reject stale ones.
  std::atomic<std::uint64_t> nextRequestId_{1};
  std::atomic<int> inFlightCalls_{0};
  /// Attempt numbers already burned per idempotency key, kept only for keys
  /// whose call was declared a TransportFailure: a re-issue of that key
  /// continues at the next attempt index instead of replaying the fault
  /// plans that exhausted the budget. Erased on delivery, so the map stays
  /// bounded by the number of currently-dead logical calls.
  std::map<std::uint64_t, std::uint32_t> spentAttempts_;
  std::mutex mutex_;  // serializes stats/model updates across async calls
  ChannelStats stats_;
  obs::Registry::Attachment obs_;  // rmi.* read from stats_

  // --- completion queue state (declared last: torn down first) -----------
  mutable std::mutex asyncMutex_;
  std::condition_variable asyncWorkCv_;  // wakes workers
  std::condition_variable asyncDoneCv_;  // wakes setMaxInFlight's drain
  std::deque<AsyncJob> asyncQueue_;
  std::size_t runningJobs_ = 0;
  std::size_t maxInFlight_ = 0;  // 0 = default pool size
  std::uint64_t poolGeneration_ = 0;  // bumped by setMaxInFlight
  bool asyncStop_ = false;  // set once, by the destructor
  std::vector<std::thread> asyncWorkers_;
};

}  // namespace vcad::rmi
