#include "rmi/channel.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rmi/loopback_transport.hpp"

namespace vcad::rmi {

namespace {

/// Real-time grace wait for a reply to a frame the receiver will discard
/// (corrupted request): almost certainly nothing comes back, but the short
/// window keeps the checksum-collision case on the same code path.
constexpr double kCorruptedAwaitSec = 0.02;

/// Span names must be static literals (TraceEvent stores the pointer).
const char* methodSpanName(MethodId m) {
  switch (m) {
    case MethodId::OpenSession:
      return "rmi.OpenSession";
    case MethodId::CloseSession:
      return "rmi.CloseSession";
    case MethodId::GetCatalog:
      return "rmi.GetCatalog";
    case MethodId::Instantiate:
      return "rmi.Instantiate";
    case MethodId::EvalFunction:
      return "rmi.EvalFunction";
    case MethodId::EstimatePower:
      return "rmi.EstimatePower";
    case MethodId::EstimateTiming:
      return "rmi.EstimateTiming";
    case MethodId::EstimateArea:
      return "rmi.EstimateArea";
    case MethodId::GetFaultList:
      return "rmi.GetFaultList";
    case MethodId::GetDetectionTable:
      return "rmi.GetDetectionTable";
    case MethodId::SeqReset:
      return "rmi.SeqReset";
    case MethodId::SeqStep:
      return "rmi.SeqStep";
    case MethodId::Negotiate:
      return "rmi.Negotiate";
    case MethodId::GetDetectionTables:
      return "rmi.GetDetectionTables";
  }
  return "rmi.call";
}

/// ChannelStats under its registry names (rmi.*).
void report(const ChannelStats& s, obs::Registry::Tally& t) {
  t.count("rmi.calls", s.calls);
  t.count("rmi.blockedCalls", s.blockedCalls);
  t.count("rmi.asyncCalls", s.asyncCalls);
  t.count("rmi.securityRejections", s.securityRejections);
  t.count("rmi.bytesSent", s.bytesSent);
  t.count("rmi.bytesReceived", s.bytesReceived);
  t.count("rmi.retries", s.retries);
  t.count("rmi.timeouts", s.timeouts);
  t.count("rmi.duplicatesSuppressed", s.duplicatesSuppressed);
  t.count("rmi.corruptedFramesDropped", s.corruptedFramesDropped);
  t.count("rmi.transportFailures", s.transportFailures);
  t.count("rmi.shedResponses", s.shedResponses);
  t.count("rmi.quotaRejections", s.quotaRejections);
  t.count("rmi.cacheHits", s.cacheHits);
  t.count("rmi.cacheMisses", s.cacheMisses);
  t.count("rmi.cacheBytes", s.cacheBytes);
  t.sum("rmi.blockingWallSec", s.blockingWallSec);
  t.sum("rmi.nonblockingWallSec", s.nonblockingWallSec);
  t.sum("rmi.serverCpuSec", s.serverCpuSec);
  t.sum("rmi.feesCents", s.feesCents);
  t.sum("rmi.networkSec", s.networkSec);
}

/// Completion-queue depth when setMaxInFlight was never called (or got 0).
std::size_t defaultDepth() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, std::max<std::size_t>(2, hw));
}

/// RAII in-flight marker; what the fault-injector swap assertion observes.
struct InFlightGuard {
  explicit InFlightGuard(std::atomic<int>& counter) : counter_(counter) {
    counter_.fetch_add(1, std::memory_order_acq_rel);
  }
  ~InFlightGuard() { counter_.fetch_sub(1, std::memory_order_acq_rel); }
  std::atomic<int>& counter_;
};

}  // namespace

double RetryPolicy::backoffSec(std::uint64_t key, int attempt) const {
  // Exponential from the first retransmission (attempt 2 pays the base),
  // capped, with jitter drawn from a generator seeded by (key, attempt) so
  // the delay is reproducible and independent of thread interleaving.
  const int step = attempt < 2 ? 0 : attempt - 2;
  double delay =
      std::min(backoffBaseSec * std::pow(2.0, static_cast<double>(step)),
               backoffMaxSec);
  if (backoffJitter > 0.0) {
    Rng rng(key * 0x9e3779b97f4a7c15ULL +
            static_cast<std::uint64_t>(attempt) * 0xbf58476d1ce4e5b9ULL);
    delay *= 1.0 + rng.uniform(-backoffJitter, backoffJitter);
  }
  return delay;
}

RmiChannel::RmiChannel(ServerEndpoint& server, net::NetworkProfile profile,
                       LogSink* audit, std::uint64_t seed)
    : endpoint_(&server),
      ownedTransport_(std::make_unique<LoopbackTransport>(server)),
      wire_(ownedTransport_.get()),
      model_(std::move(profile), seed),
      filter_(audit),
      audit_(audit),
      keySalt_(seed),
      obs_(obs::Registry::global(), reportLocked()) {}

RmiChannel::RmiChannel(std::unique_ptr<net::Transport> transport,
                       net::NetworkProfile profile, LogSink* audit,
                       std::uint64_t seed)
    : endpoint_(nullptr),
      ownedTransport_(std::move(transport)),
      wire_(ownedTransport_.get()),
      model_(std::move(profile), seed),
      filter_(audit),
      audit_(audit),
      keySalt_(seed),
      obs_(obs::Registry::global(), reportLocked()) {
  if (wire_ == nullptr) {
    throw std::invalid_argument("RmiChannel: null transport");
  }
}

RmiChannel::~RmiChannel() {
  std::vector<std::thread> workers;
  std::deque<AsyncJob> abandoned;
  {
    std::lock_guard<std::mutex> lock(asyncMutex_);
    asyncStop_ = true;
    workers.swap(asyncWorkers_);
    abandoned.swap(asyncQueue_);
    asyncWorkCv_.notify_all();
  }
  for (std::thread& t : workers) t.join();
  // Jobs that never ran: break them gently so a stray future.get() sees a
  // typed failure instead of std::future_error.
  for (AsyncJob& job : abandoned) {
    job.promise.set_value(Response::failure(
        Status::TransportFailure, "channel destroyed before dispatch"));
  }
}

Response RmiChannel::call(const Request& request) {
  return transact(request, /*blocking=*/true);
}

void RmiChannel::setFaultInjector(net::FaultyTransport* injector) {
  const int inFlight = inFlightCalls_.load(std::memory_order_acquire);
  if (inFlight != 0) {
    // Loud on purpose: a swap during traffic silently corrupts attempt
    // accounting (plans already drawn from the old injector). Fail fast in
    // debug builds; release builds at least leave a trail.
    std::fprintf(stderr,
                 "RmiChannel::setFaultInjector: %d call(s) in flight — "
                 "install the injector before traffic starts\n",
                 inFlight);
    if (audit_ != nullptr) {
      audit_->error("setFaultInjector with " + std::to_string(inFlight) +
                    " in-flight call(s)");
    }
    assert(inFlight == 0 &&
           "RmiChannel::setFaultInjector called with calls in flight");
  }
  faultInjector_ = injector;
}

obs::Registry::Reporter RmiChannel::reportLocked() {
  return [this](obs::Registry::Tally& t) {
    std::lock_guard<std::mutex> lock(mutex_);
    report(stats_, t);
  };
}

void RmiChannel::resetStats() {
  // Under the stats mutex: concurrent call()/callAsync() accounting blocks
  // write through the same lock, so a mid-campaign reset is a clean cut
  // instead of a torn struct, and the registry keeps what it zeroes.
  obs_.fold([this](obs::Registry::Tally& t) {
    std::lock_guard<std::mutex> lock(mutex_);
    report(stats_, t);
    stats_ = ChannelStats{};
  });
}

// --- completion queue ----------------------------------------------------

void RmiChannel::ensureWorkersLocked() {
  if (!asyncWorkers_.empty() || asyncStop_) return;
  const std::size_t n = maxInFlight_ != 0 ? maxInFlight_ : defaultDepth();
  asyncWorkers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    asyncWorkers_.emplace_back(
        [this, pool = poolGeneration_] { workerLoop(pool); });
  }
}

void RmiChannel::workerLoop(std::uint64_t pool) {
  for (;;) {
    AsyncJob job;
    {
      std::unique_lock<std::mutex> lock(asyncMutex_);
      const auto retired = [&] {
        return asyncStop_ || pool != poolGeneration_;
      };
      asyncWorkCv_.wait(lock,
                        [&] { return retired() || !asyncQueue_.empty(); });
      if (retired()) return;
      job = std::move(asyncQueue_.front());
      asyncQueue_.pop_front();
      ++runningJobs_;
    }
    job.promise.set_value(transact(job.request, /*blocking=*/false));
    std::lock_guard<std::mutex> lock(asyncMutex_);
    --runningJobs_;
    asyncDoneCv_.notify_all();
  }
}

void RmiChannel::setMaxInFlight(std::size_t workers) {
  std::vector<std::thread> old;
  {
    std::unique_lock<std::mutex> lock(asyncMutex_);
    // Drain first, so the retired pool is idle. Calls made from here on
    // queue as usual and start the resized pool.
    asyncDoneCv_.wait(
        lock, [this] { return asyncQueue_.empty() && runningJobs_ == 0; });
    ++poolGeneration_;
    asyncWorkCv_.notify_all();
    old.swap(asyncWorkers_);
    maxInFlight_ = workers;
  }
  for (std::thread& t : old) t.join();
}

std::size_t RmiChannel::maxInFlight() const {
  std::lock_guard<std::mutex> lock(asyncMutex_);
  return maxInFlight_ != 0 ? maxInFlight_ : defaultDepth();
}

std::future<Response> RmiChannel::callAsync(Request request) {
  AsyncJob job{std::move(request), {}};
  std::future<Response> future = job.promise.get_future();
  std::lock_guard<std::mutex> lock(asyncMutex_);
  if (asyncStop_) {
    job.promise.set_value(
        Response::failure(Status::TransportFailure, "channel shutting down"));
    return future;
  }
  ensureWorkersLocked();
  asyncQueue_.push_back(std::move(job));
  asyncWorkCv_.notify_one();
  return future;
}

std::uint64_t RmiChannel::stampKey() {
  const std::uint64_t n = nextKey_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t z = keySalt_ + 0x9e3779b97f4a7c15ULL * n;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z != 0 ? z : 1;  // 0 means "unassigned" on the wire
}

RmiChannel::Attempt RmiChannel::attemptOnce(const net::ByteBuffer& wire,
                                            const Request& request,
                                            std::uint32_t attempt) {
  Attempt a;
  const net::FaultPlan plan =
      faultInjector_ != nullptr
          ? faultInjector_->plan(request.idempotencyKey, attempt)
          : net::FaultPlan{};
  const auto timeout = [&](bool corrupted) {
    a.timedOut = true;
    a.corruptedFrame = corrupted;
    // The deadline dominates whatever partial delays accrued: the client
    // waited exactly `timeoutSec` before giving up on this attempt.
    a.wallSec = policy_.timeoutSec;
    a.networkSec = policy_.timeoutSec;
  };

  // --- request leg -------------------------------------------------------
  std::vector<std::uint8_t> frame = wire.bytes();
  net::sealFrame(frame);
  a.bytesSent = frame.size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    a.networkSec += model_.messageDelaySec(frame.size());
  }
  a.wallSec = a.networkSec;

  if (plan.dropRequest) {
    // Never transmitted: the client learns nothing until the deadline.
    timeout(false);
    return a;
  }
  if (plan.corruptRequest) {
    faultInjector_->corrupt(frame, request.idempotencyKey, attempt, 0);
  }

  // Each transmission attempt ships under its own request id: the response
  // demux can then match out-of-order completions and drop stale frames
  // from abandoned attempts. A duplicated request reaches the endpoint
  // twice with the same id; a replay-caching provider answers the second
  // copy without re-executing.
  const std::uint64_t requestId =
      nextRequestId_.fetch_add(1, std::memory_order_relaxed);
  net::RequestFrameHeader frameHeader;
  frameHeader.methodId = static_cast<std::uint32_t>(request.method);
  frameHeader.requestId = requestId;
  frameHeader.tenantId = tenantId_.load(std::memory_order_acquire);
  frameHeader.priority = priorityFor(request.method);
  wire_->send(frameHeader, frame);
  if (plan.duplicateRequest) wire_->send(frameHeader, frame);

  // A corrupted frame is checksum-rejected and silently discarded by the
  // receiver, so only a short real-time grace wait covers it.
  const double awaitSec = plan.corruptRequest
                              ? std::min(realAwaitSec_, kCorruptedAwaitSec)
                              : realAwaitSec_;
  net::TransportReply first = wire_->awaitReply(requestId, awaitSec);
  if (!first.delivered) {
    wire_->discard(requestId);
    timeout(plan.corruptRequest);
    return a;
  }
  if (first.status == net::FrameStatus::QuotaExceeded) {
    // Deterministic admission rejection: the tenant's quota is spent, and
    // retrying cannot change that. Deliver a typed terminal response
    // immediately — no deadline burned, no retry. Only the response frame
    // header travelled back, so the wire charge is the header's.
    wire_->discard(requestId);
    a.quotaRejected = true;
    a.delivered = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const double d = model_.messageDelaySec(net::kResponseHeaderBytes);
      a.networkSec += d;
      a.wallSec += d;
    }
    a.response = Response::failure(
        Status::PaymentRequired,
        "provider admission control: tenant quota exhausted");
    return a;
  }
  if (first.status != net::FrameStatus::Ok) {
    // Typed carrier-level rejection (admission shed, draining server): no
    // response payload exists. The attempt burns its deadline and the retry
    // loop backs off, like any other lost exchange.
    if (first.status == net::FrameStatus::TooManyPending ||
        first.status == net::FrameStatus::Overloaded) {
      a.shedByServer = true;
    }
    wire_->discard(requestId);
    timeout(false);
    return a;
  }

  double serverCpu = first.serverCpuSec;
  if (plan.duplicateRequest) {
    net::TransportReply second = wire_->awaitReply(requestId, realAwaitSec_);
    if (second.delivered && second.status == net::FrameStatus::Ok) {
      serverCpu += second.serverCpuSec;
      std::vector<std::uint8_t> dupFrame = std::move(second.sealedPayload);
      if (net::openFrame(dupFrame)) {
        try {
          net::ByteBuffer b(std::move(dupFrame));
          if (Response::unmarshal(b).replayed) ++a.duplicatesSuppressed;
        } catch (const std::exception&) {
        }
      }
    }
  }
  wire_->discard(requestId);
  a.serverCpuSec = serverCpu;
  a.wallSec += model_.serverComputeWallSec(serverCpu);

  // --- response leg ------------------------------------------------------
  if (plan.dropResponse) {
    // The server executed; its answer vanished client-side.
    timeout(false);
    return a;
  }
  // Transport-injected delays (provider stall, overtaken/stale delivery)
  // count against the deadline; measured compute and modelled wire time do
  // not, so retry behaviour stays bit-reproducible from the seeds.
  const double injectedDelay = plan.stallSec + plan.reorderDelaySec;
  if (injectedDelay >= policy_.timeoutSec) {
    timeout(false);
    return a;
  }
  std::vector<std::uint8_t> respFrame = std::move(first.sealedPayload);
  if (plan.corruptResponse) {
    faultInjector_->corrupt(respFrame, request.idempotencyKey, attempt, 1);
  }
  a.bytesReceived = respFrame.size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const double d = model_.messageDelaySec(respFrame.size());
    a.networkSec += d;
    a.wallSec += d;
  }
  a.networkSec += injectedDelay;
  a.wallSec += injectedDelay;

  bool respOk = net::openFrame(respFrame);
  if (respOk) {
    try {
      net::ByteBuffer b(std::move(respFrame));
      a.response = Response::unmarshal(b);
    } catch (const std::exception&) {
      respOk = false;
    }
  }
  if (!respOk) {
    // Damaged response frame: discarded, and the retransmit the client is
    // hoping for never comes — deadline fires.
    timeout(true);
    return a;
  }
  if (a.response.replayed) ++a.duplicatesSuppressed;
  a.delivered = true;
  return a;
}

Response RmiChannel::transact(const Request& request, bool blocking) {
  InFlightGuard inFlight(inFlightCalls_);
  // 1. Security: inspect exactly what would go on the wire. Rejections never
  // generate traffic, so they bypass the retry machinery entirely.
  obs::Tracer& tracer = obs::Tracer::global();
  if (!filter_.admit(request)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.calls;
      ++stats_.securityRejections;
    }
    if (tracer.enabled()) {
      tracer.instant(
          "rmi.securityRejection", "rmi",
          {{"method", static_cast<double>(
                          static_cast<std::uint32_t>(request.method))}});
    }
    return Response::failure(
        Status::SecurityViolation,
        "marshalling filter rejected non-port design information");
  }

  // 2. Stamp the logical call with its idempotency key and marshal once;
  // every retransmission ships byte-identical content. A traced call also
  // carries the channel span's id in the frame's span-context field, so the
  // provider's dispatch spans stitch under this span; an untraced call
  // ships 0 in the same fixed-width field (identical byte counts either
  // way, keeping transport timing and fault schedules unperturbed).
  Request req = request;
  if (req.idempotencyKey == 0) req.idempotencyKey = stampKey();
  obs::SpanScope span(tracer, methodSpanName(req.method), "rmi");
  req.spanContext = span.id();
  const net::ByteBuffer wire = req.marshal();
  if (span.active()) span.flowBegin();

  // 3. Attempt loop: transmit, and on a deadline miss back off and retry
  // until the budget is spent. A key that already exhausted a budget (the
  // caller is re-issuing a TransportFailure) resumes at the next attempt
  // index, so the deterministic fault schedule moves forward instead of
  // replaying the plans that killed the previous round.
  std::uint32_t attemptBase = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto spent = spentAttempts_.find(req.idempotencyKey);
    if (spent != spentAttempts_.end()) attemptBase = spent->second;
  }
  Attempt sum;
  std::uint64_t timeouts = 0;
  std::uint64_t corruptedFrames = 0;
  std::uint64_t retries = 0;
  std::uint64_t sheds = 0;
  bool quotaRejected = false;
  bool delivered = false;
  Response finalResponse;
  for (int attempt = 1; attempt <= policy_.maxAttempts; ++attempt) {
    const std::uint32_t absAttempt =
        attemptBase + static_cast<std::uint32_t>(attempt);
    if (absAttempt > 1) {
      // A resumed key's first transmission is still a retransmission of the
      // logical call, so it counts toward `retries` like any other.
      ++retries;
      const double backoff = policy_.backoffSec(
          req.idempotencyKey, static_cast<int>(absAttempt));
      sum.wallSec += backoff;
      sum.networkSec += backoff;
    }
    Attempt a = attemptOnce(wire, req, absAttempt);
    sum.wallSec += a.wallSec;
    sum.networkSec += a.networkSec;
    sum.bytesSent += a.bytesSent;
    sum.bytesReceived += a.bytesReceived;
    sum.serverCpuSec += a.serverCpuSec;
    sum.duplicatesSuppressed += a.duplicatesSuppressed;
    if (a.timedOut) ++timeouts;
    if (a.corruptedFrame) ++corruptedFrames;
    if (a.shedByServer) ++sheds;
    if (a.delivered) {
      delivered = true;
      quotaRejected = a.quotaRejected;
      finalResponse = std::move(a.response);
      break;
    }
    if (a.shedByServer && attempt < policy_.maxAttempts) {
      std::this_thread::sleep_for(kShedRetryPause);
    }
  }
  if (!delivered) {
    finalResponse = Response::failure(
        Status::TransportFailure,
        "no response after " + std::to_string(policy_.maxAttempts) +
            " attempts (" + toString(req.method) + ")");
  }

  // 4. Account.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (delivered) {
      spentAttempts_.erase(req.idempotencyKey);
    } else {
      spentAttempts_[req.idempotencyKey] =
          attemptBase + static_cast<std::uint32_t>(policy_.maxAttempts);
    }
    ++stats_.calls;
    if (blocking) {
      ++stats_.blockedCalls;
      stats_.blockingWallSec += sum.wallSec;
    } else {
      ++stats_.asyncCalls;
      stats_.nonblockingWallSec += sum.wallSec;
      if (sum.wallSec > stats_.maxNonblockingCallSec) {
        stats_.maxNonblockingCallSec = sum.wallSec;
      }
    }
    stats_.bytesSent += sum.bytesSent;
    stats_.bytesReceived += sum.bytesReceived;
    stats_.serverCpuSec += sum.serverCpuSec;
    stats_.networkSec += sum.networkSec;
    stats_.retries += retries;
    stats_.timeouts += timeouts;
    stats_.duplicatesSuppressed += sum.duplicatesSuppressed;
    stats_.corruptedFramesDropped += corruptedFrames;
    stats_.shedResponses += sheds;
    if (quotaRejected) ++stats_.quotaRejections;
    if (!delivered) ++stats_.transportFailures;
    // Fees only from a delivered response; replayed responses carry the fee
    // of the original execution, charged server-side exactly once.
    if (delivered) stats_.feesCents += finalResponse.feeCents;
    // Result-store accounting, derived from the delivered Response alone so
    // loopback and socket backends agree by construction.
    if (delivered && finalResponse.ok() &&
        (req.method == MethodId::GetDetectionTable ||
         req.method == MethodId::GetDetectionTables)) {
      if (finalResponse.cached) {
        ++stats_.cacheHits;
        stats_.cacheBytes += finalResponse.payload.bytes().size();
      } else {
        ++stats_.cacheMisses;
      }
    }
  }
  static const obs::Registry::MetricId callWallSec =
      obs::Registry::global().histogram("rmi.callWallSec");
  obs::Registry::global().observe(callWallSec, sum.wallSec);
  if (span.active()) {
    span.arg("blocking", blocking ? 1.0 : 0.0);
    span.arg("retries", static_cast<double>(retries));
    span.arg("timeouts", static_cast<double>(timeouts));
    span.arg("wallSec", sum.wallSec);
    span.arg("feeCents", finalResponse.feeCents);
    span.arg("cached", finalResponse.cached ? 1.0 : 0.0);
    span.arg("status",
             static_cast<double>(static_cast<std::uint8_t>(
                 finalResponse.status)));
  }
  if (audit_ != nullptr && !finalResponse.ok()) {
    audit_->warning("RMI " + toString(request.method) + " failed: " +
                    toString(finalResponse.status) + " (" +
                    finalResponse.error + ")");
  }
  return finalResponse;
}

}  // namespace vcad::rmi
