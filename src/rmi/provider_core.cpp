#include "rmi/provider_core.hpp"

#include <chrono>

#include "net/faulty_transport.hpp"
#include "obs/trace.hpp"

namespace vcad::rmi {

namespace {

/// ProviderCore::Stats under its registry names (mt.*).
void report(const ProviderCore::Stats& s, obs::Registry::Tally& t) {
  t.count("mt.connections", s.connections);
  t.count("mt.framesServed", s.framesServed);
  t.count("mt.quotaRejected", s.quotaRejected);
  t.count("mt.shutdownRejected", s.shutdownRejected);
  t.peak("mt.tenantsSeen", static_cast<std::int64_t>(s.tenantsSeen));
}

/// A typed carrier-level answer with no response payload.
net::TransportReply rejection(net::FrameStatus status) {
  net::TransportReply reply;
  reply.delivered = true;
  reply.status = status;
  return reply;
}

}  // namespace

ProviderCore::ProviderCore(EndpointFactory factory,
                           const JobQueue::Config& queue,
                           TenantQuota defaultQuota)
    : factory_(std::move(factory)),
      defaultQuota_(defaultQuota),
      obs_(obs::Registry::global(),
           [this](obs::Registry::Tally& t) {
             std::lock_guard<std::mutex> lock(mutex_);
             report(stats_, t);
           }),
      queue_(queue) {}

void ProviderCore::submit(const net::RequestFrameHeader& header,
                          std::vector<std::uint8_t> sealedPayload,
                          Reply reply) {
  Tenant* tenant = ensureTenant(header.tenantId);

  // Quota admission: reads only this tenant's executed history, so the
  // verdict is deterministic per tenant regardless of interleaving.
  bool admitted;
  {
    Bucket& bucket = bucketFor(header.tenantId);
    std::lock_guard<std::mutex> lock(bucket.mutex);
    admitted = tenant->quota.admits(tenant->usage);
    if (!admitted) ++tenant->usage.quotaRejected;
  }
  if (!admitted) {
    count(&Stats::quotaRejected);
    reply(rejection(net::FrameStatus::QuotaExceeded));
    return;
  }

  // Job-queue admission: typed verdict surfaced as the matching frame
  // status; only Ok reaches a worker.
  const JobQueue::Admit verdict = queue_.add(
      header.priority,
      [this, header, body = std::move(sealedPayload), tenant, reply]() mutable {
        execute(header, std::move(body), tenant, reply);
      });
  if (verdict == JobQueue::Admit::Ok) return;
  if (verdict == JobQueue::Admit::Stopped) {
    count(&Stats::shutdownRejected);
    reply(rejection(net::FrameStatus::Shutdown));
    return;
  }
  const bool laneFull = verdict == JobQueue::Admit::TooManyPending;
  count(laneFull ? &Stats::shedTooManyPending : &Stats::shedOverloaded);
  {
    Bucket& bucket = bucketFor(header.tenantId);
    std::lock_guard<std::mutex> lock(bucket.mutex);
    ++tenant->usage.shed;
  }
  reply(rejection(laneFull ? net::FrameStatus::TooManyPending
                           : net::FrameStatus::Overloaded));
}

void ProviderCore::execute(const net::RequestFrameHeader& header,
                           std::vector<std::uint8_t> payload, Tenant* tenant,
                           const Reply& reply) {
  obs::Tracer& tracer = obs::Tracer::global();
  // Server-side receive: checksum first (silent discard — emulated wire
  // damage, the client's deadline owns it), then bounds-checked unmarshal
  // (typed reject).
  const double sealedBytes = static_cast<double>(payload.size());
  if (!net::openFrame(payload)) {
    count(&Stats::discardedFrames);
    if (tracer.enabled()) {
      tracer.instant("mt.discardedFrame", "provider", {{"bytes", sealedBytes}});
    }
    reply(net::TransportReply{});
    return;
  }
  Request request;
  try {
    net::ByteBuffer b(std::move(payload));
    request = Request::unmarshal(b);
  } catch (const std::exception&) {
    count(&Stats::malformedPayloads);
    reply(rejection(net::FrameStatus::MalformedRequest));
    return;
  }

  // Dispatch on the tenant's own shard. Shards are internally thread-safe
  // with read-mostly concurrency: same-tenant requests for different
  // instances execute in parallel on the worker pool, while per-instance
  // execution locks and in-flight replay claims keep billing and replay
  // outcomes identical to a serial server. An endpoint that throws is
  // answered with a typed Error instead of ending the worker thread.
  const auto start = std::chrono::steady_clock::now();
  Response response;
  try {
    response = tenant->endpoint->dispatch(request);
  } catch (const std::exception& e) {
    response = Response::failure(Status::Error, e.what());
  }
  net::TransportReply ok = rejection(net::FrameStatus::Ok);
  ok.serverCpuSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Account the executed fee BEFORE the reply leaves: a blocking client's
  // next request then always sees its own completed history in the quota
  // check — the property that makes over-quota rejection deterministic.
  {
    Bucket& bucket = bucketFor(header.tenantId);
    std::lock_guard<std::mutex> lock(bucket.mutex);
    ++tenant->usage.dispatches;
    if (!response.replayed && response.feeCents != 0.0) {
      tenant->usage.feesCents += response.feeCents;
      ++tenant->usage.billedCalls;
    }
  }

  ok.sealedPayload = std::move(response).marshal().release();
  net::sealFrame(ok.sealedPayload);
  count(&Stats::framesServed);
  reply(std::move(ok));
}

void ProviderCore::setTenantQuota(TenantId tenant, TenantQuota quota) {
  {
    std::lock_guard<std::mutex> lock(quotaMutex_);
    quotaOverrides_[tenant] = quota;
  }
  // Already-seen tenant: update the live entry too.
  Bucket& bucket = bucketFor(tenant);
  std::lock_guard<std::mutex> lock(bucket.mutex);
  auto it = bucket.tenants.find(tenant);
  if (it != bucket.tenants.end()) it->second->quota = quota;
}

ProviderCore::Stats ProviderCore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

TenantUsage ProviderCore::tenantUsage(TenantId tenant) const {
  Bucket& bucket = bucketFor(tenant);
  std::lock_guard<std::mutex> lock(bucket.mutex);
  auto it = bucket.tenants.find(tenant);
  if (it == bucket.tenants.end()) return TenantUsage{};
  return it->second->usage;
}

ServerEndpoint* ProviderCore::tenantEndpoint(TenantId tenant) {
  Bucket& bucket = bucketFor(tenant);
  std::lock_guard<std::mutex> lock(bucket.mutex);
  auto it = bucket.tenants.find(tenant);
  if (it == bucket.tenants.end()) return nullptr;
  return it->second->endpoint.get();
}

bool ProviderCore::awaitStats(const std::function<bool(const Stats&)>& pred,
                              double timeoutSec) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeoutSec < 0 ? 0 : timeoutSec));
  return statsCv_.wait_until(lock, deadline, [&] { return pred(stats_); });
}

bool ProviderCore::bindConnection(TenantId tenant, std::size_t cap) {
  Tenant* entry = ensureTenant(tenant);
  {
    Bucket& bucket = bucketFor(tenant);
    std::lock_guard<std::mutex> lock(bucket.mutex);
    if (cap == 0 || entry->liveConnections < cap) {
      ++entry->liveConnections;
      return true;
    }
    ++entry->usage.connRejected;
  }
  count(&Stats::connLimitRejected);
  return false;
}

void ProviderCore::unbindConnection(TenantId tenant) {
  Bucket& bucket = bucketFor(tenant);
  std::lock_guard<std::mutex> lock(bucket.mutex);
  auto it = bucket.tenants.find(tenant);
  if (it != bucket.tenants.end()) --it->second->liveConnections;
}

void ProviderCore::count(std::uint64_t Stats::*field) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++(stats_.*field);
  statsCv_.notify_all();
}

ProviderCore::Bucket& ProviderCore::bucketFor(TenantId tenant) const {
  // splitmix-style scramble so sequential tenant ids spread across buckets.
  std::uint64_t z = tenant + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return buckets_[z % kBuckets];
}

ProviderCore::Tenant* ProviderCore::ensureTenant(TenantId tenant) {
  Bucket& bucket = bucketFor(tenant);
  std::lock_guard<std::mutex> lock(bucket.mutex);
  auto it = bucket.tenants.find(tenant);
  if (it != bucket.tenants.end()) return it->second.get();
  auto entry = std::make_unique<Tenant>();
  entry->endpoint = factory_(tenant);
  entry->quota = defaultQuota_;
  {
    std::lock_guard<std::mutex> qlock(quotaMutex_);
    auto q = quotaOverrides_.find(tenant);
    if (q != quotaOverrides_.end()) entry->quota = q->second;
  }
  Tenant* raw = entry.get();
  bucket.tenants.emplace(tenant, std::move(entry));
  count(&Stats::tenantsSeen);
  return raw;
}

}  // namespace vcad::rmi
