// ProviderCore: the provider's one request path, for frames from the
// in-process LoopbackTransport and the socket listener
// (ip::MultiTenantProviderServer) alike.
//
//   submit ──► tenant quota? ──► JobQueue admission ──► worker
//                 │ over              │ shed / stopped
//                 ▼                   ▼
//           QuotaExceeded     TooManyPending / Overloaded / Shutdown
//
// The worker opens the checksum, unmarshals, dispatches on the tenant's
// endpoint shard, accounts the fee and seals the response. Every frame
// gets exactly one call of its Reply: a typed rejection (on the submitting
// thread), a response (on a worker), or "no reply" — delivered false — for
// a damaged checksum (emulated wire damage: the client's deadline owns it).
//
// Isolation and determinism:
//   - Endpoint shards come from an EndpointFactory on first sight of a
//     tenant id. Each ProviderServer shard owns its sessions, fee ledger,
//     and replay cache. Several workers may execute one tenant's frames at
//     once (per-instance execution locks + in-flight replay claims keep
//     fees, ledgers, and replay semantics identical to a serial server).
//   - Quota admission reads only the tenant's own executed usage, so an
//     over-quota rejection is deterministic: the same call sequence is
//     rejected at the same call no matter how traffic interleaves.
//   - Sheds (TooManyPending/Overloaded) are timing-dependent, but the
//     client retry machinery makes them invisible to coverage/fees — the
//     chaos suite proves that.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "rmi/channel.hpp"
#include "rmi/job_queue.hpp"
#include "rmi/tenant.hpp"

namespace vcad::rmi {

class ProviderCore {
 public:
  /// Builds the endpoint shard for a newly-seen tenant. Called at most
  /// once per tenant id, under that tenant's bucket lock.
  using EndpointFactory =
      std::function<std::unique_ptr<ServerEndpoint>(TenantId)>;
  /// Receives the one answer to a submitted frame.
  using Reply = std::function<void(net::TransportReply)>;

  /// Request-path counters, plus the socket listener's own (connections,
  /// malformedHeaders, connLimitRejected, acceptRateLimited), which it
  /// bumps through count() so one awaitStats() sees them all.
  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t framesServed = 0;      // Ok responses answered
    std::uint64_t discardedFrames = 0;   // checksum-rejected payloads
    std::uint64_t malformedHeaders = 0;  // framing lost; connection closed
    std::uint64_t malformedPayloads = 0;  // intact frame, unparseable request
    std::uint64_t shedTooManyPending = 0;
    std::uint64_t shedOverloaded = 0;
    std::uint64_t quotaRejected = 0;
    std::uint64_t shutdownRejected = 0;  // frames answered Shutdown
    std::uint64_t connLimitRejected = 0;  // per-tenant connection-cap hits
    std::uint64_t acceptRateLimited = 0;  // over-rate accepts closed
    std::uint64_t tenantsSeen = 0;
  };

  /// `defaultQuota` applies to tenants with no setTenantQuota() override.
  ProviderCore(EndpointFactory factory, const JobQueue::Config& queue,
               TenantQuota defaultQuota);

  ProviderCore(const ProviderCore&) = delete;
  ProviderCore& operator=(const ProviderCore&) = delete;

  /// Runs one request frame down the request path; `reply` is called
  /// exactly once (see the header comment).
  void submit(const net::RequestFrameHeader& header,
              std::vector<std::uint8_t> sealedPayload, Reply reply);

  /// Graceful: admitted frames finish, later ones are answered Shutdown.
  /// Idempotent; also run on destruction.
  void stop() { queue_.stop(); }

  /// Overrides the default quota for one tenant. Takes effect for
  /// admission decisions from the next frame on; usage already accrued is
  /// kept. Safe to call before or during traffic.
  void setTenantQuota(TenantId tenant, TenantQuota quota);

  Stats stats() const;
  JobQueue::Stats queueStats() const { return queue_.stats(); }

  /// Executed usage + admission outcomes for one tenant (zeroes for a
  /// tenant never seen).
  TenantUsage tenantUsage(TenantId tenant) const;
  /// The tenant's endpoint shard, or nullptr if never seen.
  ServerEndpoint* tenantEndpoint(TenantId tenant);

  /// Blocks until `pred(stats())` holds or `timeoutSec` real seconds
  /// pass; condition-variable based, no sleep-polling.
  bool awaitStats(const std::function<bool(const Stats&)>& pred,
                  double timeoutSec) const;
  /// Blocks until the job queue is empty and no job is executing.
  void waitIdle() { queue_.drain(); }

 protected:
  /// Listener hardening: binds one more connection to `tenant` unless it
  /// already holds `cap` (0 = unlimited). A refusal counts as the
  /// tenant's connRejected and as connLimitRejected.
  bool bindConnection(TenantId tenant, std::size_t cap);
  void unbindConnection(TenantId tenant);
  void count(std::uint64_t Stats::*field);

 private:
  /// A tenant's shard + ledgers. Never erased once created.
  struct Tenant {
    std::unique_ptr<ServerEndpoint> endpoint;
    TenantQuota quota;
    TenantUsage usage;
    /// Connections currently bound to this tenant (under the bucket lock).
    std::size_t liveConnections = 0;
  };

  struct Bucket {
    std::mutex mutex;
    std::map<TenantId, std::unique_ptr<Tenant>> tenants;
  };
  static constexpr std::size_t kBuckets = 16;

  void execute(const net::RequestFrameHeader& header,
               std::vector<std::uint8_t> payload, Tenant* tenant,
               const Reply& reply);
  Bucket& bucketFor(TenantId tenant) const;
  /// Looks up (creating on first sight) the tenant entry.
  Tenant* ensureTenant(TenantId tenant);

  EndpointFactory factory_;
  TenantQuota defaultQuota_;
  mutable std::array<Bucket, kBuckets> buckets_;
  std::mutex quotaMutex_;  // overrides for tenants not yet seen
  std::map<TenantId, TenantQuota> quotaOverrides_;
  mutable std::mutex mutex_;  // stats
  mutable std::condition_variable statsCv_;
  Stats stats_;
  obs::Registry::Attachment obs_;  // mt.* read from stats_
  JobQueue queue_;  // last: its workers stop before the tenants go
};

}  // namespace vcad::rmi
