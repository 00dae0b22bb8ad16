// MultiTenantProviderServer: one socket front end serving many tenants,
// each on its own ServerEndpoint shard, through a prioritized bounded
// JobQueue with admission control.
//
// Request path (per frame, on the connection's reader thread):
//
//   decode header ──► draining? ──► tenant quota? ──► JobQueue admission
//        │ bad           │ yes          │ over             │ shed
//        ▼               ▼              ▼                  ▼
//   kill conn        Shutdown      QuotaExceeded    TooManyPending /
//                                                   Overloaded
//
// Only an admitted job reaches a worker, which opens the checksum,
// unmarshals, dispatches on the tenant's endpoint shard, accounts fees,
// and writes the Ok frame back on the arrival connection (a per-
// connection write mutex interleaves worker replies and reader-thread
// shed frames safely; the client's request-id demux handles the
// out-of-order completions).
//
// Isolation and determinism:
//   - Endpoint shards come from an EndpointFactory on first sight of a
//     tenant id. Each ProviderServer shard owns its sessions, fee ledger,
//     and replay cache. Shard dispatch is read-mostly concurrent: multiple
//     workers may execute one tenant's frames at once (per-instance
//     execution locks + in-flight replay claims keep fees, ledgers, and
//     replay semantics identical to a serial server).
//   - Quota admission reads only the tenant's own executed usage, so an
//     over-quota rejection is deterministic: the same call sequence is
//     rejected at the same call no matter how traffic interleaves.
//   - Sheds (TooManyPending/Overloaded) are timing-dependent, but the
//     client retry machinery makes them invisible to coverage/fees — the
//     chaos suite proves that.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_store.hpp"
#include "core/log.hpp"
#include "ip/job_queue.hpp"
#include "ip/tenant.hpp"
#include "obs/metrics.hpp"
#include "rmi/channel.hpp"

namespace vcad::ip {

class MultiTenantProviderServer {
 public:
  /// Builds the endpoint shard for a newly-seen tenant. Called at most
  /// once per tenant id, under that tenant's bucket lock.
  using EndpointFactory =
      std::function<std::unique_ptr<rmi::ServerEndpoint>(TenantId)>;

  struct Config {
    JobQueue::Config queue;
    /// Applied to tenants with no explicit setTenantQuota() override.
    TenantQuota defaultQuota;
    int listenBacklog = 128;
    /// Listener hardening: live connections one tenant may hold at once.
    /// A connection binds to the tenant of its *first* frame (the tenant
    /// is unknown at accept time); a frame that would bind past the cap is
    /// answered FrameStatus::ConnectionLimit and the connection closed.
    /// Other tenants are untouched. 0 = unlimited.
    std::size_t maxConnectionsPerTenant = 0;
    /// Listener hardening: token-bucket accept-rate limit shared by all
    /// tenants (pre-identity — a SYN flood has no tenant id yet). A burst
    /// of `acceptBurst` accepts is always allowed; tokens refill at
    /// `acceptRefillPerSec`. Over-rate connections are closed immediately
    /// after accept. acceptBurst 0 = no rate limit.
    std::uint32_t acceptBurst = 0;
    double acceptRefillPerSec = 0.0;
    /// Shared content-addressed result store. Attached to every
    /// ProviderServer shard the factory builds, with the tenant id as the
    /// key namespace: tenants share the store's capacity and persistence
    /// but can never observe each other's entries. Null = no store.
    std::shared_ptr<cache::ResultStore> resultStore;
  };

  MultiTenantProviderServer(EndpointFactory factory, Config config,
                            LogSink* log = nullptr);
  ~MultiTenantProviderServer();

  MultiTenantProviderServer(const MultiTenantProviderServer&) = delete;
  MultiTenantProviderServer& operator=(const MultiTenantProviderServer&) =
      delete;

  /// Binds a Unix-domain listener (unlinking any stale socket file first).
  bool listenUnix(const std::string& path);
  /// Binds a TCP listener on 127.0.0.1; port 0 picks an ephemeral port.
  /// Returns the bound port, or 0 on failure.
  std::uint16_t listenTcp(std::uint16_t port = 0);

  /// Starts the accept loop; returns once it is live (readiness
  /// handshake — a connect() after start() returns will be accepted).
  void start();
  /// Drains: admitted jobs finish, connections close, threads join.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Overrides the default quota for one tenant. Takes effect for
  /// admission decisions from the next frame on; usage already accrued is
  /// kept. Safe to call before or during traffic.
  void setTenantQuota(TenantId tenant, TenantQuota quota);

  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t framesServed = 0;      // Ok responses written
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
  Stats stats() const;
  JobQueue::Stats queueStats() const { return queue_->stats(); }

  /// Executed usage + admission outcomes for one tenant (zeroes for a
  /// tenant never seen).
  TenantUsage tenantUsage(TenantId tenant) const;
  /// The tenant's endpoint shard, or nullptr if never seen.
  rmi::ServerEndpoint* tenantEndpoint(TenantId tenant);

  /// Blocks until `pred(stats())` holds or `timeoutSec` real seconds
  /// pass; condition-variable based, no sleep-polling.
  bool awaitStats(const std::function<bool(const Stats&)>& pred,
                  double timeoutSec) const;
  /// Blocks until the job queue is empty and no job is executing.
  void waitIdle() { queue_->drain(); }

 private:
  /// One live client connection. Jobs keep it alive via shared_ptr: the
  /// fd closes only after the reader thread AND every queued reply for it
  /// are done, so a worker can never write to a recycled descriptor.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    int fd;
    std::mutex writeMutex;  // interleaves worker replies and shed frames
    /// Per-tenant connection-cap accounting: set on the first frame (only
    /// the reader thread writes these), cleared at connection teardown.
    bool bound = false;
    TenantId boundTenant = 0;
  };

  /// A tenant's shard + ledgers. Never erased once created.
  struct Tenant {
    std::unique_ptr<rmi::ServerEndpoint> endpoint;
    TenantQuota quota;
    TenantUsage usage;
    /// Connections currently bound to this tenant (under the bucket lock).
    std::size_t liveConnections = 0;
  };

  struct Bucket {
    mutable std::mutex mutex;
    std::map<TenantId, std::unique_ptr<Tenant>> tenants;
  };
  static constexpr std::size_t kBuckets = 16;

  void acceptLoop();
  void serveConnection(std::shared_ptr<Connection> conn);
  void executeJob(const std::shared_ptr<Connection>& conn,
                  net::RequestFrameHeader header,
                  std::vector<std::uint8_t> payload, Tenant* tenant);
  Bucket& bucketFor(TenantId tenant);
  const Bucket& bucketFor(TenantId tenant) const;
  /// Looks up (creating on first sight) the tenant entry.
  Tenant* ensureTenant(TenantId tenant);
  bool writeReply(const std::shared_ptr<Connection>& conn,
                  net::ResponseFrameHeader header,
                  const std::vector<std::uint8_t>& body);
  void bumpStat(std::uint64_t Stats::*field);

  EndpointFactory factory_;
  Config config_;
  LogSink* log_;
  std::unique_ptr<JobQueue> queue_;
  int listenFd_ = -1;
  /// Accept-rate token bucket — touched only by the accept thread.
  double acceptTokens_ = 0.0;
  std::chrono::steady_clock::time_point acceptRefillAt_{};
  std::string unixPath_;  // unlinked on stop
  std::atomic<bool> stopping_{false};
  std::array<Bucket, kBuckets> buckets_;
  std::mutex quotaMutex_;  // overrides for tenants not yet seen
  std::map<TenantId, TenantQuota> quotaOverrides_;
  mutable std::mutex mutex_;  // conns, threads, stats
  mutable std::condition_variable statsCv_;
  bool accepting_ = false;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> connThreads_;
  Stats stats_;
  obs::Registry::Attachment obs_;  // mt.* read from stats_
  std::thread acceptThread_;
};

}  // namespace vcad::ip
