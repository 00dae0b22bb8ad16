// MultiTenantProviderServer: the socket listener over rmi::ProviderCore,
// which holds the request path (admission, tenant shards, dispatch, fees).
// The listener adds the accept loop, a reader thread per connection and
// its hardening. Per frame, on the reader thread:
//
//   decode header ──► draining? ──► first frame: tenant ──► core.submit
//        │ bad           │ yes       at connection cap?
//        ▼               ▼                │ yes
//   kill conn        Shutdown       ConnectionLimit, close
//
// The core's answer is written back on the arrival connection (a per-
// connection write mutex interleaves reader-thread rejections and worker
// replies; the client's request-id demux handles out-of-order
// completions). A checksum discard writes nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/log.hpp"
#include "rmi/provider_core.hpp"

namespace vcad::ip {

using rmi::JobQueue;
using rmi::TenantId;
using rmi::TenantQuota;
using rmi::TenantUsage;

class MultiTenantProviderServer : public rmi::ProviderCore {
 public:
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

 private:
  /// One live client connection. Jobs keep it alive via shared_ptr: the
  /// fd closes only after the reader thread AND every queued reply for it
  /// are done, so a worker can never write to a recycled descriptor.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    /// Writes one response frame; false when the wire is gone.
    bool write(net::ResponseFrameHeader header,
               const std::vector<std::uint8_t>& body);
    int fd;
    std::mutex writeMutex;  // interleaves worker replies and shed frames
    /// Per-tenant connection-cap accounting: set on the first frame (only
    /// the reader thread writes these), cleared at connection teardown.
    bool bound = false;
    TenantId boundTenant = 0;
  };

  void acceptLoop();
  void serveConnection(std::shared_ptr<Connection> conn);

  Config config_;
  LogSink* log_;
  int listenFd_ = -1;
  /// Accept-rate token bucket — touched only by the accept thread.
  double acceptTokens_ = 0.0;
  std::chrono::steady_clock::time_point acceptRefillAt_{};
  std::string unixPath_;  // unlinked on stop
  std::atomic<bool> stopping_{false};
  std::mutex mutex_;  // conns, threads, accepting_
  std::condition_variable acceptingCv_;
  bool accepting_ = false;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> connThreads_;
  std::thread acceptThread_;
};

}  // namespace vcad::ip
