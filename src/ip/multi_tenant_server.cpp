#include "ip/multi_tenant_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "ip/provider_server.hpp"
#include "net/faulty_transport.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vcad::ip {

namespace {

bool readFully(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool writeFully(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    const ssize_t w = ::send(fd, buf + put, n - put, MSG_NOSIGNAL);
    if (w > 0) {
      put += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// MultiTenantProviderServer::Stats under its registry names (mt.*).
void report(const MultiTenantProviderServer::Stats& s,
            obs::Registry::Tally& t) {
  t.count("mt.connections", s.connections);
  t.count("mt.framesServed", s.framesServed);
  t.count("mt.quotaRejected", s.quotaRejected);
  t.count("mt.shutdownRejected", s.shutdownRejected);
  t.peak("mt.tenantsSeen", static_cast<std::int64_t>(s.tenantsSeen));
}

}  // namespace

MultiTenantProviderServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

MultiTenantProviderServer::MultiTenantProviderServer(EndpointFactory factory,
                                                     Config config,
                                                     LogSink* log)
    : factory_(std::move(factory)),
      config_(config),
      log_(log),
      queue_(std::make_unique<JobQueue>(config.queue)),
      obs_(obs::Registry::global(), [this](obs::Registry::Tally& t) {
        std::lock_guard<std::mutex> lock(mutex_);
        report(stats_, t);
      }) {}

MultiTenantProviderServer::~MultiTenantProviderServer() { stop(); }

bool MultiTenantProviderServer::listenUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, config_.listenBacklog) != 0) {
    ::close(fd);
    return false;
  }
  listenFd_ = fd;
  unixPath_ = path;
  return true;
}

std::uint16_t MultiTenantProviderServer::listenTcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, config_.listenBacklog) != 0) {
    ::close(fd);
    return 0;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return 0;
  }
  listenFd_ = fd;
  return ntohs(bound.sin_port);
}

void MultiTenantProviderServer::start() {
  if (listenFd_ < 0 || acceptThread_.joinable()) return;
  acceptThread_ = std::thread([this] { acceptLoop(); });
  // Readiness handshake: don't return until the loop is live, so callers
  // can treat "start() returned" as "a connect will be served".
  std::unique_lock<std::mutex> lock(mutex_);
  statsCv_.wait(lock, [this] { return accepting_ || stopping_.load(); });
}

void MultiTenantProviderServer::stop() {
  if (stopping_.exchange(true)) {
    if (acceptThread_.joinable()) acceptThread_.join();
    return;
  }
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RDWR);
    statsCv_.notify_all();  // releases a start() stuck before accepting_
  }
  if (acceptThread_.joinable()) acceptThread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    threads.swap(connThreads_);
  }
  for (std::thread& t : threads) t.join();
  // Readers are gone, so no new jobs can be admitted; finish the admitted
  // ones (their replies go to already-shut-down sockets and fail silently)
  // and join the workers.
  queue_->stop();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conns_.clear();  // last references (queue drained) — fds close here
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  if (!unixPath_.empty()) ::unlink(unixPath_.c_str());
}

void MultiTenantProviderServer::setTenantQuota(TenantId tenant,
                                               TenantQuota quota) {
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

MultiTenantProviderServer::Stats MultiTenantProviderServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

TenantUsage MultiTenantProviderServer::tenantUsage(TenantId tenant) const {
  const Bucket& bucket = bucketFor(tenant);
  std::lock_guard<std::mutex> lock(bucket.mutex);
  auto it = bucket.tenants.find(tenant);
  if (it == bucket.tenants.end()) return TenantUsage{};
  return it->second->usage;
}

rmi::ServerEndpoint* MultiTenantProviderServer::tenantEndpoint(
    TenantId tenant) {
  Bucket& bucket = bucketFor(tenant);
  std::lock_guard<std::mutex> lock(bucket.mutex);
  auto it = bucket.tenants.find(tenant);
  if (it == bucket.tenants.end()) return nullptr;
  return it->second->endpoint.get();
}

bool MultiTenantProviderServer::awaitStats(
    const std::function<bool(const Stats&)>& pred, double timeoutSec) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeoutSec < 0 ? 0 : timeoutSec));
  return statsCv_.wait_until(lock, deadline, [&] { return pred(stats_); });
}

MultiTenantProviderServer::Bucket& MultiTenantProviderServer::bucketFor(
    TenantId tenant) {
  // splitmix-style scramble so sequential tenant ids spread across buckets.
  std::uint64_t z = tenant + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return buckets_[z % kBuckets];
}

const MultiTenantProviderServer::Bucket& MultiTenantProviderServer::bucketFor(
    TenantId tenant) const {
  return const_cast<MultiTenantProviderServer*>(this)->bucketFor(tenant);
}

MultiTenantProviderServer::Tenant* MultiTenantProviderServer::ensureTenant(
    TenantId tenant) {
  Bucket& bucket = bucketFor(tenant);
  std::lock_guard<std::mutex> lock(bucket.mutex);
  auto it = bucket.tenants.find(tenant);
  if (it != bucket.tenants.end()) return it->second.get();
  auto entry = std::make_unique<Tenant>();
  entry->endpoint = factory_(tenant);
  if (config_.resultStore != nullptr) {
    // Share one result store across every shard, namespaced by tenant id so
    // cross-tenant keys can never collide. Decorated (non-ProviderServer)
    // endpoints simply don't participate.
    if (auto* provider = dynamic_cast<ProviderServer*>(entry->endpoint.get());
        provider != nullptr) {
      provider->setResultStore(config_.resultStore, tenant);
    }
  }
  entry->quota = config_.defaultQuota;
  {
    std::lock_guard<std::mutex> qlock(quotaMutex_);
    auto q = quotaOverrides_.find(tenant);
    if (q != quotaOverrides_.end()) entry->quota = q->second;
  }
  Tenant* raw = entry.get();
  bucket.tenants.emplace(tenant, std::move(entry));
  bumpStat(&Stats::tenantsSeen);
  return raw;
}

void MultiTenantProviderServer::bumpStat(std::uint64_t Stats::*field) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++(stats_.*field);
  statsCv_.notify_all();
}

bool MultiTenantProviderServer::writeReply(
    const std::shared_ptr<Connection>& conn, net::ResponseFrameHeader header,
    const std::vector<std::uint8_t>& body) {
  const std::vector<std::uint8_t> frame =
      net::encodeResponseFrame(header, body);
  std::lock_guard<std::mutex> lock(conn->writeMutex);
  return writeFully(conn->fd, frame.data(), frame.size());
}

void MultiTenantProviderServer::acceptLoop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = true;
    statsCv_.notify_all();
  }
  acceptTokens_ = static_cast<double>(config_.acceptBurst);
  acceptRefillAt_ = std::chrono::steady_clock::now();
  for (;;) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (stop) or fatal
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    // Accept-rate limit: pre-identity (there is no tenant id until a frame
    // arrives), so the bucket is global. An over-rate connection is closed
    // before it gets a reader thread — the cheapest possible rejection.
    if (config_.acceptBurst != 0) {
      const auto now = std::chrono::steady_clock::now();
      acceptTokens_ = std::min(
          static_cast<double>(config_.acceptBurst),
          acceptTokens_ +
              config_.acceptRefillPerSec *
                  std::chrono::duration<double>(now - acceptRefillAt_).count());
      acceptRefillAt_ = now;
      if (acceptTokens_ < 1.0) {
        ::close(fd);
        bumpStat(&Stats::acceptRateLimited);
        if (log_ != nullptr) {
          log_->warning("mt server: accept rate limit hit; connection closed");
        }
        continue;
      }
      acceptTokens_ -= 1.0;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.connections;
    conns_.push_back(conn);
    connThreads_.emplace_back(
        [this, conn = std::move(conn)] { serveConnection(conn); });
    statsCv_.notify_all();
  }
}

void MultiTenantProviderServer::serveConnection(
    std::shared_ptr<Connection> conn) {
  std::vector<std::uint8_t> headerBytes(net::kRequestHeaderBytes);
  for (;;) {
    if (!readFully(conn->fd, headerBytes.data(), headerBytes.size())) break;
    net::RequestFrameHeader h;
    if (!net::decodeRequestFrameHeader(headerBytes.data(), headerBytes.size(),
                                       h)) {
      // Framing lost: no way to resynchronize a byte stream, so the
      // connection dies. The client sees a dead wire, not garbage.
      bumpStat(&Stats::malformedHeaders);
      if (log_ != nullptr) {
        log_->warning("mt server: malformed frame header; closing");
      }
      break;
    }
    std::vector<std::uint8_t> payload(h.payloadBytes);
    if (h.payloadBytes != 0 &&
        !readFully(conn->fd, payload.data(), h.payloadBytes)) {
      break;
    }

    if (stopping_.load()) {
      net::ResponseFrameHeader rh;
      rh.status = net::FrameStatus::Shutdown;
      rh.requestId = h.requestId;
      bumpStat(&Stats::shutdownRejected);
      if (!writeReply(conn, rh, {})) break;
      continue;
    }

    Tenant* tenant = ensureTenant(h.tenantId);

    // Per-tenant connection cap: the connection binds to the tenant of its
    // first frame. A bind past the cap gets a typed ConnectionLimit reply
    // and loses the connection — neighbours (and this tenant's existing
    // connections) are untouched.
    if (!conn->bound) {
      bool capped = false;
      {
        Bucket& bucket = bucketFor(h.tenantId);
        std::lock_guard<std::mutex> lock(bucket.mutex);
        if (config_.maxConnectionsPerTenant != 0 &&
            tenant->liveConnections >= config_.maxConnectionsPerTenant) {
          capped = true;
          ++tenant->usage.connRejected;
        } else {
          ++tenant->liveConnections;
          conn->bound = true;
          conn->boundTenant = h.tenantId;
        }
      }
      if (capped) {
        bumpStat(&Stats::connLimitRejected);
        if (log_ != nullptr) {
          log_->warning("mt server: tenant " + std::to_string(h.tenantId) +
                        " at connection cap; closing");
        }
        net::ResponseFrameHeader rh;
        rh.status = net::FrameStatus::ConnectionLimit;
        rh.requestId = h.requestId;
        writeReply(conn, rh, {});
        break;
      }
    }

    // Quota admission: reads only this tenant's executed history, so the
    // verdict is deterministic per tenant regardless of interleaving.
    bool admitted;
    {
      Bucket& bucket = bucketFor(h.tenantId);
      std::lock_guard<std::mutex> lock(bucket.mutex);
      admitted = withinQuota(tenant->quota, tenant->usage);
      if (!admitted) ++tenant->usage.quotaRejected;
    }
    if (!admitted) {
      bumpStat(&Stats::quotaRejected);
      net::ResponseFrameHeader rh;
      rh.status = net::FrameStatus::QuotaExceeded;
      rh.requestId = h.requestId;
      if (!writeReply(conn, rh, {})) break;
      continue;
    }

    // Job-queue admission: typed verdict surfaced as the matching frame
    // status; only Ok reaches a worker.
    const JobQueue::Admit verdict = queue_->add(
        h.priority,
        [this, conn, h, body = std::move(payload), tenant]() mutable {
          executeJob(conn, h, std::move(body), tenant);
        });
    if (verdict == JobQueue::Admit::Ok) continue;
    net::ResponseFrameHeader rh;
    rh.requestId = h.requestId;
    switch (verdict) {
      case JobQueue::Admit::TooManyPending:
        rh.status = net::FrameStatus::TooManyPending;
        bumpStat(&Stats::shedTooManyPending);
        break;
      case JobQueue::Admit::Overloaded:
        rh.status = net::FrameStatus::Overloaded;
        bumpStat(&Stats::shedOverloaded);
        break;
      default:
        rh.status = net::FrameStatus::Shutdown;
        bumpStat(&Stats::shutdownRejected);
        break;
    }
    if (rh.status != net::FrameStatus::Shutdown) {
      Bucket& bucket = bucketFor(h.tenantId);
      std::lock_guard<std::mutex> lock(bucket.mutex);
      ++tenant->usage.shed;
    }
    if (!writeReply(conn, rh, {})) break;
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  if (conn->bound) {
    Bucket& bucket = bucketFor(conn->boundTenant);
    std::lock_guard<std::mutex> lock(bucket.mutex);
    auto it = bucket.tenants.find(conn->boundTenant);
    if (it != bucket.tenants.end()) --it->second->liveConnections;
  }
  // Drop the registry reference; the fd itself closes when the last queued
  // reply referencing this connection is done with it.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->get() == conn.get()) {
      conns_.erase(it);
      break;
    }
  }
}

void MultiTenantProviderServer::executeJob(
    const std::shared_ptr<Connection>& conn, net::RequestFrameHeader header,
    std::vector<std::uint8_t> payload, Tenant* tenant) {
  obs::Tracer& tracer = obs::Tracer::global();
  // Server-side receive: checksum first (silent discard — emulated wire
  // damage, the client's deadline owns it), then bounds-checked unmarshal
  // (typed reject).
  if (!net::openFrame(payload)) {
    bumpStat(&Stats::discardedFrames);
    if (tracer.enabled()) {
      tracer.instant("mt.discardedFrame", "provider",
                     {{"bytes", static_cast<double>(header.payloadBytes)}});
    }
    return;
  }
  rmi::Request request;
  bool parsed = true;
  try {
    net::ByteBuffer b(std::move(payload));
    request = rmi::Request::unmarshal(b);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed) {
    bumpStat(&Stats::malformedPayloads);
    net::ResponseFrameHeader rh;
    rh.status = net::FrameStatus::MalformedRequest;
    rh.requestId = header.requestId;
    writeReply(conn, rh, {});
    return;
  }

  // Dispatch on the tenant's own shard. Shards are internally thread-safe
  // with read-mostly concurrency: same-tenant requests for different
  // instances execute in parallel on the worker pool, while per-instance
  // execution locks and in-flight replay claims keep billing and replay
  // outcomes identical to a serial server.
  rmi::Response response;
  double cpuSec = 0.0;
  {
    const auto start = std::chrono::steady_clock::now();
    response = tenant->endpoint->dispatch(request);
    cpuSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }

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

  std::vector<std::uint8_t> body = std::move(response).marshal().release();
  net::sealFrame(body);
  net::ResponseFrameHeader rh;
  rh.status = net::FrameStatus::Ok;
  rh.requestId = header.requestId;
  rh.serverCpuNanos = static_cast<std::uint64_t>(cpuSec * 1e9);
  if (writeReply(conn, rh, body)) {
    bumpStat(&Stats::framesServed);
  }
}

}  // namespace vcad::ip
