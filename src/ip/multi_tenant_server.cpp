#include "ip/multi_tenant_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/socket_transport.hpp"

namespace vcad::ip {

MultiTenantProviderServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

bool MultiTenantProviderServer::Connection::write(
    net::ResponseFrameHeader header, const std::vector<std::uint8_t>& body) {
  const std::vector<std::uint8_t> frame =
      net::encodeResponseFrame(header, body);
  std::lock_guard<std::mutex> lock(writeMutex);
  return net::writeFully(fd, frame.data(), frame.size());
}

MultiTenantProviderServer::MultiTenantProviderServer(EndpointFactory factory,
                                                     Config config,
                                                     LogSink* log)
    : ProviderCore(std::move(factory), config.queue, config.defaultQuota),
      config_(config),
      log_(log) {}

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
  acceptingCv_.wait(lock, [this] { return accepting_ || stopping_.load(); });
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
    acceptingCv_.notify_all();  // releases a start() stuck before accepting_
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
  ProviderCore::stop();
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

void MultiTenantProviderServer::acceptLoop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = true;
    acceptingCv_.notify_all();
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
        count(&Stats::acceptRateLimited);
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
    {
      std::lock_guard<std::mutex> lock(mutex_);
      conns_.push_back(conn);
      connThreads_.emplace_back(
          [this, conn = std::move(conn)] { serveConnection(conn); });
    }
    count(&Stats::connections);
  }
}

void MultiTenantProviderServer::serveConnection(
    std::shared_ptr<Connection> conn) {
  std::vector<std::uint8_t> headerBytes(net::kRequestHeaderBytes);
  for (;;) {
    if (!net::readFully(conn->fd, headerBytes.data(), headerBytes.size())) {
      break;
    }
    net::RequestFrameHeader h;
    if (!net::decodeRequestFrameHeader(headerBytes.data(), headerBytes.size(),
                                       h)) {
      // Framing lost: no way to resynchronize a byte stream, so the
      // connection dies. The client sees a dead wire, not garbage.
      count(&Stats::malformedHeaders);
      if (log_ != nullptr) {
        log_->warning("mt server: malformed frame header; closing");
      }
      break;
    }
    std::vector<std::uint8_t> payload(h.payloadBytes);
    if (h.payloadBytes != 0 &&
        !net::readFully(conn->fd, payload.data(), h.payloadBytes)) {
      break;
    }

    net::ResponseFrameHeader rh;
    rh.requestId = h.requestId;
    if (stopping_.load()) {
      rh.status = net::FrameStatus::Shutdown;
      count(&Stats::shutdownRejected);
      if (!conn->write(rh, {})) break;
      continue;
    }

    // Per-tenant connection cap: the connection binds to the tenant of its
    // first frame. A bind past the cap gets a typed ConnectionLimit reply
    // and loses the connection — neighbours (and this tenant's existing
    // connections) are untouched.
    if (!conn->bound) {
      if (!bindConnection(h.tenantId, config_.maxConnectionsPerTenant)) {
        if (log_ != nullptr) {
          log_->warning("mt server: tenant " + std::to_string(h.tenantId) +
                        " at connection cap; closing");
        }
        rh.status = net::FrameStatus::ConnectionLimit;
        conn->write(rh, {});
        break;
      }
      conn->bound = true;
      conn->boundTenant = h.tenantId;
    }

    submit(h, std::move(payload), [conn, rh](net::TransportReply reply) mutable {
      if (!reply.delivered) return;  // checksum discard: stay silent
      rh.status = reply.status;
      rh.serverCpuNanos = static_cast<std::uint64_t>(reply.serverCpuSec * 1e9);
      conn->write(rh, reply.sealedPayload);
    });
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  if (conn->bound) unbindConnection(conn->boundTenant);
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

}  // namespace vcad::ip
