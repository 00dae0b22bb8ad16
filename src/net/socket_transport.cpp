#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace vcad::net {

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

SocketTransport::SocketTransport(int fd, std::string peerName)
    : fd_(fd), peer_(std::move(peerName)) {
  reader_ = std::thread([this] { readerLoop(); });
}

SocketTransport::~SocketTransport() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    markDead();
  }
  if (reader_.joinable()) reader_.join();
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<SocketTransport> SocketTransport::connectUnix(
    const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return nullptr;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<SocketTransport>(fd, "unix:" + path);
}

std::unique_ptr<SocketTransport> SocketTransport::connectTcp(
    const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return nullptr;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketTransport>(
      fd, "tcp:" + host + ":" + std::to_string(port));
}

void SocketTransport::markDead() {
  if (dead_) return;
  dead_ = true;
  // Unblocks the reader (read returns 0/err) without racing the fd close.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  replyCv_.notify_all();
}

void SocketTransport::send(const RequestFrameHeader& header,
                           const std::vector<std::uint8_t>& sealedPayload) {
  const std::vector<std::uint8_t> frame =
      encodeRequestFrame(header, sealedPayload);
  {
    // Register interest before the bytes can possibly be answered, so a
    // fast server's reply is never miscounted as unknown.
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_) return;
    expected_.insert(header.requestId);
  }
  bool ok;
  {
    std::lock_guard<std::mutex> wlock(writeMutex_);
    ok = writeFully(fd_, frame.data(), frame.size());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ok) {
    markDead();
    return;
  }
  ++stats_.framesSent;
  stats_.bytesOnWireSent += frame.size();
}

TransportReply SocketTransport::awaitReply(std::uint64_t requestId,
                                           double realDeadlineSec) {
  std::unique_lock<std::mutex> lock(mutex_);
  expected_.insert(requestId);  // also retains replies awaited before send
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(realDeadlineSec < 0 ? 0
                                                            : realDeadlineSec));
  for (;;) {
    auto it = arrived_.find(requestId);
    if (it != arrived_.end() && !it->second.empty()) {
      TransportReply reply = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) arrived_.erase(it);
      if (reply.status != FrameStatus::Ok) ++stats_.rejectedReplies;
      return reply;
    }
    if (dead_) return TransportReply{};
    if (replyCv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return TransportReply{};
    }
  }
}

void SocketTransport::discard(std::uint64_t requestId) {
  std::lock_guard<std::mutex> lock(mutex_);
  expected_.erase(requestId);
  arrived_.erase(requestId);
}

bool SocketTransport::alive() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !dead_;
}

SocketTransportStats SocketTransport::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void SocketTransport::readerLoop() {
  std::vector<std::uint8_t> header(kResponseHeaderBytes);
  for (;;) {
    if (!readFully(fd_, header.data(), header.size())) {
      std::lock_guard<std::mutex> lock(mutex_);
      markDead();
      return;
    }
    ResponseFrameHeader h;
    if (!decodeResponseFrameHeader(header.data(), header.size(), h)) {
      // A stream that stops framing correctly is unrecoverable: there is no
      // way to find the next frame boundary. Kill the wire.
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.malformedFrames;
      markDead();
      return;
    }
    TransportReply reply;
    reply.delivered = true;
    reply.status = h.status;
    reply.serverCpuSec = static_cast<double>(h.serverCpuNanos) * 1e-9;
    reply.sealedPayload.resize(h.payloadBytes);
    if (h.payloadBytes != 0 &&
        !readFully(fd_, reply.sealedPayload.data(), h.payloadBytes)) {
      std::lock_guard<std::mutex> lock(mutex_);
      markDead();
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.framesReceived;
    stats_.bytesOnWireReceived += kResponseHeaderBytes + h.payloadBytes;
    if (expected_.count(h.requestId) == 0) {
      // Nobody is (or will be) waiting on this id: a stale or injected
      // frame. Dropping it here is what makes mismatched ids harmless.
      ++stats_.unknownRequestIdFrames;
      continue;
    }
    arrived_[h.requestId].push_back(std::move(reply));
    replyCv_.notify_all();
  }
}

}  // namespace vcad::net
