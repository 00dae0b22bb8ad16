#include "rmi/loopback_transport.hpp"

#include <chrono>

#include "net/faulty_transport.hpp"

namespace vcad::rmi {

LoopbackTransport::LoopbackTransport(ServerEndpoint& endpoint)
    : endpoint_(&endpoint) {}

void LoopbackTransport::setMaxConcurrentDispatches(std::size_t cap) {
  maxConcurrentDispatches_.store(cap, std::memory_order_release);
}

std::uint64_t LoopbackTransport::shedRequests() const {
  return shedRequests_.load(std::memory_order_acquire);
}

void LoopbackTransport::send(const net::RequestFrameHeader& header,
                             const std::vector<std::uint8_t>& sealedPayload) {
  const std::uint64_t requestId = header.requestId;

  // Admission control before any receive work, as the socket front end's
  // job queue does: against the count of dispatches already executing.
  const std::size_t cap =
      maxConcurrentDispatches_.load(std::memory_order_acquire);
  if (cap != 0 && dispatching_.load(std::memory_order_acquire) >= cap) {
    shedRequests_.fetch_add(1, std::memory_order_acq_rel);
    net::TransportReply shed;
    shed.delivered = true;
    shed.status = net::FrameStatus::TooManyPending;
    std::lock_guard<std::mutex> lock(mutex_);
    arrived_[requestId].push_back(std::move(shed));
    return;
  }

  // Server-side receive: checksum, then bounds-checked unmarshal. A damaged
  // frame is discarded without a reply — defense in depth: even a checksum
  // collision must not crash the server.
  std::vector<std::uint8_t> arrived = sealedPayload;
  if (!net::openFrame(arrived)) return;
  Request onServer;
  try {
    net::ByteBuffer b(std::move(arrived));
    onServer = Request::unmarshal(b);
  } catch (const std::exception&) {
    return;
  }

  Response response;
  double cpuSec = 0.0;
  {
    dispatching_.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> dispatchLock(dispatchMutex_);
    const auto start = std::chrono::steady_clock::now();
    response = endpoint_->dispatch(onServer);
    cpuSec = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
    dispatching_.fetch_sub(1, std::memory_order_acq_rel);
  }

  net::TransportReply reply;
  reply.delivered = true;
  reply.serverCpuSec = cpuSec;
  reply.sealedPayload = response.marshal().bytes();
  net::sealFrame(reply.sealedPayload);

  std::lock_guard<std::mutex> lock(mutex_);
  arrived_[requestId].push_back(std::move(reply));
}

net::TransportReply LoopbackTransport::awaitReply(std::uint64_t requestId,
                                                  double /*realDeadlineSec*/) {
  // Loopback dispatch completed inside send(): either the reply is queued
  // already or it never will be — no real-time wait either way.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = arrived_.find(requestId);
  if (it == arrived_.end() || it->second.empty()) return {};
  net::TransportReply reply = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) arrived_.erase(it);
  return reply;
}

void LoopbackTransport::discard(std::uint64_t requestId) {
  std::lock_guard<std::mutex> lock(mutex_);
  arrived_.erase(requestId);
}

std::string LoopbackTransport::peerName() const {
  return "loopback:" + endpoint_->hostName();
}

}  // namespace vcad::rmi
