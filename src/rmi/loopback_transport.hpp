// LoopbackTransport: the in-process net::Transport backend.
//
// Wraps a ServerEndpoint behind the same framed send/awaitReply surface the
// socket backend exposes: send() performs the server-side receive (checksum
// verification, bounds-checked unmarshal, serialized dispatch) immediately
// on the caller's thread and queues the sealed response under the request
// id; awaitReply() pops it with zero real latency. Damaged frames are
// silently discarded exactly like a real server would — the client learns
// nothing until its (simulated) deadline fires.
//
// Dispatch is serialized by an internal mutex, so a ServerEndpoint behind a
// loopback never sees concurrent requests even when many channel workers
// pipeline through it — the guarantee endpoint implementations rely on.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "net/transport.hpp"
#include "rmi/channel.hpp"

namespace vcad::rmi {

class LoopbackTransport final : public net::Transport {
 public:
  explicit LoopbackTransport(ServerEndpoint& endpoint);

  void send(const net::RequestFrameHeader& header,
            const std::vector<std::uint8_t>& sealedPayload) override;
  net::TransportReply awaitReply(std::uint64_t requestId,
                                 double realDeadlineSec) override;
  void discard(std::uint64_t requestId) override;
  std::string peerName() const override;

  ServerEndpoint& endpoint() { return *endpoint_; }

  /// Test-only admission cap: a request arriving while `cap` dispatches are
  /// already executing is answered with a typed FrameStatus::TooManyPending
  /// frame instead of queueing behind the dispatch mutex. Default 0 =
  /// unlimited. Gives the in-process backend the shed surface the provider
  /// front end's job queue has over a socket, so channel-level shed
  /// accounting can be proven uniform across both.
  void setMaxConcurrentDispatches(std::size_t cap);

  /// TooManyPending replies produced by the admission cap.
  std::uint64_t shedRequests() const;

 private:
  ServerEndpoint* endpoint_;
  std::mutex dispatchMutex_;  // one in-flight request per endpoint
  std::atomic<std::size_t> dispatching_{0};
  std::atomic<std::size_t> maxConcurrentDispatches_{0};  // 0 = unlimited
  std::atomic<std::uint64_t> shedRequests_{0};
  std::mutex mutex_;          // reply queues
  std::map<std::uint64_t, std::deque<net::TransportReply>> arrived_;
};

}  // namespace vcad::rmi
