// LoopbackTransport: the in-process net::Transport backend, a reply
// mailbox over a ProviderCore it owns. send() hands the frame to the core
// — the request path a provider process runs — and awaitReply() waits for
// that request id's answer. The core is fixed: one shard (the borrowed
// endpoint, for every tenant id), the default unlimited quota, and a job
// queue with one worker and no depth bound. So a loopback never sheds, and
// an endpoint behind one sees one request at a time, the guarantee
// endpoint implementations rely on.
//
// The core answers every frame exactly once, so awaitReply() ignores the
// real-time deadline (an outcome never depends on host speed). A damaged
// frame's "no reply" comes back not delivered at once, as from a server
// that discards it: the client's simulated deadline owns the outcome.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "net/transport.hpp"
#include "rmi/channel.hpp"
#include "rmi/provider_core.hpp"

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

  const ProviderCore& core() const { return core_; }

 private:
  /// One request id's frames: sent and not yet answered, and answers not
  /// yet awaited (a duplicated request has two of each).
  struct Slot {
    std::size_t pending = 0;
    std::deque<net::TransportReply> arrived;
  };

  ServerEndpoint* endpoint_;
  std::mutex mutex_;
  std::condition_variable replyCv_;
  std::map<std::uint64_t, Slot> slots_;
  ProviderCore core_;  // last: its worker stops before the mailbox goes
};

}  // namespace vcad::rmi
