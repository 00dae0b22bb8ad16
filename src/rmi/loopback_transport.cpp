#include "rmi/loopback_transport.hpp"

namespace vcad::rmi {

namespace {

/// The loopback core's shard: the borrowed endpoint, not owned.
class BorrowedEndpoint final : public ServerEndpoint {
 public:
  explicit BorrowedEndpoint(ServerEndpoint& inner) : inner_(inner) {}
  Response dispatch(const Request& request) override {
    return inner_.dispatch(request);
  }
  std::string hostName() const override { return inner_.hostName(); }

 private:
  ServerEndpoint& inner_;
};

/// One worker, no depth bound: one request at a time, never a shed.
JobQueue::Config oneWorker() {
  JobQueue::Config config;
  config.workers = 1;
  config.maxQueueDepth = 0;
  return config;
}

}  // namespace

LoopbackTransport::LoopbackTransport(ServerEndpoint& endpoint)
    : endpoint_(&endpoint),
      core_([&endpoint](TenantId) {
              return std::make_unique<BorrowedEndpoint>(endpoint);
            },
            oneWorker(), TenantQuota{}) {}

void LoopbackTransport::send(const net::RequestFrameHeader& header,
                             const std::vector<std::uint8_t>& sealedPayload) {
  const std::uint64_t requestId = header.requestId;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++slots_[requestId].pending;
  }
  core_.submit(header, sealedPayload,
               [this, requestId](net::TransportReply reply) {
                 std::lock_guard<std::mutex> lock(mutex_);
                 auto it = slots_.find(requestId);
                 if (it == slots_.end()) return;  // discarded meanwhile
                 --it->second.pending;
                 it->second.arrived.push_back(std::move(reply));
                 replyCv_.notify_all();
               });
}

net::TransportReply LoopbackTransport::awaitReply(std::uint64_t requestId,
                                                  double /*realDeadlineSec*/) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = slots_.end();
  replyCv_.wait(lock, [&] {
    it = slots_.find(requestId);
    return it == slots_.end() || !it->second.arrived.empty() ||
           it->second.pending == 0;
  });
  if (it == slots_.end() || it->second.arrived.empty()) return {};
  net::TransportReply reply = std::move(it->second.arrived.front());
  it->second.arrived.pop_front();
  if (it->second.arrived.empty() && it->second.pending == 0) slots_.erase(it);
  return reply;
}

void LoopbackTransport::discard(std::uint64_t requestId) {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.erase(requestId);
}

std::string LoopbackTransport::peerName() const {
  return "loopback:" + endpoint_->hostName();
}

}  // namespace vcad::rmi
