// LoopbackTransport tests: the in-process wire runs the provider's one
// request path (ProviderCore), so a damaged frame is discarded by the core,
// every call is a job on the core's queue, and dispatch runs on the core's
// worker.
#include "rmi/loopback_transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "net/faulty_transport.hpp"
#include "obs/metrics.hpp"

namespace vcad::rmi {
namespace {

class EchoServer : public ServerEndpoint {
 public:
  Response dispatch(const Request& request) override {
    Response r;
    Args args = request.args;
    r.payload.writeWord(args.takeWord());
    return r;
  }
  std::string hostName() const override { return "echo.host"; }
};

Request echoRequest(std::uint64_t value) {
  Request r;
  r.method = MethodId::EvalFunction;
  r.args.addWord(Word::fromUint(32, value));
  return r;
}

// The core answers a checksum-damaged frame with "no reply", and the
// loopback hands that back at once: a corrupted request never waits out a
// real-time deadline, not even the channel's 20 ms grace wait
// (kCorruptedAwaitSec).
TEST(LoopbackTransport, DamagedRequestComesBackUndeliveredAtOnce) {
  EchoServer server;
  LoopbackTransport wire(server);
  constexpr int kFrames = 3;
  auto fastest = std::chrono::steady_clock::duration::max();
  for (int i = 1; i <= kFrames; ++i) {
    std::vector<std::uint8_t> frame = echoRequest(i).marshal().bytes();
    net::sealFrame(frame);
    frame.back() ^= 0xFF;
    net::RequestFrameHeader h;
    h.methodId = static_cast<std::uint32_t>(MethodId::EvalFunction);
    h.requestId = static_cast<std::uint64_t>(i);
    h.priority = net::JobPriority::Compute;
    const auto start = std::chrono::steady_clock::now();
    wire.send(h, frame);
    const net::TransportReply reply = wire.awaitReply(h.requestId, 5.0);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(reply.delivered);
    EXPECT_LT(elapsed, std::chrono::seconds(1));  // never the 5 s deadline
    fastest = std::min(fastest, elapsed);
  }
  // Best of three, so one scheduling hiccup on a loaded host cannot fail
  // it: half the channel's grace wait.
  EXPECT_LT(fastest, std::chrono::milliseconds(10));
  EXPECT_EQ(wire.core().stats().discardedFrames,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(wire.core().stats().framesServed, 0u);
}

// Every loopback call is a job on the core's queue: N calls raise the
// registry's mt.queue.executed by N.
TEST(LoopbackTransport, EveryChannelCallIsAQueueJob) {
  if constexpr (!obs::kObsCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t before = reg.snapshot().counterOr("mt.queue.executed");
  constexpr int kCalls = 7;
  EchoServer server;
  {
    RmiChannel ch(server, net::NetworkProfile::ideal());
    for (int i = 0; i < kCalls; ++i) {
      ASSERT_TRUE(ch.call(echoRequest(i)).ok());
    }
  }  // the loopback's queue retires here, with every job counted
  EXPECT_EQ(reg.snapshot().counterOr("mt.queue.executed") - before,
            static_cast<std::uint64_t>(kCalls));
}

// Dispatch runs on the core's worker thread, so an endpoint exception must
// come back as a typed failure, not end the process; the worker keeps
// serving.
TEST(LoopbackTransport, ThrowingEndpointIsAnsweredWithATypedError) {
  class ThrowingServer : public EchoServer {
   public:
    Response dispatch(const Request& request) override {
      if (request.method == MethodId::GetCatalog) {
        throw std::runtime_error("endpoint fault");
      }
      return EchoServer::dispatch(request);
    }
  };
  ThrowingServer server;
  RmiChannel ch(server, net::NetworkProfile::ideal());
  Request catalog;
  catalog.method = MethodId::GetCatalog;
  const Response failed = ch.call(catalog);
  EXPECT_EQ(failed.status, Status::Error);
  EXPECT_EQ(failed.error, "endpoint fault");
  EXPECT_TRUE(ch.call(echoRequest(5)).ok());
}

}  // namespace
}  // namespace vcad::rmi
