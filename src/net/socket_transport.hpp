// SocketTransport: the real-wire backend of net::Transport.
//
// One connected stream socket (Unix-domain or TCP — same class, different
// connect helper) carries request frames out and response frames back. A
// dedicated reader thread demultiplexes incoming frames by request id into
// per-id queues, so any number of channel workers can pipeline requests and
// collect their responses out of order. Frames for an id nobody registered
// (a stale retransmission's answer, a hostile injection) are counted and
// dropped — they can never be delivered to the wrong caller.
//
// The transport carries *real* bytes but charges no time: all simulated
// network accounting stays in RmiChannel, which is what keeps a socket run
// bit-identical to the in-process run for the same seeds.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"

namespace vcad::net {

/// Wire-level counters (real bytes incl. frame headers, unlike the
/// channel's payload-only ledger).
struct SocketTransportStats {
  std::uint64_t framesSent = 0;
  std::uint64_t framesReceived = 0;
  std::uint64_t bytesOnWireSent = 0;
  std::uint64_t bytesOnWireReceived = 0;
  std::uint64_t unknownRequestIdFrames = 0;  // demux rejected, dropped
  std::uint64_t rejectedReplies = 0;         // FrameStatus != Ok received
  std::uint64_t malformedFrames = 0;         // header failed to decode —
                                             // stream desync, wire killed
};

/// Reads exactly n bytes from a stream socket; false on EOF/error. Retries
/// EINTR. Shared by both ends of the wire.
bool readFully(int fd, std::uint8_t* buf, std::size_t n);
/// Writes exactly n bytes; false on error. Retries EINTR and short writes.
bool writeFully(int fd, const std::uint8_t* buf, std::size_t n);

class SocketTransport final : public Transport {
 public:
  /// Adopts an already-connected stream socket (also how tests drive the
  /// demux directly via socketpair()).
  explicit SocketTransport(int fd, std::string peerName = "socket");
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// nullptr when the connection fails.
  static std::unique_ptr<SocketTransport> connectUnix(const std::string& path);
  /// `host` is an IPv4 literal (e.g. "127.0.0.1").
  static std::unique_ptr<SocketTransport> connectTcp(const std::string& host,
                                                     std::uint16_t port);

  void send(const RequestFrameHeader& header,
            const std::vector<std::uint8_t>& sealedPayload) override;
  TransportReply awaitReply(std::uint64_t requestId,
                            double realDeadlineSec) override;
  void discard(std::uint64_t requestId) override;
  bool alive() const override;
  std::string peerName() const override { return peer_; }

  SocketTransportStats stats() const;

 private:
  void readerLoop();
  void markDead();  // requires mutex_ held

  int fd_;
  std::string peer_;
  std::mutex writeMutex_;            // serializes whole frames onto the wire
  mutable std::mutex mutex_;         // demux state + stats
  std::condition_variable replyCv_;
  std::set<std::uint64_t> expected_;  // ids with a live sender/awaiter
  std::map<std::uint64_t, std::deque<TransportReply>> arrived_;
  bool dead_ = false;
  SocketTransportStats stats_;
  std::thread reader_;  // last: joins in ~SocketTransport after markDead
};

}  // namespace vcad::net
