// The per-layer ledger, timed from outside the program: decorators the
// benchmark wraps around three public seams, each summing the wall time
// spent below it and opening a bench-side obs::SpanScope per call.
//
//   TimedFaultClient  around fault::FaultClient (an ip::RemoteFaultClient):
//                     time the campaign engine spends waiting on IP
//                     characterization (fault lists, detection tables).
//   TimedTransport    around net::Transport (loopback or socket): time in
//                     send/awaitReply and frames sent.
//   TimedEndpoint     around rmi::ServerEndpoint (an ip::ProviderServer):
//                     provider dispatch time, with detection-table calls
//                     split by Response::cached (result-store hit vs packed
//                     compute).
//
// Nested seams give self times by subtraction: engine = campaign wall -
// FaultClient time; RMI client = FaultClient - Transport; wire + framing +
// job-queue wait = Transport - provider dispatch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/fault_client.hpp"
#include "net/transport.hpp"
#include "rmi/channel.hpp"

namespace vcad::benchmark {

enum class Count : std::size_t {
  FaultListNs,  // FaultClient fault-list calls (campaign phase 1)
  TableNs,      // FaultClient detection-table calls
  TransportNs,
  Frames,
  TableMissNs,  // provider dispatch of a table call the store missed
  TableMissCalls,
  TableMissConfigs,
  TableHitNs,  // provider dispatch of a table call served from the store
  TableHitCalls,
  OtherDispatchNs,  // every non-table method
  OtherDispatchCalls,
  kCount
};

inline constexpr std::size_t kCounts = static_cast<std::size_t>(Count::kCount);

/// A point-in-time copy of a Ledger; campaigns subtract two of these.
struct Totals {
  std::array<std::uint64_t, kCounts> v{};

  std::uint64_t operator[](Count c) const {
    return v[static_cast<std::size_t>(c)];
  }
  double sec(Count c) const { return static_cast<double>((*this)[c]) * 1e-9; }
  Totals operator-(const Totals& o) const;

  /// Space-separated counters: the provider process's STATS reply.
  std::string encode() const;
  static Totals decode(const std::string& line);
};

class Ledger {
 public:
  void add(Count c, std::uint64_t delta) {
    v_[static_cast<std::size_t>(c)].fetch_add(delta,
                                              std::memory_order_relaxed);
  }
  Totals snapshot() const;

  /// Per-call latency of FaultClient table calls, seconds.
  void noteTableLatency(double sec);
  std::vector<double> takeTableLatencies();

 private:
  std::array<std::atomic<std::uint64_t>, kCounts> v_{};
  std::mutex latencyMutex_;
  std::vector<double> tableLatencies_;
};

class TimedFaultClient final : public fault::FaultClient {
 public:
  TimedFaultClient(fault::FaultClient& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  Module& module() override { return inner_.module(); }
  std::vector<std::string> faultList() override;
  fault::DetectionTable detectionTable(const Word& inputs) override;
  std::vector<fault::DetectionTable> detectionTables(
      const std::vector<Word>& inputs) override;
  std::uint64_t versionDigest() const override {
    return inner_.versionDigest();
  }

 private:
  fault::FaultClient& inner_;
  Ledger& ledger_;
};

class TimedTransport final : public net::Transport {
 public:
  TimedTransport(std::unique_ptr<net::Transport> inner, Ledger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  void send(const net::RequestFrameHeader& header,
            const std::vector<std::uint8_t>& sealedPayload) override;
  net::TransportReply awaitReply(std::uint64_t requestId,
                                 double realDeadlineSec) override;
  void discard(std::uint64_t requestId) override;
  bool alive() const override { return inner_->alive(); }
  std::string peerName() const override { return inner_->peerName(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  Ledger& ledger_;
};

class TimedEndpoint final : public rmi::ServerEndpoint {
 public:
  TimedEndpoint(rmi::ServerEndpoint& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  rmi::Response dispatch(const rmi::Request& request) override;
  std::string hostName() const override { return inner_.hostName(); }

 private:
  rmi::ServerEndpoint& inner_;
  Ledger& ledger_;
};

}  // namespace vcad::benchmark
