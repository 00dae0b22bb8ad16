#include "ledger.hpp"

#include <sstream>

#include "bench_util.hpp"
#include "obs/trace.hpp"

namespace vcad::benchmark {

Totals Totals::operator-(const Totals& o) const {
  Totals d;
  for (std::size_t i = 0; i < kCounts; ++i) d.v[i] = v[i] - o.v[i];
  return d;
}

std::string Totals::encode() const {
  std::string out;
  for (std::size_t i = 0; i < kCounts; ++i) {
    if (i != 0) out += ' ';
    out += std::to_string(v[i]);
  }
  return out;
}

Totals Totals::decode(const std::string& line) {
  Totals t;
  std::istringstream in(line);
  for (std::size_t i = 0; i < kCounts; ++i) in >> t.v[i];
  return t;
}

Totals Ledger::snapshot() const {
  Totals t;
  for (std::size_t i = 0; i < kCounts; ++i) {
    t.v[i] = v_[i].load(std::memory_order_relaxed);
  }
  return t;
}

void Ledger::noteTableLatency(double sec) {
  std::lock_guard<std::mutex> lock(latencyMutex_);
  tableLatencies_.push_back(sec);
}

std::vector<double> Ledger::takeTableLatencies() {
  std::lock_guard<std::mutex> lock(latencyMutex_);
  return std::move(tableLatencies_);
}

std::vector<std::string> TimedFaultClient::faultList() {
  obs::SpanScope span("bench.FaultClient.faultList", "bench");
  const auto start = Clock::now();
  std::vector<std::string> out = inner_.faultList();
  ledger_.add(Count::FaultListNs, nanosSince(start));
  return out;
}

fault::DetectionTable TimedFaultClient::detectionTable(const Word& inputs) {
  obs::SpanScope span("bench.FaultClient.detectionTable", "bench");
  const auto start = Clock::now();
  fault::DetectionTable out = inner_.detectionTable(inputs);
  const std::uint64_t ns = nanosSince(start);
  ledger_.add(Count::TableNs, ns);
  ledger_.noteTableLatency(static_cast<double>(ns) * 1e-9);
  return out;
}

std::vector<fault::DetectionTable> TimedFaultClient::detectionTables(
    const std::vector<Word>& inputs) {
  obs::SpanScope span("bench.FaultClient.detectionTables", "bench");
  const auto start = Clock::now();
  std::vector<fault::DetectionTable> out = inner_.detectionTables(inputs);
  const std::uint64_t ns = nanosSince(start);
  ledger_.add(Count::TableNs, ns);
  ledger_.noteTableLatency(static_cast<double>(ns) * 1e-9);
  return out;
}

void TimedTransport::send(const net::RequestFrameHeader& header,
                          const std::vector<std::uint8_t>& sealedPayload) {
  obs::SpanScope span("bench.Transport.send", "bench");
  const auto start = Clock::now();
  inner_->send(header, sealedPayload);
  ledger_.add(Count::TransportNs, nanosSince(start));
  ledger_.add(Count::Frames, 1);
}

net::TransportReply TimedTransport::awaitReply(std::uint64_t requestId,
                                               double realDeadlineSec) {
  obs::SpanScope span("bench.Transport.awaitReply", "bench");
  const auto start = Clock::now();
  net::TransportReply reply = inner_->awaitReply(requestId, realDeadlineSec);
  ledger_.add(Count::TransportNs, nanosSince(start));
  return reply;
}

void TimedTransport::discard(std::uint64_t requestId) {
  const auto start = Clock::now();
  inner_->discard(requestId);
  ledger_.add(Count::TransportNs, nanosSince(start));
}

rmi::Response TimedEndpoint::dispatch(const rmi::Request& request) {
  obs::SpanScope span("bench.Endpoint.dispatch", "bench");
  const auto start = Clock::now();
  rmi::Response response = inner_.dispatch(request);
  const std::uint64_t ns = nanosSince(start);
  const bool table = request.method == rmi::MethodId::GetDetectionTable ||
                     request.method == rmi::MethodId::GetDetectionTables;
  if (!table || !response.ok()) {
    ledger_.add(Count::OtherDispatchNs, ns);
    ledger_.add(Count::OtherDispatchCalls, 1);
  } else if (response.cached) {
    ledger_.add(Count::TableHitNs, ns);
    ledger_.add(Count::TableHitCalls, 1);
  } else {
    std::uint64_t configs = 1;
    if (request.method == rmi::MethodId::GetDetectionTables) {
      rmi::Args args = request.args;
      configs = args.takeWordVector().size();
    }
    ledger_.add(Count::TableMissNs, ns);
    ledger_.add(Count::TableMissCalls, 1);
    ledger_.add(Count::TableMissConfigs, configs);
  }
  return response;
}

}  // namespace vcad::benchmark
