// vcad_bench_provider: the benchmark's provider process. One
// MultiTenantProviderServer on a Unix socket, one ProviderServer shard per
// tenant, all shards sharing one in-memory result store (namespaced by
// tenant id), two job-queue workers.
//
//   vcad_bench_provider <socket> --catalog datapath:SCALE:SEED
//                       [--trace-out PATH]
//
// Prints READY once listening. Then reads commands from stdin, one per
// line: STATS answers one line "<queue peak depth> <sheds> <VmHWM MB>
// <ledger counters...>"; end of input stops the server and exits.
// --trace-out wraps every shard in the bench's TimedEndpoint, enables the
// tracer, and writes this process's Chrome trace on exit.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "integration/matrix_harness.hpp"
#include "ip/multi_tenant_server.hpp"
#include "ledger.hpp"
#include "obs/trace.hpp"

namespace {

using namespace vcad;
using namespace vcad::benchmark;

constexpr std::size_t kQueueWorkers = 2;

/// A tenant's shard. MultiTenantProviderServer attaches Config::resultStore
/// only to endpoints that are ProviderServers, so the decorated shard
/// attaches the store itself.
class TenantShard final : public rmi::ServerEndpoint {
 public:
  TenantShard(ip::TenantId tenant, std::shared_ptr<cache::ResultStore> store,
              Ledger* ledger)
      : server_("bench-provider.host", nullptr) {
    server_.setResultStore(std::move(store), tenant);
    if (ledger != nullptr) {
      timed_ = std::make_unique<TimedEndpoint>(server_, *ledger);
    }
  }
  ip::ProviderServer& server() { return server_; }
  rmi::Response dispatch(const rmi::Request& request) override {
    return timed_ != nullptr ? timed_->dispatch(request)
                             : server_.dispatch(request);
  }
  std::string hostName() const override { return server_.hostName(); }

 private:
  ip::ProviderServer server_;
  std::unique_ptr<TimedEndpoint> timed_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <socket> --catalog datapath:SCALE:SEED "
                 "[--trace-out PATH]\n",
                 argv[0]);
    return 2;
  }
  const std::string socketPath = argv[1];
  std::string catalog;
  std::string traceOut;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--catalog") == 0 && i + 1 < argc) {
      catalog = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      traceOut = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  // Catalog: the blocks of the datapath matrix design.
  int scale = 0;
  unsigned long long seed = 0;
  if (std::sscanf(catalog.c_str(), "datapath:%d:%llu", &scale, &seed) != 2) {
    std::fprintf(stderr, "bad --catalog: %s\n", catalog.c_str());
    return 2;
  }
  const matrix::MatrixDesign design =
      matrix::makeMatrixDesign({gate::CircuitFamily::Datapath, scale, seed});

  Ledger ledger;
  const bool traced = !traceOut.empty();
  if (traced) obs::Tracer::global().setEnabled(true);
  auto store = cache::ResultStore::inMemory();
  ip::MultiTenantProviderServer::Config cfg;
  cfg.queue.workers = kQueueWorkers;
  ip::MultiTenantProviderServer server(
      [&](ip::TenantId tenant) -> std::unique_ptr<rmi::ServerEndpoint> {
        auto shard = std::make_unique<TenantShard>(tenant, store,
                                                   traced ? &ledger : nullptr);
        matrix::registerMatrixCatalog(shard->server(), design);
        return shard;
      },
      cfg);
  if (!server.listenUnix(socketPath)) {
    std::fprintf(stderr, "cannot listen on %s\n", socketPath.c_str());
    return 1;
  }
  server.start();
  std::printf("READY\n");
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "STATS") {
      const auto q = server.queueStats();
      const auto s = server.stats();
      std::printf("%zu %llu %.3f %s\n", q.peakDepth,
                  static_cast<unsigned long long>(s.shedTooManyPending +
                                                  s.shedOverloaded),
                  peakRssMb(), ledger.snapshot().encode().c_str());
      std::fflush(stdout);
    }
  }
  server.stop();
  std::remove(socketPath.c_str());
  if (traced) {
    std::ofstream out(traceOut);
    out << obs::Tracer::global().toChromeJson();
  }
  return 0;
}
