// chaos_provider_server: a real provider process for the two-process socket
// chaos tests. Serves the chaos multiplier catalog through
// MultiTenantProviderServer over a Unix-domain socket and exits when stdin
// reaches EOF (the parent test closes the pipe).
//
//   chaos_provider_server <unix-socket-path> [--restart-after N]
//                         [--trace-out PATH] [--matrix FAMILY:SCALE:SEED]
//
// --restart-after N injects a provider crash/restart after the N-th
// dispatched request, exactly like the in-process chaos rig, so the
// two-process sweep can prove session recovery across a real process
// boundary. --trace-out dumps this process's Chrome trace on exit; the
// span-context ids the client ships inside each request stitch the
// provider.dispatch spans under the client's channel spans, and the socket
// test asserts that stitching survives the process hop. --matrix serves the
// scenario-matrix catalog ("BLK<b>" / "CTRL" from the named family point)
// instead of the chaos multiplier, so the multi-provider matrix test can
// spawn N real provider processes over one design.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "integration/matrix_harness.hpp"
#include "ip/multi_tenant_server.hpp"
#include "obs/trace.hpp"
#include "rmi/chaos_harness.hpp"

namespace {

/// Parses "FAMILY:SCALE:SEED" (e.g. "cone:0:7"). Returns false on junk.
bool parseFamilySpec(const std::string& text, vcad::gate::FamilySpec& out) {
  const std::size_t c1 = text.find(':');
  const std::size_t c2 = text.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) return false;
  const std::string family = text.substr(0, c1);
  using vcad::gate::CircuitFamily;
  if (family == "cone") {
    out.family = CircuitFamily::Cone;
  } else if (family == "datapath") {
    out.family = CircuitFamily::Datapath;
  } else if (family == "controller") {
    out.family = CircuitFamily::Controller;
  } else {
    return false;
  }
  out.scale = std::atoi(text.substr(c1 + 1, c2 - c1 - 1).c_str());
  out.seed = std::strtoull(text.substr(c2 + 1).c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcad;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <unix-socket-path> [--restart-after N] "
                 "[--trace-out PATH]\n",
                 argv[0]);
    return 2;
  }
  const std::string socketPath = argv[1];
  std::uint64_t restartAfter = 0;
  std::string traceOut;
  std::string matrixSpec;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--restart-after") == 0 && i + 1 < argc) {
      restartAfter = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      traceOut = argv[++i];
    } else if (std::strcmp(argv[i], "--matrix") == 0 && i + 1 < argc) {
      matrixSpec = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  if (!traceOut.empty()) {
    obs::Tracer::global().clear();
    obs::Tracer::global().setEnabled(true);
  }

  chaos::ProviderShard::Catalog catalog = chaos::registerChaosMultiplier;
  if (!matrixSpec.empty()) {
    gate::FamilySpec fs;
    if (!parseFamilySpec(matrixSpec, fs)) {
      std::fprintf(stderr, "bad --matrix spec: %s\n", matrixSpec.c_str());
      return 2;
    }
    catalog = [design = matrix::makeMatrixDesign(fs)](ip::ProviderServer& s) {
      matrix::registerMatrixCatalog(s, design);
    };
  }
  // The client speaks as tenant 0, the channel's default, so the factory
  // builds exactly one shard. One worker and an unbounded queue give one
  // dispatch at a time in arrival order and never shed: the dispatch order
  // the in-process chaos rig produces.
  ip::MultiTenantProviderServer::Config config;
  config.queue.workers = 1;
  config.queue.maxQueueDepth = 0;
  ip::MultiTenantProviderServer socket(
      [restartAfter, &catalog](ip::TenantId) {
        return std::make_unique<chaos::ProviderShard>(restartAfter, catalog);
      },
      config);
  if (!socket.listenUnix(socketPath)) {
    std::fprintf(stderr, "failed to listen on %s\n", socketPath.c_str());
    return 1;
  }
  socket.start();
  // Readiness handshake: the parent waits for this line before connecting.
  std::printf("READY\n");
  std::fflush(stdout);

  // Serve until the parent closes our stdin — a pipe-based lifetime tie
  // that also ends us if the parent dies.
  char buf[256];
  while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
  }
  socket.stop();

  if (!traceOut.empty()) {
    std::ofstream out(traceOut);
    out << obs::Tracer::global().toChromeJson();
  }
  return 0;
}
