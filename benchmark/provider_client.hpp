// Client side of the vcad_bench_provider process: spawn it, wait for
// READY, query its ledger, stop it (stdin EOF) and reap it.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "rmi/provider_process.hpp"

namespace vcad::benchmark {

struct ProviderStats {
  Totals ledger;
  std::uint64_t queuePeakDepth = 0;
  std::uint64_t sheds = 0;
  double peakRssMb = 0.0;
};

class ProviderProcess {
 public:
  /// Spawns `bin` serving `catalog` on `socketPath`; a non-empty
  /// `traceOut` runs it with the provider-side ledger and tracer on.
  ProviderProcess(const std::string& bin, const std::string& socketPath,
                  const std::string& catalog, const std::string& traceOut) {
    std::vector<std::string> argv = {bin, socketPath, "--catalog", catalog};
    if (!traceOut.empty()) {
      argv.push_back("--trace-out");
      argv.push_back(traceOut);
    }
    if (!proc_.start(argv)) {
      proc_.stop();
      throw std::runtime_error("provider process did not start: " + bin);
    }
  }

  ProviderStats stats() {
    if (::write(proc_.toChild, "STATS\n", 6) != 6) {
      throw std::runtime_error("provider process: STATS write failed");
    }
    std::string line;
    char c = 0;
    while (::read(proc_.fromChild, &c, 1) == 1 && c != '\n') line.push_back(c);
    ProviderStats s;
    unsigned long long peak = 0;
    unsigned long long sheds = 0;
    int consumed = 0;
    if (std::sscanf(line.c_str(), "%llu %llu %lf%n", &peak, &sheds,
                    &s.peakRssMb, &consumed) != 3) {
      throw std::runtime_error("provider process: bad STATS reply: " + line);
    }
    s.queuePeakDepth = peak;
    s.sheds = sheds;
    s.ledger = Totals::decode(line.substr(static_cast<std::size_t>(consumed)));
    return s;
  }

  /// Closes stdin and waits for exit; nonzero when the provider failed.
  int stop() { return proc_.stop(); }

 private:
  chaos::ProviderProcess proc_;
};

}  // namespace vcad::benchmark
