// Quickstart: the paper's Figure 2 design.
//
// An IP user wires two proprietary registers around a high-performance
// low-power multiplier sold by a remote IP provider, then simulates 100
// random patterns while the provider's gate-level power estimator runs
// server-side on buffered pattern batches. The provider never ships its
// netlist; the user never ships anything but the multiplier's own port
// values.
#include <cstdio>

#include "core/sim_controller.hpp"
#include "gate/generators.hpp"
#include "ip/remote_component.hpp"
#include "rtl/modules.hpp"

using namespace vcad;

namespace {

/// The provider's side: registers the parametric multiplier macro.
void setUpProvider(ip::ProviderServer& server) {
  ip::IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.description = "high-performance, low-power array multiplier";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ip::ModelLevel::Static;   // public part released
  spec.power = ip::ModelLevel::Dynamic;       // accurate estimation, for a fee
  spec.timing = ip::ModelLevel::Dynamic;
  spec.area = ip::ModelLevel::Dynamic;
  spec.testability = ip::ModelLevel::Dynamic;
  spec.staticPowerMw = 25.0;                  // data-sheet number
  spec.fees.perPowerPatternCents = 0.1;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t w) {
        // The private part: the gate-level implementation, built on demand
        // for the requested width. Never leaves the server.
        return std::make_shared<const gate::Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      [](std::uint64_t w) {
        // The public part: an accurate *behavioral* model the user may run
        // locally — functionality without structure.
        return ip::PublicPart::perPattern(
            [w](const Word& in, const rmi::Sandbox&) {
              const int width = static_cast<int>(w);
              const Word a = in.slice(0, width);
              const Word b = in.slice(width, width);
              return Word::fromUint(2 * width, a.toUint() * b.toUint());
            });
      });
}

}  // namespace

int main() {
  const int width = 16;
  const std::size_t nPatterns = 100;

  // --- provider side -----------------------------------------------------
  LogSink log;
  ip::ProviderServer server("provider.host.name", &log);
  setUpProvider(server);

  // --- user side: connect over a (simulated) WAN --------------------------
  rmi::RmiChannel channel(server, net::NetworkProfile::wan(), &log);
  ip::ProviderHandle provider(channel);

  // The Figure 2 design.
  Circuit c("Example");
  Connector& A = c.makeWord(width, "A");
  Connector& AR = c.makeWord(width, "AR");
  Connector& B = c.makeWord(width, "B");
  Connector& BR = c.makeWord(width, "BR");
  Connector& O = c.makeWord(2 * width, "O");
  c.make<rtl::RandomPrimaryInput>("INA", width, A, nPatterns, 10, 0xA);
  c.make<rtl::Register>("REGA", A, AR);
  c.make<rtl::RandomPrimaryInput>("INB", width, B, nPatterns, 10, 0xB);
  c.make<rtl::Register>("REGB", B, BR);
  ip::RemoteConfig cfg;
  cfg.mode = ip::RemoteMode::EstimatorRemote;
  cfg.patternBufferCapacity = 5;  // buffer five patterns per RMI batch
  cfg.nonblockingEstimation = true;
  auto& mult = c.make<ip::RemoteComponent>(
      "MULT", provider, "MultFastLowPower", width,
      std::vector<std::pair<std::string, Connector*>>{{"a", &AR}, {"b", &BR}},
      std::vector<std::pair<std::string, Connector*>>{{"o", &O}}, cfg);
  auto& out = c.make<rtl::PrimaryOutput>("OUT", O);

  // --- simulate --------------------------------------------------------
  SimulationController s(c);
  s.start();
  SimContext ctx{s.scheduler(), nullptr};

  std::printf("simulated %zu patterns, last product = %s\n",
              out.sampleCount(ctx), out.last(ctx).toString().c_str());

  const auto powerMw = mult.finishPowerEstimation(ctx);
  const auto& stats = channel.stats();
  std::printf("remote gate-level power estimate : %8.3f mW\n",
              powerMw.value_or(0.0));
  std::printf("RMI calls                        : %8llu (%llu async)\n",
              static_cast<unsigned long long>(stats.calls),
              static_cast<unsigned long long>(stats.asyncCalls));
  std::printf("bytes sent / received            : %8llu / %llu\n",
              static_cast<unsigned long long>(stats.bytesSent),
              static_cast<unsigned long long>(stats.bytesReceived));
  std::printf("simulated network+server stall   : %8.3f s (blocking)\n",
              stats.blockingWallSec);
  std::printf("latency hidden by new threads    : %8.3f s (non-blocking)\n",
              stats.nonblockingWallSec);
  std::printf("provider fees charged            : %8.2f cents\n",
              server.sessionFeesCents(provider.session()));
  std::printf("remote errors                    : %8llu\n",
              static_cast<unsigned long long>(mult.remoteErrors()));
  return mult.remoteErrors() == 0 ? 0 : 1;
}
