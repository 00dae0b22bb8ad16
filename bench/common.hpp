// Shared scenario builders for the benchmark harness: the paper's Figure 2
// circuit (random inputs -> registers -> 16-bit multiplier -> output) in the
// three evaluation configurations (AL: all local, ER: estimator remote,
// MR: multiplier remote), plus table-printing helpers.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sim_controller.hpp"
#include "estim/power_estimators.hpp"
#include "gate/generators.hpp"
#include "ip/remote_component.hpp"
#include "net/cpu_timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rtl/modules.hpp"

namespace vcad::bench {

/// Writes the run's observability artifacts: the aggregated metrics
/// snapshot to "<prefix>_metrics.json" and the span/event stream to
/// "<prefix>_trace.json" in Chrome trace-event format (loadable in
/// chrome://tracing or ui.perfetto.dev). Call once at the end of main,
/// after enabling the tracer at startup with obs::Tracer::global()
/// .setEnabled(true).
inline void writeObsArtifacts(const std::string& prefix) {
  const auto writeFile = [](const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  };
  writeFile(prefix + "_metrics.json",
            obs::Registry::global().snapshot().toJson());
  writeFile(prefix + "_trace.json", obs::Tracer::global().toChromeJson());
}

inline ip::PublicPart multiplierPublicPart(std::uint64_t w) {
  return ip::PublicPart::perPattern([w](const Word& in, const rmi::Sandbox&) {
    const int width = static_cast<int>(w);
    const Word a = in.slice(0, width);
    const Word b = in.slice(width, width);
    return Word::fromUint(2 * width, a.toUint() * b.toUint());
  });
}

/// Registers the paper's multiplier on a provider with full dynamic models.
inline void registerMultiplier(ip::ProviderServer& server,
                               double staticPowerMw = 25.0,
                               bool linearModel = false,
                               estim::LinearPowerModel lin = {}) {
  ip::IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.description = "high-performance low-power multiplier";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ip::ModelLevel::Static;
  spec.power = ip::ModelLevel::Dynamic;
  spec.timing = ip::ModelLevel::Dynamic;
  spec.area = ip::ModelLevel::Dynamic;
  spec.testability = ip::ModelLevel::Dynamic;
  spec.staticPowerMw = staticPowerMw;
  spec.hasLinearPowerModel = linearModel;
  spec.linearPower = lin;
  spec.fees.perPowerPatternCents = 0.1;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t w) {
        return std::make_shared<const gate::Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      multiplierPublicPart);
}

enum class Scenario { AllLocal, EstimatorRemote, MultiplierRemote };

inline const char* toString(Scenario s) {
  switch (s) {
    case Scenario::AllLocal:
      return "All local";
    case Scenario::EstimatorRemote:
      return "Estimator remote";
    case Scenario::MultiplierRemote:
      return "Multiplier remote";
  }
  return "?";
}

/// Endpoint decorator reproducing the paper's Figure-3 methodology: the
/// actual gate-level (PPP) power computation is disabled, so EstimatePower
/// answers instantly with a constant — all remaining cost is pure RMI
/// overhead (marshalling, wire time, dispatch). The paper's Table 2 also
/// reports times with the PPP estimation time excluded.
class PowerComputeStub final : public rmi::ServerEndpoint,
                               public ip::PublicPartSource {
 public:
  explicit PowerComputeStub(ip::ProviderServer& inner) : inner_(inner) {}

  ip::PublicPart downloadPublicPart(const std::string& component,
                                    std::uint64_t param) const override {
    return inner_.downloadPublicPart(component, param);
  }

  rmi::Response dispatch(const rmi::Request& request) override {
    if (request.method == rmi::MethodId::EstimatePower) {
      rmi::Args args = request.args;
      const auto patterns = args.takeWordVector();
      rmi::Response r;
      r.payload.writeDouble(25.0);
      r.payload.writeU64(patterns.size());
      return r;
    }
    return inner_.dispatch(request);
  }
  std::string hostName() const override { return inner_.hostName(); }

 private:
  ip::ProviderServer& inner_;
};

/// One Figure-2 run. Owns everything (provider, channel, circuit).
class Figure2Run {
 public:
  static constexpr int kWidth = 16;

  /// `serverWorkFactor` calibrates per-call provider compute to the
  /// paper's heavyweight (JVM + Verilog-XL) server, so the compute/
  /// communication ratio is era-faithful even though our netlist evaluator
  /// is orders of magnitude faster.
  Figure2Run(Scenario scenario, net::NetworkProfile profile,
             std::size_t nPatterns, std::size_t bufferCapacity,
             bool stubPowerCompute = true, int serverWorkFactor = 150)
      : scenario_(scenario) {
    server_ = std::make_unique<ip::ProviderServer>("provider.host", nullptr);
    server_->setComputeScale(serverWorkFactor);
    registerMultiplier(*server_);
    if (stubPowerCompute) {
      stub_ = std::make_unique<PowerComputeStub>(*server_);
    }
    channel_ = std::make_unique<rmi::RmiChannel>(
        stub_ != nullptr ? static_cast<rmi::ServerEndpoint&>(*stub_)
                         : static_cast<rmi::ServerEndpoint&>(*server_),
        std::move(profile));

    A_ = &c_.makeWord(kWidth, "A");
    AR_ = &c_.makeWord(kWidth, "AR");
    B_ = &c_.makeWord(kWidth, "B");
    BR_ = &c_.makeWord(kWidth, "BR");
    O_ = &c_.makeWord(2 * kWidth, "O");
    c_.make<rtl::RandomPrimaryInput>("INA", kWidth, *A_, nPatterns, 10, 0xA11CE);
    c_.make<rtl::Register>("REGA", *A_, *AR_);
    c_.make<rtl::RandomPrimaryInput>("INB", kWidth, *B_, nPatterns, 10, 0xB0B);
    c_.make<rtl::Register>("REGB", *B_, *BR_);

    if (scenario == Scenario::AllLocal) {
      // Classical design with no IP protection: the multiplier runs as a
      // plain local behavioral module; patterns still buffer locally so the
      // workload per pattern matches the remote cases.
      localMult_ = &c_.make<LocalBufferedMultiplier>(
          "MULT", kWidth, *AR_, *BR_, *O_, bufferCapacity);
    } else {
      provider_ = std::make_unique<ip::ProviderHandle>(*channel_);
      ip::RemoteConfig cfg;
      cfg.mode = scenario == Scenario::MultiplierRemote
                     ? ip::RemoteMode::FullyRemote
                     : ip::RemoteMode::EstimatorRemote;
      cfg.patternBufferCapacity = bufferCapacity;
      cfg.nonblockingEstimation = false;  // Table 2 / Figure 3 measure the
                                          // blocking RMI overhead
      cfg.collectPower = scenario == Scenario::EstimatorRemote;
      remoteMult_ = &c_.make<ip::RemoteComponent>(
          "MULT", *provider_, "MultFastLowPower", kWidth,
          std::vector<std::pair<std::string, Connector*>>{{"a", AR_},
                                                          {"b", BR_}},
          std::vector<std::pair<std::string, Connector*>>{{"o", O_}}, cfg);
    }
    out_ = &c_.make<rtl::PrimaryOutput>("OUT", *O_);
  }

  struct Result {
    double clientCpuSec = 0.0;   // client compute only (server time removed)
    double serverCpuSec = 0.0;
    double realSec = 0.0;        // client CPU + simulated stall
    std::uint64_t rmiCalls = 0;
    std::uint64_t bytes = 0;
    std::size_t samples = 0;
  };

  /// Runs the simulation `repeats` times and reports per-run averages.
  /// Compute is timed with a monotonic clock around the whole batch (the
  /// per-run cost sits below kernel CPU-accounting granularity).
  Result run(int repeats = 1) {
    const auto before = channel_->stats();
    const auto start = std::chrono::steady_clock::now();
    std::size_t samples = 0;
    for (int i = 0; i < repeats; ++i) {
      SimulationController sim(c_);
      sim.start();
      SimContext ctx{sim.scheduler(), nullptr};
      if (remoteMult_ != nullptr && scenario_ != Scenario::AllLocal) {
        (void)remoteMult_->finishPowerEstimation(ctx);
      }
      samples = out_->sampleCount(ctx);
      c_.clearSchedulerState(sim.scheduler().id());
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const auto after = channel_->stats();

    Result r;
    const double n = repeats;
    // The in-process server executes on the client thread; subtract its
    // measured compute to get the client-side CPU the paper reports. The
    // simulated network never sleeps, so wall time == compute time.
    r.serverCpuSec = (after.serverCpuSec - before.serverCpuSec) / n;
    r.clientCpuSec = wall / n - r.serverCpuSec;
    if (r.clientCpuSec < 0) r.clientCpuSec = 0;
    r.realSec = r.clientCpuSec +
                (after.blockingWallSec - before.blockingWallSec) / n +
                (after.nonblockingWallSec - before.nonblockingWallSec) / n;
    r.rmiCalls = (after.calls - before.calls) / static_cast<std::uint64_t>(repeats);
    r.bytes = (after.bytesSent + after.bytesReceived - before.bytesSent -
               before.bytesReceived) /
              static_cast<std::uint64_t>(repeats);
    r.samples = samples;
    return r;
  }

  rmi::RmiChannel& channel() { return *channel_; }
  ip::ProviderServer& server() { return *server_; }

 private:
  /// AL-mode multiplier: behavioral product plus the same local pattern
  /// buffering the remote flow performs (so AL vs ER compares fairly).
  class LocalBufferedMultiplier final : public Module {
   public:
    LocalBufferedMultiplier(std::string name, int width, Connector& a,
                            Connector& b, Connector& o, std::size_t cap)
        : Module(std::move(name)), width_(width), cap_(cap) {
      a_ = &addInput("a", a);
      b_ = &addInput("b", b);
      o_ = &addOutput("o", o);
    }
    void processInputEvent(const SignalToken&, SimContext& ctx) override {
      State& st = state<State>(ctx);
      if (st.pending) return;
      st.pending = true;
      selfSchedule(ctx, 0);
    }
    void processSelfEvent(const SelfToken&, SimContext& ctx) override {
      State& st = state<State>(ctx);
      st.pending = false;
      const Word a = readInput(ctx, *a_);
      const Word b = readInput(ctx, *b_);
      if (!st.buffer) st.buffer = std::make_unique<estim::PatternBuffer>(cap_);
      if (a.isFullyKnown() && b.isFullyKnown()) {
        if (st.buffer->push(Word::concat(b, a))) {
          (void)st.buffer->flush();  // local "estimation" batch boundary
        }
        emit(ctx, *o_, Word::fromUint(2 * width_, a.toUint() * b.toUint()));
      } else {
        emit(ctx, *o_, Word::allX(2 * width_));
      }
    }

   private:
    struct State : ModuleState {
      bool pending = false;
      std::unique_ptr<estim::PatternBuffer> buffer;
    };
    int width_;
    std::size_t cap_;
    Port* a_;
    Port* b_;
    Port* o_;
  };

  Scenario scenario_;
  std::unique_ptr<ip::ProviderServer> server_;
  std::unique_ptr<PowerComputeStub> stub_;
  std::unique_ptr<rmi::RmiChannel> channel_;
  std::unique_ptr<ip::ProviderHandle> provider_;
  Circuit c_{"figure2"};
  Connector* A_;
  Connector* AR_;
  Connector* B_;
  Connector* BR_;
  Connector* O_;
  Module* localMult_ = nullptr;
  ip::RemoteComponent* remoteMult_ = nullptr;
  rtl::PrimaryOutput* out_ = nullptr;
};

inline void printRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace vcad::bench
