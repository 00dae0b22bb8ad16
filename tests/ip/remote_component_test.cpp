// The Figure 2 design, end to end: local registers around a remote
// multiplier, in both ER (estimator remote) and MR (fully remote) modes.
#include "ip/remote_component.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <span>

#include "core/levelized.hpp"
#include "core/rng.hpp"
#include "core/sim_controller.hpp"
#include "fault/serial_sim.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "oracles/oracles.hpp"
#include "rtl/modules.hpp"

namespace vcad::ip {
namespace {

void registerMultiplier(ProviderServer& server) {
  IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ModelLevel::Static;
  spec.power = ModelLevel::Dynamic;
  spec.timing = ModelLevel::Dynamic;
  spec.area = ModelLevel::Dynamic;
  spec.testability = ModelLevel::Dynamic;
  spec.staticPowerMw = 25.0;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t w) {
        return std::make_shared<const gate::Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      [](std::uint64_t w) {
        return PublicPart::perPattern([w](const Word& in, const rmi::Sandbox&) {
          const int width = static_cast<int>(w);
          const Word a = in.slice(0, width);
          const Word b = in.slice(width, width);
          return Word::fromUint(2 * width, a.toUint() * b.toUint());
        });
      });
}

/// Forwards to a provider and, once armed, restarts it right before it
/// dispatches the next request of one method: a restart while that call is
/// in flight.
class RestartingProvider final : public rmi::ServerEndpoint,
                                 public PublicPartSource {
 public:
  explicit RestartingProvider(ProviderServer& server) : server_(server) {}

  /// Arms the restart; call before the traffic it should interrupt.
  void restartBefore(rmi::MethodId method) {
    method_ = method;
    armed_.store(true);
  }
  std::uint64_t restarts() const { return restarts_.load(); }

  rmi::Response dispatch(const rmi::Request& request) override {
    if (request.method == method_ && armed_.exchange(false)) {
      server_.restart();
      restarts_.fetch_add(1);
    }
    return server_.dispatch(request);
  }
  std::string hostName() const override { return server_.hostName(); }
  PublicPart downloadPublicPart(const std::string& component,
                                std::uint64_t param) const override {
    return server_.downloadPublicPart(component, param);
  }

 private:
  ProviderServer& server_;
  rmi::MethodId method_ = rmi::MethodId::GetCatalog;
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> restarts_{0};
};

/// The Figure 2 circuit: random inputs -> registers -> MULT -> output.
struct Figure2 {
  static constexpr int kWidth = 8;

  LogSink log;
  ProviderServer server{"provider.host.name", &log};
  RestartingProvider endpoint{server};
  rmi::RmiChannel channel{endpoint, net::NetworkProfile::ideal(), &log};
  ProviderHandle provider{channel};

  Circuit c{"example"};
  Connector* A;
  Connector* AR;
  Connector* B;
  Connector* BR;
  Connector* O;
  RemoteComponent* mult = nullptr;
  rtl::PrimaryOutput* out = nullptr;

  explicit Figure2(RemoteConfig cfg, std::size_t patterns = 20) {
    registerMultiplier(server);
    A = &c.makeWord(kWidth, "A");
    AR = &c.makeWord(kWidth, "AR");
    B = &c.makeWord(kWidth, "B");
    BR = &c.makeWord(kWidth, "BR");
    O = &c.makeWord(2 * kWidth, "O");
    c.make<rtl::RandomPrimaryInput>("INA", kWidth, *A, patterns, 10, 1);
    c.make<rtl::Register>("REGA", *A, *AR);
    c.make<rtl::RandomPrimaryInput>("INB", kWidth, *B, patterns, 10, 2);
    c.make<rtl::Register>("REGB", *B, *BR);
    mult = &c.make<RemoteComponent>(
        "MULT", provider, "MultFastLowPower", kWidth,
        std::vector<std::pair<std::string, Connector*>>{{"a", AR}, {"b", BR}},
        std::vector<std::pair<std::string, Connector*>>{{"o", O}}, cfg);
    out = &c.make<rtl::PrimaryOutput>("OUT", *O);
  }
};

TEST(RemoteComponent, ErModeComputesLocallyAndMatchesProduct) {
  RemoteConfig cfg;
  cfg.mode = RemoteMode::EstimatorRemote;
  cfg.collectPower = false;
  Figure2 f(cfg);
  SimulationController sim(f.c);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  // Check every observed product against the register inputs.
  ASSERT_GT(f.out->sampleCount(ctx), 0u);
  // ER mode: no EvalFunction traffic at all (only the instantiate call).
  EXPECT_EQ(f.channel.stats().calls, 2u);  // OpenSession + Instantiate
  EXPECT_EQ(f.mult->remoteErrors(), 0u);
}

TEST(RemoteComponent, MrModeEvaluatesRemotelyWithSameResults) {
  RemoteConfig er;
  er.mode = RemoteMode::EstimatorRemote;
  er.collectPower = false;
  RemoteConfig mr;
  mr.mode = RemoteMode::FullyRemote;
  Figure2 ferr(er), fmr(mr);

  SimulationController simEr(ferr.c), simMr(fmr.c);
  simEr.start();
  simMr.start();
  SimContext ctxEr{simEr.scheduler(), nullptr}, ctxMr{simMr.scheduler(), nullptr};

  const auto& he = ferr.out->history(ctxEr);
  const auto& hm = fmr.out->history(ctxMr);
  ASSERT_EQ(he.size(), hm.size());
  for (size_t i = 0; i < he.size(); ++i) {
    EXPECT_EQ(he[i].value, hm[i].value) << i;
  }
  // MR mode marshals arguments on every event reaching the module.
  EXPECT_GT(fmr.channel.stats().calls, ferr.channel.stats().calls);
  EXPECT_EQ(fmr.mult->remoteErrors(), 0u);
}

TEST(RemoteComponent, BufferedPowerEstimationMatchesServerNetlist) {
  RemoteConfig cfg;
  cfg.mode = RemoteMode::EstimatorRemote;
  cfg.patternBufferCapacity = 5;
  cfg.nonblockingEstimation = false;
  Figure2 f(cfg, 30);
  SimulationController sim(f.c);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  const auto power = f.mult->finishPowerEstimation(ctx);
  ASSERT_TRUE(power.has_value());
  EXPECT_GT(*power, 0.0);
  EXPECT_EQ(f.mult->remoteErrors(), 0u);
  // Fees were charged per shipped pattern.
  EXPECT_GT(f.server.sessionFeesCents(f.provider.session()), 0.0);
}

TEST(RemoteComponent, NonblockingEstimationLandsOnOverlapAccount) {
  RemoteConfig cfg;
  cfg.mode = RemoteMode::EstimatorRemote;
  cfg.patternBufferCapacity = 5;
  cfg.nonblockingEstimation = true;
  Figure2 f(cfg, 30);
  SimulationController sim(f.c);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  const auto power = f.mult->finishPowerEstimation(ctx);
  ASSERT_TRUE(power.has_value());
  EXPECT_GT(f.channel.stats().asyncCalls, 0u);
}

// A non-blocking EstimatePower whose provider restarts while it is in
// flight: the first attempt comes back UnknownSession, and get() recovers
// the session and re-issues the call, as a blocking call would.
TEST(ProviderHandle, NonblockingCallRecoversAProviderRestart) {
  Figure2 f(RemoteConfig{});
  rmi::Args args;
  args.addWordVector({Word::fromUint(16, 0x1234), Word::fromUint(16, 0xBEEF),
                      Word::fromUint(16, 0x0F0F)});
  f.endpoint.restartBefore(rmi::MethodId::EstimatePower);
  std::future<rmi::Response> pending = f.provider.callAsync(
      rmi::MethodId::EstimatePower, f.mult->instanceId(), std::move(args));
  const rmi::Response resp = pending.get();
  EXPECT_TRUE(resp.ok()) << resp.error;
  EXPECT_EQ(f.endpoint.restarts(), 1u);
  EXPECT_EQ(f.provider.recoveries(), 1u);
}

// The same restart under a component's non-blocking power estimation: every
// batch it shipped is still harvested, none counts as a remote error.
TEST(RemoteComponent, NonblockingEstimationSurvivesAProviderRestart) {
  RemoteConfig cfg;
  cfg.mode = RemoteMode::EstimatorRemote;
  cfg.patternBufferCapacity = 5;
  cfg.nonblockingEstimation = true;
  Figure2 f(cfg, 30);
  f.endpoint.restartBefore(rmi::MethodId::EstimatePower);
  SimulationController sim(f.c);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  const auto power = f.mult->finishPowerEstimation(ctx);
  ASSERT_TRUE(power.has_value());
  EXPECT_GT(*power, 0.0);
  EXPECT_EQ(f.endpoint.restarts(), 1u);
  EXPECT_GE(f.provider.recoveries(), 1u);
  EXPECT_EQ(f.mult->remoteErrors(), 0u);
}

TEST(RemoteComponent, MrModePowerUsesRemoteHistory) {
  RemoteConfig cfg;
  cfg.mode = RemoteMode::FullyRemote;
  Figure2 f(cfg, 15);
  SimulationController sim(f.c);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  const auto power = f.mult->finishPowerEstimation(ctx);
  ASSERT_TRUE(power.has_value());
  EXPECT_GT(*power, 0.0);
}

TEST(RemoteComponent, InstantiationFailureThrows) {
  LogSink log;
  ProviderServer server("p", &log);
  registerMultiplier(server);
  rmi::RmiChannel channel(server, net::NetworkProfile::ideal());
  ProviderHandle provider(channel);
  Circuit c("c");
  auto& a = c.makeWord(32);
  auto& b = c.makeWord(32);
  auto& o = c.makeWord(64);
  EXPECT_THROW(
      c.make<RemoteComponent>(
          "MULT", provider, "MultFastLowPower", 32,  // width out of range
          std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
          std::vector<std::pair<std::string, Connector*>>{{"o", &o}}),
      std::runtime_error);
}

TEST(RemoteComponent, SpecEstimatorsSelectableBySetup) {
  RemoteConfig cfg;
  cfg.collectPower = false;
  Figure2 f(cfg);
  const auto specs = f.provider.catalog();
  ASSERT_EQ(specs.size(), 1u);
  attachSpecEstimators(*f.mult, specs[0], f.mult);

  // Best accuracy -> the remote gate-level estimator.
  SetupController accurate;
  accurate.set(ParamKind::AvgPower, {Criterion::BestAccuracy});
  accurate.apply(f.c);
  EXPECT_EQ(f.mult->boundEstimator(accurate.id(), ParamKind::AvgPower)->name(),
            "gate-level-toggle");

  // Forbidding remote estimators falls back to the published constant.
  SetupController localOnly;
  EstimatorChoice choice{Criterion::BestAccuracy};
  choice.allowRemote = false;
  localOnly.set(ParamKind::AvgPower, choice);
  localOnly.apply(f.c);
  EXPECT_EQ(f.mult->boundEstimator(localOnly.id(), ParamKind::AvgPower)->name(),
            "constant");
}

TEST(RemoteFaultClient, SerializedTablesAreTheDecodedTablesBytes) {
  // The stub's wire-form tables are the bytes of the tables its decoding
  // calls return, for one configuration and for many. Each call is one
  // round trip, on the method the decoding call uses: GetDetectionTable for
  // one configuration, GetDetectionTables for many.
  Figure2 f(RemoteConfig{});
  RemoteFaultClient remote(*f.mult);
  Rng rng(11);
  const auto callsOf = [&](rmi::MethodId method) {
    std::uint64_t calls = 0;
    for (const auto& item : f.server.invoice(f.provider.session()).items) {
      if (item.method == method) calls = item.calls;
    }
    return calls;
  };
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}}) {
    std::vector<Word> inputs;
    for (std::size_t i = 0; i < n; ++i) {
      inputs.push_back(Word::fromUint(2 * Figure2::kWidth, rng.next()));
    }
    const rmi::MethodId method = n == 1 ? rmi::MethodId::GetDetectionTable
                                        : rmi::MethodId::GetDetectionTables;
    const std::uint64_t calls = f.channel.stats().calls;
    const std::uint64_t methodCalls = callsOf(method);
    const std::vector<cache::Value> bytes = remote.serializedTables(inputs);
    EXPECT_EQ(f.channel.stats().calls, calls + 1);
    EXPECT_EQ(callsOf(method), methodCalls + 1);
    const std::vector<fault::DetectionTable> tables =
        n == 1 ? std::vector<fault::DetectionTable>{remote.detectionTable(
                     inputs.front())}
               : remote.detectionTables(inputs);
    ASSERT_EQ(bytes.size(), n);
    ASSERT_EQ(tables.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      net::ByteBuffer buf;
      tables[i].serialize(buf);
      EXPECT_EQ(*bytes[i], buf.bytes()) << n << " configurations, table " << i;
    }
  }
  EXPECT_TRUE(remote.serializedTables({}).empty());
}

TEST(RemoteFaultClient, MatchesLocalFaultAnalysis) {
  // A remote IP1 block must serve exactly the fault list and detection
  // tables a local analysis of the same netlist produces.
  LogSink log;
  ProviderServer server("p", &log);
  IpComponentSpec spec;
  spec.name = "IP1";
  spec.minWidth = 1;
  spec.maxWidth = 1;
  spec.functional = ModelLevel::Static;
  spec.testability = ModelLevel::Dynamic;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t) {
        return std::make_shared<const gate::Netlist>(gate::makeIp1HalfAdder());
      },
      [](std::uint64_t) {
        return PublicPart::perPattern([](const Word& in, const rmi::Sandbox&) {
          Word out(2);
          out.setBit(0, logicXor(in.bit(0), in.bit(1)));
          out.setBit(1, logicAnd(in.bit(0), in.bit(1)));
          return out;
        });
      });
  rmi::RmiChannel channel(server, net::NetworkProfile::ideal());
  ProviderHandle provider(channel);

  Circuit c("c");
  auto& i1 = c.makeBit();
  auto& i2 = c.makeBit();
  auto& o1 = c.makeBit();
  auto& o2 = c.makeBit();
  auto& comp = c.make<RemoteComponent>(
      "IP1", provider, "IP1", 1,
      std::vector<std::pair<std::string, Connector*>>{{"IIP1", &i1},
                                                      {"IIP2", &i2}},
      std::vector<std::pair<std::string, Connector*>>{{"OIP1", &o1},
                                                      {"OIP2", &o2}});
  RemoteFaultClient remote(comp);

  const auto nl = gate::makeIp1HalfAdder();
  const auto collapsed = fault::collapseAll(nl, true, false, false);
  EXPECT_EQ(remote.faultList(), fault::symbolicFaultList(nl, collapsed));

  gate::NetlistEvaluator eval(nl);
  for (unsigned v = 0; v < 4; ++v) {
    const Word in = Word::fromUint(2, v);
    const auto remoteTable = remote.detectionTable(in);
    const auto localTable = oracles::buildDetectionTable(eval, collapsed, in);
    ASSERT_EQ(remoteTable.rows().size(), localTable.rows().size());
    for (size_t r = 0; r < localTable.rows().size(); ++r) {
      EXPECT_EQ(remoteTable.rows()[r].faultyOutput,
                localTable.rows()[r].faultyOutput);
      EXPECT_EQ(remoteTable.rows()[r].faults, localTable.rows()[r].faults);
    }
  }
}

// What one levelized golden batch hands a remote block's public part: one
// call with every fully-known pattern, compacted; a pattern with an X or Z
// input bit never reaches it and settles all-X.
TEST(RemoteComponent, GoldenBatchIsOnePublicPartCallOverItsKnownPatterns) {
  struct Counter {
    int calls = 0;
    std::size_t words = 0;
    bool sawUnknown = false;
  };
  auto counter = std::make_shared<Counter>();
  constexpr int kW = 4;
  ProviderServer server("provider.host.name", nullptr);
  IpComponentSpec spec;
  spec.name = "CountedMult";
  spec.minWidth = kW;
  spec.maxWidth = kW;
  spec.functional = ModelLevel::Static;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t) {
        return std::make_shared<const gate::Netlist>(
            gate::makeArrayMultiplier(kW));
      },
      [counter](std::uint64_t) {
        PublicPart pub;
        pub.functional = [counter](std::span<const Word> in,
                                   std::span<Word> out, const rmi::Sandbox&) {
          ++counter->calls;
          counter->words += in.size();
          for (std::size_t i = 0; i < in.size(); ++i) {
            counter->sawUnknown |= !in[i].isFullyKnown();
            out[i] = Word::fromUint(2 * kW, in[i].slice(0, kW).toUint() *
                                                in[i].slice(kW, kW).toUint());
          }
        };
        return pub;
      });
  rmi::RmiChannel channel(server, net::NetworkProfile::ideal());
  ProviderHandle provider(channel);

  Circuit c("counted");
  Connector& a = c.makeWord(kW, "a");
  Connector& b = c.makeWord(kW, "b");
  Connector& o = c.makeWord(2 * kW, "o");
  RemoteConfig cfg;
  cfg.collectPower = false;
  c.make<RemoteComponent>(
      "MULT", provider, "CountedMult", kW,
      std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
      std::vector<std::pair<std::string, Connector*>>{{"o", &o}}, cfg);
  std::optional<LevelizedPass> pass = LevelizedPass::plan(c, {&a, &b});
  ASSERT_TRUE(pass.has_value());

  Rng rng(0xC0C0);
  // (batch size, whether two in three patterns carry an X or Z bit)
  const std::pair<std::size_t, bool> batches[] = {
      {1, false}, {65, false}, {9, true}, {70, true}};
  for (const auto& [n, mixed] : batches) {
    std::vector<std::vector<Word>> patterns;
    std::size_t known = 0;
    for (std::size_t p = 0; p < n; ++p) {
      Word wa = Word::fromUint(kW, rng.below(16));
      Word wb = Word::fromUint(kW, rng.below(16));
      if (mixed && p % 3 == 1) wa.setBit(1, Logic::X);
      if (mixed && p % 3 == 2) wb.setBit(2, Logic::Z);
      known += wa.isFullyKnown() && wb.isFullyKnown() ? 1 : 0;
      patterns.push_back({wa, wb});
    }
    std::vector<std::unique_ptr<SimulationController>> runs;
    std::vector<const Scheduler*> schedulers;
    for (std::size_t p = 0; p < n; ++p) {
      runs.push_back(std::make_unique<SimulationController>(c));
      schedulers.push_back(&runs.back()->scheduler());
    }
    *counter = Counter{};
    pass->settle(schedulers, patterns);
    EXPECT_EQ(counter->calls, 1) << n;
    EXPECT_EQ(counter->words, known) << n;
    EXPECT_FALSE(counter->sawUnknown) << n;
    for (std::size_t p = 0; p < n; ++p) {
      const Scheduler& run = *schedulers[p];
      const Word got = o.value(run.slot(), run.slotGeneration());
      const Word& wa = patterns[p][0];
      const Word& wb = patterns[p][1];
      if (wa.isFullyKnown() && wb.isFullyKnown()) {
        EXPECT_EQ(got, Word::fromUint(2 * kW, wa.toUint() * wb.toUint()))
            << n << " pattern " << p;
      } else {
        EXPECT_EQ(got, Word::allX(2 * kW)) << n << " pattern " << p;
      }
    }
    for (const auto& run : runs) c.clearSchedulerState(run->scheduler().slot());
  }
}

}  // namespace
}  // namespace vcad::ip
