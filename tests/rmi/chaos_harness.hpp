// Chaos harness: one end-to-end virtual fault campaign (remote multiplier
// IP behind an RmiChannel), runnable under any FaultProfile × seed, with a
// provider-restart injector for session-recovery runs.
//
// The harness exists to assert the robustness layer's end-to-end invariants:
// whatever the transport does — drop, duplicate, reorder, corrupt, stall,
// or a provider restart — the campaign's coverage results and the fee
// ledgers must come out bit-identical to the ideal-transport run, with the
// turbulence visible only in the channel's retry/timeout counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "ip/provider_server.hpp"
#include "ip/remote_component.hpp"
#include "net/faulty_transport.hpp"
#include "obs/trace.hpp"

namespace vcad::chaos {

/// Endpoint decorator that simulates a provider process crash/restart after
/// the N-th dispatched request (0 = never): every session and instance is
/// lost mid-campaign, and the client must recover to finish the run.
/// MultiTenantProviderServer may dispatch one tenant's frames on several
/// workers at once, so the counters are atomic: exactly one dispatch sees
/// the count reach N and fires the restart.
class RestartingEndpoint : public rmi::ServerEndpoint,
                           public ip::PublicPartSource {
 public:
  RestartingEndpoint(ip::ProviderServer& target, std::uint64_t restartAfter)
      : target_(target), restartAfter_(restartAfter) {}

  rmi::Response dispatch(const rmi::Request& request) override {
    if (restartAfter_ != 0 && dispatched_.fetch_add(1) + 1 == restartAfter_) {
      target_.restart();
      restarts_.fetch_add(1);
    }
    return target_.dispatch(request);
  }
  std::string hostName() const override { return target_.hostName(); }
  ip::PublicPart downloadPublicPart(const std::string& component,
                                    std::uint64_t param) const override {
    return target_.downloadPublicPart(component, param);
  }

  std::uint64_t restarts() const { return restarts_.load(); }

 private:
  ip::ProviderServer& target_;
  std::uint64_t restartAfter_;
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> restarts_{0};
};

/// The chaos multiplier's public part, shared by the in-process provider
/// registration and the client-side source a socket rig needs (the provider
/// then lives in another process, unreachable by loopback discovery).
inline ip::PublicPart chaosMultiplierPublicPart(std::uint64_t w) {
  return ip::PublicPart::perPattern([w](const Word& in, const rmi::Sandbox&) {
    const int width = static_cast<int>(w);
    const Word a = in.slice(0, width);
    const Word b = in.slice(width, width);
    return Word::fromUint(2 * width, a.toUint() * b.toUint());
  });
}

struct ChaosPublicPartSource : ip::PublicPartSource {
  ip::PublicPart downloadPublicPart(const std::string&,
                                    std::uint64_t param) const override {
    return chaosMultiplierPublicPart(param);
  }
};

inline void registerChaosMultiplier(ip::ProviderServer& server) {
  ip::IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ip::ModelLevel::Static;
  spec.power = ip::ModelLevel::Dynamic;
  spec.testability = ip::ModelLevel::Dynamic;
  spec.fees.instantiateCents = 25.0;
  spec.fees.perDetectionTableCents = 0.05;
  spec.fees.perEvalCents = 0.01;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t w) {
        return std::make_shared<const gate::Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      [](std::uint64_t w) { return chaosMultiplierPublicPart(w); });
}

/// One MultiTenantProviderServer endpoint shard: a ProviderServer (its own
/// sessions, fee ledger and replay cache) behind the restart injector. The
/// multi-tenant rigs build one per tenant; a single-tenant provider process
/// serves one as tenant 0, the channel's default tenant.
class ProviderShard : public rmi::ServerEndpoint {
 public:
  using Catalog = std::function<void(ip::ProviderServer&)>;

  explicit ProviderShard(std::uint64_t restartAfter = 0,
                         const Catalog& catalog = registerChaosMultiplier)
      : server_("chaos-provider.host", nullptr),
        restarting_(server_, restartAfter) {
    catalog(server_);
  }

  rmi::Response dispatch(const rmi::Request& request) override {
    return restarting_.dispatch(request);
  }
  std::string hostName() const override { return server_.hostName(); }

  std::uint64_t restarts() const { return restarting_.restarts(); }

 private:
  ip::ProviderServer server_;
  RestartingEndpoint restarting_;
};

/// Provider + (optionally restarting) endpoint + fault-injecting channel +
/// a circuit holding one remote multiplier IP, ready for a campaign.
struct ChaosRig {
  static constexpr int kW = 3;
  static constexpr std::uint64_t kChannelSeed = 0x5eed;

  ip::ProviderServer server;
  RestartingEndpoint endpoint;
  net::FaultyTransport transport;
  rmi::RmiChannel channel;
  std::unique_ptr<ip::ProviderHandle> provider;
  Circuit circuit;
  ip::RemoteComponent* mult = nullptr;
  std::unique_ptr<ip::RemoteFaultClient> client;
  std::vector<Connector*> pis;
  std::vector<Connector*> pos;

  explicit ChaosRig(const net::FaultProfile& profile, std::uint64_t seed,
                    std::uint64_t restartAfter = 0)
      : server("chaos-provider.host", nullptr),
        endpoint(server, restartAfter),
        transport(profile, seed),
        channel(endpoint, net::NetworkProfile::wan(), nullptr, kChannelSeed),
        circuit("chaosFault") {
    registerChaosMultiplier(server);
    // Install before any traffic so even OpenSession rides the faulty path.
    channel.setFaultInjector(&transport);
    provider = std::make_unique<ip::ProviderHandle>(channel);
    auto& a = circuit.makeWord(kW, "a");
    auto& b = circuit.makeWord(kW, "b");
    auto& o = circuit.makeWord(2 * kW, "o");
    ip::RemoteConfig cfg;
    cfg.collectPower = false;
    mult = &circuit.make<ip::RemoteComponent>(
        "MULT", *provider, "MultFastLowPower", kW,
        std::vector<std::pair<std::string, Connector*>>{{"a", &a}, {"b", &b}},
        std::vector<std::pair<std::string, Connector*>>{{"o", &o}}, cfg);
    client = std::make_unique<ip::RemoteFaultClient>(*mult);
    pis = {&a, &b};
    pos = {&o};
  }

  std::vector<fault::FaultClient*> components() { return {client.get()}; }
};

inline std::vector<std::vector<Word>> chaosPatterns(int count) {
  Rng rng(0xC0FFEE);  // pattern set is fixed: only the transport varies
  std::vector<std::vector<Word>> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({Word::fromUint(ChaosRig::kW, rng.next()),
                   Word::fromUint(ChaosRig::kW, rng.next())});
  }
  return out;
}

/// Everything a chaos run produces that the invariants quantify over.
struct ChaosOutcome {
  fault::CampaignResult result;
  rmi::ChannelStats stats;          // client-side ledger + retry counters
  net::TransportStats transport;    // faults actually injected
  double providerFeesCents = 0.0;   // server-side ledger (final session)
  std::uint64_t recoveries = 0;     // completed session recoveries
  std::uint64_t restarts = 0;       // provider crashes injected
  std::uint64_t remoteErrors = 0;   // remote-call failures the module saw
  std::string profileName;          // which FaultProfile drove the run
  std::uint64_t seed = 0;           // its transport seed (reproduces the run)
};

/// Renders a failing run's identity plus the tail of the trace buffer —
/// enough to replay the exact chaos schedule and see what the channel was
/// doing when the invariant broke.
inline std::string chaosFailureReport(const ChaosOutcome& run) {
  std::string s = "chaos run: profile=" +
                  (run.profileName.empty() ? "none" : run.profileName) +
                  " seed=" + std::to_string(run.seed) + "\n";
  const std::vector<obs::TraceEvent> tail = obs::Tracer::global().lastEvents(64);
  if (tail.empty()) {
    s += "(no trace events buffered — run with tracing enabled to capture "
         "the failing schedule)";
    return s;
  }
  s += "last " + std::to_string(tail.size()) + " trace events:\n";
  s += obs::renderEvents(tail);
  return s;
}

/// A fault campaign over a chaos rig's design.
using ChaosCampaign = std::function<fault::CampaignResult(
    ChaosRig&, const std::vector<std::vector<Word>>&)>;

/// Runs `campaign` under the given transport behaviour. `traced` runs it
/// with the global tracer on (cleared first, prior state restored after),
/// so a failing invariant can dump the run's final trace events; tracing
/// never feeds back into the simulation, so outcomes are identical either
/// way (tests/obs/overhead_test.cpp holds that line).
inline ChaosOutcome runChaosWith(const ChaosCampaign& campaign,
                                 const net::FaultProfile& profile,
                                 std::uint64_t seed, int patternCount = 6,
                                 std::uint64_t restartAfter = 0,
                                 const rmi::RetryPolicy* policy = nullptr,
                                 bool traced = true) {
  obs::Tracer& tracer = obs::Tracer::global();
  const bool wasEnabled = tracer.enabled();
  if (traced) {
    tracer.clear();
    tracer.setEnabled(true);
  }
  ChaosRig rig(profile, seed, restartAfter);
  if (policy != nullptr) rig.channel.setRetryPolicy(*policy);
  ChaosOutcome out;
  out.profileName = profile.name;
  out.seed = seed;
  out.result = campaign(rig, chaosPatterns(patternCount));
  out.stats = rig.channel.stats();
  out.transport = rig.transport.stats();
  out.providerFeesCents = rig.server.sessionFeesCents(rig.provider->session());
  out.recoveries = rig.provider->recoveries();
  out.restarts = rig.endpoint.restarts();
  out.remoteErrors = rig.mult->remoteErrors();
  if (traced) tracer.setEnabled(wasEnabled);
  return out;
}

/// Runs the campaign engine (VirtualFaultSimulator) at table `batch` under
/// the given transport behaviour.
inline ChaosOutcome runChaosCampaign(const net::FaultProfile& profile,
                                     std::uint64_t seed, int patternCount = 6,
                                     std::uint64_t restartAfter = 0,
                                     std::size_t batch = 1,
                                     const rmi::RetryPolicy* policy = nullptr,
                                     bool traced = true) {
  return runChaosWith(
      [&](ChaosRig& rig, const std::vector<std::vector<Word>>& patterns) {
        fault::VirtualFaultSimulator sim(rig.circuit, rig.components(),
                                         rig.pis, rig.pos);
        sim.setTableBatch(batch);
        return sim.run(patterns);
      },
      profile, seed, patternCount, restartAfter, policy, traced);
}

/// What serial EstimatePower traffic leaves on its channel.
struct PowerTraffic {
  rmi::ChannelStats stats;  // the traffic alone: the ledger is reset first
  int failures = 0;         // calls that did not come back Ok
};

/// Sends `calls` EstimatePower batches (four chaos patterns each) to the
/// multiplier `instance`, one at a time: through ProviderHandle::call, or,
/// when `nonblocking`, as ProviderHandle::callAsync(...).get() on the
/// channel's completion queue. Serial traffic stamps the same idempotency
/// keys and draws the same fault plans in the same order on either path, so
/// only the blocked/async split of the ledger may differ.
inline PowerTraffic runPowerTraffic(ip::ProviderHandle& provider,
                                    rmi::InstanceId instance, int calls,
                                    bool nonblocking) {
  constexpr int kBatch = 4;
  const std::vector<std::vector<Word>> patterns =
      chaosPatterns(kBatch * calls);
  provider.channel().resetStats();
  PowerTraffic out;
  for (int i = 0; i < calls; ++i) {
    std::vector<Word> batch;
    for (int k = 0; k < kBatch; ++k) {
      const std::vector<Word>& p = patterns[kBatch * i + k];
      Word w(2 * ChaosRig::kW);
      w.insert(0, p[0]);
      w.insert(ChaosRig::kW, p[1]);
      batch.push_back(w);
    }
    rmi::Args args;
    args.addWordVector(batch);
    const rmi::Response resp =
        nonblocking ? provider
                          .callAsync(rmi::MethodId::EstimatePower, instance,
                                     std::move(args))
                          .get()
                    : provider.call(rmi::MethodId::EstimatePower, instance,
                                    std::move(args));
    if (!resp.ok()) ++out.failures;
  }
  out.stats = provider.channel().stats();
  return out;
}

}  // namespace vcad::chaos
