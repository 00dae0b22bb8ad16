// The three campaign workloads: repeated set-up + virtual fault campaign
// over one generated IP design, each campaign held to the serial-loopback
// oracle.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/result_store.hpp"
#include "core/rng.hpp"
#include "fault/virtual_sim.hpp"
#include "host_speed.hpp"
#include "integration/matrix_harness.hpp"
#include "ip/remote_component.hpp"
#include "ledger.hpp"
#include "net/serialize.hpp"
#include "net/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "provider_client.hpp"
#include "rmi/loopback_transport.hpp"
#include "workloads.hpp"

namespace vcad::benchmark {
namespace {

/// Sizes and deployment of one campaign workload.
struct CampaignSpec {
  bool cone = false;  // Cone design (blocks x gates) or Datapath (scale)
  int coneBlocks = 0;
  int coneGates = 0;
  int datapathScale = 0;
  int patterns = 0;
  bool socket = false;         // provider in a separate process
  bool providerStore = false;  // provider result store, fresh per set-up
  bool clientStore = false;    // client store, warmed during set-up
  bool lan = false;            // LAN network model (else localhost)
  int campaignsPerSetup = 1;
  Kernel kernel = Kernel::Engine;  // host-speed kernel run before a campaign
};

constexpr int kMinSetups = 3;

// Sizes keep one campaign well under a second, so a run times 30-100 of
// them: on the reference host, campaigns of one run spread +-15%, and a
// statistic over 3-9 campaigns left 15-40% between runs.
CampaignSpec specFor(const std::string& name, bool smoke) {
  CampaignSpec s;
  if (name == "cone_cold") {
    s.cone = true;
    s.coneBlocks = smoke ? 3 : 8;
    s.coneGates = smoke ? 256 : 1024;
    s.patterns = 4;
    s.providerStore = true;
    s.kernel = Kernel::Compute;
  } else if (name == "datapath_socket" || name == "datapath_warm") {
    s.datapathScale = smoke ? 1 : 6;
    s.patterns = smoke ? 128 : 512;
    if (name == "datapath_socket") {
      s.socket = true;
      s.providerStore = true;
      s.lan = true;
    } else {
      s.clientStore = true;
      s.campaignsPerSetup = 10;
    }
  } else {
    throw std::invalid_argument("not a campaign workload: " + name);
  }
  return s;
}

/// "<prefix><i>", built without operator+(const char*, string&&), which
/// trips a GCC 12 -Wrestrict false positive at -O2.
std::string indexedName(const char* prefix, std::size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

constexpr int kConeInputs = 8;
constexpr int kConeOutputs = 4;
constexpr int kConePis = 16;

/// A campaign workload's inputs: the design and the patterns applied to it.
struct Inputs {
  matrix::MatrixDesign design;
  std::vector<Word> patterns;
};

Word randomWord(Rng& rng, int width) {
  Word w(width);
  for (int bit = 0; bit < width; ++bit) w.setBit(bit, fromBool(rng.next() & 1));
  return w;
}

/// The cone workload: random cones (8 in, 4 out) over 16 primary inputs,
/// each block reading 8 distinct ones, every block output a primary
/// output; patterns drawn so that no block sees an input configuration
/// twice. A campaign then computes exactly blocks x patterns detection
/// tables on every seed. (The scenario matrix's cone realization also feeds
/// blocks from upstream outputs, which are often constant, so its table
/// count, and campaign cost, varies twofold with the seed.)
Inputs makeConeInputs(std::uint64_t seed, int blocks, int gates,
                      int patterns) {
  Inputs in;
  matrix::MatrixDesign& d = in.design;
  d.spec = {gate::CircuitFamily::Cone, 0, seed};
  d.nPis = kConePis;
  for (int i = 0; i < kConePis; ++i) {
    d.design.addPrimaryInput(indexedName("pi", static_cast<std::size_t>(i)));
  }
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 3);
  std::vector<std::vector<int>> reads(static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    d.blocks.push_back(std::make_shared<const gate::Netlist>(gate::makeRandomCone(
        seed * 1000003ULL + static_cast<std::uint64_t>(b), kConeInputs, gates,
        kConeOutputs)));
    const int id = d.design.addBlock(indexedName("BLK", static_cast<std::size_t>(b)),
                                     d.blocks.back());
    std::vector<int> pis(kConePis);
    for (int i = 0; i < kConePis; ++i) pis[static_cast<std::size_t>(i)] = i;
    for (int pin = 0; pin < kConeInputs; ++pin) {
      std::swap(pis[static_cast<std::size_t>(pin)],
                pis[static_cast<std::size_t>(pin) +
                    rng.below(static_cast<std::uint64_t>(kConePis - pin))]);
      d.design.connect({-1, pis[static_cast<std::size_t>(pin)]}, id, pin);
      reads[static_cast<std::size_t>(b)].push_back(pis[static_cast<std::size_t>(pin)]);
    }
    for (int pin = 0; pin < kConeOutputs; ++pin) {
      d.design.markPrimaryOutput(id, pin);
    }
  }
  d.design.validate();

  std::vector<std::set<std::string>> seen(static_cast<std::size_t>(blocks));
  while (static_cast<int>(in.patterns.size()) < patterns) {
    Word w = randomWord(rng, kConePis);
    std::vector<std::string> configs;
    bool fresh = true;
    for (std::size_t b = 0; b < reads.size(); ++b) {
      std::string config;
      for (int pi : reads[b]) config += toChar(w.bit(pi));
      fresh = fresh && seen[b].count(config) == 0;
      configs.push_back(std::move(config));
    }
    if (!fresh) continue;
    for (std::size_t b = 0; b < reads.size(); ++b) seen[b].insert(configs[b]);
    in.patterns.push_back(std::move(w));
  }
  return in;
}

Inputs makeDatapathInputs(std::uint64_t seed, int scale, int patterns) {
  Inputs in;
  in.design = matrix::makeMatrixDesign({gate::CircuitFamily::Datapath, scale, seed});
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5A17);
  for (int i = 0; i < patterns; ++i) {
    in.patterns.push_back(randomWord(rng, in.design.nPis));
  }
  return in;
}

struct RigConfig {
  bool oracle = false;  // loopback, ideal network, no stores, no ledger
  bool traced = false;
  std::uint64_t tenant = 0;
  std::string socketPath;
  std::string providerTraceOut;
};

/// One set-up: the design, a provider (in-process or a process), the
/// channel and session, the instantiated remote blocks and the campaign
/// engine. Member order is teardown order.
struct Rig {
  Rig(const CampaignSpec& spec, std::uint64_t seed, const Options& opt,
      const RigConfig& cfg);

  Ledger clientLedger;
  Ledger providerLedger;  // in-process provider only
  matrix::MatrixDesign design;
  std::vector<Word> patterns;
  std::unique_ptr<ip::ProviderServer> server;
  std::unique_ptr<TimedEndpoint> endpoint;
  std::unique_ptr<ProviderProcess> process;
  std::unique_ptr<rmi::RmiChannel> channel;
  std::unique_ptr<ip::ProviderHandle> handle;
  std::unique_ptr<matrix::MatrixPublicPartSource> parts;
  fault::BlockDesign::GenericInstantiation gen;
  std::vector<std::unique_ptr<ip::RemoteFaultClient>> remote;
  std::vector<std::unique_ptr<TimedFaultClient>> timed;
  std::unique_ptr<fault::VirtualFaultSimulator> sim;

  Totals providerTotals() {
    return process != nullptr ? process->stats().ledger
                              : providerLedger.snapshot();
  }
};

Rig::Rig(const CampaignSpec& spec, std::uint64_t seed, const Options& opt,
         const RigConfig& cfg) {
  Inputs in = spec.cone ? makeConeInputs(seed, spec.coneBlocks,
                                         spec.coneGates, spec.patterns)
                        : makeDatapathInputs(seed, spec.datapathScale,
                                             spec.patterns);
  design = std::move(in.design);
  patterns = std::move(in.patterns);

  std::unique_ptr<net::Transport> wire;
  if (cfg.oracle || !spec.socket) {
    server = std::make_unique<ip::ProviderServer>("bench-provider.host",
                                                  nullptr);
    matrix::registerMatrixCatalog(*server, design);
    if (!cfg.oracle && spec.providerStore) {
      server->setResultStore(cache::ResultStore::inMemory(), 0);
    }
    rmi::ServerEndpoint* ep = server.get();
    if (cfg.traced) {
      endpoint = std::make_unique<TimedEndpoint>(*server, providerLedger);
      ep = endpoint.get();
    }
    wire = std::make_unique<rmi::LoopbackTransport>(*ep);
  } else {
    process = std::make_unique<ProviderProcess>(
        opt.providerBin, cfg.socketPath,
        "datapath:" + std::to_string(spec.datapathScale) + ":" +
            std::to_string(seed),
        cfg.traced ? cfg.providerTraceOut : "");
    wire = net::SocketTransport::connectUnix(cfg.socketPath);
    if (wire == nullptr) {
      throw std::runtime_error("cannot connect to " + cfg.socketPath);
    }
  }
  if (cfg.traced) {
    wire = std::make_unique<TimedTransport>(std::move(wire), clientLedger);
  }
  const net::NetworkProfile profile =
      cfg.oracle ? net::NetworkProfile::ideal()
                 : (spec.lan ? net::NetworkProfile::lan()
                             : net::NetworkProfile::localhost());
  channel = std::make_unique<rmi::RmiChannel>(std::move(wire), profile,
                                              nullptr, matrix::kChannelSeed);
  channel->setTenant(cfg.tenant);
  handle = std::make_unique<ip::ProviderHandle>(*channel);
  (void)handle->catalog();

  parts = std::make_unique<matrix::MatrixPublicPartSource>(design);
  std::vector<ip::RemoteComponent*> remotes;
  gen = design.design.instantiateWith(
      [&](int b, const std::string& name, std::shared_ptr<const gate::Netlist>,
          const std::vector<Connector*>& ins,
          const std::vector<Connector*>& outs) -> std::unique_ptr<Module> {
        std::vector<std::pair<std::string, Connector*>> inPorts, outPorts;
        for (std::size_t i = 0; i < ins.size(); ++i) {
          inPorts.emplace_back(indexedName("i", i), ins[i]);
        }
        for (std::size_t i = 0; i < outs.size(); ++i) {
          outPorts.emplace_back(indexedName("o", i), outs[i]);
        }
        ip::RemoteConfig rc;
        rc.collectPower = false;
        rc.publicPartSource = parts.get();
        auto mod = std::make_unique<ip::RemoteComponent>(
            name, *handle, indexedName("BLK", b), 1, std::move(inPorts),
            std::move(outPorts), rc);
        remotes.push_back(mod.get());
        return mod;
      });
  std::vector<fault::FaultClient*> comps;
  for (ip::RemoteComponent* r : remotes) {
    remote.push_back(std::make_unique<ip::RemoteFaultClient>(*r));
    if (cfg.traced) {
      timed.push_back(
          std::make_unique<TimedFaultClient>(*remote.back(), clientLedger));
      comps.push_back(timed.back().get());
    } else {
      comps.push_back(remote.back().get());
    }
  }
  sim = std::make_unique<fault::VirtualFaultSimulator>(
      *gen.circuit, comps, gen.piConns, gen.poConns);
  if (!cfg.oracle && spec.clientStore) {
    sim->setResultStore(cache::ResultStore::inMemory(), 0);
  }
}

std::uint64_t detectedDigest(const fault::CampaignResult& r) {
  Digest d;
  for (const std::string& f : r.faultList) d.text(f);
  d.text("--");
  for (const std::string& f : r.detected) d.text(f);
  for (std::size_t n : r.detectedAfterPattern) d.u64(n);
  return d.value();
}

/// The "tables" leg of the oracle contract: every block's detection table
/// for the all-zero input configuration, serialized.
std::uint64_t probeTables(Rig& rig) {
  Digest d;
  for (std::size_t b = 0; b < rig.remote.size(); ++b) {
    const fault::DetectionTable t = rig.remote[b]->detectionTable(
        Word::fromUint(rig.design.blocks[b]->inputCount(), 0));
    net::ByteBuffer buf;
    t.serialize(buf);
    d.bytes(buf.bytes().data(), buf.bytes().size());
  }
  return d.value();
}

double tableInvoiceCents(const ip::ProviderServer& server,
                         rmi::SessionId session) {
  double cents = 0.0;
  for (const auto& item : server.invoice(session).items) {
    if (item.method == rmi::MethodId::GetDetectionTable ||
        item.method == rmi::MethodId::GetDetectionTables) {
      cents += item.cents;
    }
  }
  return cents;
}

std::uint64_t schedEvents() {
  return obs::Registry::global().snapshot().counterOr("sched.dispatched");
}

/// One timed campaign and everything measured around it.
struct Sample {
  double wallSec = 0.0;
  fault::CampaignResult result;
  rmi::ChannelStats before;
  rmi::ChannelStats after;
  Totals client;
  Totals provider;
  std::uint64_t events = 0;
  std::vector<double> tableLatencies;

  double fees() const { return after.feesCents - before.feesCents; }
  std::uint64_t calls() const { return after.calls - before.calls; }
  std::uint64_t failures() const {
    return (after.transportFailures - before.transportFailures) +
           (after.quotaRejections - before.quotaRejections) +
           (after.securityRejections - before.securityRejections);
  }
};

Sample runCampaign(Rig& rig, bool traced) {
  Sample s;
  s.before = rig.channel->stats();
  Totals client0;
  Totals provider0;
  if (traced) {
    client0 = rig.clientLedger.snapshot();
    provider0 = rig.providerTotals();
    (void)rig.clientLedger.takeTableLatencies();
  }
  const std::uint64_t events0 = schedEvents();
  const auto start = Clock::now();
  s.result = rig.sim->runPacked(rig.patterns);
  s.wallSec = secondsSince(start);
  s.events = schedEvents() - events0;
  s.after = rig.channel->stats();
  if (traced) {
    s.client = rig.clientLedger.snapshot() - client0;
    s.provider = rig.providerTotals() - provider0;
    s.tableLatencies = rig.clientLedger.takeTableLatencies();
  }
  return s;
}

/// Per-layer ledger of one traced campaign (see README for definitions).
std::map<std::string, double> layerValues(const Sample& s) {
  const fault::CampaignResult& r = s.result;
  const Totals& c = s.client;
  const Totals& p = s.provider;
  const double faultClientSec =
      c.sec(Count::FaultListNs) + c.sec(Count::TableNs);
  const double transportSec = c.sec(Count::TransportNs);
  const double dispatchSec = p.sec(Count::TableMissNs) +
                             p.sec(Count::TableHitNs) +
                             p.sec(Count::OtherDispatchNs);
  const double faultSelf = s.wallSec - faultClientSec;
  const double lookups = static_cast<double>(
      r.tableCacheHits + r.tableStoreHits + r.detectionTablesRequested);
  const double hits = static_cast<double>(p[Count::TableHitCalls]);
  const double misses = static_cast<double>(p[Count::TableMissCalls]);
  std::map<std::string, double> v;
  v["fault.self_s"] = faultSelf;
  v["fault.phase1_s"] = c.sec(Count::FaultListNs);
  v["fault.injections"] = static_cast<double>(r.injections);
  v["fault.tables_requested"] = static_cast<double>(r.detectionTablesRequested);
  v["fault.table_cache_hits"] = static_cast<double>(r.tableCacheHits);
  v["fault.table_cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(r.tableCacheHits) / lookups : 0.0;
  v["core.events"] = static_cast<double>(s.events);
  v["core.ns_per_event"] =
      s.events > 0 ? faultSelf * 1e9 / static_cast<double>(s.events) : 0.0;
  v["core.slots_leased"] = static_cast<double>(r.slotsLeased);
  v["core.scheduler_resets"] = static_cast<double>(r.schedulerResets);
  v["gate.compute_s"] = p.sec(Count::TableMissNs);
  v["gate.tables_computed"] = static_cast<double>(p[Count::TableMissConfigs]);
  v["gate.configs_per_call"] =
      misses > 0 ? static_cast<double>(p[Count::TableMissConfigs]) / misses
                 : 0.0;
  v["cache.hit_s"] = p.sec(Count::TableHitNs);
  v["cache.provider_hits"] = hits;
  v["cache.provider_misses"] = misses;
  v["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  v["cache.client_store_hits"] = static_cast<double>(r.tableStoreHits);
  v["cache.bytes"] =
      static_cast<double>(s.after.cacheBytes - s.before.cacheBytes);
  v["rmi.table_s"] = c.sec(Count::TableNs);
  v["rmi.table_p50_ms"] = quantile(s.tableLatencies, 0.50) * 1e3;
  v["rmi.table_p99_ms"] = quantile(s.tableLatencies, 0.99) * 1e3;
  v["rmi.self_s"] = faultClientSec - transportSec;
  v["rmi.calls"] = static_cast<double>(s.calls());
  v["rmi.bytes"] = static_cast<double>(
      (s.after.bytesSent + s.after.bytesReceived) -
      (s.before.bytesSent + s.before.bytesReceived));
  v["rmi.retries"] = static_cast<double>(s.after.retries - s.before.retries);
  v["net.transport_s"] = transportSec - dispatchSec;
  v["net.frames"] = static_cast<double>(c[Count::Frames]);
  v["sim.network_s"] = s.after.networkSec - s.before.networkSec;
  v["sim.real_s"] = s.wallSec + v["sim.network_s"];
  v["ip.dispatch_other_s"] = p.sec(Count::OtherDispatchNs);
  v["ip.dispatches"] = static_cast<double>(
      p[Count::TableMissCalls] + p[Count::TableHitCalls] +
      p[Count::OtherDispatchCalls]);
  v["ip.fees_cents"] = s.fees();
  return v;
}

/// What one campaign showed, for the oracle comparison.
struct Observed {
  std::string what;
  std::uint64_t detectedDigest = 0;
  std::uint64_t faults = 0;
  std::uint64_t detected = 0;
  std::optional<double> feesCents;  // unset: fees not compared
};

Observed observe(std::string what, const fault::CampaignResult& r,
                 std::optional<double> fees) {
  return {std::move(what), detectedDigest(r), r.faultList.size(),
          r.detected.size(), fees};
}

}  // namespace

CampaignVerdict campaignOracle(const std::string& name, std::uint64_t seed,
                               bool smoke) {
  const CampaignSpec spec = specFor(name, smoke);
  RigConfig cfg;
  cfg.oracle = true;
  Rig rig(spec, seed, Options{}, cfg);
  const double fees0 = rig.channel->stats().feesCents;
  const double tableFees0 =
      tableInvoiceCents(*rig.server, rig.handle->session());
  const fault::CampaignResult r = rig.sim->runPacked(rig.patterns);
  CampaignVerdict v;
  v.faults = r.faultList.size();
  v.detected = r.detected.size();
  v.detectedDigest = detectedDigest(r);
  v.feesCents = rig.channel->stats().feesCents - fees0;
  if (spec.clientStore) {
    // A warm campaign fetches no table, so it pays everything but the
    // table items of the oracle's ledger.
    v.feesCents -=
        tableInvoiceCents(*rig.server, rig.handle->session()) - tableFees0;
  }
  v.tableDigest = probeTables(rig);
  return v;
}

RunResult runCampaignWorkload(const std::string& name, const Options& opt) {
  const CampaignSpec spec = specFor(name, opt.smoke);
  RunResult out;
  // Raw host times, and times scaled by the kernel run just before each.
  std::vector<double> setupRaw, setupScaled;
  std::vector<double> kernelRaw;
  std::vector<double> untracedRaw, untracedScaled, tracedScaled;
  std::vector<Sample> traced;
  std::vector<Observed> observed;
  std::vector<std::uint64_t> tableDigests;
  double providerRssMb = 0.0;
  std::uint64_t queuePeak = 0;
  std::uint64_t sheds = 0;

  const auto start = Clock::now();
  try {
    for (int s = 0;; ++s) {
      if (s >= kMinSetups && secondsSince(start) >= opt.seconds) break;
      // The traced run alternates traced and untraced set-ups, so the
      // tracing overhead is measured within the run.
      const bool tracedSetup = opt.trace && s % 2 == 0;
      obs::Tracer::global().setEnabled(tracedSetup);
      RigConfig cfg;
      cfg.traced = tracedSetup;
      cfg.tenant = static_cast<std::uint64_t>(s) + 1;
      cfg.socketPath = socketPath(opt, std::to_string(s));
      cfg.providerTraceOut = opt.outDir + "/" + name + "_provider_trace.json";

      const double setupKernel = kernelSec(Kernel::Engine);
      const auto setupStart = Clock::now();
      Rig rig(spec, opt.seed, opt, cfg);
      if (spec.clientStore) {
        const fault::CampaignResult warmup = rig.sim->runPacked(rig.patterns);
        observed.push_back(observe("warm-up campaign", warmup, std::nullopt));
      }
      setupRaw.push_back(secondsSince(setupStart));
      setupScaled.push_back(scaledSec(setupRaw.back(), setupKernel));

      for (int c = 0; c < spec.campaignsPerSetup; ++c) {
        kernelRaw.push_back(kernelSec(spec.kernel));
        Sample sample = runCampaign(rig, tracedSetup);
        out.attempted += sample.calls();
        out.failed += sample.failures();
        observed.push_back(observe("campaign", sample.result, sample.fees()));
        const double scaled = scaledSec(sample.wallSec, kernelRaw.back());
        if (tracedSetup) {
          tracedScaled.push_back(scaled);
          traced.push_back(std::move(sample));
        } else {
          untracedRaw.push_back(sample.wallSec);
          untracedScaled.push_back(scaled);
        }
      }
      tableDigests.push_back(probeTables(rig));
      if (rig.process != nullptr) {
        const ProviderStats ps = rig.process->stats();
        providerRssMb = std::max(providerRssMb, ps.peakRssMb);
        queuePeak = std::max(queuePeak, ps.queuePeakDepth);
        sheds += ps.sheds;
        if (rig.process->stop() != 0) out.mismatch("provider process failed");
      }
    }
  } catch (const std::exception& e) {
    ++out.failed;
    out.mismatch(std::string("campaign aborted: ") + e.what());
  }
  obs::Tracer::global().setEnabled(false);
  const double clientRssMb = peakRssMb();

  // Oracle: the recorded one at the default seed, else a fresh serial
  // loopback run (untimed, after the measurement).
  const CampaignVerdict oracle =
      opt.expected != nullptr ? opt.expected->campaigns.at(name)
                              : campaignOracle(name, opt.seed, opt.smoke);
  for (const Observed& o : observed) {
    if (o.faults != oracle.faults || o.detected != oracle.detected ||
        o.detectedDigest != oracle.detectedDigest) {
      out.mismatch(o.what + ": fault list, detected set or coverage curve "
                   "differs from the oracle");
    }
    if (o.feesCents && feeUnits(*o.feesCents) != feeUnits(oracle.feesCents)) {
      out.mismatch(o.what + ": fees " + std::to_string(*o.feesCents) +
                   " cents, oracle " + std::to_string(oracle.feesCents));
    }
  }
  for (std::uint64_t d : tableDigests) {
    if (d != oracle.tableDigest) {
      out.mismatch("serialized detection tables differ from the oracle");
    }
  }

  std::fprintf(stderr,
               "%s: %zu set-ups (raw median %.4f s), %zu untraced + %zu "
               "traced campaigns (raw median %.4f s, range %.4f-%.4f s), "
               "kernel median %.2f ms, %llu faults, %llu detected\n",
               name.c_str(), setupRaw.size(), median(setupRaw),
               untracedRaw.size(), tracedScaled.size(), median(untracedRaw),
               quantile(untracedRaw, 0.0), quantile(untracedRaw, 1.0),
               median(kernelRaw) * 1e3,
               static_cast<unsigned long long>(oracle.faults),
               static_cast<unsigned long long>(oracle.detected));

  if (!opt.trace) {
    emitMetrics(endToEndMetrics(),
                {{"setup_s", median(setupScaled)},
                 {"campaign_ms", median(untracedScaled) * 1e3},
                 {"peak_rss_mb", clientRssMb + providerRssMb}},
                out);
    return out;
  }

  // Per-layer: the mean over traced campaigns of each ledger entry; table
  // latency percentiles pool every traced table call.
  std::map<std::string, double> values;
  std::vector<double> latencies;
  for (const Sample& s : traced) {
    for (const auto& [k, x] : layerValues(s)) {
      values[k] += x / static_cast<double>(traced.size());
    }
    latencies.insert(latencies.end(), s.tableLatencies.begin(),
                     s.tableLatencies.end());
  }
  values["rmi.table_p50_ms"] = quantile(latencies, 0.50) * 1e3;
  values["rmi.table_p99_ms"] = quantile(latencies, 0.99) * 1e3;
  values["ip.queue_peak_depth"] = static_cast<double>(queuePeak);
  values["ip.sheds"] = static_cast<double>(sheds);
  values["obs.trace_overhead"] =
      untracedScaled.empty()
          ? 0.0
          : median(tracedScaled) / median(untracedScaled) - 1.0;
  values["host.kernel_ms"] = median(kernelRaw) * 1e3;
  emitMetrics(perLayerMetrics(), values, out);
  return out;
}

}  // namespace vcad::benchmark
