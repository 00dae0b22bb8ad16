#include "integration/matrix_harness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "cache/result_store.hpp"
#include "core/rng.hpp"
#include "gate/generators.hpp"
#include "gate/packed_eval.hpp"
#include "ip/remote_component.hpp"
#include "net/serialize.hpp"
#include "net/socket_transport.hpp"
#include "rmi/chaos_harness.hpp"

namespace vcad::matrix {
namespace {

using fault::BlockDesign;
using gate::CircuitFamily;
using gate::FamilySpec;
using gate::Netlist;

constexpr int kConeInputs = 8;
constexpr int kConeOutputs = 4;
constexpr int kConeGates = 48;
constexpr int kDatapathWidth = 4;

/// Seed stream for block b of a design: decorrelated from neighbouring
/// design seeds but fully determined by (spec seed, b).
std::uint64_t blockSeed(std::uint64_t seed, int b) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(b);
}

/// Shared-stem wiring used by the cone realizations: each block's inputs
/// are drawn (seeded) from the pool of design PIs plus every upstream block
/// output, and every block output is marked a primary output — each block
/// is directly observable and also feeds downstream IP.
void wireConeBlocks(MatrixDesign& d) {
  Rng rng(d.spec.seed * 6364136223846793005ULL + 11);
  d.nPis = kConeInputs;
  for (int i = 0; i < d.nPis; ++i) {
    d.design.addPrimaryInput("pi" + std::to_string(i));
  }
  std::vector<std::pair<int, int>> sources;
  for (int i = 0; i < d.nPis; ++i) sources.emplace_back(-1, i);
  for (std::size_t b = 0; b < d.blocks.size(); ++b) {
    const int id = d.design.addBlock("BLK" + std::to_string(b), d.blocks[b]);
    for (int pin = 0; pin < d.blocks[b]->inputCount(); ++pin) {
      const auto src = sources[rng.below(sources.size())];
      d.design.connect({src.first, src.second}, id, pin);
    }
    for (int pin = 0; pin < d.blocks[b]->outputCount(); ++pin) {
      sources.emplace_back(id, pin);
    }
  }
  for (std::size_t b = 0; b < d.blocks.size(); ++b) {
    for (int pin = 0; pin < d.blocks[b]->outputCount(); ++pin) {
      d.design.markPrimaryOutput(static_cast<int>(b), pin);
    }
  }
  d.design.validate();
}

MatrixDesign makeConeDesign(const FamilySpec& spec, int nBlocks,
                            int gatesPerBlock) {
  MatrixDesign d;
  d.spec = spec;
  for (int b = 0; b < nBlocks; ++b) {
    d.blocks.push_back(std::make_shared<const Netlist>(
        gate::makeRandomCone(blockSeed(spec.seed, b), kConeInputs,
                             gatesPerBlock, kConeOutputs)));
  }
  wireConeBlocks(d);
  return d;
}

/// 2+scale multiplier lanes reduced by a ripple-adder chain; intermediate
/// carry-outs and the final sum are the primary outputs, so every block
/// output either feeds downstream IP or is directly observable.
MatrixDesign makeDatapathDesign(const FamilySpec& spec) {
  MatrixDesign d;
  d.spec = spec;
  const int lanes = 2 + spec.scale;
  const int w = kDatapathWidth;
  d.nPis = 2 * w * lanes;
  if (d.nPis > Word::kMaxWidth) {
    throw std::invalid_argument("datapath matrix scale too large for Word");
  }
  auto mult = std::make_shared<const Netlist>(gate::makeArrayMultiplier(w));
  auto adder =
      std::make_shared<const Netlist>(gate::makeRippleCarryAdder(2 * w));
  for (int l = 0; l < lanes; ++l) d.blocks.push_back(mult);
  for (int l = 0; l + 1 < lanes; ++l) d.blocks.push_back(adder);

  for (int l = 0; l < lanes; ++l) {
    for (int i = 0; i < w; ++i) {
      d.design.addPrimaryInput("a" + std::to_string(l) + "_" +
                               std::to_string(i));
    }
    for (int i = 0; i < w; ++i) {
      d.design.addPrimaryInput("b" + std::to_string(l) + "_" +
                               std::to_string(i));
    }
  }
  std::vector<int> multId(lanes), addId(lanes - 1);
  for (std::size_t b = 0; b < d.blocks.size(); ++b) {
    const int id = d.design.addBlock("BLK" + std::to_string(b), d.blocks[b]);
    if (b < static_cast<std::size_t>(lanes)) {
      multId[b] = id;
    } else {
      addId[b - static_cast<std::size_t>(lanes)] = id;
    }
  }
  for (int l = 0; l < lanes; ++l) {
    for (int pin = 0; pin < 2 * w; ++pin) {
      d.design.connect({-1, 2 * w * l + pin}, multId[l], pin);
    }
  }
  for (int k = 0; k + 1 < lanes; ++k) {
    // Adder k: a operand = running sum (lane 0 product, then the previous
    // stage's sum bits), b operand = lane k+1 product.
    for (int pin = 0; pin < 2 * w; ++pin) {
      if (k == 0) {
        d.design.connect({multId[0], pin}, addId[k], pin);
      } else {
        d.design.connect({addId[k - 1], pin}, addId[k], pin);
      }
      d.design.connect({multId[k + 1], pin}, addId[k], 2 * w + pin);
    }
  }
  for (int k = 0; k + 2 < lanes; ++k) {
    d.design.markPrimaryOutput(addId[k], 2 * w);  // intermediate carry-out
  }
  for (int pin = 0; pin <= 2 * w; ++pin) {
    d.design.markPrimaryOutput(addId[lanes - 2], pin);  // final sum + carry
  }
  d.design.validate();
  return d;
}

/// A block's public part: its netlist on the packed engine, up to 64
/// patterns per pass. The compiled evaluator is shared and read-only; each
/// call owns its plane buffer, so concurrent campaigns may call it at once.
ip::PublicPart blockPublicPart(std::shared_ptr<const Netlist> nl) {
  ip::PublicPart pub;
  auto packed = std::make_shared<const gate::PackedEvaluator>(*nl);
  pub.functional = [nl, packed](std::span<const Word> in, std::span<Word> out,
                                const rmi::Sandbox&) {
    std::vector<gate::LanePlanes> planes;
    constexpr std::size_t kLanes = gate::PackedEvaluator::kLanes;
    for (std::size_t base = 0; base < in.size(); base += kLanes) {
      const std::size_t lanes = std::min(kLanes, in.size() - base);
      packed->evaluate(packed->pack(in, base, lanes), planes);
      for (std::size_t l = 0; l < lanes; ++l) {
        out[base + l] = packed->outputsOf(planes, static_cast<int>(l));
      }
    }
  };
  return pub;
}

ip::IpComponentSpec matrixComponentSpec(std::string name) {
  ip::IpComponentSpec spec;
  spec.name = std::move(name);
  spec.minWidth = 1;
  spec.maxWidth = 64;
  spec.functional = ip::ModelLevel::Static;
  spec.testability = ip::ModelLevel::Dynamic;
  spec.fees.instantiateCents = 25.0;
  spec.fees.perDetectionTableCents = 0.05;
  spec.fees.perEvalCents = 0.01;
  return spec;
}

/// Fixed per-design pattern set: only the scenario dimensions vary across
/// cells, never the stimulus.
std::vector<Word> matrixPatterns(int width, int count, std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xA7817);
  std::vector<Word> out;
  for (int i = 0; i < count; ++i) {
    Word w(width);
    for (int bit = 0; bit < width; ++bit) {
      w.setBit(bit, fromBool(rng.chance(0.5)));
    }
    out.push_back(std::move(w));
  }
  return out;
}

/// One provider's serving stack: server + restart injector + faulty
/// transport + latency-charged channel + session handle. Declaration order
/// doubles as the teardown order.
struct ProviderRig {
  std::unique_ptr<ip::ProviderServer> server;
  std::unique_ptr<chaos::RestartingEndpoint> endpoint;
  std::unique_ptr<net::FaultyTransport> transport;
  std::unique_ptr<rmi::RmiChannel> channel;
  std::unique_ptr<ip::ProviderHandle> handle;
};

ProviderRig makeProviderRig(const CellSpec& spec, const MatrixDesign& d,
                            int p) {
  ProviderRig r;
  r.server = std::make_unique<ip::ProviderServer>(
      "matrix-provider-" + std::to_string(p) + ".host", nullptr);
  registerMatrixCatalog(*r.server, d);
  // Only provider 0 restarts: one injected crash per restart cell.
  r.endpoint = std::make_unique<chaos::RestartingEndpoint>(
      *r.server, p == 0 ? spec.restartAfter : 0);
  r.transport =
      std::make_unique<net::FaultyTransport>(spec.chaos, spec.chaosSeed + p);
  r.channel = std::make_unique<rmi::RmiChannel>(*r.endpoint, spec.network,
                                                nullptr, kChannelSeed + p);
  // Install before any traffic so even OpenSession rides the faulty path.
  r.channel->setFaultInjector(r.transport.get());
  r.handle = std::make_unique<ip::ProviderHandle>(*r.channel);
  return r;
}

/// The combinational campaign core shared by the in-process and socket
/// rigs: instantiate the design's blocks round-robin over the handles, run
/// the packed campaign, probe one serialized table per block, and sum the
/// client-side ledgers. Providers/endpoints are the caller's to account.
CellResult runCombCampaign(const CellSpec& spec, const MatrixDesign& d,
                           const std::vector<ip::ProviderHandle*>& handles,
                           const std::vector<rmi::RmiChannel*>& channels,
                           const ip::PublicPartSource* publicParts) {
  std::vector<ip::RemoteComponent*> remotes;
  BlockDesign::GenericInstantiation gen = d.design.instantiateWith(
      [&](int b, const std::string& name, std::shared_ptr<const Netlist>,
          const std::vector<Connector*>& ins,
          const std::vector<Connector*>& outs) -> std::unique_ptr<Module> {
        std::vector<std::pair<std::string, Connector*>> inPorts, outPorts;
        for (std::size_t i = 0; i < ins.size(); ++i) {
          inPorts.emplace_back("i" + std::to_string(i), ins[i]);
        }
        for (std::size_t i = 0; i < outs.size(); ++i) {
          outPorts.emplace_back("o" + std::to_string(i), outs[i]);
        }
        ip::RemoteConfig cfg;
        cfg.collectPower = false;
        cfg.publicPartSource = publicParts;
        auto mod = std::make_unique<ip::RemoteComponent>(
            name, *handles[static_cast<std::size_t>(b) % handles.size()],
            "BLK" + std::to_string(b), 1, std::move(inPorts),
            std::move(outPorts), cfg);
        remotes.push_back(mod.get());
        return mod;
      });
  std::vector<std::unique_ptr<ip::RemoteFaultClient>> clients;
  std::vector<fault::FaultClient*> comps;
  for (ip::RemoteComponent* r : remotes) {
    clients.push_back(std::make_unique<ip::RemoteFaultClient>(*r));
    comps.push_back(clients.back().get());
  }

  CellResult out;
  out.spec = spec;
  fault::VirtualFaultSimulator sim(*gen.circuit, comps, gen.piConns,
                                   gen.poConns);
  out.result = sim.runPacked(
      matrixPatterns(d.nPis, spec.patternCount, d.spec.seed));

  // Table probe: a fixed configuration per block, serialized, so the cell
  // asserts the *bytes* the provider ships, not just the campaign verdicts.
  for (std::size_t b = 0; b < clients.size(); ++b) {
    const fault::DetectionTable t = clients[b]->detectionTable(
        Word::fromUint(d.blocks[b]->inputCount(), 0));
    net::ByteBuffer buf;
    t.serialize(buf);
    out.tableBytes.push_back(buf.bytes());
  }

  for (rmi::RmiChannel* c : channels) {
    out.clientFeesCents += c->stats().feesCents;
  }
  for (ip::ProviderHandle* h : handles) out.recoveries += h->recoveries();
  for (ip::RemoteComponent* r : remotes) out.remoteErrors += r->remoteErrors();
  return out;
}

CellResult runCombCell(const CellSpec& spec, const MatrixDesign& d,
                       const std::shared_ptr<cache::ResultStore>& store) {
  std::vector<ProviderRig> rigs;
  std::vector<ip::ProviderHandle*> handles;
  std::vector<rmi::RmiChannel*> channels;
  for (int p = 0; p < spec.providers; ++p) {
    rigs.push_back(makeProviderRig(spec, d, p));
    if (store != nullptr) rigs.back().server->setResultStore(store, 0);
    handles.push_back(rigs.back().handle.get());
    channels.push_back(rigs.back().channel.get());
  }
  CellResult out = runCombCampaign(spec, d, handles, channels, nullptr);
  for (ProviderRig& r : rigs) {
    out.providerFeesCents += r.server->sessionFeesCents(r.handle->session());
    out.restarts += r.endpoint->restarts();
  }
  return out;
}

CellResult runSeqCell(const CellSpec& spec, const MatrixDesign& d) {
  ProviderRig rig = makeProviderRig(spec, d, 0);
  ip::RemoteSeqFaultClient client(*rig.handle, "CTRL", 1);
  CellResult out;
  out.spec = spec;
  out.sequential = true;
  out.seqResult = fault::runSeqCampaign(
      client, matrixPatterns(d.machine->inputBits(), spec.patternCount,
                             d.spec.seed));
  out.clientFeesCents = rig.channel->stats().feesCents;
  out.providerFeesCents = rig.server->sessionFeesCents(rig.handle->session());
  out.recoveries = rig.handle->recoveries();
  out.restarts = rig.endpoint->restarts();
  return out;
}

/// Fee ledgers are sums of per-call doubles; multi-provider cells
/// reassociate the adds, so identity is asserted at micro-cent resolution.
long long microCents(double cents) {
  return static_cast<long long>(std::llround(cents * 10000.0));
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

MatrixDesign makeMatrixDesign(const FamilySpec& spec) {
  switch (spec.family) {
    case CircuitFamily::Cone:
      return makeConeDesign(spec, 3 + 2 * spec.scale, kConeGates);
    case CircuitFamily::Datapath:
      return makeDatapathDesign(spec);
    case CircuitFamily::Controller: {
      MatrixDesign d;
      d.spec = spec;
      d.sequential = true;
      d.machine =
          std::make_shared<const gate::SeqNetlist>(gate::makeFamilyMachine(spec));
      return d;
    }
  }
  throw std::invalid_argument("unknown family");
}

MatrixDesign makeBigConeDesign(std::uint64_t seed, int blocks,
                               int gatesPerBlock) {
  if (blocks < 1 || gatesPerBlock < kConeInputs) {
    throw std::invalid_argument("bad big-cone shape");
  }
  return makeConeDesign({CircuitFamily::Cone, 0, seed}, blocks, gatesPerBlock);
}

void registerMatrixCatalog(ip::ProviderServer& server, const MatrixDesign& d) {
  if (d.sequential) {
    auto machine = d.machine;
    server.registerSequentialComponent(
        matrixComponentSpec("CTRL"),
        [machine](std::uint64_t) { return *machine; });
    return;
  }
  for (std::size_t b = 0; b < d.blocks.size(); ++b) {
    auto nl = d.blocks[b];
    server.registerComponent(
        matrixComponentSpec("BLK" + std::to_string(b)),
        [nl](std::uint64_t) { return nl; },
        [nl](std::uint64_t) { return blockPublicPart(nl); });
  }
}

ip::PublicPart MatrixPublicPartSource::downloadPublicPart(
    const std::string& component, std::uint64_t) const {
  if (component.rfind("BLK", 0) != 0) return {};
  const std::size_t b = std::stoul(component.substr(3));
  if (b >= design_->blocks.size()) return {};
  return blockPublicPart(design_->blocks[b]);
}

std::string CellSpec::name() const {
  std::string s = family.name() + "." + network.name + "." + chaos.name +
                  ".p" + std::to_string(providers);
  if (warmStore) s += ".warm";
  if (restartAfter != 0) s += ".restart" + std::to_string(restartAfter);
  // Non-default pattern counts get their own tag so every cell of a sweep
  // maps to a distinct artifact file (the long controller cell would
  // otherwise collide with its reduced-matrix sibling).
  if (patternCount != CellSpec{}.patternCount) {
    s += ".n" + std::to_string(patternCount);
  }
  return s;
}

double CellResult::coverage() const {
  return sequential ? seqResult.coverage() : result.coverage();
}

std::size_t CellResult::faultCount() const {
  return sequential ? seqResult.faultList.size() : result.faultList.size();
}

std::size_t CellResult::detectedCount() const {
  return sequential ? seqResult.detectedCount() : result.detected.size();
}

CellResult runCell(const CellSpec& spec) {
  const MatrixDesign d = makeMatrixDesign(spec.family);
  return runCell(spec, d);
}

CellResult runCell(const CellSpec& spec, const MatrixDesign& d) {
  if (spec.providers < 1) throw std::invalid_argument("providers < 1");
  if (d.sequential) {
    if (spec.providers != 1 || spec.warmStore || spec.restartAfter != 0) {
      throw std::invalid_argument(
          "sequential cells run single-provider, cold, restart-free");
    }
    return runSeqCell(spec, d);
  }
  if (!spec.warmStore) return runCombCell(spec, d, nullptr);
  // Warm cell: prime a shared provider-side store with one full run, then
  // report the warm rerun (fresh providers and channels, same store).
  auto store = cache::ResultStore::inMemory();
  runCombCell(spec, d, store);
  const cache::ResultStore::Stats primed = store->stats();
  CellResult out = runCombCell(spec, d, store);
  const cache::ResultStore::Stats after = store->stats();
  out.storeHits =
      (after.hits + after.backendHits) - (primed.hits + primed.backendHits);
  return out;
}

CellResult runSocketCell(const CellSpec& spec, const MatrixDesign& d,
                         const std::vector<std::string>& socketPaths) {
  if (d.sequential) {
    throw std::invalid_argument("socket cells are combinational-only");
  }
  if (socketPaths.empty()) throw std::invalid_argument("no socket paths");
  MatrixPublicPartSource source(d);
  struct Stack {
    std::unique_ptr<net::FaultyTransport> transport;
    std::unique_ptr<rmi::RmiChannel> channel;
    std::unique_ptr<ip::ProviderHandle> handle;
  };
  std::vector<Stack> stacks;
  std::vector<ip::ProviderHandle*> handles;
  std::vector<rmi::RmiChannel*> channels;
  for (std::size_t p = 0; p < socketPaths.size(); ++p) {
    Stack s;
    s.transport =
        std::make_unique<net::FaultyTransport>(spec.chaos, spec.chaosSeed + p);
    auto socket = net::SocketTransport::connectUnix(socketPaths[p]);
    if (socket == nullptr) {
      throw std::runtime_error("connectUnix failed: " + socketPaths[p]);
    }
    s.channel = std::make_unique<rmi::RmiChannel>(std::move(socket),
                                                  spec.network, nullptr,
                                                  kChannelSeed + p);
    s.channel->setFaultInjector(s.transport.get());
    s.handle = std::make_unique<ip::ProviderHandle>(*s.channel);
    handles.push_back(s.handle.get());
    channels.push_back(s.channel.get());
    stacks.push_back(std::move(s));
  }
  // Provider-side ledgers live in other processes; callers compare the
  // client-side fee sums (which mirror them call for call).
  return runCombCampaign(spec, d, handles, channels, &source);
}

CellSpec oracleSpecFor(const CellSpec& spec) {
  CellSpec o;
  o.family = spec.family;
  o.patternCount = spec.patternCount;
  o.network = net::NetworkProfile::ideal();
  o.chaos = net::FaultProfile::none();
  o.providers = 1;
  return o;
}

std::vector<std::string> compareToOracle(const CellResult& cell,
                                         const CellResult& oracle) {
  std::vector<std::string> m;
  auto check = [&m](bool ok, const std::string& what) {
    if (!ok) m.push_back(what);
  };
  if (cell.sequential != oracle.sequential) {
    m.push_back("cell/oracle family kind mismatch");
    return m;
  }
  if (!cell.sequential) {
    const fault::CampaignResult& c = cell.result;
    const fault::CampaignResult& o = oracle.result;
    check(c.faultList == o.faultList, "fault list differs from oracle");
    check(c.detected == o.detected, "detected set differs from oracle");
    check(c.detectedAfterPattern == o.detectedAfterPattern,
          "coverage curve differs from oracle");
    check(c.detectionTablesRequested == o.detectionTablesRequested,
          "detection-table request count differs from oracle");
    check(c.injections == o.injections,
          "injection count differs from oracle");
    check(cell.tableBytes == oracle.tableBytes,
          "serialized detection-table bytes differ from oracle");
    if (cell.spec.comparesFees()) {
      check(c.tableFetchRoundTrips == o.tableFetchRoundTrips,
            "table round-trips differ from oracle");
      check(microCents(cell.clientFeesCents) ==
                microCents(oracle.clientFeesCents),
            "client fees differ from oracle (" +
                std::to_string(cell.clientFeesCents) + " vs " +
                std::to_string(oracle.clientFeesCents) + " cents)");
      check(microCents(cell.providerFeesCents) ==
                microCents(oracle.providerFeesCents),
            "provider fees differ from oracle (" +
                std::to_string(cell.providerFeesCents) + " vs " +
                std::to_string(oracle.providerFeesCents) + " cents)");
    }
  } else {
    const fault::SeqCampaignResult& c = cell.seqResult;
    const fault::SeqCampaignResult& o = oracle.seqResult;
    check(c.faultList == o.faultList, "fault list differs from oracle");
    check(c.detectedAtCycle == o.detectedAtCycle,
          "detection cycles differ from oracle");
    check(c.goodSteps == o.goodSteps && c.faultySteps == o.faultySteps,
          "shadow-machine step counts differ from oracle");
    if (cell.spec.comparesFees()) {
      check(microCents(cell.clientFeesCents) ==
                microCents(oracle.clientFeesCents),
            "client fees differ from oracle");
      check(microCents(cell.providerFeesCents) ==
                microCents(oracle.providerFeesCents),
            "provider fees differ from oracle");
    }
  }
  check(cell.remoteErrors == 0, "remote-call errors surfaced to the module");
  if (cell.spec.restartAfter != 0) {
    check(cell.restarts >= 1, "restart cell never restarted the provider");
    check(cell.recoveries >= 1, "restart cell never ran session recovery");
  }
  return m;
}

std::string cellJson(const CellResult& cell,
                     const std::vector<std::string>& mismatches,
                     double wallSec) {
  const CellSpec& s = cell.spec;
  std::string j = "{";
  j += "\"cell\":\"" + jsonEscape(s.name()) + "\",";
  j += "\"family\":\"" + jsonEscape(s.family.name()) + "\",";
  j += "\"network\":\"" + jsonEscape(s.network.name) + "\",";
  j += "\"profile\":\"" + jsonEscape(s.chaos.name) + "\",";
  j += "\"chaosSeed\":" + std::to_string(s.chaosSeed) + ",";
  j += "\"providers\":" + std::to_string(s.providers) + ",";
  j += std::string("\"warmStore\":") + (s.warmStore ? "true" : "false") + ",";
  j += "\"restartAfter\":" + std::to_string(s.restartAfter) + ",";
  j += "\"patterns\":" + std::to_string(s.patternCount) + ",";
  j += std::string("\"sequential\":") + (cell.sequential ? "true" : "false") +
       ",";
  j += "\"faults\":" + std::to_string(cell.faultCount()) + ",";
  j += "\"detected\":" + std::to_string(cell.detectedCount()) + ",";
  j += "\"coverage\":" + std::to_string(cell.coverage()) + ",";
  j += "\"tablesRequested\":" +
       std::to_string(cell.result.detectionTablesRequested) + ",";
  j += "\"tableRoundTrips\":" +
       std::to_string(cell.result.tableFetchRoundTrips) + ",";
  j += "\"injections\":" + std::to_string(cell.result.injections) + ",";
  j += "\"goodSteps\":" + std::to_string(cell.seqResult.goodSteps) + ",";
  j += "\"faultySteps\":" + std::to_string(cell.seqResult.faultySteps) + ",";
  j += "\"clientFeesCents\":" + std::to_string(cell.clientFeesCents) + ",";
  j += "\"providerFeesCents\":" + std::to_string(cell.providerFeesCents) + ",";
  j += "\"recoveries\":" + std::to_string(cell.recoveries) + ",";
  j += "\"restarts\":" + std::to_string(cell.restarts) + ",";
  j += "\"remoteErrors\":" + std::to_string(cell.remoteErrors) + ",";
  j += "\"storeHits\":" + std::to_string(cell.storeHits) + ",";
  j += std::string("\"feesCompared\":") +
       (s.comparesFees() ? "true" : "false") + ",";
  j += "\"mismatches\":[";
  for (std::size_t i = 0; i < mismatches.size(); ++i) {
    if (i != 0) j += ",";
    j += "\"" + jsonEscape(mismatches[i]) + "\"";
  }
  j += "],";
  j += std::string("\"pass\":") + (mismatches.empty() ? "true" : "false") +
       ",";
  j += "\"wallSec\":" + std::to_string(wallSec);
  j += "}";
  return j;
}

std::vector<CellSpec> reducedMatrix() {
  std::vector<CellSpec> cells;
  const std::vector<FamilySpec> families = {
      {CircuitFamily::Cone, 0, 7},
      {CircuitFamily::Datapath, 0, 7},
      {CircuitFamily::Controller, 0, 7}};
  const std::vector<net::NetworkProfile> networks = {
      net::NetworkProfile::localhost(), net::NetworkProfile::lan(),
      net::NetworkProfile::wan()};
  std::vector<net::FaultProfile> profiles = {net::FaultProfile::none()};
  for (const net::FaultProfile& p : net::FaultProfile::shipped()) {
    profiles.push_back(p);
  }
  for (const FamilySpec& f : families) {
    for (const net::NetworkProfile& n : networks) {
      for (const net::FaultProfile& p : profiles) {
        CellSpec c;
        c.family = f;
        c.network = n;
        c.chaos = p;
        c.chaosSeed = 11;
        c.patternCount = f.family == CircuitFamily::Controller ? 12 : 8;
        cells.push_back(c);
      }
    }
  }
  return cells;
}

std::vector<CellSpec> extraDimensionCells() {
  std::vector<CellSpec> cells;
  const FamilySpec cone{CircuitFamily::Cone, 0, 7};
  const FamilySpec datapath{CircuitFamily::Datapath, 0, 7};
  const FamilySpec controller{CircuitFamily::Controller, 0, 7};

  // Multi-provider composition under a lossy transport.
  for (const FamilySpec& f : {cone, datapath}) {
    CellSpec c;
    c.family = f;
    c.network = net::NetworkProfile::lan();
    c.chaos = net::FaultProfile::lossy();
    c.chaosSeed = 23;
    c.providers = 3;
    cells.push_back(c);
  }
  // Warm provider-side result store.
  for (const FamilySpec& f : {cone, datapath}) {
    CellSpec c;
    c.family = f;
    c.network = net::NetworkProfile::localhost();
    c.warmStore = true;
    cells.push_back(c);
  }
  // Mid-campaign provider restart (combinational only: a sequential
  // campaign's shadow-machine state cannot survive the provider crash).
  // Each crash lands on the second of the three blocks' batched table
  // fetches (the cone cell's drop profile retries one fault-list call).
  {
    CellSpec c;
    c.family = cone;
    c.network = net::NetworkProfile::lan();
    c.chaos = net::FaultProfile::drop();
    c.chaosSeed = 31;
    c.restartAfter = 10;
    cells.push_back(c);
    CellSpec d;
    d.family = datapath;
    d.network = net::NetworkProfile::localhost();
    d.restartAfter = 9;
    cells.push_back(d);
  }
  // A longer lossy Controller campaign (more cycles per shadow machine).
  {
    CellSpec c;
    c.family = controller;
    c.network = net::NetworkProfile::lan();
    c.chaos = net::FaultProfile::lossy();
    c.chaosSeed = 41;
    c.patternCount = 20;
    cells.push_back(c);
  }
  return cells;
}

}  // namespace vcad::matrix
