#include "ip/provider_server.hpp"

#include <cstdio>
#include <stdexcept>

#include "fault/table_cache.hpp"
#include "ip/negotiation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vcad::ip {

using rmi::MethodId;
using rmi::Request;
using rmi::Response;
using rmi::Status;

ProviderServer::ProviderServer(std::string hostName, LogSink* log,
                               gate::TechParams tech)
    : hostName_(std::move(hostName)), log_(log), tech_(tech) {
  auto empty = std::make_unique<Catalog>();
  catalog_.store(empty.get(), std::memory_order_release);
  catalogVersions_.push_back(std::move(empty));
}

void ProviderServer::registerComponent(IpComponentSpec spec,
                                       NetlistFactory netlistFactory,
                                       PublicPartFactory publicPartFactory) {
  if (!netlistFactory) {
    throw std::invalid_argument("registerComponent: null netlist factory");
  }
  std::lock_guard<std::mutex> lock(registerMutex_);
  auto next = std::make_unique<Catalog>(catalog());
  const std::string name = spec.name;
  (*next)[name] = Registration{std::move(spec), std::move(netlistFactory),
                               nullptr, std::move(publicPartFactory)};
  const Catalog* published = next.get();
  catalogVersions_.push_back(std::move(next));
  catalog_.store(published, std::memory_order_release);
}

void ProviderServer::registerSequentialComponent(IpComponentSpec spec,
                                                 SeqFactory factory) {
  if (!factory) {
    throw std::invalid_argument(
        "registerSequentialComponent: null machine factory");
  }
  std::lock_guard<std::mutex> lock(registerMutex_);
  auto next = std::make_unique<Catalog>(catalog());
  const std::string name = spec.name;
  (*next)[name] =
      Registration{std::move(spec), nullptr, std::move(factory), nullptr};
  const Catalog* published = next.get();
  catalogVersions_.push_back(std::move(next));
  catalog_.store(published, std::memory_order_release);
}

void ProviderServer::setResultStore(std::shared_ptr<cache::ResultStore> store,
                                    std::uint64_t ns) {
  std::lock_guard<std::mutex> lock(storeMutex_);
  resultStore_ = std::move(store);
  storeNamespace_ = ns;
}

std::shared_ptr<cache::ResultStore> ProviderServer::resultStore() const {
  std::lock_guard<std::mutex> lock(storeMutex_);
  return resultStore_;
}

const IpComponentSpec* ProviderServer::findSpec(
    const std::string& component) const {
  const Catalog& cat = catalog();
  auto it = cat.find(component);
  // Pointers into a snapshot stay valid: retired snapshots live until the
  // server dies (catalogVersions_), and re-registration replaces the
  // snapshot, never the old Registration in place.
  return it == cat.end() ? nullptr : &it->second.spec;
}

PublicPart ProviderServer::downloadPublicPart(const std::string& component,
                                              std::uint64_t param) const {
  const Catalog& cat = catalog();
  auto it = cat.find(component);
  if (it == cat.end()) {
    throw std::invalid_argument("no such component: " + component);
  }
  if (it->second.spec.functional == ModelLevel::None ||
      !it->second.publicPartFactory) {
    return PublicPart{};  // provider releases no local functional model
  }
  return it->second.publicPartFactory(param);
}

double ProviderServer::sessionFeesCents(rmi::SessionId session) const {
  std::shared_ptr<Session> sess = findSession(session);
  if (sess == nullptr) return 0.0;
  std::lock_guard<std::mutex> lock(sess->ledgerMutex);
  return sess->feesCents;
}

std::size_t ProviderServer::liveInstanceCount() const {
  std::shared_lock<std::shared_mutex> lock(stateMutex_);
  return instances_.size();
}

const PrivateComponent* ProviderServer::instanceForTesting(
    rmi::InstanceId id) const {
  std::shared_lock<std::shared_mutex> lock(stateMutex_);
  auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : it->second->impl.get();
}

Response ProviderServer::dispatch(const Request& request) {
  // Provider-side span: adopting the request's span-context id emits the
  // flow-finish that stitches this dispatch under the client channel's span
  // — one cross-domain trace per logical call.
  obs::SpanScope span(obs::Tracer::global(), "provider.dispatch", "provider",
                      request.spanContext);
  if (span.active()) {
    span.arg("method", static_cast<double>(
                           static_cast<std::uint32_t>(request.method)));
  }
  {
    static const obs::Registry::MetricId dispatches =
        obs::Registry::global().counter("provider.dispatches");
    obs::Registry::global().add(dispatches);
  }
  // In-flight accounting: per-shard atomic (inflightDispatches()) plus a
  // process-wide high-water gauge. Decremented on every exit path.
  const int depth = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  int peak = peakInflight_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !peakInflight_.compare_exchange_weak(peak, depth,
                                              std::memory_order_acq_rel)) {
  }
  {
    static const obs::Registry::MetricId inflightGauge =
        obs::Registry::global().gauge("provider.inflight");
    obs::Registry::global().maxGauge(inflightGauge, depth);
  }
  struct InflightGuard {
    std::atomic<int>& count;
    ~InflightGuard() { count.fetch_sub(1, std::memory_order_acq_rel); }
  } guard{inflight_};
  try {
    Response response = handle(request);
    if (span.active()) {
      span.arg("status", static_cast<double>(
                             static_cast<std::uint8_t>(response.status)));
      span.arg("feeCents", response.feeCents);
      span.arg("replayed", response.replayed ? 1.0 : 0.0);
    }
    return response;
  } catch (const std::exception& e) {
    if (log_ != nullptr) {
      log_->error("provider '" + hostName_ + "': " + e.what());
    }
    if (span.active()) span.arg("exception", 1.0);
    return Response::failure(Status::Error, e.what());
  }
}

void ProviderServer::restart() {
  {
    std::unique_lock<std::shared_mutex> lock(stateMutex_);
    // In-flight handlers keep their Session/Instance objects alive through
    // the shared_ptrs they copied before we got the exclusive lock; they
    // complete into orphaned ledgers that die with the last reference.
    sessions_.clear();
    instances_.clear();
  }
  {
    // In-flight OpenSession claims survive through their slot shared_ptrs;
    // fulfillClaim tolerates the missing map entry and still wakes waiters.
    std::lock_guard<std::mutex> lock(openReplay_.mutex);
    openReplay_.entries.clear();
  }
  // The id counters deliberately survive: a pre-restart session/instance id
  // must never be re-issued, or a client holding a stale id would silently
  // address (and bill) a stranger's post-restart session instead of
  // receiving the UnknownSession that triggers its recovery.
  if (log_ != nullptr) {
    log_->warning("provider '" + hostName_ +
                  "': restarted (all sessions and instances lost)");
  }
}

void ProviderServer::charge(Session& session, rmi::MethodId method,
                            double cents, Response& response) {
  {
    std::lock_guard<std::mutex> lock(session.ledgerMutex);
    session.feesCents += cents;
    ChargeItem& item = session.items[method];
    ++item.calls;
    item.cents += cents;
  }
  response.feeCents = cents;
  static const obs::Registry::MetricId feesCents =
      obs::Registry::global().doubleCounter("provider.feesCents");
  static const obs::Registry::MetricId charges =
      obs::Registry::global().counter("provider.charges");
  obs::Registry::global().addDouble(feesCents, cents);
  obs::Registry::global().add(charges);
}

std::shared_ptr<ProviderServer::Session> ProviderServer::findSession(
    rmi::SessionId id) const {
  std::shared_lock<std::shared_mutex> lock(stateMutex_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::shared_ptr<ProviderServer::Instance> ProviderServer::findInstance(
    rmi::InstanceId id, rmi::SessionId session) const {
  std::shared_lock<std::shared_mutex> lock(stateMutex_);
  auto it = instances_.find(id);
  if (it == instances_.end()) return nullptr;
  // Instances are private to the session that created them.
  if (it->second->session != session) return nullptr;
  return it->second;
}

ProviderServer::Claim ProviderServer::claimReplay(ReplayLedger& ledger,
                                                  std::uint64_t key) {
  Claim claim;
  claim.ledger = &ledger;
  claim.key = key;
  std::unique_lock<std::mutex> lock(ledger.mutex);
  auto [it, inserted] = ledger.entries.try_emplace(key);
  if (inserted) {
    it->second = std::make_shared<ReplayEntry>();
    claim.slot = it->second;
    return claim;  // we own the in-flight claim: execute, then fulfill
  }
  // Someone executed (or is executing) this key. Wait for the response —
  // the slot shared_ptr stays valid even if the entry is erased meanwhile
  // (uncached outcome or a racing restart()).
  ReplaySlot slot = it->second;
  ledger.cv.wait(lock, [&] { return slot->done; });
  claim.hit = true;
  claim.ready = slot->response;
  claim.ready.replayed = true;
  return claim;
}

void ProviderServer::fulfillClaim(Claim& claim, const Response& response,
                                  bool cache) {
  ReplayLedger& ledger = *claim.ledger;
  {
    std::lock_guard<std::mutex> lock(ledger.mutex);
    claim.slot->response = response;
    claim.slot->response.replayed = false;
    claim.slot->done = true;
    if (!cache) {
      // Wake waiters with the response but drop the entry: a *later* retry
      // of an uncached outcome re-executes, exactly as serial dispatch
      // behaved. Compare slots so we never erase a successor entry.
      auto it = ledger.entries.find(claim.key);
      if (it != ledger.entries.end() && it->second == claim.slot) {
        ledger.entries.erase(it);
      }
    }
  }
  ledger.cv.notify_all();
  claim.slot.reset();
}

Response ProviderServer::openSession(const Request& request) {
  // Deduplicate retried OpenSessions (no session exists yet to anchor the
  // replay cache, so these live in a provider-global ledger). The claim is
  // taken *before* creating the session, so two concurrent retransmissions
  // cannot leak two sessions.
  Claim claim;
  if (request.idempotencyKey != 0) {
    claim = claimReplay(openReplay_, request.idempotencyKey);
    if (claim.hit) return claim.ready;
  }
  const rmi::SessionId id =
      nextSession_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock<std::shared_mutex> lock(stateMutex_);
    sessions_.emplace(id, std::make_shared<Session>());
  }
  Response resp;
  resp.payload.writeU64(id);
  if (claim.owned()) fulfillClaim(claim, resp, /*cache=*/true);
  return resp;
}

Response ProviderServer::handle(const Request& request) {
  if (request.method == MethodId::OpenSession) {
    return openSession(request);
  }

  std::shared_ptr<Session> session = findSession(request.session);
  if (session == nullptr) {
    if (request.method == MethodId::CloseSession) {
      return Response{};  // idempotent: closing a lost session is a no-op
    }
    return Response::failure(Status::UnknownSession, "unknown session");
  }

  // Replay dedupe: a retransmitted non-idempotent call (client retry after
  // a lost response, a transport duplicate, or a *concurrent* duplicate
  // frame) must never double-execute or double-bill. Claiming the key
  // before executing makes a concurrent duplicate wait for — and receive —
  // the first execution's response.
  const bool cacheable =
      request.idempotencyKey != 0 && rmi::isNonIdempotent(request.method);
  if (!cacheable) {
    bool ignored = false;
    return execute(request, session, ignored);
  }

  Claim claim = claimReplay(session->replay, request.idempotencyKey);
  if (claim.hit) return claim.ready;
  bool cache = false;
  try {
    Response resp = execute(request, session, cache);
    fulfillClaim(claim, resp, cache);
    return resp;
  } catch (...) {
    // Waiters must not hang on a claim whose execution threw: publish an
    // uncached failure (a later retry re-executes) and let dispatch()
    // report the exception.
    fulfillClaim(claim, Response::failure(Status::Error, "execution failed"),
                 /*cache=*/false);
    throw;
  }
}

Response ProviderServer::instantiate(const Request& request,
                                     const std::shared_ptr<Session>& session) {
  const Catalog& cat = catalog();
  auto it = cat.find(request.component);
  if (it == cat.end()) {
    return Response::failure(Status::NotFound,
                             "unknown component '" + request.component + "'");
  }
  rmi::Args args = request.args;
  const std::uint64_t param = args.takeU64();
  const IpComponentSpec& spec = it->second.spec;
  if (param < static_cast<std::uint64_t>(spec.minWidth) ||
      param > static_cast<std::uint64_t>(spec.maxWidth)) {
    return Response::failure(Status::Error,
                             "parameter " + std::to_string(param) +
                                 " outside [" + std::to_string(spec.minWidth) +
                                 ", " + std::to_string(spec.maxWidth) + "]");
  }
  // Build the private implementation OUTSIDE every lock: fault collapsing
  // and packed-plane compilation are the expensive part of instantiation,
  // and other sessions' dispatches must not stall behind them.
  auto inst = std::make_shared<Instance>();
  inst->component = request.component;
  inst->session = request.session;
  if (it->second.seqFactory) {
    inst->seqImpl =
        std::make_unique<SeqPrivateComponent>(it->second.seqFactory(param));
  } else {
    std::shared_ptr<const gate::Netlist> nl = it->second.netlistFactory(param);
    // The netlist-version digest addresses this instance's results in the
    // store and rides every response (`Response::version`); a provider
    // restarted with an unchanged netlist re-derives the same digest.
    inst->digest = cache::netlistDigest(*nl);
    inst->impl = std::make_unique<PrivateComponent>(std::move(nl), tech_,
                                                    /*dominance=*/true,
                                                    computeScale_);
  }
  const rmi::InstanceId id =
      nextInstance_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock<std::shared_mutex> lock(stateMutex_);
    auto sit = sessions_.find(request.session);
    if (sit == sessions_.end() || sit->second != session) {
      // restart() raced with the build: don't leak an instance into a map
      // whose owning session is gone. The client re-runs recovery.
      return Response::failure(Status::UnknownSession, "unknown session");
    }
    instances_.emplace(id, std::move(inst));
  }
  Response resp;
  resp.payload.writeU64(id);
  charge(*session, MethodId::Instantiate, spec.fees.instantiateCents, resp);
  if (log_ != nullptr) {
    log_->info("provider '" + hostName_ + "': instantiated " +
               request.component + "(" + std::to_string(param) +
               ") as instance " + std::to_string(id));
  }
  return resp;
}

ProviderServer::StoreView ProviderServer::storeFor(const Instance& inst) const {
  StoreView view;
  if (inst.digest == 0) return view;
  std::lock_guard<std::mutex> lock(storeMutex_);
  view.store = resultStore_;
  view.ns = storeNamespace_;
  return view;
}

Response ProviderServer::execute(const Request& request,
                                 const std::shared_ptr<Session>& session,
                                 bool& cache) {
  switch (request.method) {
    case MethodId::CloseSession: {
      // Instances owned by the session die with it.
      std::unique_lock<std::shared_mutex> lock(stateMutex_);
      for (auto it = instances_.begin(); it != instances_.end();) {
        if (it->second->session == request.session) {
          it = instances_.erase(it);
        } else {
          ++it;
        }
      }
      return Response{};
    }
    case MethodId::GetCatalog: {
      const Catalog& cat = catalog();
      Response resp;
      resp.payload.writeU32(static_cast<std::uint32_t>(cat.size()));
      for (const auto& [name, reg] : cat) {
        reg.spec.serialize(resp.payload);
      }
      return resp;
    }
    case MethodId::Instantiate:
      // Every Instantiate outcome is cached — including its failures — so a
      // retried Instantiate can never build (and bill) twice.
      cache = true;
      return instantiate(request, session);
    default:
      break;
  }

  // Remaining methods operate on an instance.
  std::shared_ptr<Instance> inst =
      findInstance(request.instance, request.session);
  if (inst == nullptr) {
    return Response::failure(Status::NotFound, "unknown instance");
  }
  const IpComponentSpec& spec = catalog().at(inst->component).spec;
  rmi::Args args = request.args;

  // Interactive estimator negotiation (applies to any instance kind).
  // Pure function of the spec — no instance state, no execMutex.
  if (request.method == MethodId::Negotiate) {
    const auto kind = static_cast<ParamKind>(args.takeU64());
    const double maxCost = args.takeDouble();
    const double maxError = args.takeDouble();
    const NegotiationResult res =
        resolveNegotiation(spec, kind, maxCost, maxError);
    Response resp;
    switch (res.outcome) {
      case NegotiationResult::Outcome::Accepted:
        res.offer.serialize(resp.payload);
        return resp;
      case NegotiationResult::Outcome::CounterOffer:
        resp.status = Status::PaymentRequired;
        resp.error = "accuracy achievable only above the stated fee budget";
        res.offer.serialize(resp.payload);
        return resp;
      case NegotiationResult::Outcome::Unavailable:
        return Response::failure(Status::NotFound,
                                 "no model meets the accuracy bound for " +
                                     vcad::toString(kind));
    }
  }

  // Sequential-extension methods and the shared fault list.
  if (request.method == MethodId::SeqReset ||
      request.method == MethodId::SeqStep) {
    if (inst->seqImpl == nullptr) {
      return Response::failure(Status::Error,
                               inst->component + " is not sequential");
    }
    if (spec.testability < ModelLevel::Dynamic) {
      return Response::failure(
          Status::Error, "no testability model for " + inst->component);
    }
    const std::string symbol = args.takeString();
    if (request.method == MethodId::SeqReset) {
      std::lock_guard<std::mutex> exec(inst->execMutex);
      inst->seqImpl->reset(symbol);
      cache = true;
      return Response{};
    }
    Response resp;
    {
      const Word inputs = args.takeWord();
      std::lock_guard<std::mutex> exec(inst->execMutex);
      resp.payload.writeWord(inst->seqImpl->step(symbol, inputs));
    }
    charge(*session, MethodId::SeqStep, spec.fees.perEvalCents, resp);
    cache = true;
    return resp;
  }
  if (request.method == MethodId::GetFaultList && inst->seqImpl != nullptr) {
    if (spec.testability < ModelLevel::Static) {
      return Response::failure(
          Status::Error, "no testability model for " + inst->component);
    }
    std::lock_guard<std::mutex> exec(inst->execMutex);
    const auto faults = inst->seqImpl->faultList();
    Response resp;
    resp.payload.writeU32(static_cast<std::uint32_t>(faults.size()));
    for (const std::string& f : faults) resp.payload.writeString(f);
    return resp;
  }
  if (inst->impl == nullptr) {
    return Response::failure(Status::Error,
                             inst->component + " is a sequential component");
  }

  switch (request.method) {
    case MethodId::EvalFunction: {
      const Word inputs = args.takeWord();
      Response resp;
      {
        std::lock_guard<std::mutex> exec(inst->execMutex);
        resp.payload.writeWord(inst->impl->eval(inputs));
      }
      charge(*session, MethodId::EvalFunction, spec.fees.perEvalCents, resp);
      cache = true;
      return resp;
    }
    case MethodId::EstimatePower: {
      if (spec.power < ModelLevel::Dynamic) {
        return Response::failure(
            Status::Error, "no dynamic power model for " + inst->component);
      }
      const std::vector<Word> patterns = args.takeWordVector();
      std::size_t billed = 0;
      Response resp;
      {
        std::lock_guard<std::mutex> exec(inst->execMutex);
        const double mw = inst->impl->powerMw(patterns, billed);
        resp.payload.writeDouble(mw);
        resp.payload.writeU64(billed);
      }
      charge(*session, MethodId::EstimatePower,
             spec.fees.perPowerPatternCents * static_cast<double>(billed),
             resp);
      cache = true;
      return resp;
    }
    case MethodId::EstimateTiming: {
      if (spec.timing < ModelLevel::Dynamic) {
        return Response::failure(
            Status::Error, "no dynamic timing model for " + inst->component);
      }
      Response resp;
      {
        std::lock_guard<std::mutex> exec(inst->execMutex);
        resp.payload.writeDouble(inst->impl->timingNs());
      }
      charge(*session, MethodId::EstimateTiming, spec.fees.perTimingQueryCents,
             resp);
      cache = true;
      return resp;
    }
    case MethodId::EstimateArea: {
      if (spec.area < ModelLevel::Dynamic) {
        return Response::failure(Status::Error,
                                 "no dynamic area model for " +
                                     inst->component);
      }
      Response resp;
      {
        std::lock_guard<std::mutex> exec(inst->execMutex);
        resp.payload.writeDouble(inst->impl->areaUm2());
      }
      charge(*session, MethodId::EstimateArea, spec.fees.perAreaQueryCents,
             resp);
      cache = true;
      return resp;
    }
    case MethodId::GetFaultList: {
      if (spec.testability < ModelLevel::Static) {
        return Response::failure(
            Status::Error, "no testability model for " + inst->component);
      }
      std::lock_guard<std::mutex> exec(inst->execMutex);
      const auto faults = inst->impl->faultList();
      Response resp;
      resp.version = inst->digest;
      resp.payload.writeU32(static_cast<std::uint32_t>(faults.size()));
      for (const std::string& f : faults) resp.payload.writeString(f);
      return resp;
    }
    case MethodId::GetDetectionTable:
    case MethodId::GetDetectionTables: {
      if (spec.testability < ModelLevel::Dynamic) {
        return Response::failure(
            Status::Error,
            "no dynamic testability model for " + inst->component);
      }
      // One table per input configuration. The store holds one entry per
      // configuration under the single-table key, so either method hits
      // whatever the other (or a client view) wrote; only the misses are
      // built, in one packed bit-parallel sweep (64 configurations per
      // fault pass). The batched form answers any number of configurations
      // in one message pair; its fees are identical to the per-table
      // method's — batching saves round trips, not licensing cost — and a
      // warm hit charges exactly the same: the fee licenses the detection
      // data, not the provider's CPU.
      const bool batched = request.method == MethodId::GetDetectionTables;
      const std::vector<Word> configs =
          batched ? args.takeWordVector() : std::vector<Word>{args.takeWord()};
      const StoreView view = storeFor(*inst);
      bool built = false;
      const std::vector<cache::Value> tables = fault::fetchOrBuildTables(
          view.store.get(), inst->digest, view.ns, configs,
          [&](const std::vector<Word>& missing) {
            built = true;
            std::lock_guard<std::mutex> exec(inst->execMutex);
            return inst->impl->serializedTables(missing);
          });
      // Request order, each table's bytes as a cold build serializes them;
      // the batched payload leads with the table count. Assembled once,
      // with the headroom that lets the front end marshal and seal it in
      // place.
      std::size_t size = batched ? 4 : 0;
      for (const cache::Value& t : tables) size += t->size();
      Response resp;
      resp.payload.reserve(size + Response::kHeadroom);
      if (batched) {
        resp.payload.writeU32(static_cast<std::uint32_t>(configs.size()));
      }
      for (const cache::Value& t : tables) resp.payload.append(*t);
      resp.version = inst->digest;
      resp.cached = !configs.empty() && !built;
      charge(*session, request.method,
             spec.fees.perDetectionTableCents *
                 static_cast<double>(configs.size()),
             resp);
      cache = true;
      return resp;
    }
    default:
      return Response::failure(Status::Error, "unsupported method");
  }
}

ProviderServer::Invoice ProviderServer::invoice(rmi::SessionId session) const {
  Invoice inv;
  inv.session = session;
  std::shared_ptr<Session> sess = findSession(session);
  if (sess == nullptr) return inv;
  std::lock_guard<std::mutex> lock(sess->ledgerMutex);
  for (const auto& [method, item] : sess->items) {
    inv.items.push_back(Invoice::Item{method, item.calls, item.cents});
  }
  inv.totalCents = sess->feesCents;
  return inv;
}

std::string ProviderServer::Invoice::render() const {
  std::string out = "invoice for session " + std::to_string(session) + "\n";
  char line[128];
  for (const Item& item : items) {
    std::snprintf(line, sizeof(line), "  %-18s x%-6llu %10.2f cents\n",
                  rmi::toString(item.method).c_str(),
                  static_cast<unsigned long long>(item.calls), item.cents);
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-18s         %10.2f cents\n", "TOTAL",
                totalCents);
  out += line;
  return out;
}

}  // namespace vcad::ip
