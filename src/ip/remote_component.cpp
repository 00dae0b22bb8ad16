#include "ip/remote_component.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/connector.hpp"

namespace vcad::ip {

using rmi::Args;
using rmi::MethodId;
using rmi::Request;
using rmi::Response;

// --- ProviderHandle ----------------------------------------------------

ProviderHandle::ProviderHandle(rmi::RmiChannel& channel) : channel_(&channel) {
  Request open;
  open.method = MethodId::OpenSession;
  Response resp = channel_->call(open);
  if (!resp.ok()) {
    throw std::runtime_error("ProviderHandle: OpenSession failed: " +
                             resp.error);
  }
  session_ = resp.payload.readU64();
}

Response ProviderHandle::callRaw(MethodId method, rmi::SessionId session,
                                 rmi::InstanceId instance, Args args,
                                 const std::string& component,
                                 std::uint64_t key) {
  Request req;
  req.session = session;
  req.instance = instance;
  req.method = method;
  req.component = component;
  req.args = std::move(args);
  req.idempotencyKey = key;
  return channel_->call(req);
}

rmi::InstanceId ProviderHandle::currentInstance(rmi::InstanceId instance) const {
  std::lock_guard<std::mutex> lock(recoveryMutex_);
  // Follow the remap chain: each recovery maps the then-current id to the
  // fresh one, and the provider never re-issues ids, so chains are acyclic.
  auto it = remap_.find(instance);
  while (it != remap_.end()) {
    instance = it->second;
    it = remap_.find(instance);
  }
  return instance;
}

Response ProviderHandle::call(MethodId method, rmi::InstanceId instance,
                              Args args, const std::string& component) {
  // One idempotency key for the whole logical call: every re-issue is a
  // retransmission the provider's replay cache recognizes, so a call that
  // executed — and billed — before its channel was declared dead is
  // answered from the cache, never run twice.
  const std::uint64_t key = channel_->makeKey();
  Response first = callRaw(method, session(), currentInstance(instance), args,
                           component, key);
  return recoverCall(method, instance, args, component, key, std::move(first));
}

Response ProviderHandle::recoverCall(MethodId method, rmi::InstanceId instance,
                                     const Args& args,
                                     const std::string& component,
                                     std::uint64_t key, Response resp) {
  constexpr int kRecoveryRounds = 4;
  for (int round = 0;; ++round) {
    if (!autoRecover_ || round >= kRecoveryRounds) return resp;
    if (resp.status == rmi::Status::TransportFailure) {
      // Retries exhausted. Re-issue with the same key; the channel resumes
      // the key's attempt numbering, so the deterministic fault schedule
      // advances instead of replaying the attempts that just failed.
    } else if (resp.status == rmi::Status::UnknownSession) {
      // Provider restarted underneath us: reopen a session, replay the
      // manifest, then retry this call against the recovered state.
      if (!recover()) return resp;
    } else {
      return resp;
    }
    resp = callRaw(method, session(), currentInstance(instance), args,
                   component, key);
  }
}

std::future<Response> ProviderHandle::callAsync(MethodId method,
                                                rmi::InstanceId instance,
                                                Args args) {
  // The first attempt runs on the channel's completion-queue pool. The
  // future's get() then finishes the call as call() does, with the same
  // key: a lost session or exhausted retries are recovered there, on the
  // caller's thread, so a provider restart while the call was in flight
  // costs a re-issue, not the answer.
  const std::uint64_t key = channel_->makeKey();
  Request req;
  req.session = session();
  req.instance = currentInstance(instance);
  req.method = method;
  req.args = args;
  req.idempotencyKey = key;
  std::future<Response> first = channel_->callAsync(std::move(req));
  return std::async(std::launch::deferred,
                    [this, method, instance, args = std::move(args), key,
                     first = std::move(first)]() mutable {
                      return recoverCall(method, instance, args, "", key,
                                         first.get());
                    });
}

ProviderHandle::RecoveryToken ProviderHandle::recordInstantiation(
    std::string component, std::uint64_t param, rmi::InstanceId instance,
    std::function<void(rmi::InstanceId)> rebind) {
  std::lock_guard<std::mutex> lock(recoveryMutex_);
  entries_.push_back(
      RecoveryEntry{SessionManifest::Entry{std::move(component), param, instance},
                    std::move(rebind), true});
  return entries_.size() - 1;
}

void ProviderHandle::forgetInstantiation(RecoveryToken token) {
  std::lock_guard<std::mutex> lock(recoveryMutex_);
  if (token < entries_.size()) {
    entries_[token].active = false;
    entries_[token].rebind = nullptr;
  }
}

SessionManifest ProviderHandle::manifest() const {
  std::lock_guard<std::mutex> lock(recoveryMutex_);
  SessionManifest m;
  for (const RecoveryEntry& e : entries_) {
    if (e.active) m.entries.push_back(e.entry);
  }
  return m;
}

bool ProviderHandle::recover() {
  std::lock_guard<std::mutex> lock(recoveryMutex_);
  // Probe first: a concurrent caller may have finished recovery while this
  // thread waited on the lock, and its fresh session must not be torn down.
  {
    Request probe;
    probe.method = MethodId::GetCatalog;
    probe.session = session();
    probe.idempotencyKey = channel_->makeKey();
    const Response alive = channel_->call(probe);
    if (alive.ok()) return true;
    if (alive.status != rmi::Status::UnknownSession) return false;
  }

  Request open;
  open.method = MethodId::OpenSession;
  open.idempotencyKey = channel_->makeKey();
  Response opened = channel_->call(open);
  if (!opened.ok()) return false;
  const rmi::SessionId fresh = opened.payload.readU64();

  // Replay the manifest in instantiation order, rebinding each holder. The
  // replayed Instantiate calls bill like the originals did — a restart loses
  // the provider's ledger, not the licensing terms.
  for (RecoveryEntry& e : entries_) {
    if (!e.active) continue;
    Args args;
    args.addU64(e.entry.param);
    Response resp = callRaw(MethodId::Instantiate, fresh, 0, std::move(args),
                            e.entry.component, channel_->makeKey());
    if (!resp.ok()) return false;
    const rmi::InstanceId fresherId = resp.payload.readU64();
    if (fresherId != e.entry.instance) {
      remap_[e.entry.instance] = fresherId;
    }
    e.entry.instance = fresherId;
    if (e.rebind) e.rebind(fresherId);
  }
  session_.store(fresh, std::memory_order_release);
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<IpComponentSpec> ProviderHandle::catalog() {
  Response resp = call(MethodId::GetCatalog, 0, Args{});
  if (!resp.ok()) {
    throw std::runtime_error("GetCatalog failed: " + resp.error);
  }
  const std::uint32_t n = resp.payload.readU32();
  std::vector<IpComponentSpec> specs;
  specs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    specs.push_back(IpComponentSpec::deserialize(resp.payload));
  }
  return specs;
}

// --- RemoteComponent ---------------------------------------------------

RemoteComponent::RemoteComponent(
    std::string name, ProviderHandle& provider,
    const std::string& componentName, std::uint64_t param,
    std::vector<std::pair<std::string, Connector*>> inputs,
    std::vector<std::pair<std::string, Connector*>> outputs, Config config,
    const rmi::Sandbox* sandbox)
    : Module(std::move(name)),
      provider_(&provider),
      config_(config),
      sandbox_(sandbox != nullptr ? sandbox : &defaultSandbox_) {
  for (auto& [portName, conn] : inputs) {
    if (conn == nullptr) throw std::invalid_argument("null input connector");
    inPorts_.push_back(&addInput(portName, *conn));
    inWidth_ += conn->width();
  }
  for (auto& [portName, conn] : outputs) {
    if (conn == nullptr) throw std::invalid_argument("null output connector");
    outPorts_.push_back(&addOutput(portName, *conn));
    outWidth_ += conn->width();
  }

  // Instantiate the parametric macro on the provider's side.
  Args args;
  args.addU64(param);
  Response resp = provider_->call(MethodId::Instantiate, 0, std::move(args),
                                  componentName);
  if (!resp.ok()) {
    throw std::runtime_error("RemoteComponent '" + this->name() +
                             "': instantiation failed: " + resp.error);
  }
  instance_ = resp.payload.readU64();
  recoveryToken_ = provider_->recordInstantiation(
      componentName, param, instance_,
      [this](rmi::InstanceId fresh) {
        instance_.store(fresh, std::memory_order_release);
      });

  // Download the public part (the loadable "bytecode"). An in-process
  // channel finds the source behind its loopback endpoint; across a socket
  // the client names its own source in the config.
  const PublicPartSource* src = config_.publicPartSource;
  if (src == nullptr) {
    src = dynamic_cast<PublicPartSource*>(
        provider.channel().endpointOrNull());
  }
  if (src != nullptr) {
    publicPart_ = src->downloadPublicPart(componentName, param);
  }
  if (config_.mode == RemoteMode::EstimatorRemote &&
      !publicPart_.hasFunctional()) {
    throw std::runtime_error(
        "RemoteComponent '" + this->name() +
        "': provider releases no local functional model; use FullyRemote");
  }
}

RemoteComponent::~RemoteComponent() {
  provider_->forgetInstantiation(recoveryToken_);
}

Word RemoteComponent::gatherInputs(const SimContext& ctx) const {
  Word w(inWidth_);
  int bit = 0;
  for (Port* p : inPorts_) {
    w.insert(bit, readInput(ctx, *p));
    bit += p->width();
  }
  return w;
}

void RemoteComponent::publicOutputs(std::span<const Word> inputs,
                                    std::span<Word> outputs) const {
  const auto fullyKnown = [](const Word& w) { return w.isFullyKnown(); };
  if (std::all_of(inputs.begin(), inputs.end(), fullyKnown)) {
    if (!inputs.empty()) publicPart_.functional(inputs, outputs, *sandbox_);
    return;
  }
  std::vector<Word> known;
  std::vector<std::size_t> knownAt;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (fullyKnown(inputs[i])) {
      known.push_back(inputs[i]);
      knownAt.push_back(i);
    } else {
      outputs[i] = Word::allX(outWidth_);
    }
  }
  if (known.empty()) return;
  std::vector<Word> results(known.size());
  publicPart_.functional(known, results, *sandbox_);
  for (std::size_t j = 0; j < knownAt.size(); ++j) {
    outputs[knownAt[j]] = std::move(results[j]);
  }
}

Word RemoteComponent::localFunction(const Word& inputs) const {
  Word outputs;
  publicOutputs({&inputs, 1}, {&outputs, 1});
  return outputs;
}

void RemoteComponent::emitOutputs(SimContext& ctx, const Word& outs) {
  int bit = 0;
  for (Port* p : outPorts_) {
    emit(ctx, *p, outs.slice(bit, p->width()));
    bit += p->width();
  }
}

void RemoteComponent::evaluate(std::size_t patterns, std::span<const Word> in,
                               std::span<Word> out) const {
  const std::size_t nIn = inPorts_.size();
  const std::size_t nOut = outPorts_.size();
  std::vector<Word> inputs(patterns, Word(inWidth_));
  for (std::size_t p = 0; p < patterns; ++p) {
    int bit = 0;
    for (std::size_t k = 0; k < nIn; ++k) {
      inputs[p].insert(bit, in[p * nIn + k]);
      bit += inPorts_[k]->width();
    }
  }
  std::vector<Word> outs(patterns);
  publicOutputs(inputs, outs);
  for (std::size_t p = 0; p < patterns; ++p) {
    int bit = 0;
    for (std::size_t k = 0; k < nOut; ++k) {
      out[p * nOut + k] = outs[p].slice(bit, outPorts_[k]->width());
      bit += outPorts_[k]->width();
    }
  }
}

void RemoteComponent::recordPattern(State& st, const Word& inputs) {
  if (!st.buffer) {
    st.buffer =
        std::make_unique<estim::PatternBuffer>(config_.patternBufferCapacity);
  }
  if (!st.buffer->push(inputs)) return;
  // Buffer full: ship the batch for accurate power estimation.
  Args args;
  args.addWordVector(st.buffer->flush());
  if (config_.nonblockingEstimation) {
    st.pending.push_back(
        provider_->callAsync(MethodId::EstimatePower, instance_,
                             std::move(args)));
  } else {
    harvest(st, provider_->call(MethodId::EstimatePower, instance_,
                                std::move(args)));
  }
}

void RemoteComponent::harvest(State& st, Response resp) {
  if (!resp.ok()) {
    ++remoteErrors_;
    return;
  }
  const double mw = resp.payload.readDouble();
  const double billed = static_cast<double>(resp.payload.readU64());
  const double weight = billed > 1 ? billed - 1 : 0;  // transitions
  st.powerWeightedSum += mw * weight;
  st.powerWeight += weight;
}

void RemoteComponent::processInputEvent(const SignalToken&, SimContext& ctx) {
  State& st = state<State>(ctx);
  if (st.evalPending) return;
  st.evalPending = true;
  selfSchedule(ctx, 0);
}

void RemoteComponent::processSelfEvent(const SelfToken&, SimContext& ctx) {
  State& st = state<State>(ctx);
  st.evalPending = false;
  const Word inputs = gatherInputs(ctx);

  if (config_.mode == RemoteMode::FullyRemote) {
    // Argument marshalling at each event handling: ship the inputs, run the
    // accurate model remotely, unmarshal the outputs. The provider records
    // the pattern history (remote buffering).
    Args args;
    args.addWord(inputs);
    Response resp =
        provider_->call(MethodId::EvalFunction, instance_, std::move(args));
    if (!resp.ok()) {
      ++remoteErrors_;
      emitOutputs(ctx, Word::allX(outWidth_));
      return;
    }
    emitOutputs(ctx, resp.payload.readWord());
    return;
  }

  // EstimatorRemote: public part computes functionality locally.
  if (config_.collectPower) recordPattern(st, inputs);
  emitOutputs(ctx, localFunction(inputs));
}

std::optional<double> RemoteComponent::finishPowerEstimation(
    const SimContext& ctx) {
  State& st = state<State>(ctx);
  if (config_.mode == RemoteMode::FullyRemote) {
    // Patterns were buffered remotely by eval(); one final call estimates
    // over the recorded history.
    Args args;
    args.addWordVector({});
    Response resp =
        provider_->call(MethodId::EstimatePower, instance_, std::move(args));
    if (!resp.ok()) {
      ++remoteErrors_;
      return std::nullopt;
    }
    return resp.payload.readDouble();
  }
  if (st.buffer && !st.buffer->empty()) {
    Args args;
    args.addWordVector(st.buffer->flush());
    harvest(st, provider_->call(MethodId::EstimatePower, instance_,
                                std::move(args)));
  }
  for (auto& f : st.pending) harvest(st, f.get());
  st.pending.clear();
  if (st.powerWeight <= 0) return std::nullopt;
  return st.powerWeightedSum / st.powerWeight;
}

// --- RemoteFaultClient -------------------------------------------------

RemoteFaultClient::RemoteFaultClient(RemoteComponent& component)
    : component_(component) {}

std::vector<std::string> RemoteFaultClient::faultList() {
  Response resp = component_.provider().call(
      MethodId::GetFaultList, component_.instanceId(), Args{});
  if (!resp.ok()) {
    throw std::runtime_error("GetFaultList failed: " + resp.error);
  }
  noteVersion(resp.version);
  const std::uint32_t n = resp.payload.readU32();
  std::vector<std::string> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(resp.payload.readString());
  return out;
}

std::vector<cache::Value> RemoteFaultClient::fetchTables(
    const std::vector<Word>& inputs, bool batched) {
  if (inputs.empty()) return {};
  const MethodId method =
      batched ? MethodId::GetDetectionTables : MethodId::GetDetectionTable;
  Args args;
  if (batched) {
    args.addWordVector(inputs);
  } else {
    args.addWord(inputs.front());
  }
  Response resp = component_.provider().call(method, component_.instanceId(),
                                             std::move(args));
  if (!resp.ok()) {
    throw std::runtime_error(rmi::toString(method) + " failed: " + resp.error);
  }
  noteVersion(resp.version);
  const std::uint32_t n = batched ? resp.payload.readU32() : 1;
  if (n != inputs.size()) {
    throw std::runtime_error(
        "GetDetectionTables: provider returned " + std::to_string(n) +
        " tables for " + std::to_string(inputs.size()) + " configurations");
  }
  return resp.payload.readWith([n](net::ByteReader& in) {
    std::vector<cache::Value> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      out.push_back(fault::DetectionTable::readBytes(in));
    }
    return out;
  });
}

fault::DetectionTable RemoteFaultClient::detectionTable(const Word& inputs) {
  return fault::DetectionTable::fromBytes(*fetchTables({inputs}, false)[0]);
}

std::vector<fault::DetectionTable> RemoteFaultClient::detectionTables(
    const std::vector<Word>& inputs) {
  std::vector<fault::DetectionTable> out;
  out.reserve(inputs.size());
  for (const cache::Value& bytes : fetchTables(inputs, true)) {
    out.push_back(fault::DetectionTable::fromBytes(*bytes));
  }
  return out;
}

std::vector<cache::Value> RemoteFaultClient::serializedTables(
    const std::vector<Word>& inputs) {
  return fetchTables(inputs, inputs.size() != 1);
}

// --- RemoteSeqFaultClient ------------------------------------------------

RemoteSeqFaultClient::RemoteSeqFaultClient(ProviderHandle& provider,
                                           const std::string& componentName,
                                           std::uint64_t param)
    : provider_(&provider) {
  Args args;
  args.addU64(param);
  Response resp = provider_->call(MethodId::Instantiate, 0, std::move(args),
                                  componentName);
  if (!resp.ok()) {
    throw std::runtime_error("RemoteSeqFaultClient: instantiation failed: " +
                             resp.error);
  }
  instance_ = resp.payload.readU64();
  // Recovery restores the instantiation, not the shadow machines' state: a
  // sequential campaign interrupted by a restart must re-reset its machines.
  recoveryToken_ = provider_->recordInstantiation(
      componentName, param, instance_,
      [this](rmi::InstanceId fresh) {
        instance_.store(fresh, std::memory_order_release);
      });
}

RemoteSeqFaultClient::~RemoteSeqFaultClient() {
  provider_->forgetInstantiation(recoveryToken_);
}

std::vector<std::string> RemoteSeqFaultClient::faultList() {
  Response resp = provider_->call(MethodId::GetFaultList, instance_, Args{});
  if (!resp.ok()) {
    throw std::runtime_error("GetFaultList failed: " + resp.error);
  }
  const std::uint32_t n = resp.payload.readU32();
  std::vector<std::string> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(resp.payload.readString());
  return out;
}

void RemoteSeqFaultClient::reset(const std::string& symbol) {
  Args args;
  args.addString(symbol);
  Response resp = provider_->call(MethodId::SeqReset, instance_, std::move(args));
  if (!resp.ok()) {
    throw std::runtime_error("SeqReset failed: " + resp.error);
  }
}

Word RemoteSeqFaultClient::step(const std::string& symbol, const Word& inputs) {
  Args args;
  args.addString(symbol);
  args.addWord(inputs);
  Response resp = provider_->call(MethodId::SeqStep, instance_, std::move(args));
  if (!resp.ok()) {
    throw std::runtime_error("SeqStep failed: " + resp.error);
  }
  return resp.payload.readWord();
}

void RemoteSeqFaultClient::resetGood() { reset(""); }

Word RemoteSeqFaultClient::stepGood(const Word& inputs) {
  return step("", inputs);
}

void RemoteSeqFaultClient::resetFaulty(const std::string& symbol) {
  reset(symbol);
}

Word RemoteSeqFaultClient::stepFaulty(const std::string& symbol,
                                      const Word& inputs) {
  return step(symbol, inputs);
}

// --- RemotePowerEstimator ------------------------------------------------

RemotePowerEstimator::RemotePowerEstimator(RemoteComponent& component,
                                           double costPerPatternCents)
    : Estimator(EstimatorInfo{"gate-level-toggle", 10.0, costPerPatternCents,
                              1e-4, true, true}),
      component_(component) {}

std::unique_ptr<ParamValue> RemotePowerEstimator::estimate(
    const EstimationContext& ctx) {
  if (ctx.patternHistory == nullptr || ctx.patternHistory->size() < 2) {
    return std::make_unique<NullValue>();
  }
  Args args;
  args.addWordVector(*ctx.patternHistory);
  Response resp = component_.provider().call(
      MethodId::EstimatePower, component_.instanceId(), std::move(args));
  if (!resp.ok()) return std::make_unique<NullValue>();
  return std::make_unique<ScalarValue>(resp.payload.readDouble(), "mW");
}

// --- attachSpecEstimators --------------------------------------------------

void attachSpecEstimators(Module& module, const IpComponentSpec& spec,
                          RemoteComponent* remote) {
  if (spec.power >= ModelLevel::Static) {
    module.addEstimator(ParamKind::AvgPower,
                        std::make_shared<estim::ConstantEstimator>(
                            "constant", spec.staticPowerMw, "mW", 25.0));
    if (spec.hasLinearPowerModel) {
      module.addEstimator(
          ParamKind::AvgPower,
          std::make_shared<estim::LinearRegressionPowerEstimator>(
              spec.linearPower));
    }
  }
  if (spec.power >= ModelLevel::Dynamic && remote != nullptr) {
    module.addEstimator(ParamKind::AvgPower,
                        std::make_shared<RemotePowerEstimator>(
                            *remote, spec.fees.perPowerPatternCents));
  }
  if (spec.area >= ModelLevel::Static) {
    module.addEstimator(ParamKind::Area,
                        std::make_shared<estim::ConstantEstimator>(
                            "datasheet-area", spec.staticAreaUm2, "um2", 15.0));
  }
  if (spec.timing >= ModelLevel::Static) {
    module.addEstimator(ParamKind::Delay,
                        std::make_shared<estim::ConstantEstimator>(
                            "datasheet-timing", spec.staticTimingNs, "ns", 20.0));
  }
}

}  // namespace vcad::ip
