// ProviderServer: one IP provider's server — a component catalog, the
// private parts of instantiated components, session management, and a fee
// ledger. Implements the RMI ServerEndpoint so clients reach it only
// through the (filtered, byte-accurate, latency-charged) channel.
//
// Parametric design macros: a component is registered with a netlist
// *factory*, so the user can pass parameters (e.g. the word width) in the
// component constructor and the provider builds the matching implementation
// on its side — the Figure 2 "MultFastLowPower(width, ...)" behaviour.
//
// Concurrency: dispatch() is fully thread-safe and *read-mostly parallel* —
// frames for different instances execute concurrently (the multi-tenant
// front end's worker pool feeds one shard from many workers). The lock
// hierarchy, ordered coarse-to-fine and never taken upward:
//
//   catalog   — immutable after registration: reads are lock-free against
//               a copy-on-write snapshot (registerComponent swaps it).
//   sessions/instances map (stateMutex_, a shared_mutex) — taken *shared*
//               on the hot path just long enough to copy a shared_ptr;
//               taken exclusive only for brief map mutations (open/close
//               session, instantiate insert, restart). Never held across
//               compute.
//   instance  — each Instance owns an execution mutex serializing compute
//               on its stateful evaluators; distinct instances never
//               contend.
//   ledger    — each Session's fee ledger and replay cache have their own
//               fine-grained locks.
//
// Replay dedupe is an *in-flight claim*: the replay cache atomically claims
// an idempotency key before executing, so a concurrent duplicate frame
// waits for (and receives) the first execution's response instead of
// executing — and billing — twice. See ReplayLedger below.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "cache/result_store.hpp"
#include "core/log.hpp"
#include "ip/catalog.hpp"
#include "ip/private_component.hpp"
#include "ip/seq_private.hpp"
#include "rmi/channel.hpp"
#include "rmi/security.hpp"

namespace vcad::ip {

/// The public part of a component: the "loadable bytecode" the user
/// downloads and runs locally. `functional` implements the component's
/// abstract behaviour over a batch (empty when the provider releases no
/// local functional model): outputs[i] gets the output word for
/// inputs[i], the two spans have equal length, and every input word is
/// fully known. RemoteComponent hands it only fully-known words, compacted,
/// and answers every other pattern with all-X itself, so a public part
/// never sees an X or Z bit. A golden-run batch arrives in one call; the
/// event path (injections, event-driven golden runs) calls it with one
/// word. It receives the sandbox so privileged operations are policed.
struct PublicPart {
  std::function<void(std::span<const Word> inputs, std::span<Word> outputs,
                     const rmi::Sandbox& sandbox)>
      functional;

  bool hasFunctional() const { return static_cast<bool>(functional); }

  /// A public part from a per-word model `f(input, sandbox) -> output`,
  /// called once per word of the batch.
  template <typename F>
  static PublicPart perPattern(F f) {
    PublicPart pub;
    pub.functional = [f = std::move(f)](std::span<const Word> inputs,
                                        std::span<Word> outputs,
                                        const rmi::Sandbox& sandbox) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        outputs[i] = f(inputs[i], sandbox);
      }
    };
    return pub;
  }
};

/// Where clients obtain a component's public part (the "loadable bytecode").
/// Implemented by ProviderServer; endpoint decorators (e.g. benchmarking
/// stubs) forward it so the download path survives wrapping.
class PublicPartSource {
 public:
  virtual ~PublicPartSource() = default;
  virtual PublicPart downloadPublicPart(const std::string& component,
                                        std::uint64_t param) const = 0;
};

class ProviderServer : public rmi::ServerEndpoint, public PublicPartSource {
 public:
  using NetlistFactory =
      std::function<std::shared_ptr<const gate::Netlist>(std::uint64_t param)>;
  using PublicPartFactory = std::function<PublicPart(std::uint64_t param)>;

  explicit ProviderServer(std::string hostName, LogSink* log = nullptr,
                          gate::TechParams tech = {});

  /// Per-call compute multiplier applied to instances created afterwards;
  /// see PrivateComponent::computeScale.
  void setComputeScale(int scale) { computeScale_ = scale < 1 ? 1 : scale; }

  /// Attaches the content-addressed result store consulted by the
  /// detection-table methods before executing. `ns` is the tenant
  /// namespace mixed into every key (0 for a single-tenant provider). To
  /// share one store across the shards of a MultiTenantProviderServer,
  /// the endpoint factory attaches it to each shard with that tenant's id
  /// here. The store deliberately survives restart(): its keys
  /// carry the netlist-version digest, so a restart with an unchanged
  /// netlist keeps hitting while a changed netlist makes every old entry
  /// unreachable.
  void setResultStore(std::shared_ptr<cache::ResultStore> store,
                      std::uint64_t ns = 0);
  std::shared_ptr<cache::ResultStore> resultStore() const;

  /// Registers a component: its advertised spec, the private-implementation
  /// factory, and the downloadable public part.
  void registerComponent(IpComponentSpec spec, NetlistFactory netlistFactory,
                         PublicPartFactory publicPartFactory);

  /// Registers a *sequential* component (the sequential fault-simulation
  /// extension): the factory builds the machine for the requested parameter.
  using SeqFactory = std::function<gate::SeqNetlist(std::uint64_t param)>;
  void registerSequentialComponent(IpComponentSpec spec, SeqFactory factory);

  // --- RMI endpoint ------------------------------------------------------

  rmi::Response dispatch(const rmi::Request& request) override;
  std::string hostName() const override { return hostName_; }

  /// Simulates a provider process restart: every session, live instance and
  /// replay-cache entry is lost (the registered catalog is configuration and
  /// survives, as it would on disk). Clients holding session ids receive
  /// UnknownSession afterwards and must run session recovery. Safe against
  /// in-flight dispatches: handlers already executing keep their session/
  /// instance objects alive through shared_ptrs and complete into orphaned
  /// ledgers; the monotonic id counters survive so a stale id is never
  /// re-issued.
  void restart();

  // --- the "download" path (bytecode + stub shipping) ------------------

  const IpComponentSpec* findSpec(const std::string& component) const;
  PublicPart downloadPublicPart(const std::string& component,
                                std::uint64_t param) const override;

  // --- provider-side bookkeeping ----------------------------------------

  double sessionFeesCents(rmi::SessionId session) const;
  std::size_t liveInstanceCount() const;
  const PrivateComponent* instanceForTesting(rmi::InstanceId id) const;

  /// Dispatches currently executing inside this shard (the obs
  /// "provider.inflight" gauge reports the process-wide high-water mark).
  int inflightDispatches() const {
    return inflight_.load(std::memory_order_acquire);
  }
  /// Highest concurrent-dispatch count this shard ever observed.
  int peakInflightDispatches() const {
    return peakInflight_.load(std::memory_order_acquire);
  }

  /// Itemized licensing summary for one session: per-method call counts and
  /// accumulated fees (the invoice the provider settles at purchase time).
  struct Invoice {
    struct Item {
      rmi::MethodId method;
      std::uint64_t calls = 0;
      double cents = 0.0;
    };
    rmi::SessionId session = 0;
    std::vector<Item> items;
    double totalCents = 0.0;

    std::string render() const;
  };
  Invoice invoice(rmi::SessionId session) const;

 private:
  struct Registration {
    IpComponentSpec spec;
    NetlistFactory netlistFactory;      // combinational components
    SeqFactory seqFactory;              // sequential components
    PublicPartFactory publicPartFactory;
  };
  /// The catalog snapshot type. Immutable once published; registration
  /// copies the current snapshot, mutates the copy, and atomically swaps
  /// the pointer — readers never lock.
  using Catalog = std::map<std::string, Registration>;

  struct Instance {
    std::string component;
    rmi::SessionId session = 0;
    /// Serializes compute on this instance's stateful evaluators (packed
    /// planes, eval history, shadow machines). Distinct instances — even in
    /// one session — execute concurrently.
    std::mutex execMutex;
    std::unique_ptr<PrivateComponent> impl;        // combinational
    std::unique_ptr<SeqPrivateComponent> seqImpl;  // sequential
    /// Netlist-version digest of the implementation (cache::netlistDigest
    /// over the factory's netlist). 0 for sequential components, whose
    /// stateful results are not content-addressable.
    std::uint64_t digest = 0;
  };
  struct ChargeItem {
    std::uint64_t calls = 0;
    double cents = 0.0;
  };

  /// One replay-cache slot, created *before* execution (the in-flight
  /// claim). done=false means the first execution of this idempotency key
  /// is still running; a concurrent duplicate waits on the ledger's cv for
  /// done instead of executing — and billing — a second time.
  struct ReplayEntry {
    bool done = false;
    rmi::Response response;
  };
  using ReplaySlot = std::shared_ptr<ReplayEntry>;

  /// Replay cache + claim coordination. The per-session caches and the
  /// provider-global OpenSession cache share this shape.
  struct ReplayLedger {
    std::mutex mutex;
    std::condition_variable cv;
    std::map<std::uint64_t, ReplaySlot> entries;
  };

  struct Session {
    /// Fee ledger lock — fine-grained, never held across compute.
    mutable std::mutex ledgerMutex;
    double feesCents = 0.0;
    std::map<rmi::MethodId, ChargeItem> items;
    /// Replay cache: responses of completed non-idempotent calls plus
    /// in-flight claims, keyed by idempotency key. A retransmission (client
    /// retry, a transport duplicate, or a *concurrent* duplicate frame) is
    /// answered from here instead of executing — and billing — twice. Dies
    /// with the session.
    ReplayLedger replay;
  };

  /// Outcome of claiming an idempotency key: either we own the in-flight
  /// slot (owned() — execute, then fulfillClaim), or another execution
  /// already answered it (hit — return `ready`).
  struct Claim {
    ReplayLedger* ledger = nullptr;
    std::uint64_t key = 0;
    ReplaySlot slot;      // non-null while we own the in-flight claim
    rmi::Response ready;  // the replayed response when hit
    bool hit = false;
    bool owned() const { return slot != nullptr; }
  };
  static Claim claimReplay(ReplayLedger& ledger, std::uint64_t key);
  /// Completes an owned claim: publishes `response` to every waiter and —
  /// when `cache` — leaves it in the ledger for later retransmissions
  /// (uncached outcomes wake waiters but are erased, so a later retry
  /// re-executes, exactly as serial dispatch behaved).
  static void fulfillClaim(Claim& claim, const rmi::Response& response,
                           bool cache);

  const Catalog& catalog() const {
    return *catalog_.load(std::memory_order_acquire);
  }

  rmi::Response handle(const rmi::Request& request);
  rmi::Response openSession(const rmi::Request& request);
  /// The method switch proper. Sets `cache` on exactly the outcomes the
  /// replay cache keeps (the paths serial dispatch remembered).
  rmi::Response execute(const rmi::Request& request,
                        const std::shared_ptr<Session>& session, bool& cache);
  rmi::Response instantiate(const rmi::Request& request,
                            const std::shared_ptr<Session>& session);
  std::shared_ptr<Session> findSession(rmi::SessionId id) const;
  std::shared_ptr<Instance> findInstance(rmi::InstanceId id,
                                         rmi::SessionId session) const;
  void charge(Session& session, rmi::MethodId method, double cents,
              rmi::Response& response);
  /// The attached result store and tenant namespace for `inst`'s
  /// detection tables; `store` is null when none is attached or the
  /// instance is versionless (digest 0).
  struct StoreView {
    std::shared_ptr<cache::ResultStore> store;
    std::uint64_t ns = 0;
  };
  StoreView storeFor(const Instance& inst) const;

  std::string hostName_;
  LogSink* log_;
  gate::TechParams tech_;
  int computeScale_ = 1;

  /// Result store + tenant namespace; guarded by its own mutex so the
  /// multi-tenant front end can attach stores while other shards dispatch.
  mutable std::mutex storeMutex_;
  std::shared_ptr<cache::ResultStore> resultStore_;
  std::uint64_t storeNamespace_ = 0;

  /// Copy-on-write catalog: readers load the current snapshot lock-free;
  /// registerComponent builds a new snapshot under registerMutex_. Old
  /// snapshots are retired into catalogVersions_ (never freed before the
  /// server dies) so a loaded pointer stays valid for the whole dispatch.
  std::mutex registerMutex_;
  std::vector<std::unique_ptr<const Catalog>> catalogVersions_;
  std::atomic<const Catalog*> catalog_;

  /// Guards only the session/instance *maps*; values are shared_ptrs so a
  /// dispatch holds its objects alive after releasing the lock.
  mutable std::shared_mutex stateMutex_;
  std::map<rmi::SessionId, std::shared_ptr<Session>> sessions_;
  std::map<rmi::InstanceId, std::shared_ptr<Instance>> instances_;

  /// Replay cache for OpenSession, which has no session to hang off: a
  /// retried OpenSession whose first response was lost must not leak a
  /// second orphan session.
  mutable ReplayLedger openReplay_;

  /// Monotonic id allocation — atomic so allocation is safe against
  /// concurrent handlers and deliberately survives restart(): a
  /// pre-restart session/instance id must never be re-issued, or a client
  /// holding a stale id would silently address (and bill) a stranger's
  /// post-restart session instead of receiving the UnknownSession that
  /// triggers its recovery.
  std::atomic<rmi::SessionId> nextSession_{1};
  std::atomic<rmi::InstanceId> nextInstance_{1};

  std::atomic<int> inflight_{0};
  std::atomic<int> peakInflight_{0};
};

}  // namespace vcad::ip
