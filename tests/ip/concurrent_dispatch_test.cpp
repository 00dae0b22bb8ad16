// Concurrent-dispatch suite for the read-mostly parallel ProviderServer.
//
// Proves the lock-split is *observationally serial*:
//   - frames of one shard genuinely overlap (deterministically, via a
//     blocking netlist factory),
//   - N threads hammering one server produce bit-identical responses,
//     invoices, and fees to the same workload run serially,
//   - two *simultaneous* duplicate frames (same idempotency key) execute
//     once, bill once, and both receive the identical response — over the
//     loopback dispatch path and over the socket/multi-tenant front end,
//   - two sessions' simultaneous, overlapping batched table requests
//     against a shared result store never hang and answer byte for byte
//     as a serial run,
//   - restart() is safe against in-flight handlers and never re-issues ids.
#include "ip/provider_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_store.hpp"
#include "gate/generators.hpp"
#include "ip/multi_tenant_server.hpp"
#include "net/socket_transport.hpp"
#include "rmi/channel.hpp"

namespace vcad::ip {
namespace {

using rmi::MethodId;
using rmi::Request;
using rmi::Response;
using rmi::Status;

/// Registers the paper's multiplier with dynamic power + testability models
/// (the per-table fee makes billing observable).
void registerMultiplier(ProviderServer& server) {
  IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.description = "high-performance low-power array multiplier";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ModelLevel::Static;
  spec.power = ModelLevel::Dynamic;
  spec.timing = ModelLevel::Dynamic;
  spec.area = ModelLevel::Dynamic;
  spec.testability = ModelLevel::Dynamic;
  spec.staticPowerMw = 25.0;
  spec.fees.perPowerPatternCents = 0.1;
  spec.fees.perDetectionTableCents = 0.05;
  server.registerComponent(
      std::move(spec),
      [](std::uint64_t w) {
        return std::make_shared<const gate::Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      [](std::uint64_t) { return PublicPart{}; });
}

/// C++20 std::barrier minus the fancy: all participants block in wait()
/// until the last one arrives. Reusable across rounds.
class Gate {
 public:
  explicit Gate(int parties) : parties_(parties) {}
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t round = round_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++round_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return round_ != round; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int parties_;
  int arrived_ = 0;
  std::uint64_t round_ = 0;
};

Response openSession(ProviderServer& server, std::uint64_t key) {
  Request r;
  r.method = MethodId::OpenSession;
  r.idempotencyKey = key;
  return server.dispatch(r);
}

Request makeRequest(MethodId method, rmi::SessionId session,
                    rmi::InstanceId instance, std::uint64_t key) {
  Request r;
  r.method = method;
  r.session = session;
  r.instance = instance;
  r.idempotencyKey = key;
  return r;
}

std::vector<Word> detectionConfigs(int width, std::uint64_t salt) {
  std::vector<Word> configs;
  for (std::uint64_t i = 0; i < 3; ++i) {
    configs.push_back(
        Word::fromUint(2 * width, (salt * 37 + i * 13) & ((1u << 8) - 1)));
  }
  return configs;
}

// ---------------------------------------------------------------------------
// Deterministic overlap: with the old whole-server mutex this test would
// hang (GetCatalog blocks behind the stalled Instantiate); with the split
// locks the catalog read completes while the factory is still building, so
// two dispatches are provably in flight at once.
// ---------------------------------------------------------------------------

TEST(ConcurrentDispatch, DispatchesOverlapWithinOneShard) {
  ProviderServer server("provider.host");
  registerMultiplier(server);

  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;

  IpComponentSpec slow;
  slow.name = "SlowToBuild";
  slow.minWidth = 2;
  slow.maxWidth = 16;
  slow.functional = ModelLevel::Static;
  server.registerComponent(
      std::move(slow),
      [&](std::uint64_t w) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          entered = true;
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
        }
        return std::make_shared<const gate::Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      [](std::uint64_t) { return PublicPart{}; });

  const Response open = openSession(server, 1);
  ASSERT_TRUE(open.ok());
  Request openAgain;
  openAgain.method = MethodId::OpenSession;
  openAgain.idempotencyKey = 2;
  const rmi::SessionId session = Response(open).payload.readU64();
  const rmi::SessionId other = server.dispatch(openAgain).payload.readU64();

  std::thread builder([&] {
    Request inst = makeRequest(MethodId::Instantiate, session, 0, 3);
    inst.component = "SlowToBuild";
    inst.args.addU64(4);
    const Response resp = server.dispatch(inst);
    EXPECT_TRUE(resp.ok());
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return entered; });
  }
  // The builder thread is parked inside dispatch(). A second frame must
  // still be served — and at that instant two dispatches are in flight.
  EXPECT_EQ(server.inflightDispatches(), 1);
  const Response cat =
      server.dispatch(makeRequest(MethodId::GetCatalog, other, 0, 0));
  EXPECT_TRUE(cat.ok());
  EXPECT_GE(server.peakInflightDispatches(), 2);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
    cv.notify_all();
  }
  builder.join();
  EXPECT_EQ(server.inflightDispatches(), 0);
  EXPECT_EQ(server.liveInstanceCount(), 1u);
}

// ---------------------------------------------------------------------------
// Differential: N threads against one server == the same workload serially.
// ---------------------------------------------------------------------------

/// One client's deterministic workload against its own session. Returns the
/// marshalled bytes of every response whose payload is id-free (ids are
/// allocation-order dependent, everything else must be bit-identical).
struct ClientTrace {
  rmi::SessionId session = 0;
  std::vector<std::vector<std::uint8_t>> responses;
  double fees = 0.0;
  std::vector<ProviderServer::Invoice::Item> items;
};

ClientTrace runClientWorkload(ProviderServer& server, int clientIdx) {
  const std::uint64_t base = (clientIdx + 1) * 1'000'000ull;
  ClientTrace trace;
  const Response open = openSession(server, base);
  EXPECT_TRUE(open.ok());
  trace.session = Response(open).payload.readU64();

  const int width = 4 + clientIdx % 3;
  Request inst = makeRequest(MethodId::Instantiate, trace.session, 0, base + 1);
  inst.component = "MultFastLowPower";
  inst.args.addU64(static_cast<std::uint64_t>(width));
  Response instResp = server.dispatch(inst);
  EXPECT_TRUE(instResp.ok());
  const rmi::InstanceId instance = instResp.payload.readU64();

  for (std::uint64_t i = 0; i < 6; ++i) {
    Request eval = makeRequest(MethodId::EvalFunction, trace.session, instance,
                               base + 10 + i);
    eval.args.addWord(
        Word::fromUint(2 * width, (clientIdx * 19 + i * 7) & 0xff));
    trace.responses.push_back(server.dispatch(eval).marshal().bytes());

    Request table = makeRequest(MethodId::GetDetectionTable, trace.session,
                                instance, base + 100 + i);
    table.args.addWord(
        Word::fromUint(2 * width, (clientIdx * 23 + i * 11) & 0xff));
    trace.responses.push_back(server.dispatch(table).marshal().bytes());

    Request batch = makeRequest(MethodId::GetDetectionTables, trace.session,
                                instance, base + 200 + i);
    batch.args.addWordVector(detectionConfigs(width, base + i));
    trace.responses.push_back(server.dispatch(batch).marshal().bytes());
  }
  trace.fees = server.sessionFeesCents(trace.session);
  for (const auto& item : server.invoice(trace.session).items) {
    trace.items.push_back(item);
  }
  return trace;
}

TEST(ConcurrentDispatch, NThreadHammeringIsBitIdenticalToSerial) {
  constexpr int kClients = 4;

  ProviderServer serial("provider.host");
  registerMultiplier(serial);
  std::vector<ClientTrace> expected;
  for (int c = 0; c < kClients; ++c) {
    expected.push_back(runClientWorkload(serial, c));
  }

  ProviderServer concurrent("provider.host");
  registerMultiplier(concurrent);
  std::vector<ClientTrace> actual(kClients);
  Gate gate(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      gate.wait();
      actual[c] = runClientWorkload(concurrent, c);
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    ASSERT_EQ(actual[c].responses.size(), expected[c].responses.size());
    for (std::size_t i = 0; i < expected[c].responses.size(); ++i) {
      EXPECT_EQ(actual[c].responses[i], expected[c].responses[i])
          << "response " << i << " diverged from the serial run";
    }
    EXPECT_EQ(actual[c].fees, expected[c].fees);
    ASSERT_EQ(actual[c].items.size(), expected[c].items.size());
    for (std::size_t i = 0; i < expected[c].items.size(); ++i) {
      EXPECT_EQ(actual[c].items[i].method, expected[c].items[i].method);
      EXPECT_EQ(actual[c].items[i].calls, expected[c].items[i].calls);
      EXPECT_EQ(actual[c].items[i].cents, expected[c].items[i].cents);
    }
  }
  EXPECT_EQ(concurrent.liveInstanceCount(), serial.liveInstanceCount());
}

// ---------------------------------------------------------------------------
// Concurrent same-key retransmissions, loopback dispatch path.
// ---------------------------------------------------------------------------

TEST(ConcurrentDispatch, SimultaneousDuplicatesExecuteOnceOverLoopback) {
  ProviderServer server("provider.host");
  registerMultiplier(server);
  const rmi::SessionId session =
      Response(openSession(server, 1)).payload.readU64();
  Request inst = makeRequest(MethodId::Instantiate, session, 0, 2);
  inst.component = "MultFastLowPower";
  inst.args.addU64(6);
  const rmi::InstanceId instance = server.dispatch(inst).payload.readU64();
  const double feesAfterSetup = server.sessionFeesCents(session);

  constexpr int kRounds = 25;
  Gate gate(2);
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t key = 1000 + round;
    Response got[2];
    std::vector<std::thread> pair;
    for (int side = 0; side < 2; ++side) {
      pair.emplace_back([&, side] {
        Request dup =
            makeRequest(MethodId::GetDetectionTables, session, instance, key);
        dup.args.addWordVector(detectionConfigs(6, key));
        gate.wait();
        got[side] = server.dispatch(dup);
      });
    }
    for (auto& t : pair) t.join();

    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_TRUE(got[0].ok());
    ASSERT_TRUE(got[1].ok());
    // Exactly one side executed; the other was answered from the in-flight
    // claim (or the completed cache entry) with the identical response.
    EXPECT_NE(got[0].replayed, got[1].replayed);
    EXPECT_EQ(got[0].payload.bytes(), got[1].payload.bytes());
    EXPECT_EQ(got[0].feeCents, got[1].feeCents);
  }

  // Billed once per logical call: 25 rounds x 3 tables x 0.05c.
  EXPECT_DOUBLE_EQ(server.sessionFeesCents(session) - feesAfterSetup,
                   kRounds * 3 * 0.05);
  const auto inv = server.invoice(session);
  const auto it = std::find_if(
      inv.items.begin(), inv.items.end(), [](const auto& item) {
        return item.method == MethodId::GetDetectionTables;
      });
  ASSERT_NE(it, inv.items.end());
  EXPECT_EQ(it->calls, static_cast<std::uint64_t>(kRounds));
}

// ---------------------------------------------------------------------------
// Concurrent same-key retransmissions through the socket front end: two
// connections of one tenant ship the identical frame; the worker pool may
// execute them truly in parallel on the shard.
// ---------------------------------------------------------------------------

TEST(ConcurrentDispatch, SimultaneousDuplicatesExecuteOnceOverSockets) {
  MultiTenantProviderServer::Config cfg;
  cfg.queue.workers = 2;
  MultiTenantProviderServer server(
      [](TenantId) {
        auto ep = std::make_unique<ProviderServer>("provider.host");
        registerMultiplier(*ep);
        return std::unique_ptr<rmi::ServerEndpoint>(std::move(ep));
      },
      cfg);
  const std::uint16_t port = server.listenTcp(0);
  ASSERT_NE(port, 0);
  server.start();

  auto connect = [&] {
    auto transport = net::SocketTransport::connectTcp("127.0.0.1", port);
    EXPECT_NE(transport, nullptr);
    auto ch = std::make_unique<rmi::RmiChannel>(std::move(transport),
                                                net::NetworkProfile::lan());
    ch->setTenant(1);
    return ch;
  };
  auto chA = connect();
  auto chB = connect();
  ASSERT_NE(chA, nullptr);
  ASSERT_NE(chB, nullptr);

  Request open;
  open.method = MethodId::OpenSession;
  open.idempotencyKey = 1;
  Response openResp = chA->call(open);
  ASSERT_TRUE(openResp.ok());
  const rmi::SessionId session = openResp.payload.readU64();
  Request inst = makeRequest(MethodId::Instantiate, session, 0, 2);
  inst.component = "MultFastLowPower";
  inst.args.addU64(6);
  Response instResp = chA->call(inst);
  ASSERT_TRUE(instResp.ok());
  const rmi::InstanceId instance = instResp.payload.readU64();
  server.waitIdle();
  const TenantUsage before = server.tenantUsage(1);

  // The identical logical call shipped on both connections at once: same
  // session, same instance, same idempotency key (the channel keeps a
  // caller-stamped key), different connections and request ids.
  auto duplicate = [&](std::uint64_t key) {
    Request dup =
        makeRequest(MethodId::GetDetectionTables, session, instance, key);
    dup.args.addWordVector(detectionConfigs(6, key));
    return dup;
  };
  constexpr int kRounds = 10;
  Gate gate(2);
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t key = 500 + round;
    Response got[2];
    std::thread a([&] {
      Request dup = duplicate(key);
      gate.wait();
      got[0] = chA->call(dup);
    });
    std::thread b([&] {
      Request dup = duplicate(key);
      gate.wait();
      got[1] = chB->call(dup);
    });
    a.join();
    b.join();

    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_TRUE(got[0].ok());
    ASSERT_TRUE(got[1].ok());
    EXPECT_NE(got[0].replayed, got[1].replayed);
    EXPECT_EQ(got[0].payload.bytes(), got[1].payload.bytes());
    EXPECT_EQ(got[0].feeCents, got[1].feeCents);
  }

  server.waitIdle();
  const TenantUsage after = server.tenantUsage(1);
  // Both frames reach the shard, but only the executing side bills.
  EXPECT_EQ(after.dispatches - before.dispatches, 2u * kRounds);
  EXPECT_EQ(after.billedCalls - before.billedCalls,
            static_cast<std::uint64_t>(kRounds));
  EXPECT_DOUBLE_EQ(after.feesCents - before.feesCents, kRounds * 3 * 0.05);

  auto* shard = dynamic_cast<ProviderServer*>(server.tenantEndpoint(1));
  ASSERT_NE(shard, nullptr);
  const auto inv = shard->invoice(session);
  const auto it = std::find_if(
      inv.items.begin(), inv.items.end(), [](const auto& item) {
        return item.method == MethodId::GetDetectionTables;
      });
  ASSERT_NE(it, inv.items.end());
  EXPECT_EQ(it->calls, static_cast<std::uint64_t>(kRounds));
  server.stop();
}

// ---------------------------------------------------------------------------
// Overlapping batches against a shared store: each configuration is its own
// store entry, written with plain fetch/insert, so two sessions racing on
// the same fresh configurations may both build one, but neither waits on
// the other and both ship the bytes a serial run ships.
// ---------------------------------------------------------------------------

TEST(ConcurrentDispatch, OverlappingBatchesOverSharedStoreMatchSerial) {
  constexpr int kWidth = 6;
  constexpr int kRounds = 12;
  constexpr std::uint64_t kSpan = 8;  // configurations per batch
  constexpr std::uint64_t kShift = 4;  // B's batch starts halfway into A's
  // Round r: side 0 asks for [8r, 8r + 8), side 1 for [8r + 4, 8r + 12).
  auto batchFor = [](int round, int side) {
    std::vector<Word> configs;
    const std::uint64_t first = round * kSpan + side * kShift;
    for (std::uint64_t c = first; c < first + kSpan; ++c) {
      configs.push_back(Word::fromUint(2 * kWidth, c));
    }
    return configs;
  };
  auto tablesRequest = [&](rmi::SessionId session, rmi::InstanceId instance,
                           int round, int side) {
    Request r = makeRequest(MethodId::GetDetectionTables, session, instance,
                            10'000 + round * 2 + side);
    r.args.addWordVector(batchFor(round, side));
    return r;
  };

  // Serial reference: one in-process server, its own store, the same calls
  // one after another.
  ProviderServer serial("provider.host");
  registerMultiplier(serial);
  serial.setResultStore(cache::ResultStore::inMemory(), 1);
  rmi::SessionId serialSession[2];
  rmi::InstanceId serialInstance[2];
  for (int side = 0; side < 2; ++side) {
    serialSession[side] =
        Response(openSession(serial, side + 1)).payload.readU64();
    Request inst = makeRequest(MethodId::Instantiate, serialSession[side], 0,
                               side + 3);
    inst.component = "MultFastLowPower";
    inst.args.addU64(kWidth);
    serialInstance[side] = serial.dispatch(inst).payload.readU64();
  }
  std::vector<std::uint8_t> expected[kRounds][2];
  for (int round = 0; round < kRounds; ++round) {
    for (int side = 0; side < 2; ++side) {
      const Response resp = serial.dispatch(tablesRequest(
          serialSession[side], serialInstance[side], round, side));
      ASSERT_TRUE(resp.ok());
      expected[round][side] = resp.payload.bytes();
    }
  }

  auto store = cache::ResultStore::inMemory();
  MultiTenantProviderServer::Config cfg;
  cfg.queue.workers = 2;
  MultiTenantProviderServer server(
      [&store](TenantId tenant) {
        auto ep = std::make_unique<ProviderServer>("provider.host");
        registerMultiplier(*ep);
        ep->setResultStore(store, tenant);
        return std::unique_ptr<rmi::ServerEndpoint>(std::move(ep));
      },
      cfg);
  const std::uint16_t port = server.listenTcp(0);
  ASSERT_NE(port, 0);
  server.start();

  std::unique_ptr<rmi::RmiChannel> channel[2];
  rmi::SessionId session[2];
  rmi::InstanceId instance[2];
  for (int side = 0; side < 2; ++side) {
    auto transport = net::SocketTransport::connectTcp("127.0.0.1", port);
    ASSERT_NE(transport, nullptr);
    channel[side] = std::make_unique<rmi::RmiChannel>(
        std::move(transport), net::NetworkProfile::lan());
    channel[side]->setTenant(1);
    Request openReq;
    openReq.method = MethodId::OpenSession;
    openReq.idempotencyKey = side + 1;
    Response open = channel[side]->call(openReq);
    ASSERT_TRUE(open.ok());
    session[side] = open.payload.readU64();
    Request inst = makeRequest(MethodId::Instantiate, session[side], 0,
                               side + 3);
    inst.component = "MultFastLowPower";
    inst.args.addU64(kWidth);
    Response instResp = channel[side]->call(inst);
    ASSERT_TRUE(instResp.ok());
    instance[side] = instResp.payload.readU64();
  }

  Gate gate(2);
  for (int round = 0; round < kRounds; ++round) {
    Response got[2];
    std::vector<std::thread> pair;
    for (int side = 0; side < 2; ++side) {
      pair.emplace_back([&, side] {
        Request r = tablesRequest(session[side], instance[side], round, side);
        gate.wait();
        got[side] = channel[side]->call(r);
      });
    }
    for (auto& t : pair) t.join();
    SCOPED_TRACE("round " + std::to_string(round));
    for (int side = 0; side < 2; ++side) {
      ASSERT_TRUE(got[side].ok());
      EXPECT_EQ(got[side].payload.bytes(), expected[round][side])
          << "side " << side;
    }
  }
  server.waitIdle();

  // Fees are per table, hit or built: each session's ledger equals its
  // serial counterpart exactly.
  auto* shard = dynamic_cast<ProviderServer*>(server.tenantEndpoint(1));
  ASSERT_NE(shard, nullptr);
  for (int side = 0; side < 2; ++side) {
    EXPECT_EQ(shard->sessionFeesCents(session[side]),
              serial.sessionFeesCents(serialSession[side]));
    const auto inv = shard->invoice(session[side]);
    const auto it = std::find_if(
        inv.items.begin(), inv.items.end(), [](const auto& item) {
          return item.method == MethodId::GetDetectionTables;
        });
    ASSERT_NE(it, inv.items.end());
    EXPECT_EQ(it->calls, static_cast<std::uint64_t>(kRounds));
    EXPECT_DOUBLE_EQ(it->cents, kRounds * kSpan * 0.05);
  }
  // One entry per distinct configuration, however the overlaps raced.
  EXPECT_EQ(store->stats().entries, kRounds * kSpan + kShift);
  server.stop();
}

// ---------------------------------------------------------------------------
// restart() races in-flight handlers: never crashes, never re-issues an id,
// and stale sessions always come back UnknownSession.
// ---------------------------------------------------------------------------

TEST(ConcurrentDispatch, RestartIsSafeAgainstInflightHandlers) {
  ProviderServer server("provider.host");
  registerMultiplier(server);

  constexpr int kThreads = 3;
  constexpr int kIterations = 40;
  std::vector<std::vector<rmi::SessionId>> issued(kThreads);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::uint64_t base = (t + 1) * 10'000'000ull;
      for (int i = 0; i < kIterations; ++i) {
        const Response open = openSession(server, base + i * 100);
        if (!open.ok()) continue;
        const rmi::SessionId session = Response(open).payload.readU64();
        issued[t].push_back(session);
        Request inst =
            makeRequest(MethodId::Instantiate, session, 0, base + i * 100 + 1);
        inst.component = "MultFastLowPower";
        inst.args.addU64(4);
        Response instResp = server.dispatch(inst);
        // A restart may strike between open and instantiate; the only legal
        // failure is the typed session loss.
        if (!instResp.ok()) {
          EXPECT_EQ(instResp.status, Status::UnknownSession);
          continue;
        }
        const rmi::InstanceId instance = instResp.payload.readU64();
        Request eval = makeRequest(MethodId::EvalFunction, session, instance,
                                   base + i * 100 + 2);
        eval.args.addWord(Word::fromUint(8, i & 0xff));
        const Response evalResp = server.dispatch(eval);
        if (!evalResp.ok()) {
          EXPECT_TRUE(evalResp.status == Status::UnknownSession ||
                      evalResp.status == Status::NotFound);
        }
      }
    });
  }
  std::thread restarter([&] {
    while (!stop.load()) {
      server.restart();
      std::this_thread::yield();
    }
  });
  for (auto& t : clients) t.join();
  stop = true;
  restarter.join();

  // Ids are unique across every restart epoch (monotonic allocation).
  std::set<rmi::SessionId> all;
  for (const auto& perThread : issued) {
    for (rmi::SessionId id : perThread) {
      EXPECT_TRUE(all.insert(id).second) << "session id " << id << " reissued";
    }
    EXPECT_TRUE(std::is_sorted(perThread.begin(), perThread.end()));
  }

  server.restart();
  ASSERT_FALSE(issued[0].empty());
  const Response stale = server.dispatch(
      makeRequest(MethodId::GetCatalog, issued[0].back(), 0, 0));
  EXPECT_EQ(stale.status, Status::UnknownSession);
  const Response fresh = openSession(server, 999'999'999ull);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(Response(fresh).payload.readU64(), *all.rbegin());
}

}  // namespace
}  // namespace vcad::ip
