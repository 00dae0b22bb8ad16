#include "ip/provider_server.hpp"

#include <gtest/gtest.h>

#include "gate/generators.hpp"
#include "ip/remote_component.hpp"
#include "oracles/oracles.hpp"

namespace vcad::ip {
namespace {

using rmi::MethodId;

/// Registers the paper's multiplier component on a provider.
void registerMultiplier(ProviderServer& server, ModelLevel power,
                        ModelLevel testability = ModelLevel::Dynamic) {
  IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.description = "high-performance low-power array multiplier";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ModelLevel::Static;
  spec.power = power;
  spec.timing = ModelLevel::Dynamic;
  spec.area = ModelLevel::Dynamic;
  spec.testability = testability;
  spec.staticPowerMw = 25.0;
  spec.fees.perPowerPatternCents = 0.1;
  spec.fees.perDetectionTableCents = 0.05;
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

struct Fixture {
  LogSink log;
  ProviderServer server{"provider.host.name", &log};
  rmi::RmiChannel channel{server, net::NetworkProfile::ideal(), &log};

  explicit Fixture(ModelLevel power = ModelLevel::Dynamic) {
    registerMultiplier(server, power);
  }
};

TEST(ProviderServer, CatalogRoundTrip) {
  Fixture f;
  ProviderHandle handle(f.channel);
  const auto specs = handle.catalog();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].name, "MultFastLowPower");
  EXPECT_EQ(specs[0].power, ModelLevel::Dynamic);
  EXPECT_DOUBLE_EQ(specs[0].fees.perPowerPatternCents, 0.1);
}

TEST(ProviderServer, InstantiateValidatesParameter) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Args bad;
  bad.addU64(64);  // outside [2, 16]
  const auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(bad), "MultFastLowPower");
  EXPECT_EQ(resp.status, rmi::Status::Error);

  rmi::Args ok;
  ok.addU64(8);
  const auto good =
      handle.call(MethodId::Instantiate, 0, std::move(ok), "MultFastLowPower");
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(f.server.liveInstanceCount(), 1u);
}

TEST(ProviderServer, UnknownComponentAndSession) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(8);
  EXPECT_EQ(handle.call(MethodId::Instantiate, 0, std::move(args), "Nope")
                .status,
            rmi::Status::NotFound);

  rmi::Request alien;
  alien.session = 999999;
  alien.method = MethodId::GetCatalog;
  EXPECT_EQ(f.channel.call(alien).status, rmi::Status::UnknownSession);
}

TEST(ProviderServer, InstancesArePrivateToTheirSession) {
  Fixture f;
  ProviderHandle alice(f.channel);
  ProviderHandle mallory(f.channel);
  rmi::Args args;
  args.addU64(4);
  auto resp =
      alice.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  ASSERT_TRUE(resp.ok());
  const rmi::InstanceId id = resp.payload.readU64();

  rmi::Args evalArgs;
  evalArgs.addWord(Word::fromUint(8, 0x33));
  EXPECT_EQ(mallory.call(MethodId::EvalFunction, id, std::move(evalArgs)).status,
            rmi::Status::NotFound);
}

TEST(ProviderServer, CloseSessionReapsInstances) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(4);
  handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  EXPECT_EQ(f.server.liveInstanceCount(), 1u);
  handle.call(MethodId::CloseSession, 0, rmi::Args{});
  EXPECT_EQ(f.server.liveInstanceCount(), 0u);
}

TEST(ProviderServer, PowerRejectedWithoutDynamicModel) {
  Fixture f(ModelLevel::Static);  // static data only, no server estimation
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(4);
  auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  const rmi::InstanceId id = resp.payload.readU64();
  rmi::Args pw;
  pw.addWordVector({Word::fromUint(8, 1), Word::fromUint(8, 2)});
  EXPECT_EQ(handle.call(MethodId::EstimatePower, id, std::move(pw)).status,
            rmi::Status::Error);
}

TEST(ProviderServer, BatchedDetectionTablesMatchSingles) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(3);
  auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  const rmi::InstanceId id = resp.payload.readU64();

  const std::vector<Word> configs = {
      Word::fromUint(6, 0x15), Word::fromUint(6, 0x2A), Word::fromUint(6, 0x00)};

  // Batched: one call, one response carrying every table.
  rmi::Args batch;
  batch.addWordVector(configs);
  auto bresp = handle.call(MethodId::GetDetectionTables, id, std::move(batch));
  ASSERT_TRUE(bresp.ok());
  ASSERT_EQ(bresp.payload.readU32(), configs.size());
  // The batch is charged per table, same rate as the unbatched method.
  EXPECT_DOUBLE_EQ(bresp.feeCents, 0.05 * static_cast<double>(configs.size()));

  for (const Word& w : configs) {
    const auto batched = fault::DetectionTable::deserialize(bresp.payload);
    rmi::Args one;
    one.addWord(w);
    auto sresp = handle.call(MethodId::GetDetectionTable, id, std::move(one));
    ASSERT_TRUE(sresp.ok());
    const auto single = fault::DetectionTable::deserialize(sresp.payload);
    EXPECT_EQ(batched.toString(), single.toString());
  }
}

TEST(ProviderServer, BatchedDetectionTablesNeedDynamicTestability) {
  Fixture f(ModelLevel::Dynamic);
  // Re-register with static-only testability.
  registerMultiplier(f.server, ModelLevel::Dynamic, ModelLevel::Static);
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(3);
  auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  const rmi::InstanceId id = resp.payload.readU64();
  rmi::Args batch;
  batch.addWordVector({Word::fromUint(6, 1)});
  EXPECT_EQ(handle.call(MethodId::GetDetectionTables, id, std::move(batch)).status,
            rmi::Status::Error);
}

TEST(ProviderServer, FeesAccumulatePerSession) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(4);
  auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  const rmi::InstanceId id = resp.payload.readU64();

  rmi::Args pw;
  pw.addWordVector(
      {Word::fromUint(8, 1), Word::fromUint(8, 2), Word::fromUint(8, 3)});
  auto presp = handle.call(MethodId::EstimatePower, id, std::move(pw));
  ASSERT_TRUE(presp.ok());
  // 3 patterns at 0.1 cents each.
  EXPECT_DOUBLE_EQ(presp.feeCents, 0.3);
  EXPECT_DOUBLE_EQ(f.server.sessionFeesCents(handle.session()), 0.3);
  // Channel-side accounting matches.
  EXPECT_DOUBLE_EQ(f.channel.stats().feesCents, 0.3);
}

TEST(ProviderServer, EvalRecordsRemoteHistoryForPowerEstimation) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(4);
  auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  const rmi::InstanceId id = resp.payload.readU64();

  for (std::uint64_t v : {0x12u, 0xFFu, 0x00u, 0xA5u}) {
    rmi::Args ev;
    ev.addWord(Word::fromUint(8, v));
    ASSERT_TRUE(handle.call(MethodId::EvalFunction, id, std::move(ev)).ok());
  }
  // Server-side observability: the private part recorded every evaluation.
  const PrivateComponent* impl = f.server.instanceForTesting(id);
  ASSERT_NE(impl, nullptr);
  EXPECT_EQ(impl->evalCount(), 4u);
  EXPECT_EQ(f.server.instanceForTesting(9999), nullptr);

  // Empty batch -> use the server-recorded history (MR-mode buffering).
  rmi::Args pw;
  pw.addWordVector({});
  auto presp = handle.call(MethodId::EstimatePower, id, std::move(pw));
  ASSERT_TRUE(presp.ok());
  EXPECT_GT(presp.payload.readDouble(), 0.0);
  EXPECT_EQ(presp.payload.readU64(), 4u);  // billed for 4 recorded patterns
}

TEST(ProviderServer, EvalMatchesPublicPartFunctionalModel) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(6);
  auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  const rmi::InstanceId id = resp.payload.readU64();
  const PublicPart pub = f.server.downloadPublicPart("MultFastLowPower", 6);
  ASSERT_TRUE(pub.hasFunctional());
  rmi::Sandbox sandbox;

  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const Word in = Word::fromUint(12, rng.next());
    rmi::Args ev;
    ev.addWord(in);
    auto evResp = handle.call(MethodId::EvalFunction, id, std::move(ev));
    ASSERT_TRUE(evResp.ok());
    // Private (gate-level) and public (behavioral) models must agree: the
    // provider's abstract model is faithful.
    Word local;
    pub.functional({&in, 1}, {&local, 1}, sandbox);
    EXPECT_EQ(evResp.payload.readWord(), local);
  }
}

// A random word with each bit drawn from {0, 1, X, Z}.
Word randomFourValued(Rng& rng, int width) {
  static constexpr Logic kValues[] = {Logic::L0, Logic::L1, Logic::X,
                                      Logic::Z};
  Word w(width);
  for (int i = 0; i < width; ++i) w.setBit(i, kValues[rng.below(4)]);
  return w;
}

TEST(ProviderServer, EvalFunctionEqualsTheScalarOracleOverFourValuedInputs) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(5);
  auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  const rmi::InstanceId id = resp.payload.readU64();
  const gate::Netlist nl = gate::makeArrayMultiplier(5);
  const oracles::ScalarEvaluator oracle(nl);
  Rng rng(0xE7A1);
  for (int i = 0; i < 60; ++i) {
    const Word in = randomFourValued(rng, nl.inputCount());
    rmi::Args ev;
    ev.addWord(in);
    auto evResp = handle.call(MethodId::EvalFunction, id, std::move(ev));
    ASSERT_TRUE(evResp.ok());
    EXPECT_EQ(evResp.payload.readWord(), oracle.evalOutputs(in)) << in;
  }
}

TEST(PrivateComponent, EvalEqualsTheScalarOracleAtEveryComputeScale) {
  Rng rng(0xE7A2);
  for (int trial = 0; trial < 6; ++trial) {
    const int nIn = 3 + static_cast<int>(rng.below(8));
    auto nl = std::make_shared<const gate::Netlist>(gate::makeRandomNetlist(
        rng, nIn, 10 + static_cast<int>(rng.below(60)),
        1 + static_cast<int>(rng.below(6))));
    const oracles::ScalarEvaluator oracle(*nl);
    PrivateComponent pc(nl, {}, true, 1 + trial % 3);
    for (int i = 0; i < 30; ++i) {
      const Word in = randomFourValued(rng, nIn);
      EXPECT_EQ(pc.eval(in), oracle.evalOutputs(in))
          << "trial=" << trial << " in=" << in;
    }
    EXPECT_EQ(pc.evalCount(), 30u);
  }
}

TEST(ProviderServer, FaultInterfaceServesListAndTables) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(3);
  auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  const rmi::InstanceId id = resp.payload.readU64();

  auto flResp = handle.call(MethodId::GetFaultList, id, rmi::Args{});
  ASSERT_TRUE(flResp.ok());
  const std::uint32_t n = flResp.payload.readU32();
  EXPECT_GT(n, 0u);

  rmi::Args dt;
  dt.addWord(Word::fromUint(6, 0b110101));
  auto dtResp = handle.call(MethodId::GetDetectionTable, id, std::move(dt));
  ASSERT_TRUE(dtResp.ok());
  const auto table = fault::DetectionTable::deserialize(dtResp.payload);
  EXPECT_EQ(table.inputs().toUint(), 0b110101u);
  EXPECT_GT(table.rows().size(), 0u);
}

// --- idempotency keys, replay cache, restart and session recovery --------

TEST(ProviderServer, RetransmittedNonIdempotentCallIsAnsweredFromReplayCache) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(3);
  auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  const rmi::InstanceId id = resp.payload.readU64();

  // Same request, same idempotency key, sent twice — the retransmission a
  // retrying channel produces when the first response was lost.
  rmi::Request req;
  req.session = handle.session();
  req.instance = id;
  req.method = MethodId::GetDetectionTable;
  req.args.addWord(Word::fromUint(6, 0b101100));
  req.idempotencyKey = f.channel.makeKey();

  auto first = f.channel.call(req);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.replayed);
  auto again = f.channel.call(req);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.replayed);

  // Byte-identical answer, and the work was billed exactly once.
  EXPECT_EQ(first.payload.bytes(), again.payload.bytes());
  EXPECT_DOUBLE_EQ(again.feeCents, first.feeCents);
  EXPECT_DOUBLE_EQ(f.server.sessionFeesCents(handle.session()), 0.05);
}

TEST(ProviderServer, RetransmittedInstantiateNeverCreatesASecondInstance) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Request req;
  req.session = handle.session();
  req.method = MethodId::Instantiate;
  req.component = "MultFastLowPower";
  req.args.addU64(4);
  req.idempotencyKey = f.channel.makeKey();

  auto first = f.channel.call(req);
  ASSERT_TRUE(first.ok());
  const rmi::InstanceId id = first.payload.readU64();
  auto again = f.channel.call(req);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.replayed);
  EXPECT_EQ(again.payload.readU64(), id);
  EXPECT_EQ(f.server.liveInstanceCount(), 1u);
}

TEST(ProviderServer, OpenSessionIsDeduplicatedByKey) {
  Fixture f;
  rmi::Request open;
  open.method = MethodId::OpenSession;
  open.idempotencyKey = f.channel.makeKey();
  auto first = f.channel.call(open);
  ASSERT_TRUE(first.ok());
  auto again = f.channel.call(open);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.replayed);
  // A duplicated OpenSession must not leak a second orphan session.
  EXPECT_EQ(again.payload.readU64(), first.payload.readU64());
}

TEST(ProviderServer, RestartForgetsSessionsButNeverReissuesIds) {
  Fixture f;
  ProviderHandle handle(f.channel);
  handle.setAutoRecover(false);
  rmi::Args args;
  args.addU64(4);
  auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  const rmi::InstanceId id = resp.payload.readU64();
  const rmi::SessionId oldSession = handle.session();

  f.server.restart();
  EXPECT_EQ(f.server.liveInstanceCount(), 0u);
  EXPECT_EQ(handle.call(MethodId::GetFaultList, id, rmi::Args{}).status,
            rmi::Status::UnknownSession);

  // Post-restart ids continue monotonically: a client holding a stale id
  // must get UnknownSession/NotFound, never a stranger's fresh instance.
  ProviderHandle fresh(f.channel);
  EXPECT_NE(fresh.session(), oldSession);
  rmi::Args args2;
  args2.addU64(4);
  auto resp2 = fresh.call(MethodId::Instantiate, 0, std::move(args2),
                          "MultFastLowPower");
  ASSERT_TRUE(resp2.ok());
  EXPECT_GT(resp2.payload.readU64(), id);
}

TEST(ProviderServer, HandleRecoversSessionAndRebindsInstances) {
  Fixture f;
  ProviderHandle handle(f.channel);
  rmi::Args args;
  args.addU64(4);
  auto resp =
      handle.call(MethodId::Instantiate, 0, std::move(args), "MultFastLowPower");
  const rmi::InstanceId id = resp.payload.readU64();
  rmi::InstanceId rebound = 0;
  handle.recordInstantiation("MultFastLowPower", 4, id,
                             [&](rmi::InstanceId fresh) { rebound = fresh; });

  f.server.restart();

  // The next call through the handle hits UnknownSession, recovers the
  // session from the manifest, and transparently retries on the new ids.
  rmi::Args ev;
  ev.addWord(Word::fromUint(8, 0x21));
  auto evResp = handle.call(MethodId::EvalFunction, id, std::move(ev));
  ASSERT_TRUE(evResp.ok());
  EXPECT_EQ(handle.recoveries(), 1u);
  EXPECT_NE(rebound, 0u);
  EXPECT_NE(rebound, id);
  EXPECT_EQ(f.server.liveInstanceCount(), 1u);
  const SessionManifest m = handle.manifest();
  ASSERT_EQ(m.entries.size(), 1u);
  EXPECT_EQ(m.entries[0].instance, rebound);
}

}  // namespace
}  // namespace vcad::ip
