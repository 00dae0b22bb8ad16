// Full-stack integration: everything the library offers, in one scenario.
//
// Two providers (one combinational multiplier IP, one sequential counter
// IP). The user browses catalogs, negotiates a power estimator, builds a
// mixed design (behavioral source + registers + remote multiplier + local
// gate logic), simulates with buffered remote power estimation, runs a
// virtual fault campaign against the remote combinational block, runs the
// sequential shadow-machine campaign against the counter IP, dumps a VCD,
// and settles both invoices. Every cross-module seam is exercised.
#include <gtest/gtest.h>

#include <sstream>

#include "fault/seq_fault.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "ip/negotiation.hpp"
#include "ip/remote_component.hpp"
#include "rtl/behavioral.hpp"
#include "rtl/vcd.hpp"

namespace vcad {
namespace {

ip::PublicPart multiplierPublicPart(std::uint64_t w) {
  return ip::PublicPart::perPattern([w](const Word& in, const rmi::Sandbox&) {
    const int width = static_cast<int>(w);
    const Word a = in.slice(0, width);
    const Word b = in.slice(width, width);
    return Word::fromUint(2 * width, a.toUint() * b.toUint());
  });
}

TEST(FullStack, MarketplaceSimulationFaultsAndBilling) {
  const int w = 4;
  LogSink log;

  // --- providers ---------------------------------------------------------
  ip::ProviderServer silicon("fast-silicon.example", &log);
  {
    ip::IpComponentSpec spec;
    spec.name = "MULT";
    spec.minWidth = 2;
    spec.maxWidth = 16;
    spec.functional = ip::ModelLevel::Static;
    spec.power = ip::ModelLevel::Dynamic;
    spec.testability = ip::ModelLevel::Dynamic;
    spec.staticPowerMw = 10.0;
    spec.fees.perPowerPatternCents = 0.1;
    spec.fees.perDetectionTableCents = 0.05;
    silicon.registerComponent(
        spec,
        [](std::uint64_t width) {
          return std::make_shared<const gate::Netlist>(
              gate::makeArrayMultiplier(static_cast<int>(width)));
        },
        multiplierPublicPart);
  }
  ip::ProviderServer cores("seq-cores.example", &log);
  {
    ip::IpComponentSpec spec;
    spec.name = "COUNTER";
    spec.minWidth = 2;
    spec.maxWidth = 16;
    spec.testability = ip::ModelLevel::Dynamic;
    spec.fees.perEvalCents = 0.01;
    cores.registerSequentialComponent(spec, [](std::uint64_t width) {
      return gate::makeCounter(static_cast<int>(width));
    });
  }

  rmi::RmiChannel ch1(silicon, net::NetworkProfile::lan(), &log);
  rmi::RmiChannel ch2(cores, net::NetworkProfile::wan(), &log);
  ip::ProviderHandle h1(ch1), h2(ch2);

  // --- catalog + negotiation --------------------------------------------
  ASSERT_EQ(h1.catalog().size(), 1u);
  ASSERT_EQ(h2.catalog().at(0).name, "COUNTER");

  // --- the design --------------------------------------------------------
  Circuit c("system");
  auto& A = c.makeWord(w, "A");
  auto& B = c.makeWord(w, "B");
  auto& P = c.makeWord(2 * w, "P");
  // Behavioral source driving both operands with a deterministic sweep.
  c.make<rtl::BehavioralProcess>(
      "src", std::vector<std::pair<std::string, Connector*>>{},
      std::vector<std::pair<std::string, Connector*>>{{"a", &A}, {"b", &B}},
      [](rtl::BehavioralProcess::Activation& act) {
        Word& t = act.memory(0, 8);
        const std::uint64_t n = t.isFullyKnown() ? t.toUint() : 0;
        if (n >= 20) {
          act.stopPeriodic();
          return;
        }
        t = Word::fromUint(8, n + 1);
        act.drive(0, Word::fromUint(4, n % 16));
        act.drive(1, Word::fromUint(4, (3 * n + 1) % 16));
      },
      /*period=*/10);
  ip::RemoteConfig cfg;
  cfg.patternBufferCapacity = 5;
  cfg.nonblockingEstimation = false;
  auto& mult = c.make<ip::RemoteComponent>(
      "MULT", h1, "MULT", w,
      std::vector<std::pair<std::string, Connector*>>{{"a", &A}, {"b", &B}},
      std::vector<std::pair<std::string, Connector*>>{{"o", &P}}, cfg);
  auto& out = c.make<rtl::PrimaryOutput>("OUT", P);

  // Negotiate: demand 15% accuracy, accept the counter-offer fee.
  auto round = ip::negotiateEstimator(h1, mult.instanceId(),
                                      ParamKind::AvgPower, 0.0, 15.0);
  ASSERT_EQ(round.outcome, ip::NegotiationResult::Outcome::CounterOffer);
  round = ip::negotiateEstimator(h1, mult.instanceId(), ParamKind::AvgPower,
                                 round.offer.costPerUseCents, 15.0);
  ASSERT_EQ(round.outcome, ip::NegotiationResult::Outcome::Accepted);
  EXPECT_EQ(round.offer.name, "gate-level-toggle");

  // --- simulate ----------------------------------------------------------
  SimulationController sim(c);
  sim.start();
  SimContext ctx{sim.scheduler(), nullptr};
  EXPECT_EQ(out.sampleCount(ctx), 20u);
  // Functional check: every observed product matches the sweep.
  const auto& hist = out.history(ctx);
  for (std::size_t n = 0; n < hist.size(); ++n) {
    EXPECT_EQ(hist[n].value.toUint(), (n % 16) * ((3 * n + 1) % 16)) << n;
  }
  const auto power = mult.finishPowerEstimation(ctx);
  ASSERT_TRUE(power.has_value());
  EXPECT_GT(*power, 0.0);
  EXPECT_EQ(mult.remoteErrors(), 0u);

  // --- VCD dump ---------------------------------------------------------
  rtl::VcdWriter vcd;
  vcd.addTrack("product", out, ctx);
  std::ostringstream wave;
  vcd.write(wave);
  EXPECT_NE(wave.str().find("$var wire 8"), std::string::npos);

  // --- virtual fault campaign against the remote multiplier --------------
  ip::RemoteFaultClient multFaults(mult);
  const auto faultList = multFaults.faultList();
  EXPECT_GT(faultList.size(), 20u);
  const auto table = multFaults.detectionTable(Word::fromUint(2 * w, 0xA7));
  EXPECT_GT(table.rows().size(), 0u);

  // --- sequential campaign against the counter IP -------------------------
  ip::RemoteSeqFaultClient counter(h2, "COUNTER", 4);
  std::vector<Word> enables(12, Word::fromUint(1, 1));
  const auto seqRes = fault::runSeqCampaign(counter, enables);
  EXPECT_GT(seqRes.coverage(), 0.5);

  // --- billing ------------------------------------------------------------
  const auto inv1 = silicon.invoice(h1.session());
  const auto inv2 = cores.invoice(h2.session());
  EXPECT_GT(inv1.totalCents, 0.0);
  EXPECT_GT(inv2.totalCents, 0.0);
  EXPECT_DOUBLE_EQ(inv1.totalCents, silicon.sessionFeesCents(h1.session()));
  // Channel fee accounting agrees with the providers' ledgers.
  EXPECT_DOUBLE_EQ(ch1.stats().feesCents, inv1.totalCents);
  EXPECT_DOUBLE_EQ(ch2.stats().feesCents, inv2.totalCents);
  // Nothing tripped the security machinery.
  EXPECT_EQ(ch1.stats().securityRejections, 0u);
  EXPECT_EQ(log.count(Severity::Security), 0u);
}

}  // namespace
}  // namespace vcad
