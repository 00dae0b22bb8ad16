// The Figure 1 scenario: a design under development instantiates IP
// components from two different providers with *different* model
// availability, negotiates estimators through setup controllers, and
// settles fees.
//
//   Provider 1 ("fast-silicon.example"): functional model released, dynamic
//       power and timing models on the server, static area data.
//   Provider 2 ("cheap-cores.example"): functional model only — no power,
//       timing, or area models at all (the paper's "Power model 0" case).
//
// A best-accuracy power setup binds the gate-level remote estimator on the
// provider-1 component and falls back to the null estimator (with a logged
// warning) on the provider-2 component, so partial estimation proceeds.
#include <cstdio>

#include "core/sim_controller.hpp"
#include "gate/generators.hpp"
#include "ip/remote_component.hpp"
#include "rtl/modules.hpp"

using namespace vcad;

namespace {

ip::PublicPart multiplierPublicPart(std::uint64_t w) {
  return ip::PublicPart::perPattern([w](const Word& in, const rmi::Sandbox&) {
    const int width = static_cast<int>(w);
    const Word a = in.slice(0, width);
    const Word b = in.slice(width, width);
    return Word::fromUint(2 * width, a.toUint() * b.toUint());
  });
}

ip::PublicPart adderPublicPart(std::uint64_t w) {
  return ip::PublicPart::perPattern([w](const Word& in, const rmi::Sandbox&) {
    const int width = static_cast<int>(w);
    const Word a = in.slice(0, width);
    const Word b = in.slice(width, width);
    return Word::fromUint(width + 1, a.toUint() + b.toUint());
  });
}

void setUpProvider1(ip::ProviderServer& server) {
  ip::IpComponentSpec spec;
  spec.name = "MultFastLowPower";
  spec.description = "low-power array multiplier";
  spec.minWidth = 2;
  spec.maxWidth = 16;
  spec.functional = ip::ModelLevel::Static;
  spec.power = ip::ModelLevel::Dynamic;
  spec.timing = ip::ModelLevel::Dynamic;
  spec.area = ip::ModelLevel::Static;
  spec.staticPowerMw = 25.0;
  spec.staticAreaUm2 = 5200.0;
  spec.fees.perPowerPatternCents = 0.1;
  server.registerComponent(
      spec,
      [](std::uint64_t w) {
        return std::make_shared<const gate::Netlist>(
            gate::makeArrayMultiplier(static_cast<int>(w)));
      },
      multiplierPublicPart);
}

void setUpProvider2(ip::ProviderServer& server) {
  ip::IpComponentSpec spec;
  spec.name = "AdderBudget";
  spec.description = "budget ripple-carry adder, functional model only";
  spec.minWidth = 2;
  spec.maxWidth = 32;
  spec.functional = ip::ModelLevel::Static;
  spec.power = ip::ModelLevel::None;   // "Power model 0"
  spec.timing = ip::ModelLevel::None;
  spec.area = ip::ModelLevel::None;
  server.registerComponent(
      spec,
      [](std::uint64_t w) {
        return std::make_shared<const gate::Netlist>(
            gate::makeRippleCarryAdder(static_cast<int>(w)));
      },
      adderPublicPart);
}

}  // namespace

int main() {
  const int width = 8;
  LogSink log;

  ip::ProviderServer provider1("fast-silicon.example", &log);
  ip::ProviderServer provider2("cheap-cores.example", &log);
  setUpProvider1(provider1);
  setUpProvider2(provider2);

  rmi::RmiChannel ch1(provider1, net::NetworkProfile::wan(), &log);
  rmi::RmiChannel ch2(provider2, net::NetworkProfile::lan(), &log);
  ip::ProviderHandle h1(ch1);
  ip::ProviderHandle h2(ch2);

  // --- browse the catalogs ------------------------------------------------
  for (auto* h : {&h1, &h2}) {
    for (const auto& spec : h->catalog()) {
      std::printf("catalog: %-18s power=%-7s timing=%-7s area=%-7s  (%s)\n",
                  spec.name.c_str(), ip::toString(spec.power).c_str(),
                  ip::toString(spec.timing).c_str(),
                  ip::toString(spec.area).c_str(), spec.description.c_str());
    }
  }

  // --- the user's design: product accumulated into a sum -----------------
  Circuit c("marketplace");
  Connector& A = c.makeWord(width, "A");
  Connector& B = c.makeWord(width, "B");
  Connector& P = c.makeWord(2 * width, "P");
  Connector& PL = c.makeWord(width, "PL");   // low half of the product
  Connector& CARRY = c.makeWord(width, "CIN");
  Connector& S = c.makeWord(width + 1, "S");
  c.make<rtl::RandomPrimaryInput>("INA", width, A, 50, 10, 11);
  c.make<rtl::RandomPrimaryInput>("INB", width, B, 50, 10, 22);
  c.make<rtl::RandomPrimaryInput>("INC", width, CARRY, 50, 10, 33);

  ip::RemoteConfig cfg;
  cfg.patternBufferCapacity = 5;
  auto& mult = c.make<ip::RemoteComponent>(
      "MULT", h1, "MultFastLowPower", width,
      std::vector<std::pair<std::string, Connector*>>{{"a", &A}, {"b", &B}},
      std::vector<std::pair<std::string, Connector*>>{{"o", &P}}, cfg);
  // Interface module: take the low half of the product into the adder.
  struct LowHalf : Module {
    LowHalf(std::string n, Connector& in, Connector& out, int w)
        : Module(std::move(n)), w_(w) {
      in_ = &addInput("in", in);
      out_ = &addOutput("out", out);
    }
    void processInputEvent(const SignalToken& t, SimContext& ctx) override {
      emit(ctx, *out_, t.value().slice(0, w_));
    }
    Port* in_;
    Port* out_;
    int w_;
  };
  c.make<LowHalf>("LOW", P, PL, width);
  ip::RemoteConfig cfg2;
  cfg2.collectPower = false;  // provider 2 has no power model anyway
  auto& add = c.make<ip::RemoteComponent>(
      "ADD", h2, "AdderBudget", width,
      std::vector<std::pair<std::string, Connector*>>{{"a", &PL},
                                                      {"b", &CARRY}},
      std::vector<std::pair<std::string, Connector*>>{{"s", &S}}, cfg2);
  auto& out = c.make<rtl::PrimaryOutput>("OUT", S);

  // --- negotiate estimators via a setup controller ------------------------
  ip::attachSpecEstimators(mult, h1.catalog()[0], &mult);
  ip::attachSpecEstimators(add, h2.catalog()[0], &add);

  SetupController setup(&log);
  setup.set(ParamKind::AvgPower, {Criterion::BestAccuracy});
  setup.set(ParamKind::Area, {Criterion::BestAccuracy});
  const std::size_t fallbacks = setup.apply(c);
  std::printf("\nsetup negotiated: %zu (module, parameter) pairs fell back to "
              "the null estimator\n", fallbacks);
  std::printf("MULT power estimator: %s\n",
              mult.boundEstimator(setup.id(), ParamKind::AvgPower)->name().c_str());
  std::printf("ADD  power estimator: %s\n",
              add.boundEstimator(setup.id(), ParamKind::AvgPower)->name().c_str());

  // --- simulate and collect what estimates exist --------------------------
  SimulationController sim(c, &setup);
  sim.start();
  SimContext ctx{sim.scheduler(), &setup};
  std::printf("\nsimulated 50 patterns; last sum = %s\n",
              out.last(ctx).toString().c_str());

  CollectingSink sink;
  sim.estimateAll(ParamKind::Area, sink);
  std::printf("total known area (partial estimate): %.1f um2 (%zu modules "
              "reported null)\n",
              sink.sum(ParamKind::Area), sink.nullCount());

  const auto mw = mult.finishPowerEstimation(ctx);
  std::printf("MULT remote power estimate: %.3f mW\n", mw.value_or(0.0));

  std::printf("\nfees: provider1 = %.2f cents, provider2 = %.2f cents\n",
              provider1.sessionFeesCents(h1.session()),
              provider2.sessionFeesCents(h2.session()));
  std::printf("warnings logged: %zu\n", log.count(Severity::Warning));
  return 0;
}
