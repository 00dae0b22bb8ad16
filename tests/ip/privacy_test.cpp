// User-IP protection, end to end. The paper: "a good test sequence is IP
// that might need protection" and "JavaCAD transmits only [port-level]
// information over the RMI channel". These tests spy on every request a
// provider receives during virtual fault simulation and verify that the
// provider learns nothing beyond its own component's port values: no
// design-level patterns, no primary-output responses, no structure.
#include <gtest/gtest.h>

#include "fault/block_design.hpp"
#include "fault/virtual_sim.hpp"
#include "gate/generators.hpp"
#include "ip/remote_component.hpp"

namespace vcad::ip {
namespace {

/// Endpoint decorator recording everything that crosses the wire.
class Spy final : public rmi::ServerEndpoint, public PublicPartSource {
 public:
  explicit Spy(ProviderServer& inner) : inner_(inner) {}

  rmi::Response dispatch(const rmi::Request& request) override {
    requests.push_back(request);
    return inner_.dispatch(request);
  }
  std::string hostName() const override { return inner_.hostName(); }
  PublicPart downloadPublicPart(const std::string& component,
                                std::uint64_t param) const override {
    return inner_.downloadPublicPart(component, param);
  }

  std::vector<rmi::Request> requests;

 private:
  ProviderServer& inner_;
};

TEST(Privacy, ProviderSeesOnlyComponentPortWidths) {
  // Design: 4 primary inputs -> FRONT(AND) -> remote IP1 -> BACK gates.
  // IP1 has 2 single-bit inputs; the user's test patterns are 4 bits wide.
  // Every word the provider receives must be IP1-port sized (2 bits for
  // detection tables), never the design-level 4-bit pattern.
  LogSink log;
  ProviderServer server("p", &log);
  IpComponentSpec spec;
  spec.name = "IP1";
  spec.minWidth = 1;
  spec.maxWidth = 1;
  spec.functional = ModelLevel::Static;
  spec.testability = ModelLevel::Dynamic;
  server.registerComponent(
      spec,
      [](std::uint64_t) {
        return std::make_shared<const gate::Netlist>(gate::makeIp1HalfAdder());
      },
      [](std::uint64_t) {
        return PublicPart::perPattern([](const Word& in, const rmi::Sandbox&) {
          Word out(2);
          out.setBit(0, logicXor(in.bit(0), in.bit(1)));
          out.setBit(1, logicAnd(in.bit(0), in.bit(1)));
          return out;
        });
      });
  Spy spy(server);
  rmi::RmiChannel channel(spy, net::NetworkProfile::ideal(), &log);
  ProviderHandle provider(channel);

  // The user design around the remote component.
  Circuit c("design");
  auto& A = c.makeBit("A");
  auto& B = c.makeBit("B");
  auto& C = c.makeBit("C");
  auto& D = c.makeBit("D");
  auto& E = c.makeBit("E");
  auto& OIP1 = c.makeBit("OIP1");
  auto& OIP2 = c.makeBit("OIP2");
  auto& O1 = c.makeBit("O1");
  auto& O2 = c.makeBit("O2");

  auto front = std::make_shared<gate::Netlist>();
  {
    const auto a = front->addInput("a");
    const auto b = front->addInput("b");
    front->markOutput(front->addGate(gate::GateType::And, {a, b}, "E"));
  }
  c.adopt(gate::makeBitLevelModule("FRONT", front, {&A, &B}, {&E}));
  RemoteConfig cfg;
  cfg.collectPower = false;
  auto& ip1 = c.make<RemoteComponent>(
      "IP1", provider, "IP1", 1,
      std::vector<std::pair<std::string, Connector*>>{{"IIP1", &E},
                                                      {"IIP2", &C}},
      std::vector<std::pair<std::string, Connector*>>{{"OIP1", &OIP1},
                                                      {"OIP2", &OIP2}}, cfg);
  auto back = std::make_shared<gate::Netlist>();
  {
    const auto oip1 = back->addInput("oip1");
    const auto d = back->addInput("d");
    const auto oip2 = back->addInput("oip2");
    back->markOutput(back->addGate(gate::GateType::And, {oip1, d}, "O1"));
    back->markOutput(back->addGate(gate::GateType::Buf, {oip2}, "O2"));
  }
  c.adopt(gate::makeBitLevelModule("BACK", back, {&OIP1, &D, &OIP2},
                                   {&O1, &O2}));

  RemoteFaultClient remoteClient(ip1);
  auto& frontModule = *dynamic_cast<gate::NetlistModule*>(c.findChild("FRONT"));
  auto& backModule = *dynamic_cast<gate::NetlistModule*>(c.findChild("BACK"));
  fault::LocalFaultBlock frontClient(frontModule);
  fault::LocalFaultBlock backClient(backModule);

  fault::VirtualFaultSimulator sim(
      c, {&frontClient, &remoteClient, &backClient}, {&A, &B, &C, &D},
      {&O1, &O2});
  const auto res = sim.runPacked(
      {Word::fromString("0011"), Word::fromString("1011"),
       Word::fromString("1101"), Word::fromString("0110")});
  EXPECT_GT(res.detected.size(), 0u);

  // --- what did the provider actually learn? ------------------------------
  ASSERT_FALSE(spy.requests.empty());
  for (const auto& req : spy.requests) {
    rmi::Args args = req.args;  // copy: re-walk the tagged payload
    switch (req.method) {
      case rmi::MethodId::GetDetectionTable: {
        const Word in = args.takeWord();
        // Component-port configuration only: exactly IP1's 2 input bits,
        // never the user's 4-bit design pattern.
        EXPECT_EQ(in.width(), 2);
        break;
      }
      case rmi::MethodId::GetDetectionTables: {
        // Pattern buffering ships several configurations at once; each is
        // still only IP1's 2 input bits.
        const std::vector<Word> configs = args.takeWordVector();
        EXPECT_FALSE(configs.empty());
        for (const Word& in : configs) EXPECT_EQ(in.width(), 2);
        break;
      }
      case rmi::MethodId::Instantiate:
      case rmi::MethodId::OpenSession:
      case rmi::MethodId::GetFaultList:
        break;  // no signal data at all
      default:
        ADD_FAILURE() << "unexpected method crossed the channel: "
                      << rmi::toString(req.method);
    }
  }
  // The provider never received a primary-output response either: detection
  // (pass/fail of its faults in the design) stays with the user.
  for (const auto& req : spy.requests) {
    EXPECT_NE(req.method, rmi::MethodId::EvalFunction);
  }
}

TEST(Privacy, MarshallingFilterBlocksDesignDumpEvenIfCodeTries) {
  LogSink log;
  ProviderServer server("p", &log);
  IpComponentSpec spec;
  spec.name = "X";
  spec.minWidth = 2;
  spec.maxWidth = 8;
  server.registerComponent(
      spec,
      [](std::uint64_t w) {
        return std::make_shared<const gate::Netlist>(
            gate::makeRippleCarryAdder(static_cast<int>(w)));
      },
      nullptr);
  Spy spy(server);
  rmi::RmiChannel channel(spy, net::NetworkProfile::ideal(), &log);
  ProviderHandle provider(channel);

  // A misbehaving tool tries to ship the design topology to the provider.
  rmi::Request leak;
  leak.session = provider.session();
  leak.method = rmi::MethodId::EstimatePower;
  leak.args.addWordVector({Word::fromUint(4, 1)});
  leak.args.addDesignGraph("INA->REGA->MULT; INB->REGB->MULT; MULT->OUT");
  const auto resp = channel.call(leak);
  EXPECT_EQ(resp.status, rmi::Status::SecurityViolation);
  // Nothing reached the provider.
  for (const auto& req : spy.requests) {
    EXPECT_NE(req.method, rmi::MethodId::EstimatePower);
  }
  EXPECT_EQ(log.count(Severity::Security), 1u);
}

}  // namespace
}  // namespace vcad::ip
