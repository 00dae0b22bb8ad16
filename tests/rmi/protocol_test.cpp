#include "rmi/protocol.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/faulty_transport.hpp"

namespace vcad::rmi {
namespace {

TEST(Args, TypedRoundTrip) {
  Args a;
  a.addU64(42).addDouble(2.5).addWord(Word::fromUint(8, 0x5A)).addString("hi");
  a.addWordVector({Word::fromUint(4, 1), Word::fromUint(4, 2)});
  EXPECT_EQ(a.takeU64(), 42u);
  EXPECT_DOUBLE_EQ(a.takeDouble(), 2.5);
  EXPECT_EQ(a.takeWord().toUint(), 0x5Au);
  EXPECT_EQ(a.takeString(), "hi");
  EXPECT_EQ(a.takeWordVector().size(), 2u);
}

TEST(Args, TagMismatchThrows) {
  Args a;
  a.addU64(1);
  EXPECT_THROW(a.takeWord(), std::runtime_error);
}

TEST(Request, MarshalRoundTrip) {
  Request r;
  r.session = 7;
  r.instance = 12;
  r.method = MethodId::EstimatePower;
  r.component = "MultFastLowPower";
  r.args.addWordVector({Word::fromUint(32, 123456)});

  net::ByteBuffer wire = r.marshal();
  const Request back = Request::unmarshal(wire);
  EXPECT_EQ(back.session, 7u);
  EXPECT_EQ(back.instance, 12u);
  EXPECT_EQ(back.method, MethodId::EstimatePower);
  EXPECT_EQ(back.component, "MultFastLowPower");
  Args args = back.args;
  EXPECT_EQ(args.takeWordVector()[0].toUint(), 123456u);
}

TEST(Response, MarshalRoundTrip) {
  Response r;
  r.status = Status::PaymentRequired;
  r.error = "fee required";
  r.feeCents = 12.5;
  r.payload.writeDouble(9.75);

  net::ByteBuffer wire = r.marshal();
  Response back = Response::unmarshal(wire);
  EXPECT_EQ(back.status, Status::PaymentRequired);
  EXPECT_EQ(back.error, "fee required");
  EXPECT_DOUBLE_EQ(back.feeCents, 12.5);
  EXPECT_DOUBLE_EQ(back.payload.readDouble(), 9.75);
  EXPECT_FALSE(back.ok());
}

TEST(Response, MovingMarshalWritesTheSameBytes) {
  Response ok;
  ok.version = 0x1122334455667788ULL;
  ok.feeCents = 3.5;
  ok.cached = true;
  for (int i = 0; i < 1000; ++i) {
    ok.payload.writeU8(static_cast<std::uint8_t>(i));
  }
  Response failed = Response::failure(Status::NotFound, "no such instance");
  failed.replayed = true;
  for (const Response& r : {ok, failed, Response{}}) {
    const std::vector<std::uint8_t> copied = r.marshal().bytes();
    Response moved = r;
    EXPECT_EQ(std::move(moved).marshal().bytes(), copied);
  }
}

TEST(Response, MovingMarshalKeepsAPayloadWithHeadroomInPlace) {
  // An ok response's payload reserved with kHeadroom spare bytes becomes
  // the marshalled and sealed frame without a reallocation.
  Response r;
  r.version = 42;
  r.feeCents = 0.25;
  r.payload.reserve(4096 + Response::kHeadroom);
  for (int i = 0; i < 4096; ++i) {
    r.payload.writeU8(static_cast<std::uint8_t>(i));
  }
  const std::vector<std::uint8_t> copied = r.marshal().bytes();
  const std::uint8_t* storage = r.payload.bytes().data();
  std::vector<std::uint8_t> frame = std::move(r).marshal().release();
  EXPECT_EQ(frame, copied);
  EXPECT_EQ(frame.data(), storage);
  net::sealFrame(frame);
  EXPECT_EQ(frame.data(), storage);
  ASSERT_TRUE(net::openFrame(frame));
  EXPECT_EQ(frame, copied);
}

TEST(Response, FailureHelper) {
  const Response r = Response::failure(Status::NotFound, "nope");
  EXPECT_EQ(r.status, Status::NotFound);
  EXPECT_EQ(r.error, "nope");
  EXPECT_FALSE(r.ok());
}

TEST(Protocol, MethodNames) {
  EXPECT_EQ(toString(MethodId::GetDetectionTable), "GetDetectionTable");
  EXPECT_EQ(toString(Status::SecurityViolation), "SecurityViolation");
}

}  // namespace
}  // namespace vcad::rmi
