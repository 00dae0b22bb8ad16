// FaultyTransport unit tests: the fault schedule is a pure function of
// (seed, key, attempt) — reproducible across runs, instances and query
// interleavings — and the frame checksum catches every injected corruption.
// Also pins the NetworkModel determinism the chaos harness relies on: one
// seed, one delay sequence.
#include "net/faulty_transport.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "net/network.hpp"

namespace vcad::net {
namespace {

TEST(FaultProfile, ShippedProfilesAreNotIdeal) {
  EXPECT_TRUE(FaultProfile::none().ideal());
  for (const FaultProfile& p : FaultProfile::shipped()) {
    EXPECT_FALSE(p.ideal()) << p.name;
    EXPECT_FALSE(p.name.empty());
  }
  EXPECT_EQ(FaultProfile::shipped().size(), 6u);
}

TEST(FaultyTransport, PlanIsPureFunctionOfSeedKeyAttempt) {
  FaultyTransport a(FaultProfile::lossy(), 0xABCDEF);
  FaultyTransport b(FaultProfile::lossy(), 0xABCDEF);
  // Query b in reverse order: interleaving must not matter.
  std::vector<FaultPlan> fromA, fromB;
  for (std::uint64_t key = 1; key <= 50; ++key) {
    for (std::uint32_t attempt = 1; attempt <= 3; ++attempt) {
      fromA.push_back(a.plan(key, attempt));
    }
  }
  for (std::uint64_t key = 50; key >= 1; --key) {
    for (std::uint32_t attempt = 3; attempt >= 1; --attempt) {
      fromB.push_back(b.peek(key, attempt));
    }
  }
  for (std::uint64_t key = 1; key <= 50; ++key) {
    for (std::uint32_t attempt = 1; attempt <= 3; ++attempt) {
      const FaultPlan& pa = fromA[(key - 1) * 3 + (attempt - 1)];
      const FaultPlan& pb = fromB[(50 - key) * 3 + (3 - attempt)];
      EXPECT_EQ(pa.dropRequest, pb.dropRequest);
      EXPECT_EQ(pa.duplicateRequest, pb.duplicateRequest);
      EXPECT_EQ(pa.corruptRequest, pb.corruptRequest);
      EXPECT_EQ(pa.dropResponse, pb.dropResponse);
      EXPECT_EQ(pa.corruptResponse, pb.corruptResponse);
      EXPECT_EQ(pa.stall, pb.stall);
      EXPECT_EQ(pa.stallSec, pb.stallSec);
      EXPECT_EQ(pa.reorderDelaySec, pb.reorderDelaySec);
    }
  }
  // plan() counted, peek() did not.
  EXPECT_EQ(a.stats().attempts, 150u);
  EXPECT_EQ(b.stats().attempts, 0u);
}

TEST(FaultyTransport, ScheduleIsIdenticalAcrossThreads) {
  // Concurrent planners see the same schedule a serial sweep sees: the plan
  // derives from its own generator, not a shared stream. (TSan-checked.)
  FaultyTransport serial(FaultProfile::lossy(), 42);
  FaultyTransport shared(FaultProfile::lossy(), 42);
  constexpr int kKeys = 64;
  std::vector<FaultPlan> expected;
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    expected.push_back(serial.plan(key, 1));
  }
  std::vector<FaultPlan> got(kKeys);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int key = 1 + t; key <= kKeys; key += 4) {
        got[static_cast<std::size_t>(key - 1)] =
            shared.plan(static_cast<std::uint64_t>(key), 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].dropRequest,
              expected[static_cast<std::size_t>(i)].dropRequest)
        << i;
    EXPECT_EQ(got[static_cast<std::size_t>(i)].stall,
              expected[static_cast<std::size_t>(i)].stall)
        << i;
  }
  EXPECT_EQ(shared.stats().attempts, serial.stats().attempts);
  EXPECT_EQ(shared.stats().injected(), serial.stats().injected());
}

TEST(FaultyTransport, DifferentSeedsGiveDifferentSchedules) {
  FaultyTransport a(FaultProfile::lossy(), 1);
  FaultyTransport b(FaultProfile::lossy(), 2);
  int differences = 0;
  for (std::uint64_t key = 1; key <= 200; ++key) {
    const FaultPlan pa = a.peek(key, 1);
    const FaultPlan pb = b.peek(key, 1);
    if (pa.dropRequest != pb.dropRequest || pa.stall != pb.stall ||
        pa.duplicateRequest != pb.duplicateRequest) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0);
}

TEST(FaultyTransport, SealedFramesRoundTripAndRejectDamage) {
  Rng rng(7);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<std::uint8_t> payload;
    const std::size_t n = 1 + rng.below(200);
    for (std::size_t i = 0; i < n; ++i) {
      payload.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    const std::vector<std::uint8_t> original = payload;

    std::vector<std::uint8_t> frame = payload;
    sealFrame(frame);
    ASSERT_EQ(frame.size(), original.size() + 8);

    // Clean frame opens and restores the payload bit-exactly.
    std::vector<std::uint8_t> clean = frame;
    ASSERT_TRUE(openFrame(clean));
    EXPECT_EQ(clean, original);

    // Every truncation is rejected.
    for (std::size_t len = 0; len < frame.size(); ++len) {
      std::vector<std::uint8_t> truncated(frame.begin(),
                                          frame.begin() + static_cast<long>(len));
      EXPECT_FALSE(openFrame(truncated)) << "len=" << len;
    }
  }
}

TEST(FaultyTransport, DamageInsideOneByteOrWordIsAlwaysCaught) {
  // The frame checksum folds eight bytes per step, each step a bijection of
  // its state: any change confined to one byte, or to one aligned 8-byte
  // word of the payload, must fail to open, on every frame length.
  Rng rng(24);
  for (std::size_t n = 0; n <= 40; ++n) {
    std::vector<std::uint8_t> frame;
    for (std::size_t i = 0; i < n; ++i) {
      frame.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    sealFrame(frame);
    ASSERT_EQ(frame.size(), n + kFrameChecksumBytes);
    for (std::size_t at = 0; at < frame.size(); ++at) {
      for (unsigned mask = 1; mask < 256; ++mask) {
        std::vector<std::uint8_t> damaged = frame;
        damaged[at] ^= static_cast<std::uint8_t>(mask);
        EXPECT_FALSE(openFrame(damaged))
            << "length " << n << ", byte " << at << ", mask " << mask;
      }
    }
    for (std::size_t word = 0; word + 8 <= n; word += 8) {
      for (int trial = 0; trial < 64; ++trial) {
        std::vector<std::uint8_t> damaged = frame;
        std::uint64_t flips = rng.next() | 1;
        for (std::size_t k = 0; k < 8; ++k, flips >>= 8) {
          damaged[word + k] ^= static_cast<std::uint8_t>(flips);
        }
        EXPECT_FALSE(openFrame(damaged))
            << "length " << n << ", word " << word;
      }
    }
    std::vector<std::uint8_t> clean = frame;
    ASSERT_TRUE(openFrame(clean));
    EXPECT_EQ(clean.size(), n);
  }
}

TEST(FaultyTransport, InjectedCorruptionNeverGoesUndetected) {
  FaultyTransport transport(FaultProfile::corrupt(), 0x5eed);
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint8_t> payload;
    const std::size_t n = 4 + rng.below(100);
    for (std::size_t i = 0; i < n; ++i) {
      payload.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    std::vector<std::uint8_t> frame = payload;
    sealFrame(frame);
    const std::vector<std::uint8_t> pristine = frame;
    transport.corrupt(frame, static_cast<std::uint64_t>(iter + 1), 1,
                      iter % 2 == 0 ? 0u : 1u);
    EXPECT_NE(frame, pristine) << "corrupt() must always change the frame";
    EXPECT_FALSE(openFrame(frame)) << "checksum must catch the damage";
  }
}

TEST(FaultyTransport, CorruptionIsDeterministicPerKeyAttemptChannel) {
  FaultyTransport transport(FaultProfile::corrupt(), 123);
  std::vector<std::uint8_t> a(64, 0xAA), b(64, 0xAA);
  transport.corrupt(a, 5, 2, 0);
  transport.corrupt(b, 5, 2, 0);
  EXPECT_EQ(a, b);
  std::vector<std::uint8_t> c(64, 0xAA);
  transport.corrupt(c, 5, 2, 1);  // response channel: independent damage
  EXPECT_NE(a, c);
}

TEST(NetworkModel, SameSeedSameDelaySequence) {
  // The chaos invariants lean on this: with the fault schedule fixed, the
  // jittered wire delays consumed in the same order are the same doubles.
  NetworkModel a(NetworkProfile::wan(), 0xFEED);
  NetworkModel b(NetworkProfile::wan(), 0xFEED);
  NetworkModel other(NetworkProfile::wan(), 0xFEED + 1);
  bool anyDifferent = false;
  for (int i = 0; i < 100; ++i) {
    const std::size_t bytes = 64 + static_cast<std::size_t>(i) * 17;
    const double da = a.messageDelaySec(bytes);
    EXPECT_EQ(da, b.messageDelaySec(bytes)) << i;
    if (da != other.messageDelaySec(bytes)) anyDifferent = true;
  }
  EXPECT_TRUE(anyDifferent) << "different seeds should jitter differently";
}

}  // namespace
}  // namespace vcad::net
