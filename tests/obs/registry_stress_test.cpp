// Concurrency stress for the observability layer, written to run clean
// under TSan: many writer threads hammer one Registry / Tracer while a
// reader snapshots concurrently, then the final aggregate must be EXACT —
// not one increment lost or double-counted, including after the writers
// (and the owners whose stats structs the registry reads) are gone.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/word.hpp"
#include "net/faulty_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rmi/channel.hpp"

namespace vcad::obs {
namespace {

constexpr std::size_t kThreads = 10;  // the suite's bar is >= 8
constexpr std::uint64_t kIters = 20000;

TEST(RegistryStress, ConcurrentWritersAggregateExactlyAcrossRetirement) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  Registry reg;  // private instance: isolated from the global registry
  const Registry::MetricId hits = reg.counter("stress.hits");
  const Registry::MetricId bulk = reg.counter("stress.bulk");
  const Registry::MetricId fees = reg.doubleCounter("stress.fees");
  const Registry::MetricId high = reg.gauge("stress.highWater");
  const Registry::MetricId wall = reg.histogram("stress.wallSec");

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        reg.add(hits);
        reg.add(bulk, 3);
        // 0.5 sums exactly in binary at this scale, so the double ledger
        // has ONE correct answer regardless of shard merge order.
        reg.addDouble(fees, 0.5);
        reg.maxGauge(high, static_cast<std::int64_t>(t * kIters + i));
        reg.observe(wall, 1e-3);
      }
    });
  }
  for (std::thread& th : writers) th.join();

  // Writers have exited; every increment landed in the one shared cell per
  // metric, so the totals must be exact.
  const Registry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counterOr("stress.hits"), kThreads * kIters);
  EXPECT_EQ(snap.counterOr("stress.bulk"), kThreads * kIters * 3);
  EXPECT_EQ(snap.doubleOr("stress.fees"),
            static_cast<double>(kThreads * kIters) * 0.5);
  EXPECT_EQ(snap.gaugeOr("stress.highWater"),
            static_cast<std::int64_t>(kThreads * kIters - 1));
  ASSERT_TRUE(snap.histograms.count("stress.wallSec") != 0);
  const Registry::HistogramData& h = snap.histograms.at("stress.wallSec");
  EXPECT_EQ(h.count, kThreads * kIters);
  // Identical observations all land in one bucket.
  EXPECT_EQ(h.buckets.at(Registry::bucketFor(1e-3)), kThreads * kIters);
  EXPECT_NEAR(h.sum, static_cast<double>(kThreads * kIters) * 1e-3,
              kThreads * kIters * 1e-12);
}

TEST(RegistryStress, SnapshottingWhileWritersRunIsMonotonicAndRaceFree) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  Registry reg;
  const Registry::MetricId hits = reg.counter("stress.live");

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kIters; ++i) reg.add(hits);
    });
  }

  // A monotonic counter observed from one sequential reader can never
  // appear to run backwards, no matter how the relaxed adds land.
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const std::uint64_t now = reg.snapshot().counterOr("stress.live");
      EXPECT_GE(now, last);
      last = now;
    }
  });

  for (std::thread& th : writers) th.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(reg.snapshot().counterOr("stress.live"), kThreads * kIters);
}

/// Answers every call Ok with an empty payload.
class NullEndpoint : public rmi::ServerEndpoint {
 public:
  rmi::Response dispatch(const rmi::Request&) override { return {}; }
  std::string hostName() const override { return "null.host"; }
};

rmi::Request evalRequest() {
  rmi::Request r;
  r.method = rmi::MethodId::EvalFunction;
  r.args.addWord(Word::fromUint(8, 1));
  return r;
}

TEST(RegistryStress, OwnerCountersOutliveTheOwnerAndLiveOwnersSum) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  Registry& reg = Registry::global();
  NullEndpoint server;
  constexpr std::uint64_t kCalls = 25;

  const Registry::Snapshot before = reg.snapshot();
  {
    net::FaultyTransport injector(net::FaultProfile::none());
    rmi::RmiChannel ch(server, net::NetworkProfile::ideal());
    ch.setFaultInjector(&injector);
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      ASSERT_TRUE(ch.call(evalRequest()).ok());
    }
  }
  // Both owners are gone; their counters stay in the registry.
  const Registry::Snapshot after = reg.snapshot();
  EXPECT_EQ(after.counterOr("rmi.calls") - before.counterOr("rmi.calls"),
            kCalls);
  EXPECT_EQ(after.counterOr("transport.attempts") -
                before.counterOr("transport.attempts"),
            kCalls);

  rmi::RmiChannel a(server, net::NetworkProfile::ideal());
  rmi::RmiChannel b(server, net::NetworkProfile::ideal());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(a.call(evalRequest()).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(b.call(evalRequest()).ok());
  EXPECT_EQ(reg.snapshot().counterOr("rmi.calls") -
                after.counterOr("rmi.calls"),
            a.stats().calls + b.stats().calls);
  EXPECT_EQ(a.stats().calls + b.stats().calls, 7u);
}

TEST(RegistryStress, TracerSurvivesConcurrentRecordAndCollect) {
  if constexpr (!kObsCompiledIn) GTEST_SKIP() << "observability compiled out";
  Tracer tracer;
  tracer.setEnabled(true);
  constexpr std::size_t kWriters = 8;
  constexpr std::uint64_t kEvents = 5000;  // < kRingCapacity: zero drops

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        tracer.instant("stress.tick", "test",
                       {{"i", static_cast<double>(i)}});
      }
    });
  }
  // Exercise every reader path concurrently with recording and with ring
  // retirement as writer threads exit.
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)tracer.collect();
      (void)tracer.toChromeJson();
      (void)tracer.lastEvents(64);
      (void)tracer.droppedEvents();
    }
  });

  for (std::thread& th : writers) th.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const std::vector<TraceEvent> events = tracer.collect();
  EXPECT_EQ(events.size(), kWriters * kEvents);
  EXPECT_EQ(tracer.droppedEvents(), 0u);

  // Per thread the retained stream is gap-free and its clock never steps
  // backwards (instants are recorded at their own timestamp).
  std::map<std::uint32_t, std::vector<TraceEvent>> byTid;
  for (const TraceEvent& e : events) byTid[e.tid].push_back(e);
  EXPECT_EQ(byTid.size(), kWriters);
  for (auto& [tid, tev] : byTid) {
    std::sort(tev.begin(), tev.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.seq < b.seq;
              });
    ASSERT_EQ(tev.size(), kEvents) << "tid " << tid;
    for (std::size_t i = 0; i < tev.size(); ++i) {
      EXPECT_EQ(tev[i].seq, i) << "tid " << tid;
      if (i > 0) {
        EXPECT_GE(tev[i].tsNs, tev[i - 1].tsNs) << "tid " << tid;
      }
    }
  }
}

}  // namespace
}  // namespace vcad::obs
