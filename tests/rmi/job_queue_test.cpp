// JobQueue tests: priority-lane ordering, typed admission verdicts
// (TooManyPending / Overloaded / Stopped), bounded depths, graceful stop,
// and the stats counters the multi-tenant front end surfaces.
#include "rmi/job_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "rmi/protocol.hpp"

namespace vcad::rmi {
namespace {

/// Blocks the single worker until released, so tests can stack up a known
/// queue state behind it.
struct WorkerGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  JobQueue::Job job() {
    return [this] {
      std::unique_lock<std::mutex> lock(mutex);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
    };
  }
  void awaitEntered() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
};

TEST(JobQueue, DrainsMostUrgentLaneFirstFifoWithinLane) {
  JobQueue::Config cfg;
  cfg.workers = 1;
  JobQueue q(cfg);
  WorkerGate gate;
  ASSERT_EQ(q.add(net::JobPriority::Compute, gate.job()), JobQueue::Admit::Ok);
  gate.awaitEntered();  // the worker is pinned; everything below queues

  std::mutex orderMutex;
  std::vector<int> order;
  auto record = [&orderMutex, &order](int tag) {
    return [&orderMutex, &order, tag] {
      std::lock_guard<std::mutex> lock(orderMutex);
      order.push_back(tag);
    };
  };
  // Enqueued most-bulk-first, two per lane — execution must come back
  // most-urgent-first, FIFO inside each lane.
  ASSERT_EQ(q.add(net::JobPriority::Batch, record(30)), JobQueue::Admit::Ok);
  ASSERT_EQ(q.add(net::JobPriority::Batch, record(31)), JobQueue::Admit::Ok);
  ASSERT_EQ(q.add(net::JobPriority::Compute, record(20)), JobQueue::Admit::Ok);
  ASSERT_EQ(q.add(net::JobPriority::Query, record(10)), JobQueue::Admit::Ok);
  ASSERT_EQ(q.add(net::JobPriority::Query, record(11)), JobQueue::Admit::Ok);
  ASSERT_EQ(q.add(net::JobPriority::Control, record(0)), JobQueue::Admit::Ok);
  gate.release();
  q.drain();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11, 20, 30, 31}));

  const JobQueue::Stats s = q.stats();
  EXPECT_EQ(s.enqueued, 7u);
  EXPECT_EQ(s.executed, 7u);
  EXPECT_EQ(s.peakDepth, 6u);
  EXPECT_EQ(s.executedByPriority[0], 1u);  // Control
  EXPECT_EQ(s.executedByPriority[1], 2u);  // Query
  EXPECT_EQ(s.executedByPriority[2], 2u);  // Compute (the gate + one)
  EXPECT_EQ(s.executedByPriority[3], 2u);  // Batch
}

TEST(JobQueue, AdmissionVerdictsAreTypedAndCounted) {
  JobQueue::Config cfg;
  cfg.workers = 1;
  cfg.maxQueueDepth = 2;
  cfg.perPriorityDepth[static_cast<std::size_t>(net::JobPriority::Batch)] = 1;
  JobQueue q(cfg);
  WorkerGate gate;
  ASSERT_EQ(q.add(net::JobPriority::Compute, gate.job()), JobQueue::Admit::Ok);
  gate.awaitEntered();  // running, not queued: depth is 0

  std::atomic<int> ran{0};
  auto bump = [&ran] { ++ran; };
  // Lane bound: the Batch lane holds one job; a second is TooManyPending
  // even though the global queue still has room.
  EXPECT_EQ(q.add(net::JobPriority::Batch, bump), JobQueue::Admit::Ok);
  EXPECT_EQ(q.add(net::JobPriority::Batch, bump),
            JobQueue::Admit::TooManyPending);
  // Global bound: one more queued job reaches maxQueueDepth; the next is
  // Overloaded regardless of its lane.
  EXPECT_EQ(q.add(net::JobPriority::Query, bump), JobQueue::Admit::Ok);
  EXPECT_EQ(q.add(net::JobPriority::Query, bump), JobQueue::Admit::Overloaded);
  EXPECT_EQ(q.add(net::JobPriority::Control, bump),
            JobQueue::Admit::Overloaded);
  EXPECT_EQ(q.depth(), 2u);

  gate.release();
  q.drain();
  EXPECT_EQ(ran.load(), 2);  // shed jobs never ran
  const JobQueue::Stats s = q.stats();
  EXPECT_EQ(s.enqueued, 3u);
  EXPECT_EQ(s.executed, 3u);
  EXPECT_EQ(s.shedTooManyPending, 1u);
  EXPECT_EQ(s.shedOverloaded, 2u);
}

TEST(JobQueue, StopIsGracefulAndTerminal) {
  JobQueue::Config cfg;
  cfg.workers = 2;
  JobQueue q(cfg);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(q.add(net::JobPriority::Compute, [&ran] { ++ran; }),
              JobQueue::Admit::Ok);
  }
  q.stop();
  // Graceful: every admitted job executed before stop() returned.
  EXPECT_EQ(ran.load(), 16);
  // Terminal: post-stop admissions are rejected with the typed verdict and
  // their jobs never run.
  EXPECT_EQ(q.add(net::JobPriority::Control, [&ran] { ++ran; }),
            JobQueue::Admit::Stopped);
  EXPECT_EQ(ran.load(), 16);
  const JobQueue::Stats s = q.stats();
  EXPECT_EQ(s.executed, 16u);
  EXPECT_EQ(s.rejectedStopped, 1u);
  q.stop();  // idempotent
}

TEST(JobQueue, VerdictAndPriorityNamesRender) {
  EXPECT_EQ(toString(JobQueue::Admit::Ok), "Ok");
  EXPECT_EQ(toString(JobQueue::Admit::TooManyPending), "TooManyPending");
  EXPECT_EQ(toString(JobQueue::Admit::Overloaded), "Overloaded");
  EXPECT_EQ(toString(JobQueue::Admit::Stopped), "Stopped");
  EXPECT_EQ(net::toString(net::JobPriority::Control), std::string("Control"));
  EXPECT_EQ(net::toString(net::JobPriority::Batch), std::string("Batch"));
}

TEST(JobQueue, MethodsMapToTheExpectedLanes) {
  using net::JobPriority;
  using rmi::MethodId;
  // Session control outranks everything; catalog lookups outrank compute;
  // bulk table fetches ride the batch lane.
  EXPECT_EQ(rmi::priorityFor(MethodId::OpenSession), JobPriority::Control);
  EXPECT_EQ(rmi::priorityFor(MethodId::CloseSession), JobPriority::Control);
  EXPECT_EQ(rmi::priorityFor(MethodId::GetCatalog), JobPriority::Query);
  EXPECT_EQ(rmi::priorityFor(MethodId::EvalFunction), JobPriority::Compute);
  EXPECT_EQ(rmi::priorityFor(MethodId::Instantiate), JobPriority::Compute);
  EXPECT_EQ(rmi::priorityFor(MethodId::EstimatePower), JobPriority::Batch);
  EXPECT_EQ(rmi::priorityFor(MethodId::GetDetectionTables), JobPriority::Batch);
}

}  // namespace
}  // namespace vcad::rmi
