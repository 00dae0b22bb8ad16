// JobQueue: a prioritized, bounded job queue with a fixed worker pool —
// the layer between a multi-tenant server's socket front end and
// ProviderServer dispatch (the rippled JobQueue idiom: per-method job
// types map to priority lanes, each lane has a depth bound, and admission
// is a typed verdict rather than unbounded queueing).
//
// Semantics:
//   - Four lanes (net::JobPriority). Workers always drain the most urgent
//     non-empty lane first, FIFO within a lane. Session control therefore
//     gets through even when bulk work has the queue saturated.
//   - add() is the admission decision, made synchronously on the caller's
//     (connection reader) thread: Overloaded when the total queued depth
//     is at the global bound, TooManyPending when the request's own lane
//     is at its per-lane bound, Stopped after stop(). The caller surfaces
//     the verdict to the client as the matching FrameStatus — the job
//     function is only ever run on Ok.
//   - stop() is graceful: already-admitted jobs still execute, then the
//     workers exit. drain() waits for the queue to empty without stopping.
//   - Priority aging (Config::agingThreshold > 0): a queued job that has
//     waited through `agingThreshold` dequeues is promoted one lane, so a
//     saturated Compute lane cannot starve Batch forever. The clock is the
//     dequeue sequence number — deterministic under a single worker, and
//     load-proportional (an idle queue never promotes). A lane-3 job
//     reaches lane 0 within 3×agingThreshold dequeues: a bounded
//     starvation window.
//
// The counters live in Stats alone; the global obs::Registry reads them
// as mt.queue.* through the queue's attachment.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace vcad::ip {

class JobQueue {
 public:
  using Job = std::function<void()>;

  struct Config {
    std::size_t workers = 4;
    /// Global bound on queued (not yet executing) jobs across all lanes.
    /// 0 = unlimited.
    std::size_t maxQueueDepth = 256;
    /// Per-lane bounds; 0 = no per-lane bound beyond the global one.
    std::array<std::size_t, net::kJobPriorityCount> perPriorityDepth{};
    /// Dequeues a queued job may wait through before being promoted one
    /// priority lane (anti-starvation). 0 = aging off.
    std::uint64_t agingThreshold = 0;
  };

  /// The typed admission verdict — maps 1:1 onto FrameStatus codes.
  enum class Admit {
    Ok,              // queued; the job will run
    TooManyPending,  // this priority lane is at capacity
    Overloaded,      // the whole queue is at capacity
    Stopped,         // the queue is draining for shutdown
  };

  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t executed = 0;
    std::uint64_t shedTooManyPending = 0;
    std::uint64_t shedOverloaded = 0;
    std::uint64_t rejectedStopped = 0;
    std::uint64_t promotions = 0;  // aging promotions, one lane each
    std::size_t peakDepth = 0;  // max queued depth ever observed
    std::array<std::size_t, net::kJobPriorityCount> peakLaneDepth{};
    std::array<std::uint64_t, net::kJobPriorityCount> executedByPriority{};
  };

  explicit JobQueue(const Config& config);
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Admission + enqueue. The job runs on a worker thread iff Admit::Ok.
  Admit add(net::JobPriority priority, Job job);

  /// Blocks until no job is queued or executing. Does not stop the queue.
  void drain();

  /// Graceful shutdown: admitted jobs finish, workers join. Idempotent.
  void stop();

  Stats stats() const;
  std::size_t depth() const;
  std::size_t workers() const { return config_.workers; }

 private:
  struct Entry {
    Job job;
    /// Dequeue-sequence stamp of admission (or last promotion): the job is
    /// promoted again once popSeq_ has advanced by agingThreshold.
    std::uint64_t agePop = 0;
  };

  void workerLoop();
  void ageLanesLocked(std::uint64_t now);

  Config config_;
  mutable std::mutex mutex_;
  std::condition_variable workCv_;  // wakes workers
  std::condition_variable idleCv_;  // wakes drain()/stop() waiters
  std::array<std::deque<Entry>, net::kJobPriorityCount> lanes_;
  std::size_t depth_ = 0;    // total queued across lanes
  std::size_t running_ = 0;  // jobs currently executing
  std::uint64_t popSeq_ = 0;  // dequeues so far — the aging clock
  bool stop_ = false;
  Stats stats_;
  obs::Registry::Attachment obs_;  // mt.queue.* read from stats_
  std::vector<std::thread> workers_;
};

std::string toString(JobQueue::Admit verdict);

}  // namespace vcad::ip
