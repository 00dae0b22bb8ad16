#include "ip/job_queue.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"

namespace vcad::ip {

namespace {

/// JobQueue::Stats under its registry names (mt.queue.*).
void report(const JobQueue::Stats& s, obs::Registry::Tally& t) {
  t.count("mt.queue.enqueued", s.enqueued);
  t.count("mt.queue.executed", s.executed);
  t.count("mt.queue.shedTooManyPending", s.shedTooManyPending);
  t.count("mt.queue.shedOverloaded", s.shedOverloaded);
  t.count("mt.queue.promotions", s.promotions);
  t.peak("mt.queue.depth", static_cast<std::int64_t>(s.peakDepth));
  for (std::size_t lane = 0; lane < s.peakLaneDepth.size(); ++lane) {
    t.peak("mt.queue.lane" + std::to_string(lane) + ".depth",
           static_cast<std::int64_t>(s.peakLaneDepth[lane]));
  }
}

}  // namespace

std::string toString(JobQueue::Admit verdict) {
  switch (verdict) {
    case JobQueue::Admit::Ok:
      return "Ok";
    case JobQueue::Admit::TooManyPending:
      return "TooManyPending";
    case JobQueue::Admit::Overloaded:
      return "Overloaded";
    case JobQueue::Admit::Stopped:
      return "Stopped";
  }
  return "?";
}

JobQueue::JobQueue(const Config& config)
    : config_(config),
      obs_(obs::Registry::global(), [this](obs::Registry::Tally& t) {
        std::lock_guard<std::mutex> lock(mutex_);
        report(stats_, t);
      }) {
  config_.workers = std::max<std::size_t>(1, config_.workers);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

JobQueue::~JobQueue() { stop(); }

JobQueue::Admit JobQueue::add(net::JobPriority priority, Job job) {
  const std::size_t lane = static_cast<std::size_t>(priority);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      ++stats_.rejectedStopped;
      return Admit::Stopped;
    }
    // Global bound first: a saturated server is Overloaded regardless of
    // which lane the request wanted.
    if (config_.maxQueueDepth != 0 && depth_ >= config_.maxQueueDepth) {
      ++stats_.shedOverloaded;
      return Admit::Overloaded;
    }
    const std::size_t laneBound = config_.perPriorityDepth[lane];
    if (laneBound != 0 && lanes_[lane].size() >= laneBound) {
      ++stats_.shedTooManyPending;
      return Admit::TooManyPending;
    }
    lanes_[lane].push_back(Entry{std::move(job), popSeq_});
    ++depth_;
    ++stats_.enqueued;
    stats_.peakDepth = std::max(stats_.peakDepth, depth_);
    stats_.peakLaneDepth[lane] =
        std::max(stats_.peakLaneDepth[lane], lanes_[lane].size());
  }
  workCv_.notify_one();
  return Admit::Ok;
}

void JobQueue::workerLoop() {
  for (;;) {
    Job job;
    std::size_t lane = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      workCv_.wait(lock, [this] { return depth_ != 0 || stop_; });
      if (depth_ == 0) return;  // stop_ and nothing admitted: done
      // Every dequeue ticks the aging clock and promotes overdue waiters
      // *before* lane selection, so a just-promoted job competes in its new
      // lane immediately.
      const std::uint64_t now = ++popSeq_;
      if (config_.agingThreshold != 0) ageLanesLocked(now);
      // Most urgent non-empty lane, FIFO within it.
      while (lane < net::kJobPriorityCount && lanes_[lane].empty()) ++lane;
      job = std::move(lanes_[lane].front().job);
      lanes_[lane].pop_front();
      --depth_;
      ++running_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      ++stats_.executed;
      ++stats_.executedByPriority[lane];
    }
    idleCv_.notify_all();
  }
}

void JobQueue::ageLanesLocked(std::uint64_t now) {
  // Lanes are aged most-urgent-first: a job promoted 2→1 this tick has its
  // age stamp reset, so it cannot leapfrog 2→0 in one dequeue — each hop
  // costs a full agingThreshold wait, bounding total starvation at
  // lane × agingThreshold dequeues.
  for (std::size_t lane = 1; lane < net::kJobPriorityCount; ++lane) {
    while (!lanes_[lane].empty() &&
           now - lanes_[lane].front().agePop >= config_.agingThreshold) {
      Entry promoted = std::move(lanes_[lane].front());
      lanes_[lane].pop_front();
      promoted.agePop = now;
      lanes_[lane - 1].push_back(std::move(promoted));
      ++stats_.promotions;
    }
  }
}

void JobQueue::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [this] { return depth_ == 0 && running_ == 0; });
}

void JobQueue::stop() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ && workers_.empty()) return;
    stop_ = true;
    workers.swap(workers_);
  }
  workCv_.notify_all();
  for (std::thread& t : workers) t.join();
  idleCv_.notify_all();
}

JobQueue::Stats JobQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t JobQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return depth_;
}

}  // namespace vcad::ip
