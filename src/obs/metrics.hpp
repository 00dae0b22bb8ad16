// obs::Registry: the process-wide metrics registry behind every counter the
// simulator exposes (RMI channel ledgers, campaign accounting, scheduler and
// slot-arena activity).
//
// Hot-path increments are lock-free: each thread owns a shard of plain
// atomic arrays reached through a thread_local table, so add() is one
// relaxed atomic add with no shared cache line between threads. A snapshot
// aggregates the live shards plus the totals of shards retired by exited
// threads (runConcurrently spawns threads per call, and provider job-queue
// and channel completion-queue workers exit with their owners; retirement
// keeps the shard list bounded by the number of *live* threads, not the
// number that ever existed).
//
// Metric names are interned once into dense ids; instrumentation sites cache
// the ids in function-local statics so steady-state recording never touches
// the name table. Capacities are fixed at compile time — a shard never
// reallocates, which is what makes concurrent snapshotting race-free — and
// exhausting a metric space throws loudly instead of silently dropping.
//
// Building with -DVCAD_OBS_TRACE=OFF defines VCAD_OBS_DISABLED and turns
// every recording call into an early return (kObsCompiledIn == false), so an
// observability-off build is bit-identical in behaviour.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vcad::obs {

#ifdef VCAD_OBS_DISABLED
inline constexpr bool kObsCompiledIn = false;
#else
inline constexpr bool kObsCompiledIn = true;
#endif

class Registry {
 public:
  using MetricId = std::uint32_t;

  static constexpr std::size_t kMaxCounters = 256;
  static constexpr std::size_t kMaxDoubles = 64;
  static constexpr std::size_t kMaxGauges = 64;
  static constexpr std::size_t kMaxHistograms = 32;
  /// Log-scale bucket count: bucket 0 holds values below kHistogramBase,
  /// each next bucket spans a 4x range, the top bucket is a catch-all.
  static constexpr std::size_t kHistogramBuckets = 24;
  static constexpr double kHistogramBase = 1e-9;

  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Intern a metric name (idempotent; same name -> same id). Throws
  /// std::length_error when the kind's fixed capacity is exhausted.
  MetricId counter(const std::string& name);
  MetricId doubleCounter(const std::string& name);
  MetricId gauge(const std::string& name);
  MetricId histogram(const std::string& name);

  /// Monotonic u64 counter increment (lock-free per-thread shard).
  void add(MetricId id, std::uint64_t delta = 1);
  /// Accumulating double (fee/time ledgers). Within one thread the
  /// additions land in call order, so a single-threaded run's total is
  /// bit-identical to the equivalent `double += x` sequence.
  void addDouble(MetricId id, double delta);
  /// Point-in-time gauge (process-wide, last-writer-wins).
  void setGauge(MetricId id, std::int64_t value);
  /// High-water-mark gauge: keeps the maximum ever set.
  void maxGauge(MetricId id, std::int64_t value);
  /// Histogram observation (log-4 buckets + count + sum).
  void observe(MetricId id, double value);

  struct HistogramData {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
  };

  /// Aggregated view over every shard (live + retired), keyed by name.
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> doubles;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramData> histograms;

    std::uint64_t counterOr(const std::string& name,
                            std::uint64_t fallback = 0) const;
    double doubleOr(const std::string& name, double fallback = 0.0) const;
    std::int64_t gaugeOr(const std::string& name,
                         std::int64_t fallback = 0) const;

    /// {"counters":{...},"doubles":{...},"gauges":{...},"histograms":{...}}
    std::string toJson() const;
  };

  Snapshot snapshot() const;

  /// Zeroes every value (live shards, retired totals, gauges); interned
  /// names and ids survive. Callers are expected to be quiescent.
  void reset();

  static Registry& global();

  /// Which log-4 bucket a histogram observation lands in (exposed so tests
  /// can assert placement).
  static std::size_t bucketFor(double value);

  // Internal shard type; public only so the thread-exit holder can name it.
  struct Shard;

 private:
  Shard* localShard();
  void retire(const std::shared_ptr<Shard>& shard);
  friend struct LocalShardTable;

  std::uint64_t epochId_;  // guards against stale thread_local entries when
                           // a registry address is reused
  mutable std::mutex mutex_;
  std::map<std::string, MetricId> counterNames_;
  std::map<std::string, MetricId> doubleNames_;
  std::map<std::string, MetricId> gaugeNames_;
  std::map<std::string, MetricId> histogramNames_;
  std::vector<std::string> counterIndex_;
  std::vector<std::string> doubleIndex_;
  std::vector<std::string> gaugeIndex_;
  std::vector<std::string> histogramIndex_;
  std::vector<std::shared_ptr<Shard>> shards_;
  // Totals merged out of shards whose thread exited.
  std::array<std::uint64_t, kMaxCounters> retiredCounters_{};
  std::array<double, kMaxDoubles> retiredDoubles_{};
  std::array<HistogramData, kMaxHistograms> retiredHistograms_{};
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges_{};
};

}  // namespace vcad::obs
