// obs::Registry: the process-wide metrics snapshot.
//
// Every counter has exactly one home, and a snapshot reads it there.
//
//  - Owner ledgers. The components that already keep a stats struct keep
//    their counters in it, and only there:
//      RmiChannel                  ChannelStats      rmi.*
//      FaultyTransport             TransportStats    transport.*
//      JobQueue                    JobQueue::Stats   mt.queue.*
//      ProviderCore                its Stats         mt.*
//      ResultStore                 its Stats         cache.*
//    Each owner holds one Attachment for its lifetime. The attachment's
//    reporter maps the struct's fields onto metric names, and snapshot()
//    runs every live reporter. When an owner is destroyed, or zeroes its
//    struct through resetStats(), its counters fold into the registry's
//    retired totals first, so registry counters never run backwards.
//    VirtualFaultSimulator::run folds each finished CampaignResult
//    (campaign.*) the same way, once.
//  - Registry cells. Low-rate metrics that have no owning struct live in
//    the registry itself, one atomic cell per metric: sched.* (flushed once
//    per scheduler run), slots.*, gate.table*, provider.dispatches /
//    charges / feesCents / inflight, and the rmi.callWallSec histogram.
//    Cell names are interned once into dense ids; recording sites cache the
//    ids in function-local statics. Capacities are fixed at compile time and
//    exhausting one throws instead of silently dropping.
//
// Owners report two kinds of gauge: peaks (high-water marks, the maximum
// over live and retired owners) and levels (current footprints such as
// cache.bytes, summed over live owners and dropped when an owner retires).
//
// Lock order: a snapshot or fold holds the registry mutex while a reporter
// takes its owner's lock, so an owner never calls into the registry's
// attach/fold/intern paths while holding the lock its reporter takes.
// Cell updates are lock-free and safe from anywhere.
//
// Building with -DVCAD_OBS_TRACE=OFF defines VCAD_OBS_DISABLED: cell updates
// return early, owners do not attach and folds are dropped
// (kObsCompiledIn == false). The stats structs count exactly as before.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
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

  Registry() = default;
  ~Registry() = default;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // --- registry cells ------------------------------------------------------

  /// Intern a metric name (idempotent; same name -> same id). Throws
  /// std::length_error when the kind's fixed capacity is exhausted.
  MetricId counter(const std::string& name);
  MetricId doubleCounter(const std::string& name);
  MetricId gauge(const std::string& name);
  MetricId histogram(const std::string& name);

  /// Monotonic u64 counter increment (one relaxed atomic add).
  void add(MetricId id, std::uint64_t delta = 1);
  /// Accumulating double. Additions land in the order they are made, so a
  /// single-threaded total is bit-identical to the same `double += x` run.
  void addDouble(MetricId id, double delta);
  /// Point-in-time gauge (process-wide, last-writer-wins).
  void setGauge(MetricId id, std::int64_t value);
  /// High-water-mark gauge: keeps the maximum ever set.
  void maxGauge(MetricId id, std::int64_t value);
  /// Histogram observation (log-4 buckets + count + sum).
  void observe(MetricId id, double value);

  // --- owner ledgers -------------------------------------------------------

  /// Totals keyed by metric name: what a reporter writes an owner's stats
  /// struct into, and the form the retired totals are kept in.
  struct Tally {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> doubles;
    std::map<std::string, std::int64_t> peaks;
    std::map<std::string, std::int64_t> levels;

    void count(const std::string& name, std::uint64_t value);
    void sum(const std::string& name, double value);
    void peak(const std::string& name, std::int64_t value);
    void level(const std::string& name, std::int64_t value);
  };
  using Reporter = std::function<void(Tally&)>;

  /// An owner's stats struct, attached for the owner's lifetime. Declare it
  /// after the struct and the lock the reporter reads them under, so it is
  /// torn down first; the destructor folds the struct's counters into the
  /// retired totals and detaches.
  class Attachment {
   public:
    Attachment(Registry& registry, Reporter report);
    ~Attachment();

    Attachment(const Attachment&) = delete;
    Attachment& operator=(const Attachment&) = delete;

    /// For resetStats(): `drain` reports the struct and zeroes it under the
    /// owner's lock, so every increment lands either in the fold or in the
    /// fresh struct. A snapshot never sees the counters twice or not at all.
    void fold(const Reporter& drain);

   private:
    friend class Registry;
    Registry& registry_;
    Reporter report_;
  };

  /// Folds a one-shot ledger (a finished campaign) into the retired totals.
  void fold(const Reporter& report);

  // --- reading -------------------------------------------------------------

  struct HistogramData {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
  };

  /// Registry cells, retired totals and every live owner, keyed by name.
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

  /// Zeroes the registry cells and the retired totals; interned names and
  /// ids survive. Owners still attached keep reporting their live structs.
  /// Callers are expected to be quiescent.
  void reset();

  static Registry& global();

  /// Which log-4 bucket a histogram observation lands in (exposed so tests
  /// can assert placement).
  static std::size_t bucketFor(double value);

 private:
  struct Hist {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sumBits{0};  // IEEE-754 bits, CAS-accumulated
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };

  mutable std::mutex mutex_;  // names, attachments, retired totals
  std::map<std::string, MetricId> counterNames_;
  std::map<std::string, MetricId> doubleNames_;
  std::map<std::string, MetricId> gaugeNames_;
  std::map<std::string, MetricId> histogramNames_;
  std::vector<std::string> counterIndex_;
  std::vector<std::string> doubleIndex_;
  std::vector<std::string> gaugeIndex_;
  std::vector<std::string> histogramIndex_;
  std::vector<const Attachment*> attachments_;
  Tally retired_;  // folded owner counters; levels are never kept

  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters_{};
  std::array<std::atomic<std::uint64_t>, kMaxDoubles> doubleBits_{};
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges_{};
  std::array<Hist, kMaxHistograms> hists_{};
};

}  // namespace vcad::obs
