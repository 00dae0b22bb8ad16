#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace vcad::obs {

namespace {

double bitsToDouble(std::uint64_t bits) {
  double d;
  static_assert(sizeof(d) == sizeof(bits));
  __builtin_memcpy(&d, &bits, sizeof(d));
  return d;
}

std::uint64_t doubleToBits(double d) {
  std::uint64_t bits;
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// CAS accumulation of a double stored as bits. C++20's
/// atomic<double>::fetch_add is not universally available, and storing the
/// bit pattern sidesteps any question of atomic<double> lock-freedom.
void atomicAddDouble(std::atomic<std::uint64_t>& cell, double delta) {
  std::uint64_t expected = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(
      expected, doubleToBits(bitsToDouble(expected) + delta),
      std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

Registry::MetricId intern(std::map<std::string, Registry::MetricId>& names,
                          std::vector<std::string>& index,
                          const std::string& name, std::size_t capacity,
                          const char* kind, std::mutex& mutex) {
  std::lock_guard<std::mutex> lock(mutex);
  auto it = names.find(name);
  if (it != names.end()) return it->second;
  if (index.size() >= capacity) {
    throw std::length_error(std::string("obs::Registry: out of ") + kind +
                            " metric slots interning '" + name + "'");
  }
  const Registry::MetricId id =
      static_cast<Registry::MetricId>(index.size());
  index.push_back(name);
  names.emplace(name, id);
  return id;
}

/// Adds an owner's tally into the retired totals. Levels are current
/// footprints, so a retiring owner's levels are dropped, not kept.
void retireInto(Registry::Tally& retired, const Registry::Tally& t) {
  for (const auto& [name, v] : t.counters) retired.count(name, v);
  for (const auto& [name, v] : t.doubles) retired.sum(name, v);
  for (const auto& [name, v] : t.peaks) retired.peak(name, v);
}

}  // namespace

// --- registry cells --------------------------------------------------------

Registry::MetricId Registry::counter(const std::string& name) {
  return intern(counterNames_, counterIndex_, name, kMaxCounters, "counter",
                mutex_);
}

Registry::MetricId Registry::doubleCounter(const std::string& name) {
  return intern(doubleNames_, doubleIndex_, name, kMaxDoubles, "double",
                mutex_);
}

Registry::MetricId Registry::gauge(const std::string& name) {
  return intern(gaugeNames_, gaugeIndex_, name, kMaxGauges, "gauge", mutex_);
}

Registry::MetricId Registry::histogram(const std::string& name) {
  return intern(histogramNames_, histogramIndex_, name, kMaxHistograms,
                "histogram", mutex_);
}

void Registry::add(MetricId id, std::uint64_t delta) {
  if constexpr (!kObsCompiledIn) return;
  counters_[id].fetch_add(delta, std::memory_order_relaxed);
}

void Registry::addDouble(MetricId id, double delta) {
  if constexpr (!kObsCompiledIn) return;
  atomicAddDouble(doubleBits_[id], delta);
}

void Registry::setGauge(MetricId id, std::int64_t value) {
  if constexpr (!kObsCompiledIn) return;
  gauges_[id].store(value, std::memory_order_relaxed);
}

void Registry::maxGauge(MetricId id, std::int64_t value) {
  if constexpr (!kObsCompiledIn) return;
  std::int64_t prev = gauges_[id].load(std::memory_order_relaxed);
  while (prev < value && !gauges_[id].compare_exchange_weak(
                             prev, value, std::memory_order_relaxed,
                             std::memory_order_relaxed)) {
  }
}

std::size_t Registry::bucketFor(double value) {
  if (!(value > kHistogramBase)) return 0;
  const double steps = std::log(value / kHistogramBase) / std::log(4.0);
  const auto bucket = static_cast<std::size_t>(steps) + 1;
  return bucket >= kHistogramBuckets ? kHistogramBuckets - 1 : bucket;
}

void Registry::observe(MetricId id, double value) {
  if constexpr (!kObsCompiledIn) return;
  Hist& h = hists_[id];
  h.count.fetch_add(1, std::memory_order_relaxed);
  atomicAddDouble(h.sumBits, value);
  h.buckets[bucketFor(value)].fetch_add(1, std::memory_order_relaxed);
}

// --- owner ledgers ---------------------------------------------------------

void Registry::Tally::count(const std::string& name, std::uint64_t value) {
  counters[name] += value;
}

void Registry::Tally::sum(const std::string& name, double value) {
  doubles[name] += value;
}

void Registry::Tally::peak(const std::string& name, std::int64_t value) {
  auto [it, inserted] = peaks.emplace(name, value);
  if (!inserted && value > it->second) it->second = value;
}

void Registry::Tally::level(const std::string& name, std::int64_t value) {
  levels[name] += value;
}

Registry::Attachment::Attachment(Registry& registry, Reporter report)
    : registry_(registry), report_(std::move(report)) {
  if constexpr (!kObsCompiledIn) return;
  std::lock_guard<std::mutex> lock(registry_.mutex_);
  registry_.attachments_.push_back(this);
}

Registry::Attachment::~Attachment() {
  if constexpr (!kObsCompiledIn) return;
  // Fold and detach in one critical section: a concurrent snapshot sees the
  // owner either live or retired, never both.
  std::lock_guard<std::mutex> lock(registry_.mutex_);
  Tally t;
  report_(t);
  retireInto(registry_.retired_, t);
  auto& live = registry_.attachments_;
  live.erase(std::find(live.begin(), live.end(), this));
}

void Registry::Attachment::fold(const Reporter& drain) {
  std::lock_guard<std::mutex> lock(registry_.mutex_);
  Tally t;
  drain(t);
  if constexpr (kObsCompiledIn) retireInto(registry_.retired_, t);
}

void Registry::fold(const Reporter& report) {
  if constexpr (!kObsCompiledIn) return;
  Tally t;
  report(t);
  std::lock_guard<std::mutex> lock(mutex_);
  retireInto(retired_, t);
}

// --- reading ---------------------------------------------------------------

Registry::Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < counterIndex_.size(); ++i) {
    snap.counters.emplace(counterIndex_[i],
                          counters_[i].load(std::memory_order_relaxed));
  }
  for (std::size_t i = 0; i < doubleIndex_.size(); ++i) {
    snap.doubles.emplace(
        doubleIndex_[i],
        bitsToDouble(doubleBits_[i].load(std::memory_order_relaxed)));
  }
  for (std::size_t i = 0; i < gaugeIndex_.size(); ++i) {
    snap.gauges.emplace(gaugeIndex_[i],
                        gauges_[i].load(std::memory_order_relaxed));
  }
  for (std::size_t i = 0; i < histogramIndex_.size(); ++i) {
    const Hist& h = hists_[i];
    HistogramData& d = snap.histograms[histogramIndex_[i]];
    d.count = h.count.load(std::memory_order_relaxed);
    d.sum = bitsToDouble(h.sumBits.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      d.buckets[b] = h.buckets[b].load(std::memory_order_relaxed);
    }
  }

  Tally owners = retired_;
  for (const Attachment* a : attachments_) a->report_(owners);
  for (const auto& [name, v] : owners.counters) snap.counters[name] += v;
  for (const auto& [name, v] : owners.doubles) snap.doubles[name] += v;
  for (const auto& [name, v] : owners.peaks) snap.gauges[name] = v;
  for (const auto& [name, v] : owners.levels) snap.gauges[name] = v;
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  retired_ = Tally{};
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  for (auto& d : doubleBits_) d.store(0, std::memory_order_relaxed);
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  for (auto& h : hists_) {
    h.count.store(0, std::memory_order_relaxed);
    h.sumBits.store(0, std::memory_order_relaxed);
    for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

// --- snapshot helpers ------------------------------------------------------

std::uint64_t Registry::Snapshot::counterOr(const std::string& name,
                                            std::uint64_t fallback) const {
  auto it = counters.find(name);
  return it == counters.end() ? fallback : it->second;
}

double Registry::Snapshot::doubleOr(const std::string& name,
                                    double fallback) const {
  auto it = doubles.find(name);
  return it == doubles.end() ? fallback : it->second;
}

std::int64_t Registry::Snapshot::gaugeOr(const std::string& name,
                                         std::int64_t fallback) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? fallback : it->second;
}

namespace {

void appendJsonString(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void appendJsonDouble(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string Registry::Snapshot::toJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    appendJsonString(out, name);
    out.push_back(':');
    out += std::to_string(value);
  }
  out += "},\"doubles\":{";
  first = true;
  for (const auto& [name, value] : doubles) {
    if (!first) out.push_back(',');
    first = false;
    appendJsonString(out, name);
    out.push_back(':');
    appendJsonDouble(out, value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    appendJsonString(out, name);
    out.push_back(':');
    out += std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    appendJsonString(out, name);
    out += ":{\"count\":" + std::to_string(h.count) + ",\"sum\":";
    appendJsonDouble(out, h.sum);
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (b != 0) out.push_back(',');
      out += std::to_string(h.buckets[b]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace vcad::obs
