#include "fault/detection.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>
#include <utility>

#include "obs/trace.hpp"

namespace vcad::fault {

const Word* DetectionTable::faultyOutputFor(const std::string& symbol) const {
  for (const Row& row : rows_) {
    if (std::find(row.faults.begin(), row.faults.end(), symbol) !=
        row.faults.end()) {
      return &row.faultyOutput;
    }
  }
  return nullptr;
}

std::vector<std::string> DetectionTable::faultsFor(
    const Word& faultyOutput) const {
  for (const Row& row : rows_) {
    if (row.faultyOutput == faultyOutput) return row.faults;
  }
  return {};
}

std::size_t DetectionTable::excitedFaultCount() const {
  std::size_t n = 0;
  for (const Row& row : rows_) n += row.faults.size();
  return n;
}

std::string DetectionTable::toString() const {
  std::ostringstream os;
  os << "DetectionTable(in=" << inputs_ << ", fault-free=" << faultFree_
     << ")";
  for (const Row& row : rows_) {
    os << "\n  " << row.faultyOutput << " <- {";
    for (std::size_t i = 0; i < row.faults.size(); ++i) {
      if (i != 0) os << ", ";
      os << row.faults[i];
    }
    os << "}";
  }
  return os.str();
}

void DetectionTable::Writer::header(const Word& inputs, const Word& faultFree,
                                    std::uint32_t rows) {
  buf_.writeWord(inputs);
  buf_.writeWord(faultFree);
  buf_.writeU32(rows);
}

void DetectionTable::Writer::row(const Word& faultyOutput,
                                 std::uint32_t faults) {
  buf_.writeWord(faultyOutput);
  buf_.writeU32(faults);
}

void DetectionTable::Writer::fault(const std::string& name) {
  buf_.writeString(name);
}

void DetectionTable::serialize(net::ByteBuffer& buf) const {
  Writer out(buf);
  out.header(inputs_, faultFree_, static_cast<std::uint32_t>(rows_.size()));
  for (const Row& row : rows_) {
    out.row(row.faultyOutput, static_cast<std::uint32_t>(row.faults.size()));
    for (const std::string& f : row.faults) out.fault(f);
  }
}

namespace {

/// One table read off `in`, names copied into strings.
DetectionTable readTable(net::ByteReader& in) {
  struct Sink {
    Word inputs, faultFree;
    std::vector<DetectionTable::Row> rows;
    void header(Word in, Word ff, std::size_t n) {
      inputs = std::move(in);
      faultFree = std::move(ff);
      rows.reserve(n);
    }
    void row(Word faultyOutput, std::uint32_t /*faults*/) {
      rows.push_back({std::move(faultyOutput), {}});
    }
    void fault(std::string_view name) { rows.back().faults.emplace_back(name); }
  };
  Sink sink;
  DetectionTable::decode(in, sink);
  return DetectionTable(std::move(sink.inputs), std::move(sink.faultFree),
                        std::move(sink.rows));
}

}  // namespace

DetectionTable DetectionTable::deserialize(net::ByteBuffer& buf) {
  return buf.readWith(readTable);
}

DetectionTable DetectionTable::fromBytes(
    const std::vector<std::uint8_t>& bytes) {
  net::ByteReader in(bytes);
  return readTable(in);
}

cache::Value DetectionTable::readBytes(net::ByteReader& in) {
  struct Skip {
    void header(const Word&, const Word&, std::size_t) {}
    void row(const Word&, std::uint32_t) {}
    void fault(std::string_view) {}
  };
  const std::size_t begin = in.position();
  Skip skip;
  decode(in, skip);
  return std::make_shared<const std::vector<std::uint8_t>>(
      in.data() + begin, in.data() + in.position());
}

std::vector<cache::Value> buildSerializedTables(
    const gate::PackedEvaluator& packed, const CollapsedFaults& collapsed,
    const std::vector<Word>& inputs) {
  using Force = gate::PackedEvaluator::LaneForce;
  constexpr std::size_t kLanes = gate::PackedEvaluator::kLanes;
  obs::SpanScope span("gate.detectionTables", "gate");
  const Netlist& nl = packed.netlist();
  const std::vector<StuckFault>& faults = collapsed.representatives;
  const std::size_t nFaults = faults.size();
  std::vector<std::string> symbols(nFaults);  // named on first detection
  // Within a configuration, lanes take faults in their driver's topological
  // order: every pass's force list is then already sorted, and a pass of
  // late faults re-evaluates only the tail of the netlist. The counting sort
  // on position + 1 (primary inputs are -1) is stable, so a net's faults keep
  // their collapsed-list order and its two polarities share one force.
  std::vector<std::size_t> order(nFaults);
  {
    std::vector<std::size_t> next(static_cast<std::size_t>(nl.gateCount()) + 2);
    const auto bucket = [&](std::size_t i) {
      return static_cast<std::size_t>(packed.topoPosition(faults[i].net) + 1);
    };
    for (std::size_t i = 0; i < nFaults; ++i) ++next[bucket(i) + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (std::size_t i = 0; i < nFaults; ++i) order[next[bucket(i)]++] = i;
  }

  std::vector<cache::Value> tables;
  tables.reserve(inputs.size());
  std::vector<gate::LanePlanes> golden, base, work;
  std::vector<Force> forces;
  std::vector<std::uint64_t> faultLanes(nFaults);  // per sorted fault, this pass
  std::vector<std::pair<std::size_t, std::uint64_t>> runs;  // (config, lanes)
  // One per detecting lane of the current group: its configuration, faulty
  // output and fault, appended in lane order (so by configuration).
  struct Hit {
    std::size_t config;
    Word out;
    std::size_t fault;
  };
  std::vector<Hit> hits;
  std::uint64_t passes = 0, lanesUsed = 0;
  for (std::size_t group = 0; group < inputs.size(); group += kLanes) {
    // Fault-free pass: one configuration per lane.
    const std::size_t nCfg = std::min(kLanes, inputs.size() - group);
    packed.evaluate(packed.pack(inputs, group, nCfg), golden);
    base.resize(golden.size());

    // Faulty passes: lane = one (configuration, fault) pair, filled
    // configuration-major, so pair t is configuration t / F and the fault
    // at sorted position t % F.
    hits.clear();
    const std::size_t pairs = nCfg * nFaults;
    std::size_t broadcastCfg = kLanes;  // configuration filling all of base
    for (std::size_t t0 = 0; t0 < pairs; t0 += kLanes) {
      const std::size_t t1 = std::min(t0 + kLanes, pairs);
      const std::size_t c0 = t0 / nFaults, c1 = (t1 - 1) / nFaults;
      // Each lane starts from its configuration's fault-free planes:
      // broadcast when the pass holds one configuration, gathered otherwise.
      if (c0 != c1 || c0 != broadcastCfg) {
        runs.clear();
        for (std::size_t c = c0; c <= c1; ++c) {
          const std::size_t lo = std::max(t0, c * nFaults) - t0;
          const std::size_t hi = std::min(t1, (c + 1) * nFaults) - t0;
          runs.emplace_back(c, c0 == c1 ? ~0ULL
                                        : (hi == kLanes ? ~0ULL
                                                        : (1ULL << hi) - 1) &
                                              ~((1ULL << lo) - 1));
        }
        for (std::size_t n = 0; n < golden.size(); ++n) {
          gate::LanePlanes lane{};
          for (const auto& [c, run] : runs) {
            lane.val |= run & (0 - ((golden[n].val >> c) & 1));
            lane.known |= run & (0 - ((golden[n].known >> c) & 1));
            lane.z |= run & (0 - ((golden[n].z >> c) & 1));
          }
          base[n] = lane;
        }
        broadcastCfg = c0 == c1 ? c0 : kLanes;
      }
      // One force per net, in sorted-fault order, covering that fault's
      // lanes in every configuration of the pass. Configuration c0 holds
      // faults [jA, F), c1 holds [0, jB), any between hold all of them.
      for (std::size_t t = t0, j = t0 - c0 * nFaults; t < t1; ++t) {
        faultLanes[j] |= 1ULL << (t - t0);
        if (++j == nFaults) j = 0;
      }
      const std::size_t jA = t0 - c0 * nFaults, jB = t1 - c1 * nFaults;
      const bool gap = c1 == c0 + 1 && jB < jA;  // [jB, jA) untouched
      forces.clear();
      for (std::size_t j = c0 == c1 ? jA : 0; j < (c0 == c1 ? jB : nFaults);
           ++j) {
        if (gap && j == jB) j = jA;
        const std::uint64_t lanes = std::exchange(faultLanes[j], 0);
        const StuckFault& f = faults[order[j]];
        const std::uint64_t ones = f.stuck == Logic::L1 ? lanes : 0;
        if (!forces.empty() && forces.back().net == f.net) {
          forces.back().lanes |= lanes;
          forces.back().ones |= ones;
        } else {
          forces.push_back({f.net, lanes, ones});
        }
      }
      work = base;
      packed.reevaluate(work, forces);
      ++passes;
      lanesUsed += t1 - t0;

      std::uint64_t diff =
          packed.outputDiffMask(base, work, static_cast<int>(t1 - t0));
      while (diff != 0) {
        const int lane = std::countr_zero(diff);
        diff &= diff - 1;
        const std::size_t t = t0 + static_cast<std::size_t>(lane);
        const std::size_t i = order[t % nFaults];
        if (symbols[i].empty()) symbols[i] = symbolOf(nl, faults[i]);
        hits.push_back({t / nFaults, packed.outputsOf(work, lane), i});
      }
    }

    // Rows in the order the scalar builder's string-keyed map gives: per
    // configuration, by output display string, each row's faults by name.
    // Each table goes straight to bytes through DetectionTable::Writer, into
    // a buffer sized for it up front.
    const auto rowOrder = [&](const Hit& a, const Hit& b) {
      if (const auto o = Word::compareDisplay(a.out, b.out); o != 0) {
        return o < 0;
      }
      return symbols[a.fault] < symbols[b.fault];
    };
    auto first = hits.begin();
    for (std::size_t c = 0; c < nCfg; ++c) {
      const auto last = std::find_if(
          first, hits.end(), [c](const Hit& h) { return h.config != c; });
      std::sort(first, last, rowOrder);
      const auto rowEnd = [last](auto row) {
        return std::find_if(row, last,
                            [&](const Hit& h) { return h.out != row->out; });
      };
      using Writer = DetectionTable::Writer;
      const Word& in = inputs[group + c];
      const Word faultFree = packed.outputsOf(golden, static_cast<int>(c));
      std::uint32_t nRows = 0;
      std::size_t size = Writer::headerSize(in, faultFree);
      for (auto h = first; h != last; ++h) {
        if (h == first || h->out != (h - 1)->out) {
          ++nRows;
          size += Writer::rowSize(h->out);
        }
        size += Writer::faultSize(symbols[h->fault]);
      }
      net::ByteBuffer buf;
      buf.reserve(size);
      Writer out(buf);
      out.header(in, faultFree, nRows);
      while (first != last) {
        const auto row = first;
        first = rowEnd(row);
        out.row(row->out, static_cast<std::uint32_t>(first - row));
        for (auto h = row; h != first; ++h) out.fault(symbols[h->fault]);
      }
      tables.push_back(
          std::make_shared<const std::vector<std::uint8_t>>(buf.release()));
    }
  }

  static const obs::Registry::MetricId passesId =
      obs::Registry::global().counter("gate.tablePasses");
  static const obs::Registry::MetricId lanesId =
      obs::Registry::global().counter("gate.tableLanes");
  obs::Registry::global().add(passesId, passes);
  obs::Registry::global().add(lanesId, lanesUsed);
  if (span.active()) {
    span.arg("configs", static_cast<double>(inputs.size()));
    span.arg("faults", static_cast<double>(nFaults));
    span.arg("passes", static_cast<double>(passes));
  }
  return tables;
}

std::vector<DetectionTable> buildDetectionTables(
    const gate::PackedEvaluator& packed, const CollapsedFaults& collapsed,
    const std::vector<Word>& inputs) {
  std::vector<DetectionTable> tables;
  tables.reserve(inputs.size());
  for (const cache::Value& bytes :
       buildSerializedTables(packed, collapsed, inputs)) {
    tables.push_back(DetectionTable::fromBytes(*bytes));
  }
  return tables;
}

}  // namespace vcad::fault
