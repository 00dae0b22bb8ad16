#include "fault/detection.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
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
  std::string s = "DetectionTable(in=" + inputs_.toString() +
                  ", fault-free=" + faultFree_.toString() + ")";
  for (const Row& row : rows_) {
    s += "\n  " + row.faultyOutput.toString() + " <- {";
    for (std::size_t i = 0; i < row.faults.size(); ++i) {
      if (i != 0) s += ", ";
      s += row.faults[i];
    }
    s += "}";
  }
  return s;
}

void DetectionTable::serialize(net::ByteBuffer& buf) const {
  buf.writeWord(inputs_);
  buf.writeWord(faultFree_);
  buf.writeU32(static_cast<std::uint32_t>(rows_.size()));
  for (const Row& row : rows_) {
    buf.writeWord(row.faultyOutput);
    buf.writeU32(static_cast<std::uint32_t>(row.faults.size()));
    for (const std::string& f : row.faults) buf.writeString(f);
  }
}

DetectionTable DetectionTable::deserialize(net::ByteBuffer& buf) {
  const Word inputs = buf.readWord();
  const Word faultFree = buf.readWord();
  const std::uint32_t nRows = buf.readU32();
  std::vector<Row> rows;
  rows.reserve(nRows);
  for (std::uint32_t r = 0; r < nRows; ++r) {
    Row row;
    row.faultyOutput = buf.readWord();
    const std::uint32_t nFaults = buf.readU32();
    for (std::uint32_t i = 0; i < nFaults; ++i) {
      row.faults.push_back(buf.readString());
    }
    rows.push_back(std::move(row));
  }
  return DetectionTable(inputs, faultFree, std::move(rows));
}

DetectionTable buildDetectionTable(const gate::NetlistEvaluator& eval,
                                   const CollapsedFaults& collapsed,
                                   const Word& inputs) {
  const Word faultFree = eval.evalOutputs(inputs);
  std::map<std::string, DetectionTable::Row> byOutput;
  const Netlist& nl = eval.netlist();
  for (const StuckFault& f : collapsed.representatives) {
    const Word out = eval.evalOutputs(inputs, f);
    if (out == faultFree) continue;  // fault not excited by this pattern
    auto& row = byOutput[out.toString()];
    row.faultyOutput = out;
    row.faults.push_back(symbolOf(nl, f));
  }
  std::vector<DetectionTable::Row> rows;
  rows.reserve(byOutput.size());
  for (auto& [key, row] : byOutput) {
    std::sort(row.faults.begin(), row.faults.end());
    rows.push_back(std::move(row));
  }
  return DetectionTable(inputs, faultFree, std::move(rows));
}

std::vector<DetectionTable> buildDetectionTables(
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

  std::vector<DetectionTable> tables;
  tables.reserve(inputs.size());
  std::vector<gate::LanePlanes> golden, base, work;
  std::vector<Force> forces;
  std::vector<std::uint64_t> faultLanes(nFaults);  // per sorted fault, this pass
  std::vector<std::pair<std::size_t, std::uint64_t>> runs;  // (config, lanes)
  std::uint64_t passes = 0, lanesUsed = 0;
  for (std::size_t group = 0; group < inputs.size(); group += kLanes) {
    // Fault-free pass: one configuration per lane.
    const std::size_t nCfg = std::min(kLanes, inputs.size() - group);
    packed.evaluate(packed.pack(inputs, group, nCfg), golden);
    base.resize(golden.size());

    // Faulty passes: lane = one (configuration, fault) pair, filled
    // configuration-major, so pair t is configuration t / F and the fault
    // at sorted position t % F.
    std::vector<std::map<std::string, DetectionTable::Row>> byOutput(nCfg);
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
        const Word out = packed.outputsOf(work, lane);
        auto& row = byOutput[t / nFaults][out.toString()];
        row.faultyOutput = out;
        const std::size_t i = order[t % nFaults];
        if (symbols[i].empty()) symbols[i] = symbolOf(nl, faults[i]);
        row.faults.push_back(symbols[i]);
      }
    }

    for (std::size_t c = 0; c < nCfg; ++c) {
      std::vector<DetectionTable::Row> rows;
      rows.reserve(byOutput[c].size());
      for (auto& [key, row] : byOutput[c]) {
        std::sort(row.faults.begin(), row.faults.end());
        rows.push_back(std::move(row));
      }
      tables.emplace_back(inputs[group + c],
                          packed.outputsOf(golden, static_cast<int>(c)),
                          std::move(rows));
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

}  // namespace vcad::fault
