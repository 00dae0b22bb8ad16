#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "oracles/oracles.hpp"

namespace vcad::oracles {

fault::DetectionTable buildDetectionTable(
    const gate::NetlistEvaluator& eval, const fault::CollapsedFaults& collapsed,
    const Word& inputs) {
  const Word faultFree = eval.evalOutputs(inputs);
  std::map<std::string, fault::DetectionTable::Row> byOutput;
  const gate::Netlist& nl = eval.netlist();
  for (const gate::StuckFault& f : collapsed.representatives) {
    const Word out = eval.evalOutputs(inputs, f);
    if (out == faultFree) continue;  // fault not excited by this pattern
    auto& row = byOutput[out.toString()];
    row.faultyOutput = out;
    row.faults.push_back(fault::symbolOf(nl, f));
  }
  std::vector<fault::DetectionTable::Row> rows;
  rows.reserve(byOutput.size());
  for (auto& [key, row] : byOutput) {
    std::sort(row.faults.begin(), row.faults.end());
    rows.push_back(std::move(row));
  }
  return fault::DetectionTable(inputs, faultFree, std::move(rows));
}

}  // namespace vcad::oracles
