// benchmark/expected.txt: read and written here. One "<workload> <key>
// <value>" per line after a "seed <n>" line; '#' starts a comment line.
// Digests are hex, fees are cents at 1e-4 resolution.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "workloads.hpp"

namespace vcad::benchmark {

std::optional<Expected> loadExpected(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Expected e;
  std::map<std::string, std::map<std::string, std::string>> fields;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string workload, key, value;
    if (!(words >> workload) || workload[0] == '#') continue;
    if (workload == "seed" && words >> value) {
      e.seed = std::stoull(value);
    } else if (words >> key >> value) {
      fields[workload][key] = value;
    }
  }
  auto at = [&](const std::string& workload, const std::string& key) {
    auto w = fields.find(workload);
    if (w == fields.end() || w->second.count(key) == 0) {
      throw std::runtime_error(path + ": missing " + workload + " " + key);
    }
    return w->second.at(key);
  };
  auto u64 = [&](const std::string& workload, const std::string& key) {
    return std::stoull(at(workload, key), nullptr, 0);
  };
  for (const std::string& name : workloadNames()) {
    CampaignVerdict v;
    v.faults = u64(name, "faults");
    v.detected = u64(name, "detected");
    v.detectedDigest = u64(name, "detected_digest");
    v.tableDigest = u64(name, "table_digest");
    v.feesCents = std::stod(at(name, "fees_cents"));
    e.campaigns[name] = v;
  }
  return e;
}

std::string expectedText(const Expected& e) {
  std::string out =
      "# Serial-loopback oracle at the default seed, one \"<workload> <key> "
      "<value>\"\n# per line. Rewrite with: vcad_bench --update-expected\n"
      "seed " + std::to_string(e.seed) + "\n";
  char buf[128];
  auto put = [&](const std::string& workload, const char* key,
                 const std::string& value) {
    out += workload + " " + key + " " + value + "\n";
  };
  for (const auto& [name, v] : e.campaigns) {
    put(name, "faults", std::to_string(v.faults));
    put(name, "detected", std::to_string(v.detected));
    std::snprintf(buf, sizeof(buf), "%.6f",
                  v.faults == 0 ? 0.0
                                : static_cast<double>(v.detected) /
                                      static_cast<double>(v.faults));
    put(name, "coverage", buf);
    put(name, "detected_digest", hex64(v.detectedDigest));
    put(name, "table_digest", hex64(v.tableDigest));
    std::snprintf(buf, sizeof(buf), "%.4f",
                  static_cast<double>(feeUnits(v.feesCents)) / 10000.0);
    put(name, "fees_cents", buf);
  }
  return out;
}

}  // namespace vcad::benchmark
