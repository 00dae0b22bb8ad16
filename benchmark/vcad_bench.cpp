// vcad_bench: the repository benchmark.
//
//   vcad_bench --all [--seed S] [--seconds T] [--trace 0|1] [--json PATH]
//   vcad_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//   vcad_bench --all --repeat N         median and quartiles of N runs
//   vcad_bench --smoke [--trace 0|1]    toy sizes, oracle always run
//   vcad_bench --update-expected        rewrite expected.txt (default seed)
//
// --trace 0 (default) prints every end-to-end metric; --trace 1 reruns with
// the layer decorators on and prints every per-layer metric, writing Chrome
// traces into --out-dir. The last stdout line of a single-workload run is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// status is nonzero when any run disagrees with its oracle.
#include <sched.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace vcad::benchmark {
namespace {

std::string resultJson(const RunResult& r) {
  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    out += buf;
  }
  return out + "}}";
}

/// Confines the calling thread, and every thread and process it starts
/// while the pin lives, to the last CPU it may run on; restores the
/// previous set on destruction.
class CpuPin {
 public:
  CpuPin() {
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) last = c;
    }
    if (last < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

RunResult runWorkload(const std::string& name, const Options& opt) {
  // peak_rss_mb belongs to this workload run alone, not to the largest of
  // the runs before it in this process (--all, --repeat).
  resetPeakRss();
  const auto start = Clock::now();
  RunResult r;
  {
    // A campaign keeps one call in flight, so one CPU serves the client and
    // the provider process in turn. Left to float, every round trip pays a
    // cross-CPU wakeup, which on the reference 4-vCPU host added 30-50% to
    // datapath_socket and made its run-to-run spread 15-20%.
    const CpuPin pin;
    r = runCampaignWorkload(name, opt);
  }
  if (opt.trace) {
    // This process's spans; a provider process writes its own file.
    std::ofstream(opt.outDir + "/" + name + "_trace.json")
        << obs::Tracer::global().toChromeJson();
    obs::Tracer::global().clear();
  }
  std::fprintf(stderr, "%s: run took %.1f s\n", name.c_str(),
               secondsSince(start));
  return r;
}

/// The directory holding this executable (where vcad_bench_provider is).
std::string selfDir() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.find_last_of('/'));
}

/// --repeat: one row per workload x metric with median and quartiles.
void printRepeatTable(
    const std::map<std::string, std::map<std::string, std::vector<double>>>& v,
    const std::map<std::string, std::string>& units) {
  std::printf("%-20s %-28s %12s %12s %12s %8s\n", "workload", "metric",
              "median", "q1", "q3", "iqr/med");
  for (const auto& [workload, metrics] : v) {
    for (const auto& [metric, xs] : metrics) {
      const double med = median(xs);
      const double q1 = quantile(xs, 0.25);
      const double q3 = quantile(xs, 0.75);
      std::printf("%-20s %-28s %12.6g %12.6g %12.6g %7.2f%%  %s\n",
                  workload.c_str(), metric.c_str(), med, q1, q3,
                  med != 0.0 ? 100.0 * (q3 - q1) / med : 0.0,
                  units.at(metric).c_str());
    }
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--all | --workload NAME | --smoke | "
               "--update-expected) [--seed S] [--seconds T] "
               "[--trace 0|1] [--repeat N] [--json PATH] [--out-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace vcad::benchmark

namespace {

int benchMain(int argc, char** argv) {
  using namespace vcad::benchmark;
  Options opt;
  std::vector<std::string> workloads;
  std::string jsonPath;
  const std::string expectedPath =
      std::string(VCAD_BENCH_DIR) + "/expected.txt";
  int repeat = 1;
  bool seedGiven = false;
  bool secondsGiven = false;
  bool updateExpected = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--all") {
      workloads = workloadNames();
    } else if (a == "--workload" && hasValue) {
      workloads.push_back(argv[++i]);
    } else if (a == "--seed" && hasValue) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      seedGiven = true;
    } else if (a == "--seconds" && hasValue) {
      opt.seconds = std::strtod(argv[++i], nullptr);
      secondsGiven = true;
    } else if (a == "--trace" && hasValue &&
               (std::strcmp(argv[i + 1], "0") == 0 ||
                std::strcmp(argv[i + 1], "1") == 0)) {
      opt.trace = argv[++i][0] == '1';
    } else if (a == "--repeat" && hasValue) {
      repeat = std::atoi(argv[++i]);
    } else if (a == "--json" && hasValue) {
      jsonPath = argv[++i];
    } else if (a == "--out-dir" && hasValue) {
      opt.outDir = argv[++i];
    } else if (a == "--smoke") {
      opt.smoke = true;
      workloads = workloadNames();
    } else if (a == "--update-expected") {
      updateExpected = true;
    } else {
      return usage(argv[0]);
    }
  }
  for (const std::string& w : workloads) {
    bool known = false;
    for (const std::string& n : workloadNames()) known = known || n == w;
    if (!known) {
      std::fprintf(stderr, "unknown workload: %s\n", w.c_str());
      return 2;
    }
  }
  if (repeat < 1 || opt.seconds <= 0.0) return usage(argv[0]);
  opt.providerBin = selfDir() + "/vcad_bench_provider";
  if (opt.smoke && !secondsGiven) opt.seconds = 0.5;
  std::error_code ec;
  std::filesystem::create_directories(opt.outDir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", opt.outDir.c_str());
    return 2;
  }

  if (updateExpected) {
    Expected e;
    e.seed = opt.seed;
    for (const std::string& name : workloadNames()) {
      e.campaigns[name] = campaignOracle(name, opt.seed, false);
    }
    std::ofstream(expectedPath) << expectedText(e);
    std::printf("wrote %s\n", expectedPath.c_str());
    return 0;
  }
  if (workloads.empty()) return usage(argv[0]);

  // The recorded oracle serves the default-seed, full-size runs; any other
  // run computes its oracle itself.
  std::optional<Expected> expected;
  if (!opt.smoke) {
    expected = loadExpected(expectedPath);
    if (!expected) {
      std::fprintf(stderr, "cannot read %s\n", expectedPath.c_str());
      return 2;
    }
    if (!seedGiven) opt.seed = expected->seed;
    if (opt.seed == expected->seed) opt.expected = &*expected;
  }

  bool allCorrect = true;
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::map<std::string, std::string> units;
  std::string json = "{";
  for (int rep = 0; rep < repeat; ++rep) {
    for (const std::string& name : workloads) {
      const RunResult r = runWorkload(name, opt);
      allCorrect = allCorrect && r.correct;
      for (const std::string& m : r.mismatches) {
        std::fprintf(stderr, "%s: MISMATCH: %s\n", name.c_str(), m.c_str());
      }
      for (const Metric& m : r.metrics) {
        values[name][m.name].push_back(m.value);
        units[m.name] = m.unit;
        if (workloads.size() > 1 || repeat > 1) {
          std::printf("%-20s %-28s %14.6g %s\n", name.c_str(), m.name.c_str(),
                      m.value, m.unit.c_str());
        }
      }
      if (rep == 0) {
        json += std::string(json.size() > 1 ? ", " : "") + "\"" + name +
                "\": " + resultJson(r);
      }
      if (workloads.size() == 1 && repeat == 1) {
        std::printf("%s\n", resultJson(r).c_str());
      }
    }
  }
  if (repeat > 1) printRepeatTable(values, units);
  if (!jsonPath.empty()) std::ofstream(jsonPath) << json << "}\n";
  return allCorrect ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return benchMain(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcad_bench: %s\n", e.what());
    return 1;
  }
}
