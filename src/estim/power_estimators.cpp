#include "estim/power_estimators.hpp"

#include <stdexcept>

namespace vcad::estim {

// --- ConstantEstimator -------------------------------------------------

ConstantEstimator::ConstantEstimator(std::string name, double value,
                                     std::string unit, double expectedErrorPct)
    : Estimator(EstimatorInfo{std::move(name), expectedErrorPct, 0.0, 0.0,
                              false, false}),
      value_(value),
      unit_(std::move(unit)) {}

std::unique_ptr<ParamValue> ConstantEstimator::estimate(
    const EstimationContext&) {
  return std::make_unique<ScalarValue>(value_, unit_);
}

// --- linear model fitting ----------------------------------------------

namespace {
double inputActivity(const std::vector<Word>& patterns) {
  if (patterns.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 1; i < patterns.size(); ++i) {
    total += Word::toggleCount(patterns[i - 1], patterns[i]);
  }
  return total / static_cast<double>(patterns.size() - 1);
}
}  // namespace

LinearPowerModel fitLinearPowerModel(const gate::Netlist& netlist,
                                     const std::vector<Word>& trainingPatterns,
                                     const gate::TechParams& tech) {
  if (trainingPatterns.size() < 3) {
    throw std::invalid_argument(
        "fitLinearPowerModel: need at least 3 training patterns");
  }
  // Per-transition samples: x = input toggles, y = power of that transition.
  // Energies come from the packed bit-parallel engine, 64 patterns per pass.
  const std::vector<double> energiesPj =
      gate::transitionEnergiesPj(gate::PackedEvaluator(netlist),
                                 trainingPatterns, tech);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (std::size_t i = 1; i < trainingPatterns.size(); ++i) {
    const double x =
        Word::toggleCount(trainingPatterns[i - 1], trainingPatterns[i]);
    const double y = energiesPj[i - 1] * 1e-12 * tech.clockHz * 1e3;  // mW
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  LinearPowerModel model;
  if (denom <= 1e-12) {
    // Degenerate activity (all transitions identical): constant model.
    model.interceptMw = sy / dn;
    model.slopeMwPerToggle = 0.0;
  } else {
    model.slopeMwPerToggle = (dn * sxy - sx * sy) / denom;
    model.interceptMw = (sy - model.slopeMwPerToggle * sx) / dn;
  }
  return model;
}

double characterizeAveragePowerMw(const gate::Netlist& netlist,
                                  const std::vector<Word>& trainingPatterns,
                                  const gate::TechParams& tech) {
  const gate::PackedEvaluator packed(netlist);
  return gate::gateLevelPower(packed, trainingPatterns, tech).avgPowerMw;
}

double predictLinearPowerMw(const LinearPowerModel& model,
                            const std::vector<Word>& patterns) {
  if (patterns.size() < 2) return model.interceptMw;
  return model.interceptMw + model.slopeMwPerToggle * inputActivity(patterns);
}

// --- LinearRegressionPowerEstimator --------------------------------------

LinearRegressionPowerEstimator::LinearRegressionPowerEstimator(
    LinearPowerModel model, double expectedErrorPct)
    : Estimator(EstimatorInfo{"linear-regression", expectedErrorPct, 0.0, 1e-6,
                              false, false}),
      model_(model) {}

std::unique_ptr<ParamValue> LinearRegressionPowerEstimator::estimate(
    const EstimationContext& ctx) {
  const std::vector<Word>* history = ctx.patternHistory;
  if (history == nullptr || history->size() < 2) {
    return std::make_unique<ScalarValue>(model_.interceptMw, "mW");
  }
  return std::make_unique<ScalarValue>(predictLinearPowerMw(model_, *history),
                                       "mW");
}

// --- GateLevelPowerEstimator ---------------------------------------------

GateLevelPowerEstimator::GateLevelPowerEstimator(
    std::shared_ptr<const gate::Netlist> netlist, gate::TechParams tech,
    bool remote, double costPerPatternCents)
    : Estimator(EstimatorInfo{"gate-level-toggle", 10.0, costPerPatternCents,
                              1e-4, remote, remote}),
      netlist_(std::move(netlist)),
      packed_(*netlist_),
      tech_(tech) {}

std::unique_ptr<ParamValue> GateLevelPowerEstimator::estimate(
    const EstimationContext& ctx) {
  const std::vector<Word>* history = ctx.patternHistory;
  if (history == nullptr || history->size() < 2) {
    return std::make_unique<NullValue>();
  }
  const gate::PowerResult res = gate::gateLevelPower(packed_, *history, tech_);
  return std::make_unique<ScalarValue>(res.avgPowerMw, "mW");
}

// --- peak power / I/O activity ----------------------------------------

GateLevelPeakPowerEstimator::GateLevelPeakPowerEstimator(
    std::shared_ptr<const gate::Netlist> netlist, gate::TechParams tech,
    bool remote)
    : Estimator(EstimatorInfo{"gate-level-peak", 10.0, 0.1, 1e-4, remote,
                              remote}),
      netlist_(std::move(netlist)),
      packed_(*netlist_),
      tech_(tech) {}

std::unique_ptr<ParamValue> GateLevelPeakPowerEstimator::estimate(
    const EstimationContext& ctx) {
  const std::vector<Word>* history = ctx.patternHistory;
  if (history == nullptr || history->size() < 2) {
    return std::make_unique<NullValue>();
  }
  const gate::PowerResult res = gate::gateLevelPower(packed_, *history, tech_);
  return std::make_unique<ScalarValue>(res.peakPowerMw, "mW");
}

IoActivityEstimator::IoActivityEstimator()
    : Estimator(EstimatorInfo{"io-activity", 0.0, 0.0, 1e-7, false, false}) {}

std::unique_ptr<ParamValue> IoActivityEstimator::estimate(
    const EstimationContext& ctx) {
  const std::vector<Word>* history = ctx.patternHistory;
  if (history == nullptr || history->size() < 2) {
    return std::make_unique<NullValue>();
  }
  double toggles = 0;
  for (std::size_t i = 1; i < history->size(); ++i) {
    toggles += Word::toggleCount((*history)[i - 1], (*history)[i]);
  }
  return std::make_unique<ScalarValue>(
      toggles / static_cast<double>(history->size() - 1),
      "toggles/transition");
}

// --- area / timing -----------------------------------------------------

GateLevelAreaEstimator::GateLevelAreaEstimator(
    std::shared_ptr<const gate::Netlist> netlist, gate::TechParams tech,
    bool remote)
    : Estimator(EstimatorInfo{"gate-level-area", 2.0, 0.0, 1e-5, remote,
                              remote}),
      netlist_(std::move(netlist)),
      tech_(tech) {}

std::unique_ptr<ParamValue> GateLevelAreaEstimator::estimate(
    const EstimationContext&) {
  return std::make_unique<ScalarValue>(gate::areaOf(*netlist_, tech_), "um2");
}

GateLevelTimingEstimator::GateLevelTimingEstimator(
    std::shared_ptr<const gate::Netlist> netlist, gate::TechParams tech,
    bool remote)
    : Estimator(EstimatorInfo{"gate-level-timing", 5.0, 0.0, 1e-5, remote,
                              remote}),
      netlist_(std::move(netlist)),
      tech_(tech) {}

std::unique_ptr<ParamValue> GateLevelTimingEstimator::estimate(
    const EstimationContext&) {
  return std::make_unique<ScalarValue>(gate::criticalPathNs(*netlist_, tech_),
                                       "ns");
}

// --- PatternBuffer -----------------------------------------------------

PatternBuffer::PatternBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity < 2) {
    throw std::invalid_argument("PatternBuffer capacity must be >= 2");
  }
  patterns_.reserve(capacity);
}

bool PatternBuffer::push(const Word& pattern) {
  patterns_.push_back(pattern);
  return patterns_.size() >= capacity_;
}

std::vector<Word> PatternBuffer::flush() {
  std::vector<Word> out = std::move(patterns_);
  patterns_.clear();
  if (!out.empty()) {
    // Overlap seed: the next batch's transitions continue from here.
    patterns_.push_back(out.back());
    hasOverlap_ = true;
  }
  return out;
}

}  // namespace vcad::estim
