// Concrete estimators for the cost metrics of IP components — the three
// power estimators of the paper's Table 1 plus area/timing estimators.
//
//   constant          : a single precharacterized number (data-sheet style).
//                       Free, instant, ~25% error.
//   linear-regression : power predicted from input switching activity with
//                       coefficients fitted offline by the provider.
//                       Free, very fast, ~20% error.
//   gate-level-toggle : full toggle-count power evaluation on the private
//                       netlist (the PPP-simulator role). Accurate but slow,
//                       requires the provider's server, and costs a fee per
//                       pattern.
//
// The first two can be released with the component's public part and run on
// the user's machine; the third only ever runs where the netlist lives.
#pragma once

#include <memory>
#include <vector>

#include "core/estimation.hpp"
#include "gate/metrics.hpp"
#include "gate/netlist.hpp"

namespace vcad::estim {

/// Fixed-value estimator for any scalar parameter.
class ConstantEstimator final : public Estimator {
 public:
  ConstantEstimator(std::string name, double value, std::string unit,
                    double expectedErrorPct);

  std::unique_ptr<ParamValue> estimate(const EstimationContext& ctx) override;

 private:
  double value_;
  std::string unit_;
};

/// Coefficients of the activity-based linear power model:
/// power[mW] = intercept + slope * (average input toggles per transition).
struct LinearPowerModel {
  double interceptMw = 0.0;
  double slopeMwPerToggle = 0.0;
};

/// Offline provider-side characterization: simulates `trainingPatterns` on
/// the private netlist and least-squares fits power against input activity.
LinearPowerModel fitLinearPowerModel(const gate::Netlist& netlist,
                                     const std::vector<Word>& trainingPatterns,
                                     const gate::TechParams& tech = {});

/// Average gate-level power of random stimulus; the provider publishes this
/// as the "constant" estimate.
double characterizeAveragePowerMw(const gate::Netlist& netlist,
                                  const std::vector<Word>& trainingPatterns,
                                  const gate::TechParams& tech = {});

/// Applies a LinearPowerModel to a pattern history (averaging input-toggle
/// counts over consecutive pairs). Returns interceptMw when fewer than two
/// patterns are available.
double predictLinearPowerMw(const LinearPowerModel& model,
                            const std::vector<Word>& patterns);

/// Local estimator wrapping a fitted linear model. Reads the pattern
/// history from the estimation context.
class LinearRegressionPowerEstimator final : public Estimator {
 public:
  explicit LinearRegressionPowerEstimator(LinearPowerModel model,
                                          double expectedErrorPct = 20.0);

  std::unique_ptr<ParamValue> estimate(const EstimationContext& ctx) override;

  const LinearPowerModel& model() const { return model_; }

 private:
  LinearPowerModel model_;
};

/// Gate-level toggle-count power estimator: needs the private netlist.
/// When constructed with remote=true its metadata advertises the fee and the
/// unpredictable Internet latency (the Table 1 footnote).
class GateLevelPowerEstimator final : public Estimator {
 public:
  GateLevelPowerEstimator(std::shared_ptr<const gate::Netlist> netlist,
                          gate::TechParams tech = {}, bool remote = true,
                          double costPerPatternCents = 0.1);

  std::unique_ptr<ParamValue> estimate(const EstimationContext& ctx) override;

 private:
  std::shared_ptr<const gate::Netlist> netlist_;
  gate::PackedEvaluator packed_;  // compiled once, swept per estimate
  gate::TechParams tech_;
};

/// Peak (maximum per-transition) power from the private netlist — the
/// quantity sized against supply-grid constraints.
class GateLevelPeakPowerEstimator final : public Estimator {
 public:
  GateLevelPeakPowerEstimator(std::shared_ptr<const gate::Netlist> netlist,
                              gate::TechParams tech = {}, bool remote = true);
  std::unique_ptr<ParamValue> estimate(const EstimationContext& ctx) override;

 private:
  std::shared_ptr<const gate::Netlist> netlist_;
  gate::PackedEvaluator packed_;  // compiled once, swept per estimate
  gate::TechParams tech_;
};

/// I/O activity: average toggles per transition observed at the module's
/// own ports. Needs no implementation knowledge at all, so it always runs
/// locally.
class IoActivityEstimator final : public Estimator {
 public:
  IoActivityEstimator();
  std::unique_ptr<ParamValue> estimate(const EstimationContext& ctx) override;
};

/// Exact area from the private netlist.
class GateLevelAreaEstimator final : public Estimator {
 public:
  explicit GateLevelAreaEstimator(std::shared_ptr<const gate::Netlist> netlist,
                                  gate::TechParams tech = {},
                                  bool remote = true);
  std::unique_ptr<ParamValue> estimate(const EstimationContext& ctx) override;

 private:
  std::shared_ptr<const gate::Netlist> netlist_;
  gate::TechParams tech_;
};

/// Critical-path delay from the private netlist.
class GateLevelTimingEstimator final : public Estimator {
 public:
  explicit GateLevelTimingEstimator(
      std::shared_ptr<const gate::Netlist> netlist, gate::TechParams tech = {},
      bool remote = true);
  std::unique_ptr<ParamValue> estimate(const EstimationContext& ctx) override;

 private:
  std::shared_ptr<const gate::Netlist> netlist_;
  gate::TechParams tech_;
};

/// Fixed-capacity input pattern buffer: amortizes RMI overhead by batching
/// patterns before shipping them to a remote estimator. Keeps a one-pattern
/// overlap between consecutive batches so transition counts stay exact
/// across flushes.
class PatternBuffer {
 public:
  explicit PatternBuffer(std::size_t capacity);

  /// Appends a pattern; returns true when the buffer reached capacity (the
  /// caller should flush).
  bool push(const Word& pattern);

  /// True when a flush would carry no new pattern (only the overlap seed).
  bool empty() const { return patterns_.size() <= (hasOverlap_ ? 1u : 0u); }
  std::size_t size() const { return patterns_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Returns the buffered batch and resets the buffer, retaining the last
  /// pattern as the overlap seed for the next batch.
  std::vector<Word> flush();

 private:
  std::size_t capacity_;
  std::vector<Word> patterns_;
  bool hasOverlap_ = false;
};

}  // namespace vcad::estim
