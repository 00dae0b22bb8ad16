#include "estim/power_estimators.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "gate/generators.hpp"

namespace vcad::estim {
namespace {

std::vector<Word> randomPatterns(int width, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> out;
  for (int i = 0; i < count; ++i) out.push_back(Word::fromUint(width, rng.next()));
  return out;
}

TEST(ConstantEstimator, ReturnsFixedValue) {
  ConstantEstimator est("constant", 25.0, "mW", 25.0);
  EstimationContext ctx;
  auto v = est.estimate(ctx);
  EXPECT_DOUBLE_EQ(v->asDouble(), 25.0);
  EXPECT_FALSE(est.info().remote);
  EXPECT_DOUBLE_EQ(est.info().costPerUseCents, 0.0);
}

TEST(LinearModel, FitRecoversActivityDependence) {
  const auto nl = gate::makeArrayMultiplier(8);
  const auto training = randomPatterns(16, 300, 11);
  const LinearPowerModel model = fitLinearPowerModel(nl, training);
  // More input activity must predict more power for a multiplier.
  EXPECT_GT(model.slopeMwPerToggle, 0.0);
}

TEST(LinearModel, PredictionTracksGateLevelWithinAdvertisedError) {
  const auto nl = gate::makeArrayMultiplier(8);
  const auto training = randomPatterns(16, 400, 21);
  const LinearPowerModel model = fitLinearPowerModel(nl, training);
  // Evaluate on held-out random data: linear model should be within ~35%
  // of the gate-level value for random stimulus (it is a crude model; the
  // paper quotes 20% average error for its regression estimator).
  const auto test = randomPatterns(16, 200, 77);
  const double golden =
      gate::gateLevelPower(gate::PackedEvaluator(nl), test).avgPowerMw;
  const double predicted = predictLinearPowerMw(model, test);
  EXPECT_GT(golden, 0.0);
  EXPECT_LT(std::abs(predicted - golden) / golden, 0.35);
}

TEST(LinearModel, DegenerateActivityFallsBackToConstant) {
  const auto nl = gate::makeHalfAdder();
  // All-identical patterns: zero activity everywhere.
  const std::vector<Word> constant(10, Word::fromUint(2, 0b11));
  const LinearPowerModel model = fitLinearPowerModel(nl, constant);
  EXPECT_DOUBLE_EQ(model.slopeMwPerToggle, 0.0);
  EXPECT_DOUBLE_EQ(model.interceptMw, 0.0);
}

TEST(LinearModel, RequiresTrainingData) {
  const auto nl = gate::makeHalfAdder();
  EXPECT_THROW(fitLinearPowerModel(nl, {Word::fromUint(2, 0)}),
               std::invalid_argument);
}

TEST(LinearRegressionEstimator, UsesPatternHistory) {
  const auto nl = gate::makeArrayMultiplier(6);
  const auto training = randomPatterns(12, 200, 5);
  LinearRegressionPowerEstimator est(fitLinearPowerModel(nl, training));

  const auto lowActivity = std::vector<Word>(20, Word::fromUint(12, 0));
  std::vector<Word> highActivity;
  for (int i = 0; i < 20; ++i) {
    highActivity.push_back(Word::fromUint(12, i % 2 == 0 ? 0xFFF : 0x000));
  }
  EstimationContext low, high;
  low.patternHistory = &lowActivity;
  high.patternHistory = &highActivity;
  EXPECT_GT(est.estimate(high)->asDouble(), est.estimate(low)->asDouble());
}

TEST(GateLevelEstimator, MatchesDirectComputation) {
  auto nl = std::make_shared<const gate::Netlist>(gate::makeArrayMultiplier(6));
  GateLevelPowerEstimator est(nl);
  const auto patterns = randomPatterns(12, 50, 3);
  EstimationContext ctx;
  ctx.patternHistory = &patterns;
  const double direct =
      gate::gateLevelPower(gate::PackedEvaluator(*nl), patterns).avgPowerMw;
  EXPECT_DOUBLE_EQ(est.estimate(ctx)->asDouble(), direct);
}

TEST(GateLevelEstimator, NullWithoutHistory) {
  auto nl = std::make_shared<const gate::Netlist>(gate::makeHalfAdder());
  GateLevelPowerEstimator est(nl);
  EstimationContext ctx;
  EXPECT_TRUE(est.estimate(ctx)->isNull());
}

TEST(GateLevelEstimator, AdvertisesRemoteFeeAndLatencyFlag) {
  auto nl = std::make_shared<const gate::Netlist>(gate::makeHalfAdder());
  GateLevelPowerEstimator est(nl, {}, /*remote=*/true, 0.1);
  EXPECT_TRUE(est.info().remote);
  EXPECT_TRUE(est.info().unpredictableLatency);
  EXPECT_DOUBLE_EQ(est.info().costPerUseCents, 0.1);
}

TEST(Table1Ordering, AccuracyRanksGateLevelBestConstantWorst) {
  // The paper's Table 1 ranks the estimators by error: constant (25%) >
  // linear regression (20%) > gate-level (exact here, 10% advertised).
  const auto nl = gate::makeArrayMultiplier(8);
  const auto training = randomPatterns(16, 300, 1);
  const double constant = characterizeAveragePowerMw(nl, training);
  const LinearPowerModel lin = fitLinearPowerModel(nl, training);

  // A biased workload (mostly-idle input stream) separates the estimators.
  std::vector<Word> workload;
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    workload.push_back(Word::fromUint(16, rng.chance(0.15) ? rng.next() : 0));
  }
  const double golden =
      gate::gateLevelPower(gate::PackedEvaluator(nl), workload).avgPowerMw;
  const double errConstant = std::abs(constant - golden) / golden;
  const double errLinear =
      std::abs(predictLinearPowerMw(lin, workload) - golden) / golden;
  EXPECT_LT(errLinear, errConstant);
}

TEST(GateLevelAreaTiming, ScaleWithWidth) {
  auto nl8 = std::make_shared<const gate::Netlist>(gate::makeArrayMultiplier(8));
  auto nl16 =
      std::make_shared<const gate::Netlist>(gate::makeArrayMultiplier(16));
  GateLevelAreaEstimator a8(nl8), a16(nl16);
  GateLevelTimingEstimator t8(nl8), t16(nl16);
  EstimationContext ctx;
  EXPECT_GT(a16.estimate(ctx)->asDouble(), a8.estimate(ctx)->asDouble());
  EXPECT_GT(t16.estimate(ctx)->asDouble(), t8.estimate(ctx)->asDouble());
}

TEST(PatternBuffer, SignalsFullAtCapacity) {
  PatternBuffer buf(3);
  EXPECT_TRUE(buf.empty());
  EXPECT_FALSE(buf.push(Word::fromUint(4, 1)));
  EXPECT_FALSE(buf.push(Word::fromUint(4, 2)));
  EXPECT_TRUE(buf.push(Word::fromUint(4, 3)));
  EXPECT_FALSE(buf.empty());
}

TEST(PatternBuffer, FlushKeepsOverlapSeed) {
  PatternBuffer buf(3);
  buf.push(Word::fromUint(4, 1));
  buf.push(Word::fromUint(4, 2));
  buf.push(Word::fromUint(4, 3));
  const auto batch1 = buf.flush();
  EXPECT_EQ(batch1.size(), 3u);
  EXPECT_TRUE(buf.empty());  // only the overlap seed remains
  buf.push(Word::fromUint(4, 4));
  EXPECT_FALSE(buf.empty());
  const auto batch2 = buf.flush();
  ASSERT_EQ(batch2.size(), 2u);
  // Overlap: batch2 starts with batch1's last pattern, so transition 3->4
  // is preserved across the flush boundary.
  EXPECT_EQ(batch2[0].toUint(), 3u);
  EXPECT_EQ(batch2[1].toUint(), 4u);
}

TEST(PatternBuffer, CapacityValidated) {
  EXPECT_THROW(PatternBuffer(1), std::invalid_argument);
}

}  // namespace
}  // namespace vcad::estim
