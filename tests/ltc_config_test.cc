// Tests for LtcConfig::Validate and the constructor's rejection of
// malformed configurations (each rejection has its own case so a broken
// rule fails by name).

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/ltc.h"

namespace ltc {
namespace {

LtcConfig ValidCountBased() {
  LtcConfig config;
  config.memory_bytes = 8 * 1024;
  config.period_mode = PeriodMode::kCountBased;
  config.items_per_period = 1'000;
  return config;
}

LtcConfig ValidTimeBased() {
  LtcConfig config;
  config.memory_bytes = 8 * 1024;
  config.period_mode = PeriodMode::kTimeBased;
  config.period_seconds = 1.0;
  return config;
}

TEST(LtcConfigValidate, AcceptsDefaultsAndBothModes) {
  EXPECT_FALSE(LtcConfig{}.Validate().has_value());
  EXPECT_FALSE(ValidCountBased().Validate().has_value());
  EXPECT_FALSE(ValidTimeBased().Validate().has_value());
  EXPECT_NO_THROW(Ltc{ValidCountBased()});
  EXPECT_NO_THROW(Ltc{ValidTimeBased()});
}

TEST(LtcConfigValidate, RejectsZeroCellsPerBucket) {
  LtcConfig config = ValidCountBased();
  config.cells_per_bucket = 0;
  ASSERT_TRUE(config.Validate().has_value());
  EXPECT_NE(config.Validate()->find("cells_per_bucket"), std::string::npos);
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
}

TEST(LtcConfigValidate, RejectsNegativeAlpha) {
  LtcConfig config = ValidCountBased();
  config.alpha = -0.5;
  ASSERT_TRUE(config.Validate().has_value());
  EXPECT_NE(config.Validate()->find("alpha"), std::string::npos);
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
  config.alpha = std::nan("");
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
}

TEST(LtcConfigValidate, RejectsNegativeBeta) {
  LtcConfig config = ValidCountBased();
  config.beta = -1.0;
  ASSERT_TRUE(config.Validate().has_value());
  EXPECT_NE(config.Validate()->find("beta"), std::string::npos);
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
  config.beta = std::nan("");
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
}

// An infinite weight times a zero field is NaN, and a NaN significance
// has no rank: merged and refolded buckets would depend on input order.
TEST(LtcConfigValidate, RejectsInfiniteWeights) {
  LtcConfig config = ValidCountBased();
  config.alpha = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(config.Validate().has_value());
  EXPECT_NE(config.Validate()->find("alpha"), std::string::npos);
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
  config = ValidCountBased();
  config.beta = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(config.Validate().has_value());
  EXPECT_NE(config.Validate()->find("beta"), std::string::npos);
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
}

TEST(LtcConfigValidate, RejectsBothWeightsZero) {
  LtcConfig config = ValidCountBased();
  config.alpha = 0.0;
  config.beta = 0.0;
  ASSERT_TRUE(config.Validate().has_value());
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
  // One zero weight is a legitimate frequency- or persistency-only table.
  config.alpha = 1.0;
  EXPECT_FALSE(config.Validate().has_value());
}

TEST(LtcConfigValidate, RejectsZeroItemsPerPeriodInCountMode) {
  LtcConfig config = ValidCountBased();
  config.items_per_period = 0;
  ASSERT_TRUE(config.Validate().has_value());
  EXPECT_NE(config.Validate()->find("items_per_period"), std::string::npos);
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
}

TEST(LtcConfigValidate, RejectsNonPositivePeriodSecondsInTimeMode) {
  LtcConfig config = ValidTimeBased();
  config.period_seconds = 0.0;
  ASSERT_TRUE(config.Validate().has_value());
  EXPECT_NE(config.Validate()->find("period_seconds"), std::string::npos);
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
  config.period_seconds = -2.0;
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
  config.period_seconds = std::nan("");
  EXPECT_THROW(Ltc{config}, std::invalid_argument);
}

TEST(LtcConfigValidate, PeriodFieldsAreModeGated) {
  // A time-based table never consults items_per_period, and vice versa;
  // the unused field must not be validated.
  LtcConfig time_based = ValidTimeBased();
  time_based.items_per_period = 0;
  EXPECT_FALSE(time_based.Validate().has_value());

  LtcConfig count_based = ValidCountBased();
  count_based.period_seconds = 0.0;
  EXPECT_FALSE(count_based.Validate().has_value());
}

TEST(LtcConfigValidate, ThrownMessageNamesTheProblem) {
  LtcConfig config = ValidCountBased();
  config.alpha = -1.0;
  try {
    Ltc table(config);
    FAIL() << "constructor accepted a negative alpha";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos);
  }
}

}  // namespace
}  // namespace ltc
