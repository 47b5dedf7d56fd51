/// Tests for the Newton–Cotes rules (the rp-integral's inner quadrature).

#include <gtest/gtest.h>

#include <cmath>

#include "quad/newton_cotes.hpp"
#include "util/check.hpp"

namespace bd::quad {
namespace {

TEST(NewtonCotes, WeightsSumToOne) {
  for (int n = 2; n <= 9; ++n) {
    const auto w = newton_cotes_weights(n);
    ASSERT_EQ(w.size(), static_cast<std::size_t>(n));
    double sum = 0.0;
    for (double v : w) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-14) << "n=" << n;
  }
}

TEST(NewtonCotes, WeightsAreSymmetric) {
  for (int n = 2; n <= 9; ++n) {
    const auto w = newton_cotes_weights(n);
    for (int i = 0; i < n / 2; ++i) {
      EXPECT_NEAR(w[static_cast<std::size_t>(i)],
                  w[static_cast<std::size_t>(n - 1 - i)], 1e-15)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(NewtonCotes, UnsupportedPointCountsThrow) {
  EXPECT_THROW(newton_cotes_weights(1), bd::CheckError);
  EXPECT_THROW(newton_cotes_weights(10), bd::CheckError);
}

TEST(NewtonCotes, TrapezoidIsExactForLinear) {
  // ∫₀² (3x + 1) dx = 8 from the 2-point weights scaled to [0, 2].
  const auto w = newton_cotes_weights(2);
  const double v = 2.0 * (w[0] * 1.0 + w[1] * 7.0);
  EXPECT_NEAR(v, 8.0, 1e-13);
}

TEST(NewtonCotes, SimpsonExactForCubic) {
  // ∫₀¹ x³ dx = 1/4 from the 3-point (Simpson) weights.
  const auto w = newton_cotes_weights(3);
  const double v = w[0] * 0.0 + w[1] * 0.125 + w[2] * 1.0;
  EXPECT_NEAR(v, 0.25, 1e-14);
}

// Property sweep: the n-point closed weights integrate x^d over [0, 1]
// exactly up to the rule's degree of exactness (n for odd n, n-1 for even
// n, by symmetry), and not one degree past it.
class ExactnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExactnessSweep, ExactUpToDegree) {
  const int points = GetParam();
  const auto w = newton_cotes_weights(points);
  const auto weighted_moment = [&](int d) {
    double acc = 0.0;
    for (int i = 0; i < points; ++i) {
      const double x = static_cast<double>(i) / (points - 1);
      acc += w[static_cast<std::size_t>(i)] * std::pow(x, d);
    }
    return acc;
  };
  const int degree = points % 2 == 1 ? points : points - 1;
  for (int d = 0; d <= degree; ++d) {
    EXPECT_NEAR(weighted_moment(d), 1.0 / (d + 1), 1e-10)
        << "points=" << points << " degree=" << d;
  }
  const int d = degree + 1;
  EXPECT_GT(std::abs(weighted_moment(d) - 1.0 / (d + 1)), 1e-12)
      << "points=" << points;
}

INSTANTIATE_TEST_SUITE_P(AllOrders, ExactnessSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9));

}  // namespace
}  // namespace bd::quad
