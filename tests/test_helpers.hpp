#pragma once
/// Shared test helpers: per-test scratch file paths, vector-returning
/// wrappers around the production partition transforms, and a small
/// rp-problem over a continuum-filled (noise-free) moment history for
/// solver-level tests.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "beam/analytic.hpp"
#include "beam/history.hpp"
#include "beam/units.hpp"
#include "beam/wake.hpp"
#include "core/forecast.hpp"
#include "core/problem.hpp"
#include "quad/partition.hpp"

namespace bd::testing {

/// A scratch file path under ::testing::TempDir() that no other test
/// shares: keyed on the process id and the running test's suite and name,
/// so test processes running side by side (ctest -j) never touch each
/// other's files. `stem` tells apart several files of one test.
inline std::string unique_temp_path(const std::string& stem) {
  std::string key = std::to_string(::getpid());
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    key += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  for (char& c : key) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return ::testing::TempDir() + "bd_" + key + "_" + stem;
}

/// The production uniform transform (bound, then fill) as a vector.
inline std::vector<double> uniform_partition(
    std::span<const double> pattern, double sub_width, double r_max,
    double headroom = core::kPartitionHeadroom) {
  std::vector<double> out(core::pattern_to_partition_bound(pattern, headroom));
  out.resize(core::pattern_to_partition_into(pattern, sub_width, r_max, out,
                                             headroom));
  return out;
}

/// The production adaptive transform (bound, then fill) as a vector.
inline std::vector<double> adaptive_partition(
    std::span<const double> pattern, std::span<const double> previous,
    double sub_width, double r_max,
    double headroom = core::kPartitionHeadroom) {
  std::vector<double> out(core::pattern_to_partition_adaptive_bound(
      pattern, previous, sub_width, r_max, headroom));
  out.resize(core::pattern_to_partition_adaptive_into(
      pattern, previous, sub_width, r_max, out, headroom));
  return out;
}

/// The production MERGE-LISTS as a vector.
inline std::vector<double> merged_partition(std::span<const double> a,
                                            std::span<const double> b,
                                            double eps = 1e-12) {
  std::vector<double> out;
  quad::merge_partitions_into(a, b, out, eps);
  return out;
}

/// Owns everything an RpProblem points to.
struct ProblemFixture {
  beam::GridSpec spec;
  beam::BeamParams params;
  beam::WakeModel model;
  std::unique_ptr<beam::GridHistory> history;
  core::RpProblem problem;

  explicit ProblemFixture(std::uint32_t n = 32, double tolerance = 1e-6,
                          std::uint32_t subregions = 12)
      : spec(beam::make_centered_grid(n, n, 6.0, 6.0)),
        model(beam::WakeModel::longitudinal()) {
    history = std::make_unique<beam::GridHistory>(spec, subregions + 4);
    beam::Grid2D rho(spec), grad(spec);
    for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
      for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
        const double x = spec.x_at(ix);
        const double y = spec.y_at(iy);
        rho.at(ix, iy) = beam::gaussian_pdf(x, params.sigma_s) *
                         beam::gaussian_pdf(y, params.sigma_y);
        grad.at(ix, iy) = beam::gaussian_pdf_prime(x, params.sigma_s) *
                          beam::gaussian_pdf(y, params.sigma_y);
      }
    }
    history->fill_all(100, rho, grad);

    problem.history = history.get();
    problem.model = &model;
    problem.step = 100;
    problem.sub_width = 1.0;
    problem.num_subregions = subregions;
    problem.tolerance = tolerance;
  }

  /// Advance the (static) history by one step so stateful solvers can be
  /// stepped repeatedly.
  void advance() {
    beam::Grid2D rho(spec), grad(spec);
    for (std::uint32_t iy = 0; iy < spec.ny; ++iy) {
      for (std::uint32_t ix = 0; ix < spec.nx; ++ix) {
        const double x = spec.x_at(ix);
        const double y = spec.y_at(iy);
        rho.at(ix, iy) = beam::gaussian_pdf(x, params.sigma_s) *
                         beam::gaussian_pdf(y, params.sigma_y);
        grad.at(ix, iy) = beam::gaussian_pdf_prime(x, params.sigma_s) *
                          beam::gaussian_pdf(y, params.sigma_y);
      }
    }
    history->push_step(history->latest_step() + 1, rho, grad);
    problem.step = history->latest_step();
  }

  /// Analytic continuum force at grid node (ix, iy).
  double exact(std::uint32_t ix, std::uint32_t iy) const {
    return beam::analytic_force(spec.x_at(ix), spec.y_at(iy), model, params,
                                problem.r_max(), 1e-11);
  }
};

}  // namespace bd::testing
