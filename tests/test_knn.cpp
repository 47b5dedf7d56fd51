/// Tests for kNN regression (the paper's access-pattern predictor).

#include <gtest/gtest.h>

#include <cmath>

#include "ml/knn.hpp"
#include "ml/online.hpp"
#include "oracles/knn_brute.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace bd::ml {
namespace {

Dataset linear_surface(std::size_t n, util::Rng& rng) {
  // y0 = 2x0 + x1, y1 = -x0 (multi-output).
  Dataset d(2, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1, 1);
    const double x1 = rng.uniform(-1, 1);
    d.add(std::vector<double>{x0, x1},
          std::vector<double>{2 * x0 + x1, -x0});
  }
  return d;
}

TEST(Knn, ExactMatchReturnsStoredTarget) {
  Dataset d(1, 1);
  d.add(std::vector<double>{1.0}, std::vector<double>{10.0});
  d.add(std::vector<double>{2.0}, std::vector<double>{20.0});
  d.add(std::vector<double>{3.0}, std::vector<double>{30.0});
  KNNRegressor knn(KnnConfig{.k = 2});
  knn.fit(d);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{2.0})[0], 20.0);
}

TEST(Knn, DistanceWeightsFavorCloserNeighbor) {
  Dataset d(1, 1);
  d.add(std::vector<double>{0.0}, std::vector<double>{0.0});
  d.add(std::vector<double>{1.0}, std::vector<double>{10.0});
  KNNRegressor knn(KnnConfig{.k = 2});
  knn.fit(d);
  // Standardized, the points sit at -1 and 1 and x = 0.25 at -0.5:
  // weights 2 and 2/3 -> prediction 10 * (2/3)/(8/3) = 2.5.
  EXPECT_NEAR(knn.predict(std::vector<double>{0.25})[0], 2.5, 1e-12);
}

TEST(Knn, NodesVisitedIsDeterministicAndBelowBruteForce) {
  // The forecast's shape at 64^2 with training_window = 1: every grid
  // point at one step in the training set, every grid point at the next
  // step queried.
  constexpr std::size_t kSide = 64;
  constexpr std::size_t kPoints = kSide * kSide;
  const auto coord = [](std::size_t i) {
    return -1.0 + 2.0 * static_cast<double>(i) / (kSide - 1);
  };
  Dataset d(3, 1);
  for (std::size_t p = 0; p < kPoints; ++p) {
    const double x = coord(p % kSide);
    const double y = coord(p / kSide);
    d.add(std::vector<double>{x, y, 5.0}, std::vector<double>{x * y});
  }
  KNNRegressor knn;
  knn.fit(d);

  const auto nodes_visited = [&](unsigned threads) {
    util::ThreadPool::set_global_threads(threads);
    util::telemetry::MetricsRegistry registry;
    {
      const util::telemetry::TelemetryScope scope(&registry, nullptr);
      util::parallel_for(0, kPoints, [&](std::size_t p) {
        const double query[3] = {coord(p % kSide), coord(p / kSide), 6.0};
        double out[1];
        knn.predict_into(query, out);
      });
    }
    return registry.snapshot().counters["knn.nodes_visited"];
  };
  const std::uint64_t serial = nodes_visited(1);
  const std::uint64_t again = nodes_visited(1);
  const std::uint64_t wide = nodes_visited(4);
  util::ThreadPool::set_global_threads(0);

  EXPECT_EQ(serial, again);
  EXPECT_EQ(serial, wide);
  EXPECT_GE(serial, kPoints);  // every query examines at least the root
  // Brute force examines every point per query; the bounding-box prune
  // keeps the tree far below that (~1/16 here; a split-plane-only prune
  // degrades to brute force on this constant step column).
  EXPECT_LT(8 * serial, kPoints * kPoints) << serial << " nodes visited";
}

TEST(Knn, BruteAndKdTreeAgree) {
  util::Rng rng(17);
  const Dataset d = linear_surface(200, rng);
  KNNRegressor with_tree(KnnConfig{.k = 5});
  oracle::BruteKnn with_brute(KnnConfig{.k = 5});
  with_tree.fit(d);
  with_brute.fit(d);
  for (int q = 0; q < 25; ++q) {
    const std::vector<double> query{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    EXPECT_EQ(with_tree.predict(query), with_brute.predict(query));
  }
}

TEST(Knn, LearnsSmoothSurface) {
  util::Rng rng(23);
  const Dataset d = linear_surface(1000, rng);
  KNNRegressor knn(KnnConfig{.k = 8});
  knn.fit(d);
  double worst = 0.0;
  for (int q = 0; q < 50; ++q) {
    const double x0 = rng.uniform(-0.8, 0.8);
    const double x1 = rng.uniform(-0.8, 0.8);
    const auto p = knn.predict(std::vector<double>{x0, x1});
    worst = std::max(worst, std::abs(p[0] - (2 * x0 + x1)));
    worst = std::max(worst, std::abs(p[1] + x0));
  }
  EXPECT_LT(worst, 0.25);  // kNN locally averages a Lipschitz surface
}

TEST(Knn, PredictBeforeFitThrows) {
  KNNRegressor knn;
  EXPECT_THROW(knn.predict(std::vector<double>{1.0}), bd::CheckError);
}

TEST(Knn, PredictIntoValidatesSizes) {
  Dataset d(1, 2);
  d.add(std::vector<double>{0.0}, std::vector<double>{1.0, 2.0});
  KNNRegressor knn(KnnConfig{.k = 1});
  knn.fit(d);
  std::vector<double> wrong(1);
  EXPECT_THROW(knn.predict_into(std::vector<double>{0.0}, wrong),
               bd::CheckError);
}

// ---------------------------------------------------------------------------
// kd-tree kNN against the brute-force oracle, bit for bit: the neighbor
// lists (indices and distances) and the predictions.

/// Every query's tree neighbors and prediction equal the oracle's.
void expect_matches_oracle(const Dataset& data, std::size_t k,
                           const std::vector<std::vector<double>>& queries) {
  KNNRegressor knn(KnnConfig{.k = k});
  oracle::BruteKnn brute(KnnConfig{.k = k});
  knn.fit(data);
  brute.fit(data);
  // The tree over the same standardized rows the regressor searches.
  StandardScaler scaler;
  scaler.fit(data);
  std::vector<double> scaled;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto row = scaler.transformed(data.features(i));
    scaled.insert(scaled.end(), row.begin(), row.end());
  }
  KdTree tree;
  tree.build(scaled, data.size(), data.feature_dim());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected = brute.neighbors(queries[q]);
    const auto got = tree.query(scaler.transformed(queries[q]), k);
    ASSERT_EQ(got.size(), expected.size()) << "query " << q;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].index, expected[i].index) << "query " << q;
      ASSERT_EQ(got[i].squared_dist, expected[i].squared_dist)
          << "query " << q;
    }
    ASSERT_EQ(knn.predict(queries[q]), brute.predict(queries[q]))
        << "query " << q;
  }
}

TEST(KnnOracle, RandomData) {
  util::Rng rng(5);
  Dataset d(3, 2);
  for (int i = 0; i < 400; ++i) {
    d.add(std::vector<double>{rng.uniform(-3, 3), rng.uniform(0, 50),
                              rng.uniform(-0.1, 0.1)},
          std::vector<double>{rng.uniform(1, 20), rng.uniform(1, 20)});
  }
  std::vector<std::vector<double>> queries;
  for (int q = 0; q < 200; ++q) {
    queries.push_back({rng.uniform(-4, 4), rng.uniform(-5, 55),
                       rng.uniform(-0.2, 0.2)});
  }
  for (std::size_t k : {1, 4, 8, 400, 1000}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    expect_matches_oracle(d, k, queries);
  }
}

TEST(KnnOracle, DuplicatePoints) {
  // Many exact duplicates with distinct targets: equal distances must
  // break on index exactly like the oracle, including at the k-th slot.
  util::Rng rng(6);
  Dataset d(2, 1);
  for (int i = 0; i < 300; ++i) {
    const double x = static_cast<double>(static_cast<int>(rng.uniform(0, 5)));
    const double y = static_cast<double>(static_cast<int>(rng.uniform(0, 4)));
    d.add(std::vector<double>{x, y}, std::vector<double>{rng.uniform(0, 9)});
  }
  std::vector<std::vector<double>> queries;
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 4; ++y) {
      queries.push_back({static_cast<double>(x), static_cast<double>(y)});
      queries.push_back({x + 0.5, y + 0.5});  // equidistant from 4 sites
    }
  }
  for (std::size_t k : {1, 3, 4, 16, 40}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    expect_matches_oracle(d, k, queries);
  }
}

TEST(KnnOracle, ConstantColumn) {
  // The solver's (x, y, step) features with one training step: the step
  // column is constant, the scaler leaves it unscaled, and every query
  // sits a whole unit off the training set along it.
  Dataset d(3, 2);
  for (int iy = 0; iy < 20; ++iy) {
    for (int ix = 0; ix < 24; ix += 4) {
      d.add(std::vector<double>{ix * 0.25, iy * 0.5, 7.0},
            std::vector<double>{1.0 + ix, 2.0 + iy});
    }
  }
  std::vector<std::vector<double>> queries;
  for (int iy = 0; iy < 20; ++iy) {
    for (int ix = 0; ix < 24; ++ix) {
      queries.push_back({ix * 0.25, iy * 0.5, 8.0});
    }
  }
  for (std::size_t k : {1, 4, 8}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    expect_matches_oracle(d, k, queries);
  }
}

/// One solver-like training step: grid points (stride 3) at time `step`
/// with a smooth drifting target.
void observe_grid_step(OnlinePredictor& predictor, Dataset& merged,
                       int step) {
  std::vector<double> features, targets;
  std::size_t count = 0;
  for (int p = 0; p < 32 * 24; p += 3) {
    const double x = 0.5 * (p % 32), y = 0.25 * (p / 32);
    const std::vector<double> f{x, y, static_cast<double>(step)};
    const std::vector<double> t{1.0 + std::sin(0.3 * x + 0.1 * step),
                                2.0 + std::cos(0.2 * y)};
    features.insert(features.end(), f.begin(), f.end());
    targets.insert(targets.end(), t.begin(), t.end());
    merged.add(f, t);
    ++count;
  }
  predictor.observe_step(features, targets, count);
}

TEST(KnnOracle, TrainingWindowsOneAndThree) {
  for (std::size_t window : {1, 3}) {
    SCOPED_TRACE("window = " + std::to_string(window));
    OnlinePredictor predictor(PredictorKind::kKnn, 3, 2, window);
    Dataset merged(3, 2);  // the window's rows in slot order
    for (int step = 0; step < static_cast<int>(window); ++step) {
      observe_grid_step(predictor, merged, step);
    }
    oracle::BruteKnn brute;
    brute.fit(merged);
    std::vector<double> out(2);
    for (int p = 0; p < 32 * 24; ++p) {
      const std::vector<double> query{0.5 * (p % 32), 0.25 * (p / 32),
                                      static_cast<double>(window)};
      predictor.predict_into(query, out);
      ASSERT_EQ(out, brute.predict(query)) << "point " << p;
    }
  }
}

}  // namespace
}  // namespace bd::ml
