#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

namespace dflow {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBoundsAndCoversRange) {
  Rng rng(7);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 6000; ++i) {
    int64_t v = rng.Uniform(1, 6);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 6);
    ++counts[v];
  }
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 800);  // ~1000 expected.
    EXPECT_LT(count, 1200);
  }
}

TEST(RngTest, UniformSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.Uniform(5, 5), 5);
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

// FillNormal must reproduce n successive Normal() calls bit for bit and
// leave the generator where they would. Sizes straddle its 512-pair block
// (1024 samples) and include one 96x8192 beam; pre-draws leave a spare
// pending on entry.
TEST(RngTest, FillNormalMatchesNormalLoop) {
  const size_t sizes[] = {0,    1,    2,    3,    511,  512,  513,
                          1023, 1024, 1025, 1026, 2049, 4097, 786432};
  const std::pair<double, double> params[] = {{0.0, 1.0}, {10.0, 3.0}};
  for (const auto& [mean, stddev] : params) {
    for (size_t n : sizes) {
      for (int pre = 0; pre <= 3; ++pre) {
        Rng batched(101), loop(101);
        for (int i = 0; i < pre; ++i) {
          batched.Normal();
          loop.Normal();
        }
        std::vector<float> got(n), want(n);
        batched.FillNormal(got.data(), n, mean, stddev);
        for (float& x : want) {
          x = static_cast<float>(loop.Normal(mean, stddev));
        }
        // (An empty vector's data() may be null, which memcmp forbids.)
        ASSERT_TRUE(n == 0 || std::memcmp(got.data(), want.data(),
                                          n * sizeof(float)) == 0)
            << "n=" << n << " pre=" << pre << " mean=" << mean;
        // Same state afterwards: the spare (if any), then the raw stream.
        const double next_batched = batched.Normal();
        const double next_loop = loop.Normal();
        ASSERT_EQ(std::memcmp(&next_batched, &next_loop, sizeof(double)), 0)
            << "n=" << n << " pre=" << pre;
        ASSERT_EQ(batched.Next(), loop.Next()) << "n=" << n << " pre=" << pre;
      }
    }
  }
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Exponential(2.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(17);
  for (double mean : {0.5, 4.0, 20.0, 200.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.Poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, std::max(0.05, mean * 0.05));
  }
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(19);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, ZipfRankOneIsMostCommon) {
  Rng rng(23);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    int64_t rank = rng.Zipf(100, 1.1);
    ASSERT_GE(rank, 1);
    ASSERT_LE(rank, 100);
    ++counts[rank];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[1], counts[10] * 3);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) {
    v[static_cast<size_t>(i)] = i;
  }
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // Astronomically unlikely to be identity.
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.Fork();
  // Child stream should differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

class ZipfExponentTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentTest, HeavierExponentConcentratesMass) {
  Rng rng(41);
  const double s = GetParam();
  int rank_one = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(1000, s) == 1) {
      ++rank_one;
    }
  }
  // Rank-1 probability grows with the exponent; sanity bounds per value.
  double p = static_cast<double>(rank_one) / n;
  if (s <= 0.8) {
    EXPECT_LT(p, 0.30);
  } else if (s >= 1.5) {
    EXPECT_GT(p, 0.30);
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.5, 2.0));

}  // namespace
}  // namespace dflow
