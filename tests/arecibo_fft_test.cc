#include "arecibo/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/rng.h"

namespace dflow::arecibo {
namespace {

TEST(FftTest, SizeMustBePowerOfTwo) {
  std::vector<std::complex<double>> data(3);
  EXPECT_TRUE(Fft(data).IsInvalidArgument());
  std::vector<std::complex<double>> empty;
  EXPECT_TRUE(Fft(empty).IsInvalidArgument());
}

TEST(FftTest, DeltaFunctionHasFlatSpectrum) {
  std::vector<std::complex<double>> data(8, {0.0, 0.0});
  data[0] = {1.0, 0.0};
  ASSERT_TRUE(Fft(data).ok());
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, PureToneConcentratesInOneBin) {
  const size_t n = 256;
  const int k = 17;
  std::vector<std::complex<double>> data(n);
  for (size_t i = 0; i < n; ++i) {
    double phase = 2.0 * std::numbers::pi * k * static_cast<double>(i) / n;
    data[i] = {std::cos(phase), 0.0};
  }
  ASSERT_TRUE(Fft(data).ok());
  // A real cosine splits between bins k and n-k with magnitude n/2 each.
  EXPECT_NEAR(std::abs(data[k]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[n - k]), n / 2.0, 1e-9);
  for (size_t i = 1; i < n / 2; ++i) {
    if (i != static_cast<size_t>(k)) {
      EXPECT_LT(std::abs(data[i]), 1e-9) << "bin " << i;
    }
  }
}

TEST(FftTest, ForwardInverseRoundTrip) {
  Rng rng(3);
  const size_t n = 512;
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) {
    x = {rng.Normal(), rng.Normal()};
  }
  std::vector<std::complex<double>> original = data;
  ASSERT_TRUE(Fft(data).ok());
  ASSERT_TRUE(Fft(data, /*inverse=*/true).ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
  }
}

TEST(FftTest, ParsevalHolds) {
  Rng rng(5);
  const size_t n = 1024;
  std::vector<std::complex<double>> data(n);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = {rng.Normal(), 0.0};
    time_energy += std::norm(x);
  }
  ASSERT_TRUE(Fft(data).ok());
  double freq_energy = 0.0;
  for (const auto& x : data) {
    freq_energy += std::norm(x);
  }
  EXPECT_NEAR(freq_energy / n, time_energy, time_energy * 1e-9);
}

TEST(NextPowerOfTwoTest, Values) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

TEST(PowerSpectrumTest, DetectsPeriodicSignal) {
  // 1 kHz sampling, 64 Hz tone, 1000 samples (padded to 1024).
  const double sample_rate = 1000.0;
  const double tone_hz = 64.0;
  std::vector<double> series(1000);
  for (size_t i = 0; i < series.size(); ++i) {
    series[i] = std::sin(2.0 * std::numbers::pi * tone_hz *
                         static_cast<double>(i) / sample_rate);
  }
  FftScratch scratch;
  std::vector<double> power;
  PowerSpectrum(series, &scratch, &power);
  // Peak bin: f * N_padded / rate = 64 * 1024 / 1000 ~ 65.5.
  size_t peak = 1;
  for (size_t i = 1; i < power.size(); ++i) {
    if (power[i] > power[peak]) {
      peak = i;
    }
  }
  double peak_freq = static_cast<double>(peak) * sample_rate / 1024.0;
  EXPECT_NEAR(peak_freq, tone_hz, 1.0);
}

TEST(PowerSpectrumTest, DcSuppressed) {
  std::vector<double> series(100, 5.0);  // Pure DC.
  FftScratch scratch;
  std::vector<double> power;
  PowerSpectrum(series, &scratch, &power);
  EXPECT_DOUBLE_EQ(power[0], 0.0);
}

TEST(PowerSpectrumTest, ReusedScratchIsBitIdenticalToFreshScratch) {
  // One scratch carried across sizes (larger first, so stale samples sit
  // past the new series) must give the bytes a fresh scratch gives.
  Rng rng(11);
  FftScratch reused;
  std::vector<double> power;
  for (size_t n : {1000u, 100u, 317u, 1000u}) {
    std::vector<double> series(n);
    for (auto& x : series) {
      x = rng.Normal();
    }
    FftScratch fresh;
    std::vector<double> want;
    PowerSpectrum(series, &fresh, &want);
    PowerSpectrum(series, &reused, &power);
    ASSERT_EQ(power.size(), want.size());
    for (size_t i = 0; i < power.size(); ++i) {
      // Same code path, same bytes -- not a tolerance comparison.
      EXPECT_EQ(power[i], want[i]) << "bin " << i << " n=" << n;
    }
  }
}

TEST(PowerSpectrumTest, ScratchAllocatesOnceAcrossSameSizeCalls) {
  // The allocation-count regression the scratch API exists for: N
  // same-size transforms through one FftScratch must grow the complex
  // buffer exactly once.
  Rng rng(12);
  std::vector<double> series(1000);
  for (auto& x : series) {
    x = rng.Normal();
  }
  FftScratch scratch;
  std::vector<double> power;
  for (int call = 0; call < 16; ++call) {
    series[0] = static_cast<double>(call);  // Vary data, not size.
    PowerSpectrum(series, &scratch, &power);
  }
  EXPECT_EQ(scratch.allocations(), 1);
  // A smaller transform reuses the existing capacity...
  std::vector<double> small(series.begin(), series.begin() + 100);
  PowerSpectrum(small, &scratch, &power);
  EXPECT_EQ(scratch.allocations(), 1);
  // ...and only a larger one is allowed to grow it again.
  std::vector<double> big(5000);
  for (auto& x : big) {
    x = rng.Normal();
  }
  PowerSpectrum(big, &scratch, &power);
  EXPECT_EQ(scratch.allocations(), 2);
}

TEST(PowerSpectrumPairTest, MatchesSingleSeriesSpectra) {
  Rng rng(13);
  std::vector<double> a(900), b(1000);
  for (auto& x : a) {
    x = rng.Normal();
  }
  for (auto& x : b) {
    x = rng.Normal();
  }
  FftScratch scratch;
  std::vector<double> power_a, power_b;
  ASSERT_TRUE(PowerSpectrumPair(a, b, &scratch, &power_a, &power_b).ok());
  std::vector<double> single_a, single_b;
  PowerSpectrum(a, &scratch, &single_a);
  PowerSpectrum(b, &scratch, &single_b);
  ASSERT_EQ(power_a.size(), single_a.size());
  ASSERT_EQ(power_b.size(), single_b.size());
  // The packed split agrees with the direct transform to FP rounding.
  for (size_t i = 0; i < power_a.size(); ++i) {
    EXPECT_NEAR(power_a[i], single_a[i], 1e-6 * (1.0 + single_a[i]));
    EXPECT_NEAR(power_b[i], single_b[i], 1e-6 * (1.0 + single_b[i]));
  }
}

TEST(PowerSpectrumPairTest, PairIsDeterministicAcrossCalls) {
  Rng rng(14);
  std::vector<double> a(512), b(512);
  for (auto& x : a) {
    x = rng.Normal();
  }
  for (auto& x : b) {
    x = rng.Normal();
  }
  FftScratch scratch_1, scratch_2;
  std::vector<double> pa1, pb1, pa2, pb2;
  ASSERT_TRUE(PowerSpectrumPair(a, b, &scratch_1, &pa1, &pb1).ok());
  ASSERT_TRUE(PowerSpectrumPair(a, b, &scratch_2, &pa2, &pb2).ok());
  EXPECT_EQ(pa1, pa2);
  EXPECT_EQ(pb1, pb2);
}

TEST(PowerSpectrumPairTest, RejectsMismatchedPaddedSizes) {
  std::vector<double> a(100), b(5000);
  FftScratch scratch;
  std::vector<double> power_a, power_b;
  EXPECT_TRUE(PowerSpectrumPair(a, b, &scratch, &power_a, &power_b)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace dflow::arecibo
