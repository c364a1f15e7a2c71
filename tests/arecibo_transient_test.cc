#include "arecibo/single_pulse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "arecibo/dedisperse.h"
#include "arecibo/robust_stats.h"
#include "arecibo/spectrometer.h"
#include "arecibo/survey.h"
#include "par/par.h"
#include "util/md5.h"
#include "util/rng.h"

namespace dflow::arecibo {
namespace {

constexpr int kChannels = 64;
constexpr int64_t kSamples = 1 << 13;
constexpr double kSampleTime = 1e-3;

TEST(SinglePulseTest, PureNoiseIsQuiet) {
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 1);
  DynamicSpectrum spec = model.Generate({}, {});
  Dedisperser dedisperser(MakeDmTrials(300.0, 4));
  SinglePulseConfig config;
  config.snr_threshold = 7.0;
  SinglePulseSearch search(config);
  int total = 0;
  for (double dm : dedisperser.dm_trials()) {
    total +=
        static_cast<int>(search.Search(dedisperser.Dedisperse(spec, dm)).size());
  }
  EXPECT_LE(total, 2);
}

TEST(SinglePulseTest, FindsInjectedTransientAtRightTime) {
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 2);
  TransientParams burst;
  burst.time_sec = 3.5;
  burst.dm = 150.0;
  burst.amplitude = 2.0;
  burst.width_sec = 0.008;  // 8 samples.
  DynamicSpectrum spec = model.Generate({}, {}, {burst});

  Dedisperser dedisperser(MakeDmTrials(300.0, 31));
  TimeSeries series = dedisperser.Dedisperse(spec, 150.0);
  SinglePulseConfig config;
  config.snr_threshold = 7.0;
  SinglePulseSearch search(config);
  auto events = search.Search(series);
  ASSERT_FALSE(events.empty());
  EXPECT_NEAR(events[0].time_sec, 3.5, 0.05);
  EXPECT_DOUBLE_EQ(events[0].dm, 150.0);
  EXPECT_GE(events[0].snr, 7.0);
}

TEST(SinglePulseTest, MatchedDmMaximizesSnr) {
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 3);
  TransientParams burst;
  burst.time_sec = 2.0;
  burst.dm = 200.0;
  burst.amplitude = 1.5;
  burst.width_sec = 0.004;
  DynamicSpectrum spec = model.Generate({}, {}, {burst});

  Dedisperser dedisperser(MakeDmTrials(300.0, 31));
  SinglePulseConfig config;
  config.snr_threshold = 5.0;
  SinglePulseSearch search(config);
  auto snr_at = [&](double dm) {
    auto events = search.Search(dedisperser.Dedisperse(spec, dm));
    double best = 0.0;
    for (const auto& event : events) {
      if (std::fabs(event.time_sec - 2.0) < 0.1) {
        best = std::max(best, event.snr);
      }
    }
    return best;
  };
  double matched = snr_at(200.0);
  double zero = snr_at(0.0);
  EXPECT_GT(matched, 5.0);
  EXPECT_GT(matched, zero * 1.5);
}

TEST(SinglePulseTest, BoxcarWidthTracksPulseWidth) {
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 4);
  TransientParams wide;
  wide.time_sec = 4.0;
  wide.dm = 100.0;
  wide.amplitude = 1.2;
  wide.width_sec = 0.016;  // 16 samples.
  DynamicSpectrum spec = model.Generate({}, {}, {wide});
  Dedisperser dedisperser(MakeDmTrials(300.0, 31));
  TimeSeries series = dedisperser.Dedisperse(spec, 100.0);
  SinglePulseConfig config;
  config.snr_threshold = 6.0;
  SinglePulseSearch search(config);
  auto events = search.Search(series);
  ASSERT_FALSE(events.empty());
  // The best boxcar is within a factor two of the true width.
  EXPECT_GE(events[0].width_samples, 8);
  EXPECT_LE(events[0].width_samples, 32);
}

TEST(SinglePulseTest, NearbyTriggersMerge) {
  // One very bright pulse should produce one event, not a cluster.
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 5);
  TransientParams burst;
  burst.time_sec = 1.0;
  burst.dm = 50.0;
  burst.amplitude = 6.0;
  burst.width_sec = 0.006;
  DynamicSpectrum spec = model.Generate({}, {}, {burst});
  Dedisperser dedisperser(MakeDmTrials(300.0, 31));
  TimeSeries series = dedisperser.Dedisperse(spec, 50.0);
  SinglePulseSearch search(SinglePulseConfig{});
  auto events = search.Search(series);
  int near_pulse = 0;
  for (const auto& event : events) {
    if (std::fabs(event.time_sec - 1.0) < 0.1) {
      ++near_pulse;
    }
  }
  EXPECT_EQ(near_pulse, 1);
}

TEST(SinglePulseTest, TwoSeparatedPulsesBothFound) {
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 6);
  TransientParams first;
  first.time_sec = 1.5;
  first.dm = 80.0;
  first.amplitude = 2.5;
  TransientParams second = first;
  second.time_sec = 6.0;
  DynamicSpectrum spec = model.Generate({}, {}, {first, second});
  Dedisperser dedisperser(MakeDmTrials(300.0, 31));
  TimeSeries series = dedisperser.Dedisperse(spec, 80.0);
  SinglePulseSearch search(SinglePulseConfig{});
  auto events = search.Search(series);
  bool saw_first = false, saw_second = false;
  for (const auto& event : events) {
    saw_first |= std::fabs(event.time_sec - 1.5) < 0.1;
    saw_second |= std::fabs(event.time_sec - 6.0) < 0.1;
  }
  EXPECT_TRUE(saw_first);
  EXPECT_TRUE(saw_second);
}

TEST(SurveyTransientTest, PipelineFindsBurstAndCutsBroadbandRfi) {
  SurveyConfig config;
  config.num_channels = 48;
  config.num_samples = 1 << 12;
  config.sample_time_sec = 1e-3;
  config.num_dm_trials = 12;
  config.dm_max = 200.0;
  config.search.snr_threshold = 13.0;
  config.search_transients = true;
  config.single_pulse.snr_threshold = 7.5;
  SurveyPipeline pipeline(config);

  // A real burst in beam 4 plus a lightning-like undispersed spike that
  // hits every beam at the same instant (injected as a dm=0 transient in
  // all beams).
  InjectedTransient burst;
  burst.beam = 4;
  burst.params.time_sec = 2.0;
  burst.params.dm = 120.0;
  burst.params.amplitude = 2.5;
  burst.params.width_sec = 0.006;
  std::vector<InjectedTransient> injected = {burst};
  for (int beam = 0; beam < config.num_beams; ++beam) {
    InjectedTransient lightning;
    lightning.beam = beam;
    lightning.params.time_sec = 3.0;
    lightning.params.dm = 0.0;
    lightning.params.amplitude = 3.0;
    lightning.params.width_sec = 0.004;
    injected.push_back(lightning);
  }

  PointingResult result = pipeline.ProcessPointing(7, {}, {}, {}, injected);
  bool found_burst = false, lightning_leaked = false;
  for (const TransientEvent& event : result.transients) {
    if (std::fabs(event.time_sec - 2.0) < 0.1) {
      found_burst = true;
    }
    if (std::fabs(event.time_sec - 3.0) < 0.1) {
      lightning_leaked = true;
    }
  }
  EXPECT_TRUE(found_burst);
  EXPECT_FALSE(lightning_leaked);  // Multibeam coincidence kills it.
}

TEST(SurveyTransientTest, DisabledByDefault) {
  SurveyConfig config;
  config.num_channels = 32;
  config.num_samples = 1 << 11;
  config.num_dm_trials = 4;
  SurveyPipeline pipeline(config);
  InjectedTransient burst;
  burst.beam = 0;
  burst.params.amplitude = 5.0;
  PointingResult result = pipeline.ProcessPointing(1, {}, {}, {}, {burst});
  EXPECT_TRUE(result.transients.empty());
}

TEST(SinglePulseTest, TinySeriesHandled) {
  TimeSeries series;
  series.sample_time_sec = 1.0;
  series.samples = {0.0, 0.0};
  SinglePulseSearch search(SinglePulseConfig{});
  EXPECT_TRUE(search.Search(series).empty());
}

// --- Exact selection against a full sort ---------------------------------

/// The kinds of input the selection must agree with a sort on.
enum class Shape { kNoise, kTies, kSorted, kReversed, kBursts };
constexpr Shape kShapes[] = {Shape::kNoise, Shape::kTies, Shape::kSorted,
                             Shape::kReversed, Shape::kBursts};

std::vector<double> MakeSeries(Shape shape, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (double& value : values) {
    value = shape == Shape::kTies ? static_cast<double>(rng.Uniform(-2, 2))
                                  : rng.Normal();
  }
  if (shape == Shape::kSorted || shape == Shape::kReversed) {
    std::sort(values.begin(), values.end());
    if (shape == Shape::kReversed) {
      std::reverse(values.begin(), values.end());
    }
  }
  if (shape == Shape::kBursts) {
    // One or two boxcar bursts of a few samples, 8-20 sigma.
    const int64_t bursts = rng.Uniform(1, 2);
    for (int64_t b = 0; b < bursts; ++b) {
      const int64_t width = rng.Uniform(1, 6);
      const int64_t at = rng.Uniform(0, static_cast<int64_t>(n) - 1);
      const double amplitude = rng.UniformReal(8.0, 20.0);
      for (int64_t i = at; i < std::min<int64_t>(at + width, n); ++i) {
        values[static_cast<size_t>(i)] += amplitude;
      }
    }
  }
  return values;
}

TEST(RobustStatsTest, SelectQuartilesMatchesFullSort) {
  for (Shape shape : kShapes) {
    for (size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 63, 64, 1000, 8192}) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        std::vector<double> values = MakeSeries(shape, n, seed * 131 + n);
        std::vector<double> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        std::vector<double> scratch = values;
        const Quartiles q = SelectQuartiles(&scratch);
        SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)) +
                     " n " + std::to_string(n) + " seed " +
                     std::to_string(seed));
        EXPECT_EQ(q.q1, sorted[n / 4]);
        EXPECT_EQ(q.median, sorted[n / 2]);
        EXPECT_EQ(q.q3, sorted[(3 * n) / 4]);
        // Selection only permutes.
        std::sort(scratch.begin(), scratch.end());
        EXPECT_EQ(scratch, sorted);

        const RobustStats stats = MedianIqr(values);
        EXPECT_EQ(stats.location, sorted[n / 2]);
        EXPECT_EQ(stats.scale,
                  std::max((sorted[(3 * n) / 4] - sorted[n / 4]) / 1.349,
                           1e-12));
      }
    }
  }
}

/// The single-pulse search with its median / IQR taken from a full sort:
/// the reference the selection-based search must reproduce exactly.
std::vector<TransientEvent> SortReferenceSearch(const SinglePulseConfig& config,
                                                const TimeSeries& series) {
  std::vector<TransientEvent> events;
  const int64_t n = static_cast<int64_t>(series.samples.size());
  if (n < 4) {
    return events;
  }
  std::vector<double> sorted = series.samples;
  std::sort(sorted.begin(), sorted.end());
  const double location = sorted[static_cast<size_t>(n) / 2];
  const double q1 = sorted[static_cast<size_t>(n) / 4];
  const double q3 = sorted[(3 * static_cast<size_t>(n)) / 4];
  const double scale = std::max((q3 - q1) / 1.349, 1e-12);

  std::vector<double> prefix(static_cast<size_t>(n) + 1, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    prefix[static_cast<size_t>(i + 1)] =
        prefix[static_cast<size_t>(i)] + series.samples[static_cast<size_t>(i)];
  }
  std::vector<TransientEvent> raw;
  for (int width = 1; width <= config.max_width; width *= 2) {
    const double norm = 1.0 / (scale * std::sqrt(static_cast<double>(width)));
    for (int64_t start = 0; start + width <= n; ++start) {
      double sum = prefix[static_cast<size_t>(start + width)] -
                   prefix[static_cast<size_t>(start)] - location * width;
      double snr = sum * norm;
      if (snr >= config.snr_threshold) {
        TransientEvent event;
        event.sample = start + width / 2;
        event.time_sec =
            static_cast<double>(event.sample) * series.sample_time_sec;
        event.width_samples = width;
        event.snr = snr;
        event.dm = series.dm;
        raw.push_back(event);
      }
    }
  }
  std::sort(raw.begin(), raw.end(),
            [](const TransientEvent& a, const TransientEvent& b) {
              return a.snr > b.snr;
            });
  for (const TransientEvent& candidate : raw) {
    bool merged = false;
    for (const TransientEvent& kept : events) {
      if (std::llabs(kept.sample - candidate.sample) <=
          config.merge_distance +
              (kept.width_samples + candidate.width_samples) / 2) {
        merged = true;
        break;
      }
    }
    if (!merged) {
      events.push_back(candidate);
      if (events.size() >= static_cast<size_t>(config.max_events)) {
        break;
      }
    }
  }
  return events;
}

void ExpectSameEvents(const std::vector<TransientEvent>& got,
                      const std::vector<TransientEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(got[i].sample, want[i].sample);
    EXPECT_EQ(got[i].time_sec, want[i].time_sec);
    EXPECT_EQ(got[i].width_samples, want[i].width_samples);
    EXPECT_EQ(got[i].snr, want[i].snr);
    EXPECT_EQ(got[i].dm, want[i].dm);
  }
}

TEST(SinglePulseTest, MatchesSortReferenceOnSeededSeries) {
  int64_t events_seen = 0;
  for (double threshold : {2.0, 6.0}) {
    SinglePulseConfig config;
    config.snr_threshold = threshold;
    SinglePulseSearch search(config);
    for (Shape shape : kShapes) {
      for (size_t n = 4; n <= 17; ++n) {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
          TimeSeries series;
          series.dm = 12.5 * static_cast<double>(seed);
          series.sample_time_sec = 6.4e-5;
          series.samples = MakeSeries(shape, n, seed * 977 + n);
          SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)) +
                       " n " + std::to_string(n) + " seed " +
                       std::to_string(seed));
          const std::vector<TransientEvent> want =
              SortReferenceSearch(config, series);
          events_seen += static_cast<int64_t>(want.size());
          ExpectSameEvents(search.Search(series), want);
        }
      }
    }
  }
  EXPECT_GT(events_seen, 0);
}

TEST(SinglePulseTest, MatchesSortReferenceOnDedispersedBursts) {
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 8);
  TransientParams first;
  first.time_sec = 1.25;
  first.dm = 90.0;
  first.amplitude = 3.0;
  TransientParams second = first;
  second.time_sec = 5.5;
  second.width_sec = 0.012;
  DynamicSpectrum spec = model.Generate({}, {}, {first, second});
  Dedisperser dedisperser(MakeDmTrials(300.0, 12));
  SinglePulseConfig config;
  config.snr_threshold = 5.0;
  SinglePulseSearch search(config);
  int64_t events_seen = 0;
  for (const TimeSeries& series : dedisperser.DedisperseAll(spec)) {
    const std::vector<TransientEvent> want =
        SortReferenceSearch(config, series);
    events_seen += static_cast<int64_t>(want.size());
    ExpectSameEvents(search.Search(series), want);
  }
  EXPECT_GT(events_seen, 0);
}

// --- Golden pin of a seeded pointing ----------------------------------------

std::string CandidateDigest(const std::vector<Candidate>& candidates) {
  Md5 md5;
  for (const Candidate& c : candidates) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%d|%d|%.17g|%.17g|%.17g|%.17g|%.17g|%d|%d\n", c.pointing,
                  c.beam, c.freq_hz, c.period_sec, c.dm, c.snr, c.accel,
                  c.harmonics, c.rfi_flag ? 1 : 0);
    md5.Update(line);
  }
  return md5.HexDigest();
}

std::string TransientDigest(const std::vector<TransientEvent>& events) {
  Md5 md5;
  for (const TransientEvent& e : events) {
    char line[256];
    std::snprintf(line, sizeof(line), "%lld|%.17g|%d|%.17g|%.17g\n",
                  static_cast<long long>(e.sample), e.time_sec,
                  e.width_samples, e.snr, e.dm);
    md5.Update(line);
  }
  return md5.HexDigest();
}

/// A reduced-scale pointing with two pulsars, mains RFI, two dispersed
/// bursts and broadband lightning in every beam.
PointingResult RunGoldenPointing() {
  SurveyConfig config;
  config.num_channels = 48;
  config.num_samples = 1 << 12;
  config.sample_time_sec = 1e-3;
  config.num_dm_trials = 12;
  config.dm_max = 200.0;
  config.search_transients = true;
  config.single_pulse.snr_threshold = 6.5;
  config.seed = 424242;
  SurveyPipeline pipeline(config);

  std::vector<InjectedPulsar> pulsars(2);
  pulsars[0].beam = 1;
  pulsars[0].params.period_sec = 0.0371;
  pulsars[0].params.dm = 80.0;
  pulsars[0].params.pulse_amplitude = 0.5;
  pulsars[1].beam = 5;
  pulsars[1].params.period_sec = 0.0113;
  pulsars[1].params.dm = 150.0;
  pulsars[1].params.pulse_amplitude = 0.6;
  InjectedTransient burst;
  burst.beam = 3;
  burst.params.time_sec = 1.7;
  burst.params.dm = 120.0;
  burst.params.amplitude = 2.5;
  burst.params.width_sec = 0.006;
  InjectedTransient wide = burst;
  wide.beam = 6;
  wide.params.time_sec = 0.6;
  wide.params.dm = 60.0;
  wide.params.amplitude = 2.0;
  wide.params.width_sec = 0.012;
  std::vector<InjectedTransient> transients = {burst, wide};
  for (int beam = 0; beam < config.num_beams; ++beam) {
    InjectedTransient lightning;
    lightning.beam = beam;
    lightning.params.time_sec = 3.1;
    lightning.params.dm = 0.0;
    lightning.params.amplitude = 3.0;
    lightning.params.width_sec = 0.004;
    transients.push_back(lightning);
  }
  return pipeline.ProcessPointing(11, pulsars, {RfiParams{}}, {}, transients);
}

// Digests of RunGoldenPointing() as computed by the sort-based single-pulse
// search. The pointing must reproduce them serially and on the shared
// pool, at every SIMD tier.
constexpr char kGoldenCandidates[] = "b885bd2c46b18320c6e52aeaa5c81c20";
constexpr char kGoldenDetections[] = "13c508a8c29ab6fad5a2b74605dbac01";
constexpr char kGoldenTransients[] = "8640d1334121babbb26ac33c14fa1022";

void ExpectGolden(const PointingResult& result) {
  EXPECT_FALSE(result.detections.empty());
  EXPECT_FALSE(result.transients.empty());
  EXPECT_EQ(CandidateDigest(result.candidates), kGoldenCandidates);
  EXPECT_EQ(CandidateDigest(result.detections), kGoldenDetections);
  EXPECT_EQ(TransientDigest(result.transients), kGoldenTransients);
}

// --- Batched noise fill ------------------------------------------------------

// Reference radiometer noise: n successive Normal() draws, one per
// sample, the stream Generate must reproduce byte for byte.
std::vector<float> PerSampleNoise(Rng& rng, size_t n) {
  std::vector<float> noise(n);
  for (float& x : noise) {
    x = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return noise;
}

TEST(SpectrometerNoiseTest, NoiseIsByteEqualToPerSampleLoop) {
  // Odd shapes leave a spare normal pending between consecutive blocks.
  for (const auto& [channels, samples] :
       std::vector<std::pair<int, int64_t>>{{kChannels, kSamples},
                                            {3, 1001}}) {
    SpectrometerModel model(channels, samples, kSampleTime, 31);
    Rng reference(31);
    for (int block = 0; block < 3; ++block) {
      const DynamicSpectrum spec = model.Generate({}, {});
      const std::vector<float> want =
          PerSampleNoise(reference, spec.power.size());
      ASSERT_EQ(std::memcmp(spec.power.data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << channels << "x" << samples << " block " << block;
    }
  }
}

// MD5 of the two consecutive injected spectra below as produced by the
// per-sample noise loop: two pulsars (one accelerated), mains RFI and a
// dispersed burst.
constexpr char kInjectedSpectrumDigests[2][33] = {
    "5c5854f2a09f38374194403a7274cb3a", "59b793d10f70a7166e157cd33ec21664"};

TEST(SpectrometerNoiseTest, InjectedSpectrumIsByteEqualToPerSampleReference) {
  SpectrometerModel model(kChannels, kSamples, kSampleTime, 77);
  PulsarParams accelerated;
  accelerated.period_sec = 0.0417;
  accelerated.dm = 90.0;
  accelerated.pulse_amplitude = 0.8;
  accelerated.accel_bins = 3.0;
  accelerated.phase = 0.25;
  PulsarParams fast;
  fast.period_sec = 0.0123;
  fast.dm = 200.0;
  TransientParams burst;
  burst.time_sec = 4.2;
  burst.dm = 150.0;
  burst.amplitude = 2.0;
  burst.width_sec = 0.008;
  for (const char* want : kInjectedSpectrumDigests) {
    const DynamicSpectrum spec =
        model.Generate({accelerated, fast}, {RfiParams{}}, {burst});
    Md5 md5;
    md5.Update(spec.power.data(), spec.power.size() * sizeof(float));
    EXPECT_EQ(md5.HexDigest(), want);
  }
}

TEST(SurveyTransientTest, SeededPointingMatchesGoldenSerial) {
  par::SerialOverride serial;
  ExpectGolden(RunGoldenPointing());
}

TEST(SurveyTransientTest, SeededPointingMatchesGoldenOnSharedPool) {
  ExpectGolden(RunGoldenPointing());
}

}  // namespace
}  // namespace dflow::arecibo
