// palfa_search: the Arecibo pointing search (the paper's Fig. 1
// processing) over a seeded stream of pointings with injected pulsars,
// power-line RFI and one dispersed burst each. CPU-bound batch work in
// arecibo, par and simd; nothing in serve, cluster or db.
//
// Untraced: SurveyPipeline::ProcessPointing back to back for the run's
// seconds. Traced: the same stages called one by one, in ProcessPointing's
// order, with each call timed; every traced pointing is followed by an
// untraced ProcessPointing of the same inputs, whose candidates the traced
// composition must reproduce exactly.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "arecibo/survey.h"
#include "common.h"
#include "par/par.h"
#include "util/md5.h"
#include "util/rng.h"

namespace dflowbench {
namespace {

using dflow::arecibo::Candidate;
using dflow::arecibo::InjectedPulsar;
using dflow::arecibo::InjectedTransient;
using dflow::arecibo::PointingResult;
using dflow::arecibo::RfiParams;
using dflow::arecibo::SurveyConfig;
using dflow::arecibo::SurveyPipeline;

struct PointingInput {
  int id = 0;
  std::vector<InjectedPulsar> pulsars;
  std::vector<RfiParams> rfi;
  std::vector<InjectedTransient> transients;
};

SurveyConfig MakeConfig(uint64_t seed) {
  SurveyConfig config;  // 7 beams x 96 channels x 8192 samples x 24 DMs.
  config.search_transients = true;
  config.seed = seed;
  return config;
}

/// Pointing `id` of the stream: a pure function of (seed, id). One or two
/// pulsars in distinct beams, 60 Hz RFI in every beam, one burst.
PointingInput MakePointing(uint64_t seed, int id) {
  dflow::Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(id));
  PointingInput input;
  input.id = id;
  const int num_pulsars = static_cast<int>(rng.Uniform(1, 2));
  std::vector<int> beams = {0, 1, 2, 3, 4, 5, 6};
  rng.Shuffle(beams);
  for (int p = 0; p < num_pulsars; ++p) {
    InjectedPulsar pulsar;
    pulsar.beam = beams[static_cast<size_t>(p)];
    pulsar.params.period_sec = rng.UniformReal(0.005, 0.05);
    pulsar.params.dm = rng.UniformReal(40.0, 260.0);
    pulsar.params.pulse_amplitude = rng.UniformReal(0.3, 0.6);
    pulsar.params.duty_cycle = 0.05;
    pulsar.params.phase = rng.UniformReal(0.0, 1.0);
    input.pulsars.push_back(pulsar);
  }
  input.rfi.push_back(RfiParams{});  // 60 Hz mains in channels 0-8.
  InjectedTransient burst;
  burst.beam = beams[6];
  burst.params.time_sec = rng.UniformReal(0.1, 0.4);
  burst.params.dm = rng.UniformReal(50.0, 250.0);
  burst.params.amplitude = 5.0;
  input.transients.push_back(burst);
  return input;
}

PointingResult Process(SurveyPipeline& pipeline, const PointingInput& input) {
  return pipeline.ProcessPointing(input.id, input.pulsars, input.rfi, {},
                                  input.transients);
}

std::string CandidateKey(const Candidate& c) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%d|%d|%.17g|%.17g|%.17g|%.17g|%d|%d\n",
                c.pointing, c.beam, c.freq_hz, c.dm, c.snr, c.accel,
                c.harmonics, c.rfi_flag ? 1 : 0);
  return buffer;
}

std::string Fingerprint(const std::vector<Candidate>& candidates) {
  dflow::Md5 md5;
  for (const Candidate& candidate : candidates) {
    md5.Update(CandidateKey(candidate));
  }
  return md5.HexDigest();
}

/// An injected pulsar counts as found when a candidate in its beam sits
/// within two DM trial spacings of its DM and at its spin frequency or a
/// harmonic (n or 1/n, n <= 4), within 1.5 Fourier bins.
bool Detected(const InjectedPulsar& pulsar,
              const std::vector<Candidate>& candidates,
              const SurveyConfig& config) {
  const double dm_step = config.dm_max / (config.num_dm_trials - 1);
  const double bin_hz =
      1.0 / (static_cast<double>(config.num_samples) * config.sample_time_sec);
  const double f0 = 1.0 / pulsar.params.period_sec;
  for (const Candidate& d : candidates) {
    if (d.beam != pulsar.beam ||
        std::fabs(d.dm - pulsar.params.dm) > 2.0 * dm_step) {
      continue;
    }
    for (double n = 1; n <= 4; ++n) {
      if (std::fabs(d.freq_hz - f0 * n) <= 1.5 * bin_hz ||
          std::fabs(d.freq_hz - f0 / n) <= 1.5 * bin_hz) {
        return true;
      }
    }
  }
  return false;
}

/// Per-pointing busy time of each stage, summed over beams (thread-time).
struct StageTimes {
  double synth = 0, dedisperse = 0, fft_search = 0, single_pulse = 0,
         sift = 0, meta = 0;
  double Total() const {
    return synth + dedisperse + fft_search + single_pulse + sift + meta;
  }
  void Add(const StageTimes& o) {
    synth += o.synth;
    dedisperse += o.dedisperse;
    fft_search += o.fft_search;
    single_pulse += o.single_pulse;
    sift += o.sift;
    meta += o.meta;
  }
};

struct TracedPointing {
  std::vector<Candidate> candidates;
  std::vector<Candidate> detections;
  StageTimes times;
};

/// ProcessPointing's stages called one at a time through their public
/// classes, in its order and with its per-beam seeds, each call timed.
/// The transient coincidence cut is not repeated: only candidates and
/// detections are compared.
TracedPointing ProcessTraced(const SurveyConfig& config,
                             const PointingInput& input) {
  using namespace dflow::arecibo;
  Dedisperser dedisperser(MakeDmTrials(config.dm_max, config.num_dm_trials));
  PeriodicitySearch periodicity(config.search);
  CandidateSifter sifter(config.sifter);
  MetaAnalysis meta(config.meta);
  SinglePulseSearch single_pulse(config.single_pulse);

  struct BeamOutput {
    BeamResult sifted;
    StageTimes times;
  };
  dflow::par::Options options;
  options.label = "arecibo.pointing_beams";
  std::vector<BeamOutput> beams = dflow::par::ParallelMap<BeamOutput>(
      config.num_beams,
      [&](int64_t beam64) {
        const int beam = static_cast<int>(beam64);
        BeamOutput output;
        SpectrometerModel model(
            config.num_channels, config.num_samples, config.sample_time_sec,
            config.seed ^ (static_cast<uint64_t>(input.id) << 16) ^
                static_cast<uint64_t>(beam));
        std::vector<PulsarParams> beam_pulsars;
        for (const InjectedPulsar& injected : input.pulsars) {
          if (injected.beam == beam) beam_pulsars.push_back(injected.params);
        }
        std::vector<TransientParams> beam_bursts;
        for (const InjectedTransient& injected : input.transients) {
          if (injected.beam == beam) beam_bursts.push_back(injected.params);
        }
        double t = NowSec();
        DynamicSpectrum spectrum =
            model.Generate(beam_pulsars, input.rfi, beam_bursts);
        double now = NowSec();
        output.times.synth += now - t;
        t = now;
        std::vector<TimeSeries> trials = dedisperser.DedisperseAll(spectrum);
        now = NowSec();
        output.times.dedisperse += now - t;
        t = now;
        std::vector<std::vector<Candidate>> found =
            periodicity.SearchBatch(trials);
        now = NowSec();
        output.times.fft_search += now - t;
        output.sifted.beam = beam;
        for (size_t trial = 0; trial < trials.size(); ++trial) {
          for (Candidate& candidate : found[trial]) {
            candidate.beam = beam;
            candidate.pointing = input.id;
            output.sifted.candidates.push_back(candidate);
          }
          if (config.search_transients) {
            t = NowSec();
            (void)single_pulse.Search(trials[trial]);
            output.times.single_pulse += NowSec() - t;
          }
        }
        t = NowSec();
        output.sifted.candidates =
            sifter.Sift(std::move(output.sifted.candidates));
        output.times.sift += NowSec() - t;
        return output;
      },
      options);

  TracedPointing traced;
  std::vector<BeamResult> beam_results;
  for (BeamOutput& output : beams) {
    traced.times.Add(output.times);
    beam_results.push_back(std::move(output.sifted));
  }
  const double t = NowSec();
  traced.candidates = meta.Analyze(beam_results);
  traced.times.meta = NowSec() - t;
  for (Candidate& candidate : traced.candidates) {
    candidate.pointing = input.id;
  }
  traced.detections = MetaAnalysis::Survivors(traced.candidates);
  std::sort(traced.detections.begin(), traced.detections.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.snr > b.snr;
            });
  return traced;
}

/// Builds the pipeline and runs the stream's first pointing, which also
/// starts the shared thread pool and fills the FFT tables. Sets *seconds.
std::unique_ptr<SurveyPipeline> SetUp(const SurveyConfig& config,
                                      const PointingInput& first,
                                      double* seconds) {
  const double t0 = NowSec();
  auto pipeline = std::make_unique<SurveyPipeline>(config);
  PointingResult warm = Process(*pipeline, first);
  *seconds = NowSec() - t0;
  if (warm.candidates.empty()) {
    std::fprintf(stderr, "palfa_search: warm-up pointing found nothing\n");
  }
  return pipeline;
}

void RunUntraced(const Args& args, Report* report) {
  const SurveyConfig config = MakeConfig(args.seed);
  const PointingInput first = MakePointing(args.seed, 0);
  ResetPeakRss();
  double setup_sec = 0;
  std::unique_ptr<SurveyPipeline> built = SetUp(config, first, &setup_sec);
  report->EndToEnd("setup_s", setup_sec);
  if (args.setup_only) return;
  SurveyPipeline& pipeline = *built;

  // Throughput is the median over segments of kSegment pointings, so a
  // burst of CPU stolen by a neighbour moves one segment, not the result.
  constexpr size_t kSegment = 8;
  std::vector<double> segment_rates;
  double segment_start = NowSec();
  std::vector<double> latencies_ms;
  std::vector<PointingInput> inputs;
  std::vector<PointingResult> results;
  const double start = NowSec();
  const double deadline = start + args.seconds;
  double end = start;
  for (int id = 1; end < deadline; ++id) {
    inputs.push_back(MakePointing(args.seed, id));
    const double t = NowSec();
    results.push_back(Process(pipeline, inputs.back()));
    end = NowSec();
    latencies_ms.push_back((end - t) * 1e3);
    if (results.size() % kSegment == 0) {
      segment_rates.push_back(kSegment / (end - segment_start));
      segment_start = end;
    }
  }
  const double elapsed = end - start;
  const int64_t pointings = static_cast<int64_t>(results.size());

  // The search must find every injected pulsar; the multibeam RFI rule
  // may still excise one whose frequency is harmonically related to
  // signals in four other beams (mains harmonics, the other pulsar), so
  // excision may take 5% of them (at least 2, for short runs).
  int64_t injected = 0, found = 0, survived = 0, failed_pointings = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    bool all_found = true;
    for (const InjectedPulsar& pulsar : inputs[i].pulsars) {
      ++injected;
      if (Detected(pulsar, results[i].candidates, config)) {
        ++found;
      } else {
        all_found = false;
        report->Note("pulsar missed in pointing " +
                     std::to_string(inputs[i].id) + " beam " +
                     std::to_string(pulsar.beam));
      }
      if (Detected(pulsar, results[i].detections, config)) {
        ++survived;
      }
    }
    if (!all_found) ++failed_pointings;
  }
  report->Check("every injected pulsar found at its DM and period",
                found == injected,
                std::to_string(found) + "/" + std::to_string(injected));
  report->Check("RFI excision removes at most 5% of injected pulsars",
                injected - survived <= std::max<int64_t>(2, injected / 20),
                std::to_string(survived) + "/" + std::to_string(injected));

  // Same seed, same inputs: a fresh pipeline must repeat the candidates.
  bool repeats = true;
  SurveyPipeline again(config);
  for (size_t i = 0; i < std::min<size_t>(3, results.size()); ++i) {
    repeats = repeats && Fingerprint(Process(again, inputs[i]).candidates) ==
                             Fingerprint(results[i].candidates);
  }
  report->Check("candidate fingerprint repeats for the same seed", repeats);
  report->Note("first pointing fingerprint " +
               Fingerprint(results.front().candidates));

  const double rate = Median(segment_rates);
  double raw_mb = 0.0;
  for (const PointingResult& result : results) {
    raw_mb += static_cast<double>(result.raw_payload_bytes) / 1e6;
  }
  report->EndToEnd("throughput_per_s", rate);
  report->EndToEnd("latency_p50_ms", Median(latencies_ms));
  report->EndToEnd("latency_tail_ms", Quantile(latencies_ms, 0.90));
  report->Info("pointings_per_s", rate, "1/s");
  report->Info("pointing_p90_ms", Quantile(latencies_ms, 0.90), "ms");
  report->Info("raw_mb_per_s", raw_mb / elapsed, "MB/s");
  report->Info("pointings", static_cast<double>(pointings), "count");
  report->Info("fail_frac",
               static_cast<double>(failed_pointings) / pointings, "frac");
  report->Note("latency_tail_ms is the pointing p90 (" +
               std::to_string(pointings) + " samples); throughput is the "
               "median over " + std::to_string(segment_rates.size()) +
               " segments; overall " + std::to_string(pointings / elapsed) +
               " pointings/s");
  report->Attempt(pointings, failed_pointings);
}

void RunTraced(const Args& args, Report* report) {
  const SurveyConfig config = MakeConfig(args.seed);
  double setup_sec = 0;
  std::unique_ptr<SurveyPipeline> built =
      SetUp(config, MakePointing(args.seed, 0), &setup_sec);
  SurveyPipeline& pipeline = *built;
  const int threads = dflow::par::ConfiguredThreads();

  StageTimes stages;
  double traced_wall = 0, traced_cpu = 0, untraced_wall = 0;
  int64_t pointings = 0, mismatches = 0, candidates = 0, detections = 0;
  const double deadline = NowSec() + args.seconds;
  for (int id = 1; NowSec() < deadline; ++id) {
    const PointingInput input = MakePointing(args.seed, id);
    const double cpu0 = ProcessCpuSec();
    const double t0 = NowSec();
    TracedPointing traced = ProcessTraced(config, input);
    const double t1 = NowSec();
    const double cpu1 = ProcessCpuSec();
    PointingResult reference = Process(pipeline, input);
    const double t2 = NowSec();
    traced_wall += t1 - t0;
    traced_cpu += cpu1 - cpu0;
    untraced_wall += t2 - t1;
    stages.Add(traced.times);
    ++pointings;
    candidates += static_cast<int64_t>(traced.candidates.size());
    detections += static_cast<int64_t>(traced.detections.size());
    if (Fingerprint(traced.candidates) != Fingerprint(reference.candidates) ||
        Fingerprint(traced.detections) != Fingerprint(reference.detections)) {
      ++mismatches;
    }
  }
  report->Check("traced stages reproduce ProcessPointing's candidates",
                mismatches == 0,
                std::to_string(pointings - mismatches) + "/" +
                    std::to_string(pointings));

  const double per = 1e3 / static_cast<double>(pointings);  // s -> ms/pt.
  report->Layer("arecibo.synth_ms", stages.synth * per);
  report->Layer("arecibo.dedisperse_ms", stages.dedisperse * per);
  report->Layer("arecibo.fft_search_ms", stages.fft_search * per);
  report->Layer("arecibo.single_pulse_ms", stages.single_pulse * per);
  report->Layer("arecibo.sift_ms", stages.sift * per);
  report->Layer("arecibo.meta_ms", stages.meta * per);
  report->Layer("arecibo.candidates",
                static_cast<double>(candidates) / pointings);
  report->Layer("arecibo.detections",
                static_cast<double>(detections) / pointings);
  report->Layer("par.cpu_util", traced_cpu / (traced_wall * threads));
  // The stage timers run on the worker threads, so their sum is thread
  // time; the kernel's process CPU clock measures the same quantity
  // independently.
  const double accounted = stages.Total() / traced_cpu;
  report->Layer("bench.accounted_frac", accounted);
  report->Layer("bench.trace_overhead_frac", traced_wall / untraced_wall - 1);
  report->Note("stage times are thread-ms per pointing summed over beams; "
               "accounted_frac = sum(stage thread time) / process CPU time "
               "over the traced pointings, tolerance [0.85, 1.15]");
  report->Note("traced pointing " + std::to_string(traced_wall * per) +
               " ms wall vs untraced " + std::to_string(untraced_wall * per) +
               " ms over " + std::to_string(pointings) + " pointings");
  report->Check("stage times account for process CPU time within 15%",
                std::fabs(accounted - 1.0) <= 0.15,
                std::to_string(accounted));
  report->Attempt(pointings, mismatches);
}

}  // namespace

void RunPalfaSearch(const Args& args, Report* report) {
  if (args.trace) {
    RunTraced(args, report);
  } else {
    RunUntraced(args, report);
  }
  report->EndToEnd("peak_rss_mb", PeakRssMb());
}

}  // namespace dflowbench
