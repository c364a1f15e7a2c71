#ifndef DFLOW_ARECIBO_SEARCH_H_
#define DFLOW_ARECIBO_SEARCH_H_

#include <vector>

#include "arecibo/dedisperse.h"
#include "util/result.h"

namespace dflow::arecibo {

/// A pulsar candidate produced by the periodicity search. Fields run
/// widest first so the struct packs into 56 bytes, not 64.
struct Candidate {
  double freq_hz = 0.0;
  double period_sec = 0.0;
  double dm = 0.0;
  double snr = 0.0;
  double accel = 0.0;      // Trial acceleration (fractional stretch).
  int harmonics = 1;       // Harmonic fold at which the peak maximized.
  int beam = -1;
  int pointing = -1;
  bool rfi_flag = false;
};

struct SearchConfig {
  double snr_threshold = 6.0;
  /// Harmonic folds attempted: 1, 2, 4, ... up to this count.
  int max_harmonics = 4;
  /// Cap on candidates returned per time series (strongest first).
  int max_candidates = 16;
  /// Ignore spectral bins below this index (red-noise guard).
  int min_bin = 2;
};

/// FFT periodicity search with harmonic summing (§2.1: "Fourier analysis,
/// harmonic summing, threshold tests to identify candidates"). Harmonic
/// summing adds power[k] + power[2k] + ... so that narrow (high duty
/// cycle) pulses whose power spreads across harmonics still cross the
/// threshold.
class PeriodicitySearch {
 public:
  explicit PeriodicitySearch(SearchConfig config);

  /// Candidates above threshold, strongest first.
  std::vector<Candidate> Search(const TimeSeries& series) const;

  /// Batch form over many series (the per-beam DM-trial sweep): series are
  /// paired (0,1), (2,3), ... and each pair's power spectra come from ONE
  /// complex FFT via real-input packing (PowerSpectrumPair), with the
  /// pair loop parallel on the dflow::par shared pool and per-chunk
  /// FftScratch reuse. Results land in slot i for series i, so output
  /// order — and every byte of it — is thread-count-invariant. The packed
  /// spectra agree with the single-series path to floating-point rounding,
  /// so Search(series[i]) and SearchBatch(series)[i] can differ in the
  /// last bits of SNR; within one code path, same input => same bytes.
  /// Pairing only happens when both series pad to the same FFT size;
  /// stragglers take the single-series path.
  std::vector<std::vector<Candidate>> SearchBatch(
      const std::vector<TimeSeries>& series) const;

  const SearchConfig& config() const { return config_; }

 private:
  /// The spectrum-domain half of Search(): robust stats, harmonic
  /// summing (parallel across bins), local-maxima thresholding. `power`
  /// is the one-sided spectrum of `series` (padded size = 2 *
  /// power.size()).
  std::vector<Candidate> SearchPower(const std::vector<double>& power,
                                     const TimeSeries& series) const;

  SearchConfig config_;
};

/// Time-domain resampling search for binary pulsars (§2.1: "pulsars that
/// are in binary systems, for which an acceleration search algorithm also
/// needs to be applied"). A constant line-of-sight acceleration smears the
/// spin frequency across Fourier bins; resampling the series with a trial
/// quadratic stretch re-concentrates it. Trials sweep fractional stretch
/// values alpha: sample i is read from position i + alpha*i^2/(2N).
class AccelerationSearch {
 public:
  AccelerationSearch(SearchConfig config, std::vector<double> accel_trials);

  /// Runs the periodicity search at every trial acceleration and keeps
  /// the best detection per frequency.
  std::vector<Candidate> Search(const TimeSeries& series) const;

  /// The resampling primitive (exposed for tests).
  static TimeSeries Resample(const TimeSeries& series, double alpha);

  const std::vector<double>& accel_trials() const { return accel_trials_; }

 private:
  PeriodicitySearch base_;
  std::vector<double> accel_trials_;
};

}  // namespace dflow::arecibo

#endif  // DFLOW_ARECIBO_SEARCH_H_
