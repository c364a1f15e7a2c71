#ifndef DFLOW_ARECIBO_SINGLE_PULSE_H_
#define DFLOW_ARECIBO_SINGLE_PULSE_H_

#include <vector>

#include "arecibo/dedisperse.h"

namespace dflow::arecibo {

/// A non-periodic transient event found in a dedispersed time series.
/// Section 2.1 lists, beyond the periodicity search, "investigation of the
/// time series for transient signals that may be associated with
/// astrophysical objects other than pulsars" — the single-pulse search
/// that finds rotating radio transients, giant pulses, and (in the paper's
/// "Exotica" aspirations) entirely new classes of signals.
struct TransientEvent {
  int64_t sample = 0;        // Sample index of the peak.
  double time_sec = 0.0;     // Peak time within the block.
  int width_samples = 1;     // Boxcar width that maximized S/N.
  double snr = 0.0;
  double dm = 0.0;
};

struct SinglePulseConfig {
  double snr_threshold = 6.0;
  /// Boxcar widths tried, in samples (matched filtering for pulses of
  /// unknown duration). Powers of two up to max_width are used.
  int max_width = 32;
  /// Events closer than this (in samples) are merged, keeping the
  /// strongest (a bright pulse triggers at several widths and offsets).
  int64_t merge_distance = 16;
  int max_events = 64;
};

/// Matched-filter single-pulse search: convolves the series with boxcars
/// of width 1, 2, 4, ... max_width, normalizes each by sqrt(width), and
/// reports unique local maxima above threshold. The noise level is the
/// series' median and IQR (MedianIqr), found by exact O(n) selection
/// rather than a sort; the values equal a full sort's.
class SinglePulseSearch {
 public:
  explicit SinglePulseSearch(SinglePulseConfig config);

  std::vector<TransientEvent> Search(const TimeSeries& series) const;

  const SinglePulseConfig& config() const { return config_; }

 private:
  SinglePulseConfig config_;
};

}  // namespace dflow::arecibo

#endif  // DFLOW_ARECIBO_SINGLE_PULSE_H_
