#include "arecibo/single_pulse.h"

#include <algorithm>
#include <cmath>

#include "arecibo/robust_stats.h"
#include "util/logging.h"

namespace dflow::arecibo {

SinglePulseSearch::SinglePulseSearch(SinglePulseConfig config)
    : config_(config) {
  DFLOW_CHECK(config_.max_width >= 1);
  DFLOW_CHECK(config_.max_events >= 1);
}

std::vector<TransientEvent> SinglePulseSearch::Search(
    const TimeSeries& series) const {
  std::vector<TransientEvent> events;
  const int64_t n = static_cast<int64_t>(series.samples.size());
  if (n < 4) {
    return events;
  }
  // Median / IQR of the series itself, so that a handful of bright pulses
  // cannot inflate the noise estimate.
  const RobustStats stats = MedianIqr(series.samples);

  // Prefix sums for O(1) boxcar sums.
  std::vector<double> prefix(static_cast<size_t>(n) + 1, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    prefix[static_cast<size_t>(i + 1)] =
        prefix[static_cast<size_t>(i)] + series.samples[static_cast<size_t>(i)];
  }

  std::vector<TransientEvent> raw;
  for (int width = 1; width <= config_.max_width; width *= 2) {
    const double norm =
        1.0 / (stats.scale * std::sqrt(static_cast<double>(width)));
    for (int64_t start = 0; start + width <= n; ++start) {
      double sum = prefix[static_cast<size_t>(start + width)] -
                   prefix[static_cast<size_t>(start)] -
                   stats.location * width;
      double snr = sum * norm;
      if (snr >= config_.snr_threshold) {
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

  // Merge nearby triggers, strongest first.
  std::sort(raw.begin(), raw.end(),
            [](const TransientEvent& a, const TransientEvent& b) {
              return a.snr > b.snr;
            });
  for (const TransientEvent& candidate : raw) {
    bool merged = false;
    for (const TransientEvent& kept : events) {
      if (std::llabs(kept.sample - candidate.sample) <=
          config_.merge_distance +
              (kept.width_samples + candidate.width_samples) / 2) {
        merged = true;
        break;
      }
    }
    if (!merged) {
      events.push_back(candidate);
      if (events.size() >= static_cast<size_t>(config_.max_events)) {
        break;
      }
    }
  }
  return events;
}

}  // namespace dflow::arecibo
