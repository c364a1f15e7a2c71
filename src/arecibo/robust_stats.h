#ifndef DFLOW_ARECIBO_ROBUST_STATS_H_
#define DFLOW_ARECIBO_ROBUST_STATS_H_

#include <vector>

namespace dflow::arecibo {

/// The order statistics at 0-based ranks n/4, n/2 and 3n/4 of n values:
/// exactly sorted[n / 4], sorted[n / 2] and sorted[(3 * n) / 4] of a full
/// ascending sort.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Exact quartiles by selection in O(n): nth_element places the median,
/// then q1 is selected inside the lower partition and q3 inside the upper
/// one. Reorders `*values`, which must not be empty.
Quartiles SelectQuartiles(std::vector<double>* values);

/// Robust location and scale of a sample. A handful of bright signals
/// cannot drag these up the way they drag a mean and standard deviation,
/// so both Arecibo searches normalize by them.
struct RobustStats {
  double location = 0.0;
  double scale = 0.0;
};

/// The median, and the interquartile range converted to a Gaussian sigma
/// (IQR / 1.349, floored at 1e-12), from SelectQuartiles. 1.349 is exact
/// only for Gaussian noise; for a chi-squared power spectrum it is close
/// enough for thresholding. Takes the values by copy because selection
/// reorders them.
RobustStats MedianIqr(std::vector<double> values);

}  // namespace dflow::arecibo

#endif  // DFLOW_ARECIBO_ROBUST_STATS_H_
