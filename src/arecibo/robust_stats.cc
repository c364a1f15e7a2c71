#include "arecibo/robust_stats.h"

#include <algorithm>

#include "util/logging.h"

namespace dflow::arecibo {

Quartiles SelectQuartiles(std::vector<double>* values_ptr) {
  std::vector<double>& values = *values_ptr;
  DFLOW_CHECK(!values.empty());
  const size_t n = values.size();
  const size_t mid = n / 2;
  const size_t lower = n / 4;
  const size_t upper = (3 * n) / 4;
  const auto at = [&values](size_t index) {
    return values.begin() + static_cast<ptrdiff_t>(index);
  };
  // After this, [0, mid) holds the mid smallest values and (mid, n) the
  // rest, so each remaining rank is selected inside its own side.
  std::nth_element(values.begin(), at(mid), values.end());
  Quartiles quartiles;
  quartiles.median = values[mid];
  quartiles.q1 = quartiles.median;
  if (lower < mid) {
    std::nth_element(values.begin(), at(lower), at(mid));
    quartiles.q1 = values[lower];
  }
  quartiles.q3 = quartiles.median;
  if (upper > mid) {
    std::nth_element(at(mid + 1), at(upper), values.end());
    quartiles.q3 = values[upper];
  }
  return quartiles;
}

RobustStats MedianIqr(std::vector<double> values) {
  const Quartiles quartiles = SelectQuartiles(&values);
  RobustStats stats;
  stats.location = quartiles.median;
  stats.scale = std::max((quartiles.q3 - quartiles.q1) / 1.349, 1e-12);
  return stats;
}

}  // namespace dflow::arecibo
