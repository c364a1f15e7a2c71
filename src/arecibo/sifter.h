#ifndef DFLOW_ARECIBO_SIFTER_H_
#define DFLOW_ARECIBO_SIFTER_H_

#include <vector>

#include "arecibo/search.h"

namespace dflow::arecibo {

struct SifterConfig {
  /// Candidates whose frequencies are integer multiples (within this
  /// fractional tolerance) and whose DMs agree within dm_tolerance are
  /// treated as harmonics of one signal.
  double harmonic_tolerance = 0.02;
  double dm_tolerance = 15.0;
};

/// Reduces the raw per-time-series candidate flood to distinct signals:
/// groups harmonically related detections across DM trials and keeps the
/// strongest member of each group (tagged with the group's best DM). This
/// is the first stage of "discriminating and classifying" signals from
/// §2's meta-analysis pipeline.
class CandidateSifter {
 public:
  explicit CandidateSifter(SifterConfig config) : config_(config) {}

  std::vector<Candidate> Sift(std::vector<Candidate> candidates) const;

 private:
  bool SameSignal(const Candidate& a, const Candidate& b) const;

  SifterConfig config_;
};

struct MetaAnalysisConfig {
  /// A signal detected in at least this many of the 7 ALFA beams at the
  /// same frequency is terrestrial (a real pulsar illuminates one beam,
  /// maybe two on a boundary; RFI enters them all).
  int rfi_beam_threshold = 4;
  /// Signals below this DM are terrestrial (undispersed).
  double dm_min = 2.0;
  /// Fractional frequency tolerance for cross-beam matching.
  double freq_tolerance = 0.01;
  /// Cross-beam matching is harmonic-aware up to this integer ratio: a
  /// candidate coincides with another beam's candidate when their
  /// frequency ratio is within freq_tolerance of an integer <= this.
  /// (Per-beam sifting may keep different harmonics of the same
  /// interference in different beams.)
  int max_harmonic_ratio = 4;
};

/// Per-beam candidate lists entering the meta-analysis. Beam ids must lie
/// in [0, 64); Analyze() checks this.
struct BeamResult {
  int beam = 0;
  std::vector<Candidate> candidates;
};

/// Multibeam coincidence analysis (§2.1: interference "needs to be at
/// least identified and most likely removed", via "new algorithms that
/// simultaneously investigate dynamic spectra for each of the 7 ALFA
/// beams"). Returns all candidates with rfi_flag set on the terrestrial
/// ones; Survivors() filters to the astronomical ones.
class MetaAnalysis {
 public:
  explicit MetaAnalysis(MetaAnalysisConfig config) : config_(config) {}

  std::vector<Candidate> Analyze(const std::vector<BeamResult>& beams) const;

  static std::vector<Candidate> Survivors(
      const std::vector<Candidate>& analyzed);

 private:
  MetaAnalysisConfig config_;
};

}  // namespace dflow::arecibo

#endif  // DFLOW_ARECIBO_SIFTER_H_
