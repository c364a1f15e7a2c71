#include "arecibo/sifter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace dflow::arecibo {

bool CandidateSifter::SameSignal(const Candidate& a,
                                 const Candidate& b) const {
  const double hi = std::max(a.freq_hz, b.freq_hz);
  const double lo = std::min(a.freq_hz, b.freq_hz);
  if (lo <= 0.0) {
    return false;
  }
  const double ratio = hi / lo;
  const double nearest = std::max(1.0, std::round(ratio));
  if (std::fabs(ratio - nearest) / nearest >= config_.harmonic_tolerance) {
    return false;
  }
  // The same frequency detected at several trial DMs is one signal (keep
  // the best DM); a *harmonic* match additionally requires DM agreement
  // before folding two detections together.
  if (nearest == 1.0) {
    return true;
  }
  return std::fabs(a.dm - b.dm) <= config_.dm_tolerance;
}

std::vector<Candidate> CandidateSifter::Sift(
    std::vector<Candidate> candidates) const {
  // Strongest first, then greedy grouping: each candidate joins the first
  // group whose representative it matches.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.snr > b.snr;
            });
  std::vector<Candidate> representatives;
  for (const Candidate& candidate : candidates) {
    bool grouped = false;
    for (const Candidate& representative : representatives) {
      if (SameSignal(candidate, representative)) {
        grouped = true;
        break;
      }
    }
    if (!grouped) {
      representatives.push_back(candidate);
    }
  }
  return representatives;
}

std::vector<Candidate> MetaAnalysis::Analyze(
    const std::vector<BeamResult>& beams) const {
  size_t total = 0;
  for (const BeamResult& beam : beams) {
    // Beams are tracked as bits of a uint64_t mask below.
    DFLOW_CHECK(0 <= beam.beam && beam.beam < 64);
    total += beam.candidates.size();
  }
  std::vector<Candidate> all;
  all.reserve(total);
  for (const BeamResult& beam : beams) {
    for (Candidate candidate : beam.candidates) {
      candidate.beam = beam.beam;
      all.push_back(candidate);
    }
  }
  for (Candidate& candidate : all) {
    // Rule 1: undispersed -> terrestrial.
    if (candidate.dm < config_.dm_min) {
      candidate.rfi_flag = true;
      continue;
    }
    // Rule 2: multibeam coincidence, harmonic-aware (RFI excision must
    // match a fundamental in one beam to a low harmonic in another).
    auto related = [this](double f1, double f2) {
      double hi = std::max(f1, f2);
      double lo = std::min(f1, f2);
      if (lo <= 0.0) {
        return false;
      }
      double ratio = hi / lo;
      double nearest = std::max(1.0, std::round(ratio));
      if (nearest > config_.max_harmonic_ratio) {
        return false;
      }
      return std::fabs(ratio - nearest) <= config_.freq_tolerance * nearest;
    };
    uint64_t beams_seen = 0;
    for (const Candidate& other : all) {
      if (related(other.freq_hz, candidate.freq_hz)) {
        beams_seen |= uint64_t{1} << other.beam;
      }
    }
    if (std::popcount(beams_seen) >= config_.rfi_beam_threshold) {
      candidate.rfi_flag = true;
    }
  }
  return all;
}

std::vector<Candidate> MetaAnalysis::Survivors(
    const std::vector<Candidate>& analyzed) {
  std::vector<Candidate> out;
  out.reserve(static_cast<size_t>(
      std::count_if(analyzed.begin(), analyzed.end(),
                    [](const Candidate& c) { return !c.rfi_flag; })));
  for (const Candidate& candidate : analyzed) {
    if (!candidate.rfi_flag) {
      out.push_back(candidate);
    }
  }
  return out;
}

}  // namespace dflow::arecibo
