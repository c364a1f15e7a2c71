#ifndef DFLOW_ARECIBO_FFT_H_
#define DFLOW_ARECIBO_FFT_H_

#include <complex>
#include <cstdint>
#include <vector>

#include "util/result.h"

namespace dflow::arecibo {

/// In-place iterative radix-2 Cooley-Tukey FFT. `data.size()` must be a
/// power of two. `inverse` applies the conjugate transform and 1/N
/// normalization. This is the workhorse of the pulsar periodicity search
/// (§2.1 "Fourier analysis"), implemented from scratch per the
/// reproduction rules.
///
/// Twiddle factors come from FftTwiddleTable(); the butterfly stages run
/// through the dflow::simd kernel layer, whose scalar/vector variants are
/// bit-identical (same mul/add sequence per lane, no FMA contraction).
Status Fft(std::vector<std::complex<double>>& data, bool inverse = false);

/// Forward-transform twiddle table for size n (a power of two):
/// table[j] = exp(-2*pi*i*j/n) for j in [0, n/2). Stage `len` of a size-n
/// transform uses entries at stride n/len; the inverse transform
/// conjugates on the fly. Computed once per size and cached for the life
/// of the process in a lock-free log2-indexed slot array: the steady-state
/// lookup is a single acquire load — no mutex, no map walk — so calling it
/// per transform costs nanoseconds. Each factor is a direct cos/sin
/// evaluation (not an accumulated w *= wlen product), which is also the
/// invariant the bench_micro_signal twiddle check pins.
const std::vector<std::complex<double>>& FftTwiddleTable(size_t n);

/// Reusable scratch for the spectrum helpers below. PowerSpectrum /
/// PowerSpectrumPair zero-pad into an internal complex buffer; routing
/// repeated same-size calls through one FftScratch (one per worker — it is
/// NOT thread-safe) reuses that buffer instead of heap-allocating per
/// call. `allocations()` counts buffer growths, which is what the
/// allocation-count regression test pins: N same-size transforms must cost
/// exactly one allocation.
class FftScratch {
 public:
  /// The zero-padded complex buffer, resized to n (capacity grows
  /// monotonically; growth increments allocations()).
  std::vector<std::complex<double>>& Complex(size_t n);

  /// Times the complex buffer had to (re)allocate backing storage.
  int64_t allocations() const { return allocations_; }

 private:
  std::vector<std::complex<double>> buffer_;
  int64_t allocations_ = 0;
};

/// Power spectrum of a real time series: zero-pads to the next power of
/// two, FFTs, and writes |X_k|^2 for k = 0..N/2-1 (the one-sided spectrum)
/// to `power`. The DC bin is zeroed so detrending is unnecessary upstream.
/// The complex work buffer lives in `scratch`; its previous contents never
/// reach the output, so a reused scratch gives the same bytes as a fresh
/// one.
void PowerSpectrum(const std::vector<double>& series, FftScratch* scratch,
                   std::vector<double>* power);

/// Real-input packing: computes the power spectra of TWO real series with
/// ONE complex FFT by transforming a + i*b and splitting with the
/// conjugate-symmetry identities A_k = (X_k + conj(X_{n-k}))/2,
/// B_k = (X_k - conj(X_{n-k}))/(2i). Both series must pad to the same
/// power of two (InvalidArgument otherwise). Results agree with the
/// single-series path to floating-point rounding (not bit-exactly) — but
/// are themselves deterministic: the same inputs always produce the same
/// bytes, regardless of thread count.
Status PowerSpectrumPair(const std::vector<double>& a,
                         const std::vector<double>& b, FftScratch* scratch,
                         std::vector<double>* power_a,
                         std::vector<double>* power_b);

/// Smallest power of two >= n (n >= 1).
size_t NextPowerOfTwo(size_t n);

}  // namespace dflow::arecibo

#endif  // DFLOW_ARECIBO_FFT_H_
