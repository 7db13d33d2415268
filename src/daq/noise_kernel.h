// Vectorisable DAQ channel kernel: Gaussian noise plus ADC quantisation,
// bit-identical to the scalar reference pipeline.
//
// The scalar reference pipeline (tests/support/reference_daq.cc) adds
// Box-Muller noise built from two glibc calls, std::log and std::cos, and
// then quantises.  Those calls do not vectorise, and they cost most of a
// sampled run.  The kernel here
// relies on one fact: noise reaches the output only through the integer ADC
// code round(clamp(v) / lsb).  So the noise can come from polynomials whose
// error is bounded:
//
//   * LnKernel: exponent split onto [sqrt(1/2), sqrt(2)), then the fdlibm
//     2*atanh series (log(1+f) = 2s + s*R(s^2), s = f/(2+f)).
//   * Cos2PiKernel: cos(2*pi*u) by quadrant split of 4u, then the fdlibm
//     sin/cos polynomials on [-pi/4, pi/4].
//
// The kernel then measures the distance from the pre-round value t to the
// nearest half-LSB rounding boundary.  When that distance exceeds the
// worst-case shift the polynomials can cause (the margin, derived below),
// the approximate code is the exact code.  The few samples inside the
// margin are recomputed with the scalar expression itself (std::log,
// std::sqrt, std::cos in the same order), so every output bit equals the
// reference.
//
// This header is private to src/daq/daq.cc and its tests.

#ifndef SRC_DAQ_NOISE_KERNEL_H_
#define SRC_DAQ_NOISE_KERNEL_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace dcs {
namespace noise_kernel {

// Error bounds the margin assumes, measured against glibc's log and cos
// (tests/daq/noise_kernel_test.cc asserts the measured maxima sit at least
// 100x below them).
//   |LnKernel(u) / std::log(u) - 1|            <= kLnRelErr
//   |Cos2PiKernel(u) - std::cos(2*M_PI*u)|     <= kCosAbsErr
inline constexpr double kLnRelErr = 0x1p-40;
inline constexpr double kCosAbsErr = 0x1p-40;

// The largest Box-Muller magnitude: u1 is clamped to >= 1e-300, and
// sqrt(-2 ln 1e-300) = 37.169...
inline constexpr double kMagMax = 37.17;

// Bound on the shift, in units of sigma, between the kernel's noise term
// fl(fl(sigma * mag) * c) and the reference's:
//   * mag = sqrt(-2 ln u): the ln error is relative and -2x is exact, so the
//     sqrt halves it: |dmag| <= mag * (kLnRelErr / 2 + 2^-52), the 2^-52
//     being the two sqrt roundings.
//   * c: |dc| <= kCosAbsErr, and |c| <= 1.
//   * the two products round twice in each chain: 4 * 2^-53 * mag.
// Summed with mag <= kMagMax:
inline constexpr double kNoiseErrPerSigma =
    kMagMax * (kLnRelErr / 2.0 + 0x1p-52 + kCosAbsErr + 0x1p-51);

// The margin, in LSBs, is kNoiseErrPerSigma times the noise in LSBs,
// |sigma / lsb|.
//
// The rest of the chain rounds too.  The reference computes
// t = fl(fl(raw + n) / lsb); the kernel computes fl(fl(raw + n) * fl(1 / lsb)),
// a multiply being cheaper than a divide.  That is five roundings across the
// two chains, each moving t by at most 2^-53 |t| (for v, |v| / lsb is |t|),
// so under 2^-50 |t| in all; the kernel allows |t| * 2^-49.  Clamping is
// 1-Lipschitz and rounding monotone, so neither adds to the shift.
inline constexpr double kTRelSlack = 0x1p-49;

// Half-away-from-zero rounding, bit-identical to std::round (sign of zero,
// infinities and quiet NaN payloads included), written branch-free so it
// vectorises on baseline x86-64, which lacks SSE4.1's roundpd.
inline double RoundHalfAway(double x) {
  const double ax = std::fabs(x);
  // ax + 2^52 lands where the ulp is 1: round-half-even of ax, exactly.
  double r = (ax + 0x1p52) - 0x1p52;
  // r - ax is exact; -0.5 means a tie went down to even.  Take it up.
  r += (r - ax == -0.5) ? 1.0 : 0.0;
  // From 2^52 up every double is integral (and inf/NaN pass through).
  r = (ax < 0x1p52) ? r : ax;
  return std::copysign(r, x);
}

// ln u for normal positive u (the Box-Muller draw after its 1e-300 clamp).
inline double LnKernel(double u) {
  constexpr double kLn2Hi = 0x1.62e42feep-1;  // trailing zeros: k * kLn2Hi is exact
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kLg1 = 0x1.5555555555593p-1;
  constexpr double kLg2 = 0x1.999999997fa04p-2;
  constexpr double kLg3 = 0x1.2492494229359p-2;
  constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
  constexpr double kLg5 = 0x1.7466496cb03dep-3;
  constexpr double kLg6 = 0x1.39a09d078c69fp-3;
  constexpr double kLg7 = 0x1.2f112df3e5244p-3;
  // u = 2^k * m with m in [sqrt(1/2), sqrt(2)): offsetting the bits by
  // (1 - sqrt(1/2))'s exponent/mantissa pattern carries into the exponent
  // exactly when the mantissa is at or above sqrt(2)'s.
  constexpr std::uint64_t kSqrtHalfHi = 0x3fe6a09e00000000ULL;
  constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;
  std::uint64_t ix = std::bit_cast<std::uint64_t>(u) + (kOneBits - kSqrtHalfHi);
  const std::uint64_t biased_k = ix >> 52;
  ix = (ix & 0x000fffffffffffffULL) + kSqrtHalfHi;
  const double m = std::bit_cast<double>(ix);
  // k as a double without an int64 conversion (none exists in SSE2): place
  // the biased exponent in the low mantissa bits of 2^52, then subtract.
  const double k =
      std::bit_cast<double>(0x4330000000000000ULL | biased_k) - (0x1p52 + 1023.0);
  const double f = m - 1.0;  // exact (Sterbenz)
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

// cos(2*pi*u) for u in [0, 1).
inline double Cos2PiKernel(double u) {
  constexpr double kPiOver2 = 0x1.921fb54442d18p0;
  constexpr double kS1 = -0x1.5555555555549p-3;
  constexpr double kS2 = 0x1.111111110f8a6p-7;
  constexpr double kS3 = -0x1.a01a019c161d5p-13;
  constexpr double kS4 = 0x1.71de357b1fe7dp-19;
  constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
  constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
  constexpr double kC1 = 0x1.555555555554cp-5;
  constexpr double kC2 = -0x1.6c16c16c15177p-10;
  constexpr double kC3 = 0x1.a01a019cb1590p-16;
  constexpr double kC4 = -0x1.27e4f809c52adp-22;
  constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
  constexpr double kC6 = -0x1.8fae9be8838d4p-37;
  const double x4 = 4.0 * u;  // exact; the angle is x4 quarter turns
  // Adding 1.5 * 2^52 rounds x4 to the nearest integer q, left in the low
  // mantissa bits (2^51 is a multiple of 4, so the low two bits are q mod 4).
  const double shifted = x4 + 0x1.8p52;
  const std::uint64_t quadrant = std::bit_cast<std::uint64_t>(shifted);
  const double q = shifted - 0x1.8p52;
  const double th = (x4 - q) * kPiOver2;  // x4 - q exact; |th| <= pi/4
  const double z = th * th;
  const double sin_th =
      th + th * z * (kS1 + z * (kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)))));
  const double cos_th =
      1.0 - 0.5 * z + z * z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  // cos(q*pi/2 + th) is cos th, -sin th, -cos th, sin th for q mod 4 = 0..3.
  const std::uint64_t odd = std::uint64_t{0} - (quadrant & 1);
  const std::uint64_t sign = ((quadrant + 1) & 2) << 62;
  const std::uint64_t bits = (std::bit_cast<std::uint64_t>(sin_th) & odd) |
                             (std::bit_cast<std::uint64_t>(cos_th) & ~odd);
  return std::bit_cast<double>(bits ^ sign);
}

// One ADC channel: clamp range, step, and Gaussian noise.
struct AdcChannel {
  double sigma;   // noise standard deviation, volts; 0 disables the noise
  double lo, hi;  // input range the reading is clamped to
  double lsb;     // quantisation step, volts
};

// The reference reading, term for term the reference pipeline's channel
// (tests/support/reference_daq.cc):
// raw += Rng::Gaussian(0.0, sigma) on the draws (u1, u2), clamp, quantise.
inline double ExactReading(double raw, double u1, double u2, const AdcChannel& ch) {
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double mag = std::sqrt(-2.0 * std::log(u1));
  double v = raw + (0.0 + ch.sigma * mag * std::cos(2.0 * M_PI * u2));
  if (v < ch.lo) {
    v = ch.lo;
  }
  if (v > ch.hi) {
    v = ch.hi;
  }
  return std::round(v / ch.lsb) * ch.lsb;
}

// Quantises n readings of one channel into out: out[i] is the ADC output for
// raw value raw_at(i) plus, when the channel is noisy, the Gaussian built
// from draws u1[i], u2[i].  out must not alias the draws or what raw_at
// reads.  Returns how many readings took the exact recompute.
template <typename RawAt>
inline int QuantiseChannel(RawAt raw_at, const double* __restrict u1,
                           const double* __restrict u2, double* __restrict out, int n,
                           const AdcChannel& ch) {
  const double sigma = ch.sigma;
  const double lo = ch.lo;
  const double hi = ch.hi;
  const double lsb = ch.lsb;
  if (sigma == 0.0) {
    // Noise disabled: the reference adds nothing (not even +0.0, which
    // would turn a -0.0 reading into +0.0), so neither does this pass.
    for (int i = 0; i < n; ++i) {
      double v = raw_at(i);
      v = v < lo ? lo : v;
      v = v > hi ? hi : v;
      out[i] = RoundHalfAway(v / lsb) * lsb;
    }
    return 0;
  }
  const double margin = std::fabs(sigma / lsb) * kNoiseErrPerSigma;
  const double inv_lsb = 1.0 / lsb;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Uncertain readings are written as NaN.  Bit 63 of nan_probe ends up set
  // iff some output is NaN: for the bits b of |x|, b + (2^52 - 1) reaches
  // 2^63 exactly when b is above +inf's.  GCC vectorises this integer OR
  // reduction on SSE2; a count or OR of the double compares it does not.
  std::uint64_t nan_probe = 0;
  for (int i = 0; i < n; ++i) {
    double u = u1[i];
    u = u < 1e-300 ? 1e-300 : u;
    const double mag = std::sqrt(-2.0 * LnKernel(u));
    double v = raw_at(i) + (0.0 + sigma * mag * Cos2PiKernel(u2[i]));
    v = v < lo ? lo : v;
    v = v > hi ? hi : v;
    const double t = v * inv_lsb;
    // Round-half-even, signed like t: std::round(t) everywhere except at
    // ties, and ties are never certain.  Likewise |t| < 2^51, where adding
    // 1.5 * 2^52 rounds to an integer, wherever the slack is under 0.5.
    const double code = std::copysign((t + 0x1.8p52) - 0x1.8p52, t);
    const double abs_t = std::fabs(t);
    const double slack = margin + abs_t * kTRelSlack;
    // The code is certain when t is farther than the slack from every
    // half-integer, and from zero: a zero code carries the sign of t.  (A
    // NaN or infinite t makes room NaN, so it is recomputed.)
    const double to_boundary = 0.5 - std::fabs(t - code);
    const double room = (abs_t < to_boundary ? abs_t : to_boundary) - slack;
    const double reading = room > 0.0 ? code * lsb : nan;
    out[i] = reading;
    nan_probe |= (std::bit_cast<std::uint64_t>(reading) & 0x7fffffffffffffffULL) +
                 0x000fffffffffffffULL;
  }
  if ((nan_probe >> 63) == 0) {
    return 0;
  }
  // A certain code times a finite, nonzero lsb is never NaN, so NaN marks
  // exactly the readings left for the exact recompute.
  int recomputed = 0;
  for (int i = 0; i < n; ++i) {
    if (std::isnan(out[i])) {
      out[i] = ExactReading(raw_at(i), u1[i], u2[i], ch);
      ++recomputed;
    }
  }
  return recomputed;
}

}  // namespace noise_kernel
}  // namespace dcs

#endif  // SRC_DAQ_NOISE_KERNEL_H_
