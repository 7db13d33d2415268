// Vectorisable DAQ channel kernel: Gaussian noise plus ADC quantisation,
// bit-identical to the scalar reference pipeline.
//
// The scalar reference pipeline (tests/support/reference_daq.cc) adds
// Box-Muller noise built from two glibc calls, std::log and std::cos, and
// then quantises.  Those calls do not vectorise, and they cost most of a
// sampled run.  The kernel here
// relies on one fact: noise reaches the output only through the integer ADC
// code round(clamp(v) / lsb).  So the noise can come from a cheap screen
// whose error is bounded:
//
//   * LnScreen: the exact double exponent split onto [sqrt(1/2), sqrt(2)),
//     then, in float, the fdlibm 2*atanh series cut at four terms
//     (log(1+f) = 2s + s*R(s^2), s = f/(2+f)).
//   * Cos2PiScreen: cos(2*pi*u) = sin(2*pi*(1/4 - w)) with
//     w = |u - round(u)|, both exact in double, then one odd float
//     polynomial on [-1/4, 1/4].
//
// The screened noise z = sqrtf(-2 ln) * cos is widened to double, and the
// rest of the chain (raw + sigma*z, the clamp, the scaling, the code) runs in
// double.  The kernel then measures the distance from the pre-round value t
// to the nearest half-LSB rounding boundary.  When that distance exceeds the
// worst-case shift the screen can cause in this reading (the margin, derived
// below from the reading's own magnitude), the screened code is the exact
// code.  The few readings inside the margin are recomputed with the scalar
// expression itself (std::log, std::sqrt, std::cos in the same order), so
// every output bit equals the reference.
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
//   |LnScreen(u) / std::log(u) - 1|            <= kLnRelErr
//   |Cos2PiScreen(u) - std::cos(2*M_PI*u)|     <= kCosAbsErr
inline constexpr double kLnRelErr = 0x1p-16;
inline constexpr double kCosAbsErr = 0x1.8p-16;

// Bound on the shift, in units of sigma * mag, between the kernel's noise
// term fl(sigma * z) and the reference's fl(fl(sigma * M) * C), where
// mag = sqrtf(-2 l) is the kernel's magnitude, l = LnScreen(u),
// M = sqrt(-2 std::log(u)) the reference's and C its cosine:
//   * -2x is exact in both precisions, so mag = M * rho with
//     |rho - 1| <= R = kLnRelErr / 2 + 2^-23: the sqrt halves the relative
//     ln error, sqrtf rounds by 2^-24, and the reference's sqrt by 2^-53
//     (the square terms are below 2^-33).
//   * |mag * c - M * C| <= M * (R * (1 + kCosAbsErr) + kCosAbsErr), with c the
//     screened cosine, |c| <= 1 + kCosAbsErr and |C| <= 1.
//   * z = fl(mag * c) rounds by 2^-24 in float (mag >= 2^-26 and
//     |c| >= 2^-53 or c = 0, so no product is subnormal), sigma * z by 2^-53,
//     and the reference's two products by 2^-53 each.
//   * M <= mag * (1 + 2R), and 2R < 2^-15.
// Summed, with every term beyond kLnRelErr / 2 + kCosAbsErr inside 2^-22
// (they take under 2^-23 + 2^-24 + 2^-31), whose spare 2^-24 also covers the
// roundings in forming the margin:
inline constexpr double kNoiseErrPerMag =
    (1.0 + 0x1p-15) * (kLnRelErr / 2.0 + kCosAbsErr + 0x1p-22);

// The margin of a reading, in LSBs, is |sigma / lsb| * kNoiseErrPerMag * mag.
// The mean magnitude is sqrt(pi / 2) = 1.25, against 37.17 at the 1e-300
// clamp, so a margin sized per reading recomputes about 30x less than one
// sized for the largest magnitude.
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

// ln u for normal positive u (the Box-Muller draw after its 1e-300 clamp),
// to kLnRelErr.  Strictly negative for every u < 1, so the magnitude
// sqrtf(-2 ln u) is never zero there.
inline float LnScreen(double u) {
  // fdlibm's float ln 2, split so that k * kLn2Hi is exact for |k| < 128.
  constexpr float kLn2Hi = 0x1.62e3p-1f;
  constexpr float kLn2Lo = 0x1.2fefa2p-17f;
  // The four-term float series of fdlibm's logf.
  constexpr float kLg1 = 0x1.555554p-1f;
  constexpr float kLg2 = 0x1.999c26p-2f;
  constexpr float kLg3 = 0x1.23d3dcp-2f;
  constexpr float kLg4 = 0x1.f13c4cp-3f;
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
  // It is an integer of at most 1075 in magnitude, so exact in float too.
  const float k = static_cast<float>(
      std::bit_cast<double>(0x4330000000000000ULL | biased_k) - (0x1p52 + 1023.0));
  // m - 1 is exact (Sterbenz); as a float it is nonzero whenever m is not 1.
  const float f = static_cast<float>(m - 1.0);
  const float hfsq = 0.5f * f * f;
  const float s = f / (2.0f + f);
  const float z = s * s;
  const float w = z * z;
  const float r = z * (kLg1 + w * kLg3) + w * (kLg2 + w * kLg4);
  // For k = 0 and f < 0 every term below adds to -f's magnitude, so the
  // result is below zero; for k < 0, k * ln 2 outweighs the rest.
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

// cos(2*pi*u) for u in [0, 1), to kCosAbsErr.
inline float Cos2PiScreen(double u) {
  // sin(2*pi*x) ~ x * P(x^2) on [-1/4, 1/4]: a weighted minimax fit, each
  // coefficient rounded to float before the next ones were refitted.
  constexpr float kS1 = 0x1.921fb4p+2f;
  constexpr float kS3 = -0x1.4abba2p+5f;
  constexpr float kS5 = 0x1.466504p+6f;
  constexpr float kS7 = -0x1.31fbeep+6f;
  constexpr float kS9 = 0x1.3911b2p+5f;
  // cos(2*pi*u) = cos(2*pi*w) = sin(2*pi*(1/4 - w)) for w = |u - round(u)|,
  // which is min(u, 1 - u) on [0, 1).  For every draw (a multiple of 2^-53)
  // both are exact: 1 - u is (Sterbenz) whenever it is the smaller, and
  // 1/4 - w is a multiple of 2^-53 no larger than 1/4.
  const double w = u < 1.0 - u ? u : 1.0 - u;
  const float x = static_cast<float>(0.25 - w);
  const float y = x * x;
  return x * (kS1 + y * (kS3 + y * (kS5 + y * (kS7 + y * kS9))));
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
  // The margin per unit of screened magnitude, in LSBs.
  const double noise_margin = std::fabs(sigma / lsb) * kNoiseErrPerMag;
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
    // A screened ln at or above zero (u >= 1, which no draw is) makes mag,
    // and so t, NaN: the reading falls through to the recompute.
    const float mag = std::sqrt(-2.0f * LnScreen(u));
    const float z = mag * Cos2PiScreen(u2[i]);
    double v = raw_at(i) + (0.0 + sigma * static_cast<double>(z));
    v = v < lo ? lo : v;
    v = v > hi ? hi : v;
    const double t = v * inv_lsb;
    // Round-half-even, signed like t: std::round(t) everywhere except at
    // ties, and ties are never certain.  Likewise |t| < 2^51, where adding
    // 1.5 * 2^52 rounds to an integer, wherever the slack is under 0.5.
    const double code = std::copysign((t + 0x1.8p52) - 0x1.8p52, t);
    const double abs_t = std::fabs(t);
    const double slack = noise_margin * static_cast<double>(mag) + abs_t * kTRelSlack;
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
