// Deterministic pseudo-random number generation for the simulator.
//
// We implement our own generator (xoshiro256++) and distributions rather than
// using <random> because the standard distributions are
// implementation-defined: identical seeds must reproduce identical workload
// traces on every toolchain, or the repeated-run confidence intervals in
// bench/tab2_energy_summary would not be comparable across machines.

#ifndef SRC_SIM_RNG_H_
#define SRC_SIM_RNG_H_

#include <array>
#include <cmath>
#include <cstdint>

#include "src/sim/snapshot.h"

namespace dcs {

// xoshiro256++ 1.0 generator seeded via splitmix64.  Not cryptographic; it is
// a small, fast generator with good statistical quality for simulation.
class Rng {
 public:
  // The characteristic polynomial of the generator's state transition, a
  // linear map on 256 bits: x^256 plus the terms below, coefficient i being
  // bit i % 64 of word i / 64.  Berlekamp-Massey over the state sequence
  // re-derives it (tests/sim/rng_test.cc).
  static constexpr std::array<std::uint64_t, 4> kCharPoly = {
      0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
      0x0003c03c3f3ecb19ULL};

  // x^n modulo kCharPoly, in kCharPoly's layout: applied to the state, it
  // moves a generator n draws ahead.
  struct JumpPoly {
    std::array<std::uint64_t, 4> coeffs;
  };

  // Seeds the four 64-bit state words from `seed` using splitmix64, so that
  // any seed (including 0) yields a well-mixed state.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // The draw primitives and the distributions on the simulation hot path
  // (event scheduling, workload generation, DAQ noise) are defined inline so
  // call sites can fold constant ranges — e.g. `% range` compiles to a
  // multiply-shift when the range is a literal.  The arithmetic is identical
  // to the out-of-line originals, so every stream is bit-for-bit unchanged.

  // Uniform 64-bit draw.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    // 53 random mantissa bits -> uniform on [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) {
      // Full 64-bit range requested.
      return static_cast<std::int64_t>(Next());
    }
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
    std::uint64_t draw;
    do {
      draw = Next();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % range);
  }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Gaussian via Box-Muller (no cached spare: keeps the state stream
  // position a pure function of the number of calls).
  double Gaussian(double mean, double stddev) {
    // u1 is kept away from 0 so log() stays finite.
    double u1 = NextDouble();
    const double u2 = NextDouble();
    if (u1 < 1e-300) {
      u1 = 1e-300;
    }
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
  }

  // Exponential with given mean (> 0).
  double Exponential(double mean);

  // A draw from a truncated Gaussian, re-sampled until it lands in
  // [lo, hi]; falls back to clamping after 64 rejections so adversarial
  // bounds cannot loop forever.
  double TruncatedGaussian(double mean, double stddev, double lo, double hi);

  // Forks an independent generator whose stream is decorrelated from this
  // one; used to give every task its own stream so adding a task does not
  // perturb the draws seen by the others.
  Rng Fork();

  // Forks the generator for a numbered substream (device id, repetition
  // index) without advancing this stream.  Distinct stream numbers give
  // distinct, well-mixed states: the seed material is injective in `stream`
  // (odd multiplier) and expanded through splitmix64 by the constructor.
  // This replaces the ad-hoc `seed + i` idiom, whose nearby seeds feed
  // splitmix64 nearly identical inputs.
  Rng Fork(std::uint64_t stream) const {
    return Rng(s_[0] ^ 0x9e3779b97f4a7c15ULL * (stream + 1));
  }

  // The jump of n draws, in O(log n): square-and-multiply of x modulo
  // kCharPoly, each square reduced a byte at a time through a table the
  // compiler derives from kCharPoly.
  static JumpPoly JumpOf(std::uint64_t n);

  // Moves the generator to where JumpOf(n)'s n Next() calls would leave it:
  // the polynomial applied to the state, 256 steps whatever n is.
  void Jump(const JumpPoly& jump);

  // Device-snapshot image (src/sim/snapshot.h): the four xoshiro words, so
  // a restored generator continues its stream exactly.
  void Snapshot(SnapshotIo& io) { io(s_); }

 private:
  friend struct RngLanes;

  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

// Eight generators laid out word-major, s[w][j] being word w of lane j's
// state, so that each state word of all eight lanes fills one vector-register
// set.  The DAQ steps them together (src/daq/block_passes.h).
struct RngLanes {
  static constexpr int kLanes = 8;

  void Set(int lane, const Rng& rng) {
    for (int w = 0; w < 4; ++w) {
      s[w][lane] = rng.s_[w];
    }
  }
  Rng Get(int lane) const {
    Rng rng;
    for (int w = 0; w < 4; ++w) {
      rng.s_[w] = s[w][lane];
    }
    return rng;
  }

  alignas(64) std::uint64_t s[4][kLanes] = {};
};

}  // namespace dcs

#endif  // SRC_SIM_RNG_H_
