#include "src/sim/rng.h"

#include <array>
#include <bit>
#include <cmath>

namespace dcs {
namespace {

using Poly = std::array<std::uint64_t, 4>;

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// p * x modulo kCharPoly.
constexpr Poly TimesX(Poly p) {
  const std::uint64_t carry = p[3] >> 63;
  for (int k = 3; k > 0; --k) {
    p[k] = (p[k] << 1) | (p[k - 1] >> 63);
  }
  p[0] <<= 1;
  if (carry != 0) {
    for (int k = 0; k < 4; ++k) {
      p[k] ^= Rng::kCharPoly[k];
    }
  }
  return p;
}

// kHigh[v] = v(x) * x^256 modulo kCharPoly, for every byte v: what a byte
// above the 256th coefficient folds down to.
constexpr std::array<Poly, 256> MakeHighByteTable() {
  std::array<Poly, 8> bit{};
  bit[0] = Rng::kCharPoly;  // x^256 = kCharPoly's low terms, modulo itself
  for (int i = 1; i < 8; ++i) {
    bit[i] = TimesX(bit[i - 1]);
  }
  std::array<Poly, 256> table{};
  for (int v = 0; v < 256; ++v) {
    for (int i = 0; i < 8; ++i) {
      if (((v >> i) & 1) != 0) {
        for (int k = 0; k < 4; ++k) {
          table[v][k] ^= bit[i][k];
        }
      }
    }
  }
  return table;
}
constexpr std::array<Poly, 256> kHigh = MakeHighByteTable();

// The low 32 bits of x, spread to the even bit positions: squaring over GF(2).
std::uint64_t Spread(std::uint64_t x) {
  x &= 0xffffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

// p^2 modulo kCharPoly.  The square has 512 coefficients; its bytes above
// the 256th fold down through kHigh from the top, each landing only on
// bytes below itself.
Poly SquareMod(const Poly& p) {
  std::uint64_t w[8];
  for (int k = 0; k < 4; ++k) {
    w[2 * k] = Spread(p[k]);
    w[2 * k + 1] = Spread(p[k] >> 32);
  }
  for (int q = 3; q >= 0; --q) {
#pragma GCC unroll 8
    for (int j = 7; j >= 0; --j) {
      const Poly& fold = kHigh[(w[q + 4] >> (8 * j)) & 0xff];
      for (int k = 0; k < 4; ++k) {
        w[q + k] ^= fold[k] << (8 * j);
        if (j != 0) {
          w[q + k + 1] ^= fold[k] >> (64 - 8 * j);
        }
      }
    }
  }
  return {w[0], w[1], w[2], w[3]};
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) {
    word = SplitMix64(x);
  }
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::Exponential(double mean) {
  double u = NextDouble();
  if (u < 1e-300) {
    u = 1e-300;
  }
  return -mean * std::log(u);
}

double Rng::TruncatedGaussian(double mean, double stddev, double lo, double hi) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double draw = Gaussian(mean, stddev);
    if (draw >= lo && draw <= hi) {
      return draw;
    }
  }
  const double draw = Gaussian(mean, stddev);
  if (draw < lo) {
    return lo;
  }
  if (draw > hi) {
    return hi;
  }
  return draw;
}

Rng::JumpPoly Rng::JumpOf(std::uint64_t n) {
  Poly p = {1, 0, 0, 0};
  for (int bit = 63 - std::countl_zero(n); bit >= 0; --bit) {
    p = SquareMod(p);
    if (((n >> bit) & 1) != 0) {
      p = TimesX(p);
    }
  }
  return {p};
}

void Rng::Jump(const JumpPoly& jump) {
  // The sum over i of coeff_i * M^i(state), M being one step.  A local copy
  // keeps the stepped state in registers, and four scalar sums keep GCC from
  // pairing them into vectors that round-trip through the stack each step
  // (5x slower, measured).
  Rng step = *this;
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t a2 = 0;
  std::uint64_t a3 = 0;
  for (std::uint64_t bits : jump.coeffs) {
    for (int bit = 0; bit < 64; ++bit, bits >>= 1) {
      const std::uint64_t mask = std::uint64_t{0} - (bits & 1);
      a0 ^= step.s_[0] & mask;
      a1 ^= step.s_[1] & mask;
      a2 ^= step.s_[2] & mask;
      a3 ^= step.s_[3] & mask;
      step.Next();
    }
  }
  s_[0] = a0;
  s_[1] = a1;
  s_[2] = a2;
  s_[3] = a3;
}

Rng Rng::Fork() {
  // Derive a child seed from two draws; advancing this stream by two ensures
  // successive forks are decorrelated.
  const std::uint64_t a = Next();
  const std::uint64_t b = Next();
  return Rng(a ^ Rotl(b, 32) ^ 0xd1b54a32d192ed03ULL);
}

}  // namespace dcs
