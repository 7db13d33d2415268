#include "src/sim/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cmath>
#include <vector>

namespace dcs {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ZeroSeedIsWellMixed) {
  Rng rng(0);
  // splitmix64 seeding means even seed 0 should not produce degenerate output.
  EXPECT_NE(rng.Next(), 0u);
  EXPECT_NE(rng.Next(), rng.Next());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextDouble();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = rng.UniformInt(0, 9);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, 9);
    saw_lo |= (x == 0);
    saw_hi |= (x == 9);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(42, 42), 42);
  }
}

TEST(RngTest, UniformIntNegativeRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = rng.UniformInt(-5, -1);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, -1);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(2.5, 3.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(23);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanAndPositivity) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Exponential(3.0);
    ASSERT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, TruncatedGaussianStaysInBounds) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.TruncatedGaussian(1.0, 0.5, 0.7, 1.4);
    EXPECT_GE(x, 0.7);
    EXPECT_LE(x, 1.4);
  }
}

TEST(RngTest, TruncatedGaussianImpossibleBoundsClamps) {
  Rng rng(37);
  // Mean far outside [100, 101]: rejection always fails, so it clamps.
  const double x = rng.TruncatedGaussian(0.0, 0.01, 100.0, 101.0);
  EXPECT_GE(x, 100.0);
  EXPECT_LE(x, 101.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForksAreMutuallyDecorrelated) {
  Rng parent(43);
  Rng a = parent.Fork();
  Rng b = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngForkTest, NumberedForksAreDeterministic) {
  const Rng base(123);
  Rng a = base.Fork(7);
  Rng b = base.Fork(7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngForkTest, DeviceStreamsNeverCollide) {
  // The fleet layer keys per-device divergence off Fork(device_id); a
  // collision would make two devices identical twins.  Over a large block
  // of consecutive ids (the fleet's exact usage pattern) every stream's
  // opening draw must be unique, and distinct from the parent's.
  const Rng base(42);
  std::vector<std::uint64_t> first_draws;
  first_draws.reserve(100001);
  for (std::uint64_t id = 0; id < 100000; ++id) {
    first_draws.push_back(base.Fork(id).Next());
  }
  Rng parent = base;
  first_draws.push_back(parent.Next());
  std::sort(first_draws.begin(), first_draws.end());
  EXPECT_EQ(std::adjacent_find(first_draws.begin(), first_draws.end()), first_draws.end())
      << "two forked streams opened with the same draw";
}

TEST(RngForkTest, AdjacentStreamsAreDecorrelated) {
  // seed+i style derivation correlates neighbouring streams; the splitmix
  // scrambler behind Fork must not.  Crude independence check: across many
  // adjacent stream pairs, the fraction of agreeing bits stays near 1/2.
  const Rng base(9);
  std::int64_t agreeing_bits = 0;
  std::int64_t total_bits = 0;
  for (std::uint64_t id = 0; id < 2000; ++id) {
    Rng lo = base.Fork(id);
    Rng hi = base.Fork(id + 1);
    for (int draw = 0; draw < 4; ++draw) {
      const std::uint64_t same = ~(lo.Next() ^ hi.Next());
      agreeing_bits += std::popcount(same);
      total_bits += 64;
    }
  }
  const double agreement = static_cast<double>(agreeing_bits) / static_cast<double>(total_bits);
  EXPECT_NEAR(agreement, 0.5, 0.01);
}

TEST(RngForkTest, ForkedStreamDivergesFromParentSequence) {
  Rng parent(77);
  Rng child = parent.Fork(0);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() != child.Next()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 60);
}

// Rng::Jump(JumpOf(n)) leaves the generator where n Next() calls do: at the
// edges of one 256-coefficient polynomial (255, 256, 257) and far past it.
TEST(RngTest, JumpEqualsSerialSteps) {
  for (const std::uint64_t n : {0ULL, 1ULL, 255ULL, 256ULL, 257ULL, 1000000ULL}) {
    Rng jumped(0x5EED0000ULL + n);
    Rng stepped = jumped;
    jumped.Jump(Rng::JumpOf(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      stepped.Next();
    }
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(jumped.Next(), stepped.Next()) << "n " << n << " draw " << i;
    }
  }
}

// Jumps compose as the powers of x they are, including lengths no serial
// check could reach: 2^40 twice is 2^41, and a + b is a then b.
TEST(RngTest, JumpsCompose) {
  const std::uint64_t a = (std::uint64_t{1} << 40) + 12345;
  const std::uint64_t b = 987654321;
  Rng one(42);
  Rng two = one;
  one.Jump(Rng::JumpOf(a + b));
  two.Jump(Rng::JumpOf(a));
  two.Jump(Rng::JumpOf(b));
  EXPECT_EQ(one.Next(), two.Next());
  Rng twice(43);
  Rng once = twice;
  const Rng::JumpPoly half = Rng::JumpOf(std::uint64_t{1} << 40);
  twice.Jump(half);
  twice.Jump(half);
  once.Jump(Rng::JumpOf(std::uint64_t{1} << 41));
  EXPECT_EQ(once.Next(), twice.Next());
}

// Berlekamp-Massey over GF(2): the shortest linear recurrence of `bits`, as
// the characteristic polynomial x^L + sum c_i x^i, c_i in kCharPoly's layout.
// Returns L and fills `poly` (L <= 256).
int BerlekampMassey(const std::vector<int>& bits, std::array<std::uint64_t, 4>* poly) {
  const std::size_t n = bits.size();
  std::vector<int> c(n + 1, 0);  // connection polynomial 1 + c_1 x + ...
  std::vector<int> b(n + 1, 0);
  c[0] = b[0] = 1;
  int length = 0;
  std::size_t shift = 1;
  for (std::size_t i = 0; i < n; ++i) {
    int discrepancy = bits[i];
    for (int k = 1; k <= length; ++k) {
      discrepancy ^= c[static_cast<std::size_t>(k)] & bits[i - static_cast<std::size_t>(k)];
    }
    if (discrepancy == 0) {
      ++shift;
      continue;
    }
    const std::vector<int> previous = c;
    for (std::size_t k = 0; k + shift <= n; ++k) {
      c[k + shift] ^= b[k];
    }
    if (2 * static_cast<std::size_t>(length) <= i) {
      length = static_cast<int>(i + 1) - length;
      b = previous;
      shift = 1;
    } else {
      ++shift;
    }
  }
  // s_{t+L} = sum_k c_{L-k} s_{t+k}: coefficient k is c_{L-k}.
  *poly = {0, 0, 0, 0};
  for (int k = 0; k < length && k < 256; ++k) {
    if (c[static_cast<std::size_t>(length - k)] != 0) {
      (*poly)[static_cast<std::size_t>(k / 64)] |= std::uint64_t{1} << (k % 64);
    }
  }
  return length;
}

// The pinned characteristic polynomial is the state sequence's own: the
// shortest recurrence of single state bits has degree 256 and is kCharPoly,
// for bits of different words and seeds.
TEST(RngTest, BerlekampMasseyRederivesCharPoly) {
  struct Probe {
    std::uint64_t seed;
    int word;
    int bit;
  };
  for (const Probe probe : {Probe{1, 0, 0}, Probe{0xDEADBEEF, 2, 37}, Probe{99, 3, 63}}) {
    Rng rng(probe.seed);
    std::vector<int> bits;
    for (int i = 0; i < 1024; ++i) {
      RngLanes lanes;
      lanes.Set(0, rng);
      bits.push_back(static_cast<int>((lanes.s[probe.word][0] >> probe.bit) & 1));
      rng.Next();
    }
    std::array<std::uint64_t, 4> poly{};
    EXPECT_EQ(BerlekampMassey(bits, &poly), 256) << "seed " << probe.seed;
    EXPECT_EQ(poly, Rng::kCharPoly) << "seed " << probe.seed;
  }
}

}  // namespace
}  // namespace dcs
