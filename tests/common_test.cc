// Unit tests for src/common: hashing, RNG, Zipf sampling, formatting.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/bob_hash.h"
#include "common/format.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/zipf.h"

namespace ltc {
namespace {

// ------------------------------------------------------------------ BobHash

TEST(BobHash, DeterministicAcrossCalls) {
  EXPECT_EQ(BobHash32(uint64_t{42}, 7), BobHash32(uint64_t{42}, 7));
  EXPECT_EQ(BobHash64(uint64_t{42}, 7), BobHash64(uint64_t{42}, 7));
  EXPECT_EQ(BobHash32("stream", 3), BobHash32("stream", 3));
}

TEST(BobHash, SeedChangesValue) {
  uint64_t key = 0xdeadbeefcafeULL;
  EXPECT_NE(BobHash32(key, 1), BobHash32(key, 2));
  EXPECT_NE(BobHash64(key, 1), BobHash64(key, 2));
}

TEST(BobHash, KeyChangesValue) {
  EXPECT_NE(BobHash32(uint64_t{1}), BobHash32(uint64_t{2}));
  EXPECT_NE(BobHash32("abc"), BobHash32("abd"));
}

TEST(BobHash, EmptyInputIsAccepted) {
  EXPECT_EQ(BobHashBytes32(nullptr, 0, 5), BobHashBytes32(nullptr, 0, 5));
  // Zero-length with different seeds differ (seed feeds the state).
  EXPECT_NE(BobHashBytes32(nullptr, 0, 5), BobHashBytes32(nullptr, 0, 6));
}

TEST(BobHash, AllTailLengthsCovered) {
  // Exercise every `switch` arm (1..12 remaining bytes) plus a multi-block
  // input; adjacent lengths must not collide on a shared prefix.
  char buf[64];
  std::memset(buf, 0x5a, sizeof(buf));
  std::set<uint32_t> seen;
  for (size_t len = 0; len <= 40; ++len) {
    seen.insert(BobHashBytes32(buf, len, 0));
  }
  EXPECT_EQ(seen.size(), 41u);
}

TEST(BobHash, UniformBucketSpread) {
  // Hash 100k consecutive integers into 64 buckets; every bucket should be
  // within 20% of the mean — a coarse but effective regression net for
  // mixing bugs.
  constexpr int kKeys = 100'000;
  constexpr int kBuckets = 64;
  std::vector<int> histogram(kBuckets, 0);
  for (int i = 0; i < kKeys; ++i) {
    ++histogram[BobHash32(static_cast<uint64_t>(i)) % kBuckets];
  }
  double mean = static_cast<double>(kKeys) / kBuckets;
  for (int count : histogram) {
    EXPECT_GT(count, mean * 0.8);
    EXPECT_LT(count, mean * 1.2);
  }
}

TEST(BobHash, AvalancheOnSingleBitFlips) {
  // Flipping one input bit should flip roughly half the output bits.
  uint64_t key = 0x0123456789abcdefULL;
  uint32_t base = BobHash32(key);
  double total_flipped = 0;
  for (int bit = 0; bit < 64; ++bit) {
    uint32_t flipped = BobHash32(key ^ (uint64_t{1} << bit));
    total_flipped += __builtin_popcount(base ^ flipped);
  }
  double avg = total_flipped / 64.0;
  EXPECT_GT(avg, 12.0);
  EXPECT_LT(avg, 20.0);
}

TEST(BobHash, FunctorMatchesFreeFunction) {
  BobHashFunction f(99);
  EXPECT_EQ(f(uint64_t{123}), BobHash32(uint64_t{123}, 99));
  EXPECT_EQ(f("xyz"), BobHash32("xyz", 99));
  EXPECT_EQ(f.seed(), 99u);
}

TEST(BobHash, Inline8ByteKeyEqualsByteHash) {
  // BobHash32(uint64_t) has its own inline path for 8-byte keys; it must
  // stay the byte hash of the key's in-memory bytes, or every table's
  // bucket placement (and every saved checkpoint) would move.
  Rng rng(20);
  for (int i = 0; i < 1'000'000; ++i) {
    // Every fourth key is small, so the high word is often zero.
    const uint64_t key = i % 4 == 0 ? rng.Uniform(1000) : rng.Next();
    const auto seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(BobHash32(key, seed), BobHashBytes32(&key, sizeof(key), seed))
        << "key=" << key << " seed=" << seed;
  }
  for (uint64_t key = 0; key < 1000; ++key) {
    for (uint32_t seed : {0u, 1u, 0xffffffffu}) {
      ASSERT_EQ(BobHash32(key, seed), BobHashBytes32(&key, sizeof(key), seed))
          << "key=" << key << " seed=" << seed;
    }
  }
  // Values recorded with the original byte-wise hash. Byte order is part
  // of the hash's input, so they hold on little-endian hosts.
  if constexpr (std::endian::native == std::endian::little) {
    EXPECT_EQ(BobHash32(uint64_t{0}, 0), 1489077439u);
    EXPECT_EQ(BobHash32(uint64_t{1}, 0), 1430463807u);
    EXPECT_EQ(BobHash32(uint64_t{42}, 7), 3361374412u);
    EXPECT_EQ(BobHash32(uint64_t{0xdeadbeefcafef00d}, 0x9e3779b9),
              3156469274u);
    EXPECT_EQ(BobHash32(~uint64_t{0}, ~uint32_t{0}), 3887013184u);
  }
}

TEST(BobHash, SixtyFourBitHalvesAreIndependent) {
  // The low and high halves of BobHash64 come from coupled lanes; they
  // should not be equal or trivially related for typical keys.
  int equal = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    uint64_t h = BobHash64(k);
    if (static_cast<uint32_t>(h) == static_cast<uint32_t>(h >> 32)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// ----------------------------------------------------------- other hashes

TEST(Murmur64A, KnownPropertiesHold) {
  EXPECT_EQ(Murmur64A(uint64_t{1}), Murmur64A(uint64_t{1}));
  EXPECT_NE(Murmur64A(uint64_t{1}), Murmur64A(uint64_t{2}));
  EXPECT_NE(Murmur64A(uint64_t{1}, 0), Murmur64A(uint64_t{1}, 1));
  EXPECT_EQ(Murmur64A("hello"), Murmur64A(std::string_view("hello")));
}

TEST(Murmur64A, TailBytesMatter) {
  char buf[16] = {};
  std::set<uint64_t> seen;
  for (size_t len = 0; len <= 16; ++len) seen.insert(Murmur64A(buf, len));
  EXPECT_EQ(seen.size(), 17u);
}

TEST(Fnv1a64, BasicProperties) {
  EXPECT_EQ(Fnv1a64(uint64_t{7}), Fnv1a64(uint64_t{7}));
  EXPECT_NE(Fnv1a64(uint64_t{7}), Fnv1a64(uint64_t{8}));
  EXPECT_NE(Fnv1a64(uint64_t{7}, 1), Fnv1a64(uint64_t{7}, 2));
}

TEST(Mix64, BijectiveOnSample) {
  // SplitMix64's finalizer is a bijection; no collisions on a large sample.
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 50'000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 50'000u);
}

TEST(FastRange, StaysInRangeAndCoversIt) {
  std::set<uint32_t> seen;
  for (uint32_t i = 0; i < 10'000; ++i) {
    uint32_t v = FastRange32(Mix64(i) & 0xffffffffu, 10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_LT(FastRange64(Mix64(i), 7), 7u);
  }
}

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
  }
  // Different seeds diverge immediately with overwhelming probability.
  Rng a2(123);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  double sum = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, PoissonMeanMatchesBothRegimes) {
  Rng rng(19);
  constexpr int kN = 50'000;
  double small_sum = 0, large_sum = 0;
  for (int i = 0; i < kN; ++i) {
    small_sum += static_cast<double>(rng.Poisson(3.0));   // Knuth path
    large_sum += static_cast<double>(rng.Poisson(100.0)); // normal approx
  }
  EXPECT_NEAR(small_sum / kN, 3.0, 0.1);
  EXPECT_NEAR(large_sum / kN, 100.0, 1.0);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  constexpr int kN = 200'000;
  double sum = 0, sq = 0;
  for (int i = 0; i < kN; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

// ------------------------------------------------------------------ Zipf

TEST(Zipf, TruncatedZetaKnownValues) {
  EXPECT_DOUBLE_EQ(TruncatedZeta(1, 1.0), 1.0);
  EXPECT_NEAR(TruncatedZeta(4, 1.0), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
  EXPECT_NEAR(TruncatedZeta(3, 0.0), 3.0, 1e-12);  // γ=0 → plain count
  EXPECT_NEAR(TruncatedZeta(2, 2.0), 1.25, 1e-12);
}

TEST(Zipf, ExpectedFrequencyMatchesEq3) {
  // f_i = N i^{-γ} / ζ(γ): rank 1 of N=1000, M=4, γ=1.
  double zeta = TruncatedZeta(4, 1.0);
  EXPECT_NEAR(ZipfExpectedFrequency(1, 1000, 4, 1.0), 1000.0 / zeta, 1e-9);
  EXPECT_NEAR(ZipfExpectedFrequency(2, 1000, 4, 1.0), 500.0 / zeta, 1e-9);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler sampler(1000, 1.2);
  double total = 0;
  for (uint64_t i = 1; i <= 1000; ++i) total += sampler.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, SamplerMatchesPmf) {
  constexpr uint64_t kM = 100;
  constexpr int kN = 500'000;
  ZipfSampler sampler(kM, 1.0);
  Rng rng(31);
  std::vector<int> counts(kM + 1, 0);
  for (int i = 0; i < kN; ++i) {
    uint64_t rank = sampler.Sample(rng);
    ASSERT_GE(rank, 1u);
    ASSERT_LE(rank, kM);
    ++counts[rank];
  }
  // Head ranks have tight relative agreement with the analytic pmf.
  for (uint64_t rank = 1; rank <= 10; ++rank) {
    double expected = sampler.Pmf(rank) * kN;
    EXPECT_NEAR(counts[rank], expected, expected * 0.05)
        << "rank " << rank;
  }
}

TEST(Zipf, GammaZeroIsUniform) {
  ZipfSampler sampler(50, 0.0);
  for (uint64_t i = 1; i <= 50; ++i) {
    EXPECT_NEAR(sampler.Pmf(i), 1.0 / 50, 1e-12);
  }
  Rng rng(37);
  std::vector<int> counts(51, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[sampler.Sample(rng)];
  for (uint64_t i = 1; i <= 50; ++i) {
    EXPECT_NEAR(counts[i], 2000, 300);
  }
}

TEST(Zipf, SingleItemDegenerate) {
  ZipfSampler sampler(1, 1.5);
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.Sample(rng), 1u);
  EXPECT_NEAR(sampler.Pmf(1), 1.0, 1e-12);
}

TEST(Zipf, HigherGammaSkewsHead) {
  constexpr uint64_t kM = 1000;
  ZipfSampler flat(kM, 0.5), steep(kM, 1.5);
  EXPECT_LT(flat.Pmf(1), steep.Pmf(1));
  EXPECT_GT(flat.Pmf(kM), steep.Pmf(kM));
}

// ---------------------------------------------------------------- format

TEST(Format, Memory) {
  EXPECT_EQ(FormatMemory(10 * 1024), "10KB");
  EXPECT_EQ(FormatMemory(2 * 1024 * 1024), "2MB");
  EXPECT_EQ(FormatMemory(100), "100B");
  EXPECT_EQ(FormatMemory(0), "0KB");  // 0 % 1024 == 0
}

TEST(Format, Metric) {
  EXPECT_EQ(FormatMetric(0.5), "0.5000");
  EXPECT_EQ(FormatMetric(0.0), "0.0000");
  EXPECT_EQ(FormatMetric(123.4), "123.4");
  EXPECT_EQ(FormatMetric(1e-7), "1.000e-07");
  EXPECT_EQ(FormatMetric(3.2e7), "3.200e+07");
}

TEST(Format, TextTableAlignsAndCounts) {
  TextTable table({"algo", "precision"});
  table.AddRow({"LTC", "0.99"});
  table.AddRow({"SpaceSaving", "0.18"});
  EXPECT_EQ(table.num_rows(), 2u);

  std::ostringstream os;
  table.Print(os);
  std::string text = os.str();
  EXPECT_NE(text.find("LTC"), std::string::npos);
  EXPECT_NE(text.find("SpaceSaving"), std::string::npos);
  // Header separator line of dashes.
  EXPECT_NE(text.find("-----"), std::string::npos);

  std::ostringstream csv;
  table.PrintCsv(csv);
  EXPECT_EQ(csv.str(), "algo,precision\nLTC,0.99\nSpaceSaving,0.18\n");
}

}  // namespace
}  // namespace ltc
