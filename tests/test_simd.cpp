// SIMD kernel unit tests: the exact vector dot/axpy paths must be
// bit-identical to the scalar oracles for every width and every int16
// value — including the (-32768)*(-32768) corner that overflows pairwise
// multiply-add instructions. Widths sweep 0..2*lanes+3 so every tail length
// of the widest implementation (16 int16 lanes on AVX2) is hit on both
// sides of the kInlineCutoff inline/dispatch boundary. The narrow (int32)
// kernels are pinned the same way, at widths 0..80, on data inside their
// range precondition — and at its edge, where a sum reaches 2^31-1.
#include <array>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.h"

namespace ftdl::simd {
namespace {

std::vector<std::int16_t> random_i16(std::int64_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(-32768, 32767);
  std::vector<std::int16_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::int16_t>(dist(rng));
  return v;
}

// The dispatch resolves lazily on the first kernel call, which the sim
// engine makes from several pool workers at once. Defined first, so a
// whole-binary run starts here too; run alone (ctest runs one test per
// process) its calls are the process's first use. The TSan leg flags a
// racy resolution.
TEST(Simd, ConcurrentFirstUseIsRaceFree) {
  constexpr std::int64_t n = 40;
  const auto w = random_i16(n, 5);
  const auto in = random_i16(n, 6);
  const acc_t want = dot_i16_scalar(w.data(), in.data(), n);
  std::vector<acc_t> want_axpy(static_cast<std::size_t>(n), 0);
  axpy_i16_scalar(want_axpy.data(), in.data(), w[0], n);

  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<acc_t> dots(kThreads, 0);
  std::vector<std::vector<acc_t>> axpys(
      kThreads, std::vector<acc_t>(static_cast<std::size_t>(n), 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) {
      }
      const auto tu = static_cast<std::size_t>(t);
      if (t % 2 == 0) {
        dots[tu] = dot_i16(w.data(), in.data(), n);
        axpy_i16(axpys[tu].data(), in.data(), w[0], n);
      } else {
        axpy_i16(axpys[tu].data(), in.data(), w[0], n);
        dots[tu] = dot_i16(w.data(), in.data(), n);
      }
    });
  }
  go.store(true);
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(dots[static_cast<std::size_t>(t)], want) << "thread " << t;
    EXPECT_EQ(axpys[static_cast<std::size_t>(t)], want_axpy) << "thread " << t;
  }
}

TEST(Simd, IsaReportIsConsistent) {
  const std::string isa = isa_name();
  EXPECT_TRUE(isa == "avx2" || isa == "neon" || isa == "scalar") << isa;
  if (active()) {
    EXPECT_NE(isa, "scalar");
    EXPECT_GT(lanes(), 1);
  } else {
    EXPECT_EQ(isa, "scalar");
    EXPECT_EQ(lanes(), 1);
  }
}

TEST(Simd, DotMatchesScalarAcrossWidths) {
  const std::int64_t max_n = 2 * std::int64_t{16} + 3;  // past any tail
  for (std::int64_t n = 0; n <= max_n; ++n) {
    const auto w = random_i16(n, 11 + static_cast<std::uint64_t>(n));
    const auto in = random_i16(n, 97 + static_cast<std::uint64_t>(n));
    EXPECT_EQ(dot_i16(w.data(), in.data(), n),
              dot_i16_scalar(w.data(), in.data(), n))
        << "width " << n;
  }
}

TEST(Simd, AxpyMatchesScalarAcrossWidths) {
  const std::int64_t max_n = 2 * std::int64_t{16} + 3;
  for (std::int64_t n = 0; n <= max_n; ++n) {
    const auto in = random_i16(n, 3 + static_cast<std::uint64_t>(n));
    for (std::int16_t w : {std::int16_t{-32768}, std::int16_t{-1},
                           std::int16_t{0}, std::int16_t{7},
                           std::int16_t{32767}}) {
      std::vector<acc_t> fast(static_cast<std::size_t>(n), 5);
      std::vector<acc_t> ref(static_cast<std::size_t>(n), 5);
      axpy_i16(fast.data(), in.data(), w, n);
      axpy_i16_scalar(ref.data(), in.data(), w, n);
      EXPECT_EQ(fast, ref) << "width " << n << " w " << w;
    }
  }
}

TEST(Simd, ExtremeValuesAreExact) {
  // All-(-32768) vectors: each product is 2^30; a 33-wide dot needs more
  // than 35 bits, and pairwise-madd-style instructions would saturate.
  const std::int64_t n = 33;
  std::vector<std::int16_t> lo(static_cast<std::size_t>(n), -32768);
  std::vector<std::int16_t> hi(static_cast<std::size_t>(n), 32767);
  EXPECT_EQ(dot_i16(lo.data(), lo.data(), n),
            n * (acc_t{1} << 30));
  EXPECT_EQ(dot_i16(lo.data(), hi.data(), n),
            n * (acc_t{-32768} * acc_t{32767}));
  EXPECT_EQ(dot_i16(hi.data(), hi.data(), n),
            n * (acc_t{32767} * acc_t{32767}));

  std::vector<acc_t> fast(static_cast<std::size_t>(n), 0);
  std::vector<acc_t> ref(static_cast<std::size_t>(n), 0);
  axpy_i16(fast.data(), lo.data(), std::int16_t{-32768}, n);
  axpy_i16_scalar(ref.data(), lo.data(), std::int16_t{-32768}, n);
  EXPECT_EQ(fast, ref);
  EXPECT_EQ(fast[0], acc_t{1} << 30);
}

TEST(Simd, SetEnabledForcesScalarAndRestores) {
  const bool was_active = active();
  set_enabled(false);
  EXPECT_FALSE(active());
  EXPECT_STREQ(isa_name(), "scalar");
  EXPECT_EQ(lanes(), 1);

  // Disabled dispatch still computes the oracle result.
  const auto w = random_i16(40, 123);
  const auto in = random_i16(40, 321);
  EXPECT_EQ(dot_i16(w.data(), in.data(), 40),
            dot_i16_scalar(w.data(), in.data(), 40));

  set_enabled(true);
  // Re-enabling restores the vector path only where one exists.
  EXPECT_EQ(active(), was_active);
  EXPECT_EQ(dot_i16(w.data(), in.data(), 40),
            dot_i16_scalar(w.data(), in.data(), 40));
}

TEST(Simd, LongRandomSweepsMatch) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const std::int64_t n = 64 + static_cast<std::int64_t>(seed) * 37;
    const auto w = random_i16(n, seed * 2 + 1);
    const auto in = random_i16(n, seed * 2 + 2);
    EXPECT_EQ(dot_i16(w.data(), in.data(), n),
              dot_i16_scalar(w.data(), in.data(), n))
        << "seed " << seed;

    std::vector<acc_t> fast(static_cast<std::size_t>(n), -7);
    std::vector<acc_t> ref(static_cast<std::size_t>(n), -7);
    axpy_i16(fast.data(), in.data(), w[0], n);
    axpy_i16_scalar(ref.data(), in.data(), w[0], n);
    EXPECT_EQ(fast, ref) << "seed " << seed;
  }
}

/// Uniform int16 values in [-mag, mag].
std::vector<std::int16_t> bounded_i16(std::int64_t n, int mag,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(-mag, mag);
  std::vector<std::int16_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::int16_t>(dist(rng));
  return v;
}

constexpr std::int64_t kNarrowMaxWidth = 80;

// Every width 0..80 with |w|, |in| <= 4096: 80 * 2^24 < 2^31 keeps every
// dot inside the narrow precondition; ±7 is the simulator's own data.
TEST(Simd, NarrowDotMatchesScalarAcrossWidths) {
  for (int mag : {7, 4096}) {
    for (std::int64_t n = 0; n <= kNarrowMaxWidth; ++n) {
      const auto seed = static_cast<std::uint64_t>(n * 8 + mag);
      const auto w = bounded_i16(n, mag, seed);
      const auto in = bounded_i16(n, mag, seed + 1);
      EXPECT_EQ(dot_i16_narrow(w.data(), in.data(), n),
                dot_i16_scalar(w.data(), in.data(), n))
          << "width " << n << " magnitude " << mag;
    }
  }
}

// One product per output lane: any int16 pair fits, -32768 included.
TEST(Simd, NarrowAxpyMatchesScalarAcrossWidths) {
  for (std::int64_t n = 0; n <= kNarrowMaxWidth; ++n) {
    const auto in = random_i16(n, 41 + static_cast<std::uint64_t>(n));
    for (std::int16_t w : {std::int16_t{-32768}, std::int16_t{-7},
                           std::int16_t{0}, std::int16_t{1},
                           std::int16_t{32767}}) {
      std::vector<std::int32_t> fast(static_cast<std::size_t>(n), -5);
      std::vector<std::int32_t> ref(static_cast<std::size_t>(n), -5);
      std::vector<acc_t> exact(static_cast<std::size_t>(n), -5);
      axpy_i16_narrow(fast.data(), in.data(), w, n);
      axpy_i16_narrow_scalar(ref.data(), in.data(), w, n);
      axpy_i16_scalar(exact.data(), in.data(), w, n);
      EXPECT_EQ(fast, ref) << "width " << n << " w " << w;
      for (std::size_t j = 0; j < fast.size(); ++j)
        ASSERT_EQ(fast[j], exact[j]) << "width " << n << " w " << w;
    }
  }
}

// The edge of the precondition: sums that land exactly on ±(2^31-1) in a
// single int32 lane, so a wrap (or a saturating add) anywhere would show.
TEST(Simd, NarrowKernelsReachInt32MaxWithoutWrapping) {
  constexpr acc_t kMax = 2147483647;  // 2^31 - 1
  // 2 * 32767^2 + 4 * 32767 + 1 == 2^31 - 1. Every term sits at an index
  // == 0 or 1 (mod 16): the same int32 lane of a 16-wide madd kernel.
  const std::int64_t n = 64;
  std::vector<std::int16_t> w(static_cast<std::size_t>(n), 0);
  std::vector<std::int16_t> in(static_cast<std::size_t>(n), 0);
  const std::array<std::array<int, 3>, 7> terms{{{0, 32767, 32767},
                                                 {1, 32767, 32767},
                                                 {16, 32767, 1},
                                                 {17, 32767, 1},
                                                 {32, 32767, 1},
                                                 {33, 32767, 1},
                                                 {48, 1, 1}}};
  for (const auto& [at, wv, iv] : terms) {
    w[static_cast<std::size_t>(at)] = static_cast<std::int16_t>(wv);
    in[static_cast<std::size_t>(at)] = static_cast<std::int16_t>(iv);
  }
  EXPECT_EQ(dot_i16_scalar(w.data(), in.data(), n), kMax);
  EXPECT_EQ(dot_i16_narrow(w.data(), in.data(), n), kMax);
  for (auto& v : in) v = static_cast<std::int16_t>(-v);
  EXPECT_EQ(dot_i16_narrow(w.data(), in.data(), n), -kMax);

  // axpy: every lane starts one 32767^2 product short of ±(2^31-1).
  for (std::int64_t width = 0; width <= kNarrowMaxWidth; ++width) {
    const std::vector<std::int16_t> x(static_cast<std::size_t>(width), 32767);
    for (const std::int16_t wv : {std::int16_t{32767}, std::int16_t{-32767}}) {
      const acc_t target = wv > 0 ? kMax : -kMax;
      const auto start = static_cast<std::int32_t>(
          target - acc_t{wv} * acc_t{32767});
      std::vector<std::int32_t> out(static_cast<std::size_t>(width), start);
      axpy_i16_narrow(out.data(), x.data(), wv, width);
      for (const std::int32_t v : out)
        ASSERT_EQ(v, target) << "width " << width << " w " << wv;
    }
  }
}

TEST(Simd, NarrowKernelsFollowSetEnabled) {
  const auto w = bounded_i16(50, 4096, 7);
  const auto in = bounded_i16(50, 4096, 8);
  const acc_t want = dot_i16_scalar(w.data(), in.data(), 50);
  std::vector<std::int32_t> want_axpy(50, 3);
  axpy_i16_narrow_scalar(want_axpy.data(), in.data(), w[0], 50);
  for (bool on : {false, true}) {
    set_enabled(on);
    EXPECT_EQ(dot_i16_narrow(w.data(), in.data(), 50), want) << on;
    std::vector<std::int32_t> got(50, 3);
    axpy_i16_narrow(got.data(), in.data(), w[0], 50);
    EXPECT_EQ(got, want_axpy) << on;
  }
}

}  // namespace
}  // namespace ftdl::simd
