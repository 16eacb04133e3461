// SIMD kernel unit tests: the vector dot/axpy paths must be bit-identical
// to the scalar oracles for every width and every int16 value — including
// the (-32768)*(-32768) corner that overflows pairwise multiply-add
// instructions. Widths sweep 0..2*lanes+3 so every tail length of the
// widest implementation (16 int16 lanes on AVX2) is hit on both sides of
// the kInlineCutoff inline/dispatch boundary.
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

}  // namespace
}  // namespace ftdl::simd
