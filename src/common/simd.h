// ftdl::simd — portable vectorized int16 MACC kernels with runtime dispatch.
//
// The fast simulation engine's dense bursts reduce to two inner-loop shapes
// over contiguous int16 data:
//
//   dot:  acc      += sum_j w[j] * in[j]          (reduction column loop)
//   axpy: out[j]   += w * in[j]   for every j     (broadcast-weight column)
//
// Both come in two accumulator widths:
//
//   * exact (dot_i16, axpy_i16): every int16*int16 product is formed as a
//     full 32-bit value and accumulated in 64-bit (acc_t) lanes, so the
//     SIMD paths are bit-identical to the scalar oracles for *every* input,
//     including the (-32768)^2 corner that overflows pairwise
//     multiply-add instructions like _mm256_madd_epi16;
//   * narrow (dot_i16_narrow, axpy_i16_narrow): int32 lanes, 8 per AVX2
//     vector instead of 4, with _mm256_madd_epi16 forming the products.
//     Correct only under a range proof the caller holds: no int32 partial
//     sum may leave [-(2^31-1), 2^31-1]. The simulator proves it per run
//     from max|w| * max|in| and the accumulation length
//     (sim::detail::narrow_accumulation_proven) and takes the exact
//     kernels when the proof fails. Under the proof the narrow kernels
//     equal the exact ones bit for bit.
//
// Integer addition is associative, so lane-wise reassociation of the dot
// reduction cannot change the result.
//
// Dispatch: the implementation is chosen once at first use (race-free:
// the first calls may come from several threads at once) —
//   * x86-64: AVX2 via per-function target attributes when the running CPU
//     reports it (__builtin_cpu_supports), so no special build flags are
//     needed and the same binary runs on non-AVX2 hosts;
//   * aarch64: NEON (baseline, compile-time) for the exact kernels; the
//     narrow ones fall through to the exact NEON dot and the scalar int32
//     axpy;
//   * otherwise, or with -DFTDL_SIMD=OFF, or FTDL_SIMD=0 in the
//     environment: the scalar oracles.
// set_enabled(false) forces the scalar oracles at runtime — the test hook
// behind the SIMD≡scalar sweeps in tests/test_sim_engine.cpp.
#pragma once

#include <cstdint>

#include "common/fixed_point.h"

namespace ftdl::simd {

namespace detail {
/// Out-of-line dispatch through the active implementation (simd.cpp).
acc_t dot_i16_dispatch(const std::int16_t* w, const std::int16_t* in,
                       std::int64_t n);
void axpy_i16_dispatch(acc_t* out, const std::int16_t* in, std::int16_t w,
                       std::int64_t n);
acc_t dot_i16_narrow_dispatch(const std::int16_t* w, const std::int16_t* in,
                              std::int64_t n);
void axpy_i16_narrow_dispatch(std::int32_t* out, const std::int16_t* in,
                              std::int16_t w, std::int64_t n);
}  // namespace detail

/// Sweeps shorter than one vector's worth of work stay inline at the call
/// site: a function-pointer call costs more than a handful of scalar MACCs
/// (the 7-wide kernel columns of a 7x7 conv are the motivating case).
constexpr std::int64_t kInlineCutoff = 8;

/// Sum of w[j] * in[j] over j in [0, n). Exact in acc_t.
inline acc_t dot_i16(const std::int16_t* w, const std::int16_t* in,
                     std::int64_t n) {
  if (n < kInlineCutoff) {
    acc_t acc = 0;
    for (std::int64_t j = 0; j < n; ++j)
      acc += static_cast<acc_t>(w[j]) * static_cast<acc_t>(in[j]);
    return acc;
  }
  return detail::dot_i16_dispatch(w, in, n);
}

/// out[j] += w * in[j] for j in [0, n). Exact in acc_t.
inline void axpy_i16(acc_t* out, const std::int16_t* in, std::int16_t w,
                     std::int64_t n) {
  if (n < kInlineCutoff) {
    const acc_t wv = w;
    for (std::int64_t j = 0; j < n; ++j)
      out[j] += wv * static_cast<acc_t>(in[j]);
    return;
  }
  detail::axpy_i16_dispatch(out, in, w, n);
}

/// dot_i16 in int32 lanes. Precondition: sum_j |w[j] * in[j]| < 2^31, so
/// no partial sum can wrap; the result is then exact.
inline acc_t dot_i16_narrow(const std::int16_t* w, const std::int16_t* in,
                            std::int64_t n) {
  if (n < kInlineCutoff) return dot_i16(w, in, n);
  return detail::dot_i16_narrow_dispatch(w, in, n);
}

/// out[j] += w * in[j] in int32 for j in [0, n). Precondition: no out[j]
/// leaves [-(2^31-1), 2^31-1] (the caller bounds every partial sum it
/// accumulates there).
inline void axpy_i16_narrow(std::int32_t* out, const std::int16_t* in,
                            std::int16_t w, std::int64_t n) {
  if (n < kInlineCutoff) {
    const std::int32_t wv = w;
    for (std::int64_t j = 0; j < n; ++j) out[j] += wv * in[j];
    return;
  }
  detail::axpy_i16_narrow_dispatch(out, in, w, n);
}

/// The scalar oracles the vector paths are pinned against (dot_i16_scalar
/// is also the oracle of dot_i16_narrow).
acc_t dot_i16_scalar(const std::int16_t* w, const std::int16_t* in,
                     std::int64_t n);
void axpy_i16_scalar(acc_t* out, const std::int16_t* in, std::int16_t w,
                     std::int64_t n);
void axpy_i16_narrow_scalar(std::int32_t* out, const std::int16_t* in,
                            std::int16_t w, std::int64_t n);

/// Name of the active implementation: "avx2", "neon" or "scalar".
const char* isa_name();

/// int16 lanes of the active implementation (16 AVX2, 8 NEON, 1 scalar).
int lanes();

/// True when a vector implementation (not the scalar oracle) is active.
bool active();

/// Runtime kill switch: set_enabled(false) routes every kernel through the
/// scalar oracles until re-enabled. Enabling is a no-op when no vector
/// implementation is compiled in or supported by the CPU. Kernel calls
/// already running finish on the implementation they started with;
/// intended for test setup and tools.
void set_enabled(bool on);

}  // namespace ftdl::simd
