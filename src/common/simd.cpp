#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(FTDL_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FTDL_SIMD_AVX2 1
#include <immintrin.h>
#endif

#if defined(FTDL_SIMD_ENABLED) && defined(__aarch64__)
#define FTDL_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ftdl::simd {

acc_t dot_i16_scalar(const std::int16_t* w, const std::int16_t* in,
                     std::int64_t n) {
  acc_t acc = 0;
  for (std::int64_t j = 0; j < n; ++j)
    acc += static_cast<acc_t>(w[j]) * static_cast<acc_t>(in[j]);
  return acc;
}

void axpy_i16_scalar(acc_t* out, const std::int16_t* in, std::int16_t w,
                     std::int64_t n) {
  const acc_t wv = w;
  for (std::int64_t j = 0; j < n; ++j) out[j] += wv * static_cast<acc_t>(in[j]);
}

void axpy_i16_narrow_scalar(std::int32_t* out, const std::int16_t* in,
                            std::int16_t w, std::int64_t n) {
  const std::int32_t wv = w;
  for (std::int64_t j = 0; j < n; ++j) out[j] += wv * in[j];
}

namespace {

#if defined(FTDL_SIMD_AVX2)

// Exact 32-bit products of two int16 vectors via mullo/mulhi + unpack.
// unpack*_epi16 interleaves within each 128-bit lane, so the int32 products
// land as: plo = p[0..3] | p[8..11], phi = p[4..7] | p[12..15]. The dot
// reduction is order-free; the axpy store indexes the four quarters back to
// their positions explicitly.

__attribute__((target("avx2"))) acc_t dot_i16_avx2(const std::int16_t* w,
                                                   const std::int16_t* in,
                                                   std::int64_t n) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256i vw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + j));
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + j));
    const __m256i lo = _mm256_mullo_epi16(vw, vi);
    const __m256i hi = _mm256_mulhi_epi16(vw, vi);
    const __m256i plo = _mm256_unpacklo_epi16(lo, hi);
    const __m256i phi = _mm256_unpackhi_epi16(lo, hi);
    acc0 = _mm256_add_epi64(
        acc0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(plo)));
    acc1 = _mm256_add_epi64(
        acc1, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(plo, 1)));
    acc0 = _mm256_add_epi64(
        acc0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(phi)));
    acc1 = _mm256_add_epi64(
        acc1, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(phi, 1)));
  }
  if (j + 8 <= n) {
    // Half-width step for the [8, 16) tail: same exact-product recipe on
    // one 128-bit lane.
    const __m128i vw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + j));
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + j));
    const __m128i lo = _mm_mullo_epi16(vw, vi);
    const __m128i hi = _mm_mulhi_epi16(vw, vi);
    acc0 = _mm256_add_epi64(acc0,
                            _mm256_cvtepi32_epi64(_mm_unpacklo_epi16(lo, hi)));
    acc1 = _mm256_add_epi64(acc1,
                            _mm256_cvtepi32_epi64(_mm_unpackhi_epi16(lo, hi)));
    j += 8;
  }
  acc0 = _mm256_add_epi64(acc0, acc1);
  alignas(32) std::int64_t lane[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane), acc0);
  acc_t acc = lane[0] + lane[1] + lane[2] + lane[3];
  for (; j < n; ++j)
    acc += static_cast<acc_t>(w[j]) * static_cast<acc_t>(in[j]);
  return acc;
}

__attribute__((target("avx2"))) void axpy_i16_avx2(acc_t* out,
                                                   const std::int16_t* in,
                                                   std::int16_t w,
                                                   std::int64_t n) {
  const __m256i vw = _mm256_set1_epi16(w);
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + j));
    const __m256i lo = _mm256_mullo_epi16(vi, vw);
    const __m256i hi = _mm256_mulhi_epi16(vi, vw);
    const __m256i plo = _mm256_unpacklo_epi16(lo, hi);
    const __m256i phi = _mm256_unpackhi_epi16(lo, hi);
    __m256i o0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j));
    o0 = _mm256_add_epi64(o0,
                          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(plo)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j), o0);
    __m256i o1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j + 4));
    o1 = _mm256_add_epi64(o1,
                          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(phi)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 4), o1);
    __m256i o2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j + 8));
    o2 = _mm256_add_epi64(
        o2, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(plo, 1)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 8), o2);
    __m256i o3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j + 12));
    o3 = _mm256_add_epi64(
        o3, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(phi, 1)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 12), o3);
  }
  if (j + 8 <= n) {
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + j));
    const __m128i vw8 = _mm256_castsi256_si128(vw);
    const __m128i lo = _mm_mullo_epi16(vi, vw8);
    const __m128i hi = _mm_mulhi_epi16(vi, vw8);
    __m256i o0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j));
    o0 = _mm256_add_epi64(o0,
                          _mm256_cvtepi32_epi64(_mm_unpacklo_epi16(lo, hi)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j), o0);
    __m256i o1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j + 4));
    o1 = _mm256_add_epi64(o1,
                          _mm256_cvtepi32_epi64(_mm_unpackhi_epi16(lo, hi)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 4), o1);
    j += 8;
  }
  const acc_t wv = w;
  for (; j < n; ++j) out[j] += wv * static_cast<acc_t>(in[j]);
}

// Narrow kernels (header docs: valid under the caller's range proof).
// _mm256_madd_epi16 forms w[2i]*in[2i] + w[2i+1]*in[2i+1] per int32 lane:
// the pair sum, like every later partial sum, is bounded by the proof, so
// neither it nor the int32 adds can wrap.

__attribute__((target("avx2"))) acc_t dot_i16_narrow_avx2(
    const std::int16_t* w, const std::int16_t* in, std::int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256i vw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + j));
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + j));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(vw, vi));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  if (j + 8 <= n) {
    const __m128i vw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + j));
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + j));
    s = _mm_add_epi32(s, _mm_madd_epi16(vw, vi));
    j += 8;
  }
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  std::int32_t sum = _mm_cvtsi128_si32(s);
  for (; j < n; ++j) sum += std::int32_t{w[j]} * in[j];
  return sum;
}

// Products of the streamed operand with the broadcast one, in int32 and in
// order: the input is sign-extended to (x, sign) int16 pairs and madd'ed
// against (w, 0) pairs, giving x*w + sign*0 per lane — no unpack or lane
// permute.
__attribute__((target("avx2"))) void axpy_i16_narrow_avx2(
    std::int32_t* out, const std::int16_t* in, std::int16_t w,
    std::int64_t n) {
  const __m256i vw = _mm256_set1_epi32(static_cast<std::uint16_t>(w));
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i x = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + j)));
    __m256i o = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j));
    o = _mm256_add_epi32(o, _mm256_madd_epi16(x, vw));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j), o);
  }
  const std::int32_t wv = w;
  for (; j < n; ++j) out[j] += wv * in[j];
}

#endif  // FTDL_SIMD_AVX2

#if defined(FTDL_SIMD_NEON)

acc_t dot_i16_neon(const std::int16_t* w, const std::int16_t* in,
                   std::int64_t n) {
  int64x2_t acc2 = vdupq_n_s64(0);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const int16x8_t vw = vld1q_s16(w + j);
    const int16x8_t vi = vld1q_s16(in + j);
    const int32x4_t p0 = vmull_s16(vget_low_s16(vw), vget_low_s16(vi));
    const int32x4_t p1 = vmull_s16(vget_high_s16(vw), vget_high_s16(vi));
    acc2 = vaddq_s64(acc2, vpaddlq_s32(p0));
    acc2 = vaddq_s64(acc2, vpaddlq_s32(p1));
  }
  acc_t acc = vgetq_lane_s64(acc2, 0) + vgetq_lane_s64(acc2, 1);
  for (; j < n; ++j)
    acc += static_cast<acc_t>(w[j]) * static_cast<acc_t>(in[j]);
  return acc;
}

void axpy_i16_neon(acc_t* out, const std::int16_t* in, std::int16_t w,
                   std::int64_t n) {
  const int16x4_t vw = vdup_n_s16(w);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const int16x8_t vi = vld1q_s16(in + j);
    const int32x4_t p0 = vmull_s16(vget_low_s16(vi), vw);
    const int32x4_t p1 = vmull_s16(vget_high_s16(vi), vw);
    int64x2_t o0 = vld1q_s64(out + j);
    o0 = vaddw_s32(o0, vget_low_s32(p0));
    vst1q_s64(out + j, o0);
    int64x2_t o1 = vld1q_s64(out + j + 2);
    o1 = vaddw_s32(o1, vget_high_s32(p0));
    vst1q_s64(out + j + 2, o1);
    int64x2_t o2 = vld1q_s64(out + j + 4);
    o2 = vaddw_s32(o2, vget_low_s32(p1));
    vst1q_s64(out + j + 4, o2);
    int64x2_t o3 = vld1q_s64(out + j + 6);
    o3 = vaddw_s32(o3, vget_high_s32(p1));
    vst1q_s64(out + j + 6, o3);
  }
  const acc_t wv = w;
  for (; j < n; ++j) out[j] += wv * static_cast<acc_t>(in[j]);
}

#endif  // FTDL_SIMD_NEON

using DotFn = acc_t (*)(const std::int16_t*, const std::int16_t*,
                        std::int64_t);
using AxpyFn = void (*)(acc_t*, const std::int16_t*, std::int16_t,
                        std::int64_t);
using Axpy32Fn = void (*)(std::int32_t*, const std::int16_t*, std::int16_t,
                          std::int64_t);

struct Impl {
  DotFn dot = dot_i16_scalar;
  AxpyFn axpy = axpy_i16_scalar;
  DotFn dot_narrow = dot_i16_scalar;
  Axpy32Fn axpy_narrow = axpy_i16_narrow_scalar;
  const char* name = "scalar";
  int lanes = 1;
};

constexpr Impl kScalar{};

/// Best vector implementation compiled in AND supported by this machine
/// (scalar when neither applies, or when the FTDL_SIMD environment variable
/// is "0"/"off"/"scalar").
const Impl& vector_impl() {
  static const Impl impl = [] {
    Impl v = kScalar;
    const char* env = std::getenv("FTDL_SIMD");
    if (env != nullptr && (std::strcmp(env, "0") == 0 ||
                           std::strcmp(env, "off") == 0 ||
                           std::strcmp(env, "scalar") == 0)) {
      return v;
    }
#if defined(FTDL_SIMD_AVX2)
    if (__builtin_cpu_supports("avx2")) {
      v = Impl{dot_i16_avx2,        axpy_i16_avx2,
               dot_i16_narrow_avx2, axpy_i16_narrow_avx2,
               "avx2",              16};
    }
#elif defined(FTDL_SIMD_NEON)
    // No NEON narrow kernels: the exact dot and the scalar int32 axpy.
    v = Impl{dot_i16_neon, axpy_i16_neon, dot_i16_neon, axpy_i16_narrow_scalar,
             "neon",       8};
#endif
    return v;
  }();
  return impl;
}

/// Active implementation; flipped between vector_impl() and kScalar by
/// set_enabled(). Atomic: the first kernel calls, which resolve the lazy
/// default, may come from several pool workers at once.
std::atomic<const Impl*> g_active{nullptr};

const Impl& active_impl() {
  const Impl* impl = g_active.load();
  if (impl == nullptr) {
    // Publish the default unless set_enabled() got there first.
    const Impl* expected = nullptr;
    impl = &vector_impl();
    if (!g_active.compare_exchange_strong(expected, impl)) impl = expected;
  }
  return *impl;
}

}  // namespace

namespace detail {

acc_t dot_i16_dispatch(const std::int16_t* w, const std::int16_t* in,
                       std::int64_t n) {
  return active_impl().dot(w, in, n);
}

void axpy_i16_dispatch(acc_t* out, const std::int16_t* in, std::int16_t w,
                       std::int64_t n) {
  active_impl().axpy(out, in, w, n);
}

acc_t dot_i16_narrow_dispatch(const std::int16_t* w, const std::int16_t* in,
                              std::int64_t n) {
  return active_impl().dot_narrow(w, in, n);
}

void axpy_i16_narrow_dispatch(std::int32_t* out, const std::int16_t* in,
                              std::int16_t w, std::int64_t n) {
  active_impl().axpy_narrow(out, in, w, n);
}

}  // namespace detail

const char* isa_name() { return active_impl().name; }

int lanes() { return active_impl().lanes; }

bool active() { return active_impl().lanes > 1; }

void set_enabled(bool on) {
  g_active.store(on ? &vector_impl() : &kScalar);
}

}  // namespace ftdl::simd
