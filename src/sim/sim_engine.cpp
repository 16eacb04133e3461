#include "sim/sim_engine.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <type_traits>

#include "common/arena.h"
#include "common/error.h"
#include "common/math_util.h"
#include "common/simd.h"

// The plan kernel's int16 operands are read-only and never alias the int64
// accumulators it writes; the restrict qualifiers tell the compiler so.
#if defined(__GNUC__) || defined(__clang__)
#define FTDL_RESTRICT __restrict__
#else
#define FTDL_RESTRICT
#endif

namespace ftdl::sim::detail {

namespace {

using compiler::HwLevel;
using compiler::Mapping;
using compiler::Workload;
using compiler::WorkloadKind;

/// Maximum workload loop count (CONV has 6); lets per-burst scratch live in
/// fixed-size stack arrays.
constexpr int kMaxLoops = 8;

/// Mixed-radix digits of every state of one hardware level, k-major:
/// out[k * states + s] = digit of workload loop k in state s, enumerated in
/// the same order as the reference interpreter's Odometer (loop 0 is the
/// most significant digit, the last loop advances fastest).
std::vector<std::int64_t> level_digits(const Mapping& m, HwLevel level,
                                       std::int64_t states) {
  const auto& radix = m.t[static_cast<int>(level)];
  const int k = static_cast<int>(radix.size());
  std::vector<std::int64_t> out(static_cast<std::size_t>(k) *
                                static_cast<std::size_t>(states));
  for (std::int64_t s = 0; s < states; ++s) {
    std::int64_t rem = s;
    for (int i = k; i-- > 0;) {
      const std::int64_t r = radix[static_cast<std::size_t>(i)];
      out[static_cast<std::size_t>(i) * static_cast<std::size_t>(states) +
          static_cast<std::size_t>(s)] = rem % r;
      rem /= r;
    }
  }
  return out;
}

/// Weighted sum of per-loop contribution tables: for every state s,
/// out[s] = sum_k coeff[k] * contrib[k * states + s].
std::vector<std::int64_t> project(const std::vector<std::int64_t>& contrib,
                                  const std::vector<std::int64_t>& coeff,
                                  std::int64_t states) {
  const int k = static_cast<int>(coeff.size());
  std::vector<std::int64_t> out(static_cast<std::size_t>(states), 0);
  for (int i = 0; i < k; ++i) {
    if (coeff[static_cast<std::size_t>(i)] == 0) continue;
    const std::int64_t c = coeff[static_cast<std::size_t>(i)];
    const std::int64_t* src =
        contrib.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(states);
    for (std::int64_t s = 0; s < states; ++s) out[static_cast<std::size_t>(s)] += c * src[s];
  }
  return out;
}

/// Flat tensor-offset coefficients per workload loop, in gidx space, under
/// one operand layout: a unit step of gidx_k moves the input / weight /
/// output offsets by in/w/out[k]; in_const is the input offset of the
/// all-zero index (the pad shift).
struct LayoutCoeffs {
  std::vector<std::int64_t> in, w, out;
  std::int64_t in_const = 0;
};

LayoutCoeffs layout_coeffs(const Workload& w, const nn::Layer& layer,
                           OperandLayout layout) {
  const auto k = static_cast<std::size_t>(w.k());
  LayoutCoeffs c;
  c.in.assign(k, 0);
  c.w.assign(k, 0);
  c.out.assign(k, 0);
  auto at = [&](char tag) {
    return static_cast<std::size_t>(w.loop_index(tag));
  };
  if (w.kind == WorkloadKind::MatMul) {
    const std::int64_t mm_m = layer.mm_m, mm_n = layer.mm_n, mm_p = layer.mm_p;
    const bool in_inner = layout == OperandLayout::InChannelInner;
    const bool out_inner = layout == OperandLayout::OutChannelInner;
    // input {M,P} or {P,M}; weights {N,M} or {M,N}; output {N,P} or {P,N}.
    c.in[at('M')] = in_inner ? 1 : mm_p;
    c.in[at('P')] = in_inner ? mm_m : 1;
    c.w[at('N')] = out_inner ? 1 : mm_m;
    c.w[at('M')] = out_inner ? mm_n : 1;
    c.out[at('N')] = out_inner ? 1 : mm_p;
    c.out[at('P')] = out_inner ? mm_n : 1;
    return c;
  }
  const std::int64_t in_h = layer.in_h, in_w = layer.in_w, in_c = layer.in_c;
  const std::int64_t kh = layer.kh, kw = layer.kw;
  const std::int64_t oh = layer.out_h(), ow = layer.out_w();
  const std::int64_t stride = layer.stride, pad = layer.pad;
  // y = e*stride + r - pad and xc = f*stride + s - pad index the image.
  if (layout == OperandLayout::InChannelInner) {
    // input HWC: in_off = (y*IW + xc)*IC + n.
    c.in[at('N')] = 1;
    c.in[at('E')] = stride * in_w * in_c;
    c.in[at('R')] = in_w * in_c;
    c.in[at('F')] = stride * in_c;
    c.in[at('S')] = in_c;
    c.in_const = -(pad * in_w + pad) * in_c;
  } else {
    // input CHW: in_off = n*(IH*IW) + y*IW + xc.
    c.in[at('N')] = in_h * in_w;
    c.in[at('E')] = stride * in_w;
    c.in[at('R')] = in_w;
    c.in[at('F')] = stride;
    c.in[at('S')] = 1;
    c.in_const = -pad * in_w - pad;
  }
  if (w.kind == WorkloadKind::DepthwiseConv) {
    // weights {in_c, kh, kw} indexed (n, r, s); output channel is n.
    FTDL_ASSERT(layout == OperandLayout::Native);
    c.w[at('N')] = kh * kw;
    c.w[at('R')] = kw;
    c.w[at('S')] = 1;
    c.out[at('N')] = oh * ow;
  } else if (layout == OperandLayout::OutChannelInner) {
    // weights {N,R,S,M}, output {E,F,M}.
    const std::int64_t oc = layer.out_c;
    c.w[at('M')] = 1;
    c.w[at('S')] = oc;
    c.w[at('R')] = kw * oc;
    c.w[at('N')] = kh * kw * oc;
    c.out[at('M')] = 1;
    c.out[at('F')] = oc;
    c.out[at('E')] = ow * oc;
  } else {
    // weights {M,N,R,S} (native) or {M,R,S,N} (input channels innermost).
    const bool in_inner = layout == OperandLayout::InChannelInner;
    c.w[at('M')] = in_c * kh * kw;
    c.w[at('N')] = in_inner ? 1 : kh * kw;
    c.w[at('R')] = in_inner ? kw * in_c : kw;
    c.w[at('S')] = in_inner ? in_c : 1;
    c.out[at('M')] = oh * ow;
  }
  if (layout != OperandLayout::OutChannelInner) {
    c.out[at('E')] = ow;
    c.out[at('F')] = 1;
  }
  return c;
}

/// The vector-plan kind a loop's unit coefficients admit (header docs).
EngineTables::PlanKind plan_kind_of(std::int64_t cin, std::int64_t cw,
                                    std::int64_t cout) {
  using PK = EngineTables::PlanKind;
  if (cin == 1 && cw == 1 && cout == 0) return PK::Dot;
  if (cin == 1 && cw == 0 && cout == 1) return PK::Axpy;
  if (cin == 0 && cw == 1 && cout == 1) return PK::AxpyW;
  return PK::None;
}

}  // namespace

EngineTables build_tables(const compiler::LayerProgram& program,
                          int max_chunks, std::int64_t min_chunk_maccs) {
  const Workload& w = program.workload;
  const Mapping& m = program.mapping;
  const nn::Layer& layer = program.layer;
  const int k = w.k();
  FTDL_ASSERT(k <= kMaxLoops);

  EngineTables tb;
  tb.k = k;
  tb.S = m.level_product(HwLevel::D3) * m.level_product(HwLevel::D2) *
         m.level_product(HwLevel::D1);
  tb.X = m.level_product(HwLevel::X);
  tb.L = m.level_product(HwLevel::L);
  tb.T = m.level_product(HwLevel::T);

  tb.trip.resize(static_cast<std::size_t>(k));
  tb.sp_ext.resize(static_cast<std::size_t>(k));
  tb.t_ext.resize(static_cast<std::size_t>(k));
  tb.sp_stride.resize(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    tb.trip[iu] = w.loops[iu].trip;
    tb.sp_ext[iu] = m.tile(HwLevel::D3, i) * m.tile(HwLevel::D2, i) *
                    m.tile(HwLevel::D1, i);
    tb.t_ext[iu] = m.tile(HwLevel::T, i);
    tb.sp_stride[iu] =
        m.tile(HwLevel::X, i) * m.tile(HwLevel::L, i) * m.tile(HwLevel::T, i);
  }

  // ---- raw digits per level --------------------------------------------
  // Combined spatial digit per loop: ((d3 * TD2 + d2) * TD1 + d1), the
  // Eqn. 5 H-matrix nesting, flattened over the D3-major enumeration the
  // reference interpreter uses.
  const std::int64_t n3 = m.level_product(HwLevel::D3);
  const std::int64_t n2 = m.level_product(HwLevel::D2);
  const std::int64_t n1 = m.level_product(HwLevel::D1);
  const std::vector<std::int64_t> d3 = level_digits(m, HwLevel::D3, n3);
  const std::vector<std::int64_t> d2 = level_digits(m, HwLevel::D2, n2);
  const std::vector<std::int64_t> d1 = level_digits(m, HwLevel::D1, n1);
  // sp_dig[k*S + sp]: raw combined spatial digit (before stride weighting).
  std::vector<std::int64_t> sp_dig(static_cast<std::size_t>(k) *
                                   static_cast<std::size_t>(tb.S));
  {
    std::int64_t sp = 0;
    for (std::int64_t i3 = 0; i3 < n3; ++i3)
      for (std::int64_t i2 = 0; i2 < n2; ++i2)
        for (std::int64_t i1 = 0; i1 < n1; ++i1, ++sp)
          for (int i = 0; i < k; ++i) {
            const auto iu = static_cast<std::size_t>(i);
            const std::int64_t dig =
                (d3[iu * static_cast<std::size_t>(n3) + static_cast<std::size_t>(i3)] *
                     m.tile(HwLevel::D2, i) +
                 d2[iu * static_cast<std::size_t>(n2) + static_cast<std::size_t>(i2)]) *
                    m.tile(HwLevel::D1, i) +
                d1[iu * static_cast<std::size_t>(n1) + static_cast<std::size_t>(i1)];
            sp_dig[iu * static_cast<std::size_t>(tb.S) + static_cast<std::size_t>(sp)] =
                dig;
          }
  }
  const std::vector<std::int64_t> x_dig = level_digits(m, HwLevel::X, tb.X);
  const std::vector<std::int64_t> l_dig = level_digits(m, HwLevel::L, tb.L);
  const std::vector<std::int64_t> t_dig = level_digits(m, HwLevel::T, tb.T);

  // Contribution tables: digit * positional weight within gidx_k.
  tb.xb.resize(x_dig.size());
  for (int i = 0; i < k; ++i) {
    const std::int64_t wgt = m.tile(HwLevel::L, i) * m.tile(HwLevel::T, i);
    for (std::int64_t s = 0; s < tb.X; ++s) {
      const auto idx = static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.X) +
                       static_cast<std::size_t>(s);
      tb.xb[idx] = x_dig[idx] * wgt;
    }
  }
  tb.lb.resize(l_dig.size());
  for (int i = 0; i < k; ++i) {
    const std::int64_t wgt = m.tile(HwLevel::T, i);
    for (std::int64_t s = 0; s < tb.L; ++s) {
      const auto idx = static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.L) +
                       static_cast<std::size_t>(s);
      tb.lb[idx] = l_dig[idx] * wgt;
    }
  }
  tb.td = t_dig;  // T-level digits carry weight 1

  // ---- vector-plan search over (layout, loop, kind) ---------------------
  // Pick the unit-coefficient loop with the longest contiguous sweep (see
  // the header): its X*L*T extent (sp_stride), times the spatial states
  // fused into it. Fusing an output loop takes its fused digit out of the
  // group key, so the block is the largest divisor of the spatial extent
  // that keeps at least as many groups as the layer can use as chunks:
  // kMinFusedGroups, fewer when the layer has fewer groups or too few
  // MACCs for that many chunks (a single-chunk layer fuses fully). Native
  // is scored first and a re-laid candidate must be strictly longer. Every
  // layer has a plan: native S is a Dot for every conv and depthwise layer
  // and native P an Axpy for every MM, so a sweep may be a single column.
  std::int64_t out_groups = 1;  // groups with every output digit keyed
  {
    const LayoutCoeffs native = layout_coeffs(w, layer, OperandLayout::Native);
    for (int i = 0; i < k; ++i)
      if (native.out[static_cast<std::size_t>(i)] != 0)
        out_groups *= tb.sp_ext[static_cast<std::size_t>(i)];
  }
  const std::int64_t min_groups =
      std::min({out_groups, kMinFusedGroups,
                std::max<std::int64_t>(1, layer.macs() / min_chunk_maccs)});
  std::vector<OperandLayout> layouts{OperandLayout::Native};
  if (w.kind != WorkloadKind::DepthwiseConv) {
    layouts.push_back(OperandLayout::OutChannelInner);
    layouts.push_back(OperandLayout::InChannelInner);
  }
  for (const OperandLayout layout : layouts) {
    const LayoutCoeffs lc = layout_coeffs(w, layer, layout);
    for (int i = 0; i < k; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      const EngineTables::PlanKind kind =
          plan_kind_of(lc.in[iu], lc.w[iu], lc.out[iu]);
      if (kind == EngineTables::PlanKind::None) continue;
      std::int64_t nb = tb.sp_ext[iu];
      while (lc.out[iu] != 0 && out_groups / nb < min_groups) {
        do --nb;
        while (tb.sp_ext[iu] % nb != 0);
      }
      const std::int64_t cols = nb * tb.sp_stride[iu];
      if (tb.plan_kind == EngineTables::PlanKind::None || cols > tb.cols) {
        tb.layout = layout;
        tb.plan_kind = kind;
        tb.col_loop = i;
        tb.block = nb;
        tb.cols = cols;
      }
    }
  }
  FTDL_ASSERT(tb.plan_kind != EngineTables::PlanKind::None);

  // ---- tensor-offset coefficients of the chosen layout -----------------
  const LayoutCoeffs coeffs = layout_coeffs(w, layer, tb.layout);
  const std::vector<std::int64_t>& cin = coeffs.in;
  const std::vector<std::int64_t>& cw = coeffs.w;
  const std::vector<std::int64_t>& cout = coeffs.out;
  tb.in_const = coeffs.in_const;
  std::vector<std::int64_t> cry(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> ccx(static_cast<std::size_t>(k), 0);
  if (w.kind == WorkloadKind::MatMul) {
    tb.free_loops = {w.loop_index('M'), w.loop_index('N'), w.loop_index('P')};
  } else {
    tb.conv = true;
    const auto iE = static_cast<std::size_t>(w.loop_index('E'));
    const auto iF = static_cast<std::size_t>(w.loop_index('F'));
    const auto iR = static_cast<std::size_t>(w.loop_index('R'));
    const auto iS = static_cast<std::size_t>(w.loop_index('S'));
    tb.in_h = layer.in_h;
    tb.in_w = layer.in_w;
    tb.conv_stride = layer.stride;
    tb.pad = layer.pad;
    cry[iE] = layer.stride;
    cry[iR] = 1;
    ccx[iF] = layer.stride;
    ccx[iS] = 1;
    tb.ry_const = -layer.pad;
    tb.cx_const = -layer.pad;

    if (w.kind != WorkloadKind::DepthwiseConv)
      tb.free_loops.push_back(w.loop_index('M'));
    tb.free_loops.push_back(w.loop_index('N'));
    tb.pairs.push_back({w.loop_index('E'), w.loop_index('R'), layer.in_h});
    tb.pairs.push_back({w.loop_index('F'), w.loop_index('S'), layer.in_w});
  }

  tb.c_in = cin;
  tb.c_w = cw;
  tb.c_out = cout;
  tb.reduction = 1;
  tb.out_elems = 1;
  for (int i = 0; i < k; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (cout[iu] == 0)
      tb.reduction *= tb.trip[iu];
    else
      tb.out_elems += cout[iu] * (tb.trip[iu] - 1);
  }
  if (tb.conv) {
    tb.c_ry = cry;
    tb.c_cx = ccx;
  }

  // ---- group-reordered spatial tables ----------------------------------
  // Group key: mixed radix over the OUTPUT-mapped loops' spatial digits.
  // Two valid iterations can only write the same output accumulator when
  // their output loops' digits agree at every level; grouping by the
  // spatial digits therefore makes groups pairwise write-disjoint within
  // any burst — the safety argument for the parallel fan-out. When ℓc's
  // spatial states fuse into the sweep (block > 1), only the high part of
  // its digit (digit / block) is keyed: a fused block must stay inside one
  // group, and for Axpy/AxpyW the low part only offsets the output within
  // the group's disjoint range. An unfused ℓc stays fully keyed, so
  // re-laying an output loop innermost never coarsens the fan-out. The
  // sort key extends the group key to a total mixed radix with the low
  // part of ℓc's digit innermost, so fused spatial states land adjacent
  // and in sweep order.
  const bool fused = tb.block > 1;
  // Appends (spatial digit of loop i / div) as a mixed-radix digit of
  // radix `ext` to every state's key.
  auto push_digit = [&](std::vector<std::int64_t>& acc, int i,
                        std::int64_t div, std::int64_t ext) {
    const std::int64_t* dig =
        sp_dig.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
    for (std::int64_t s = 0; s < tb.S; ++s) {
      auto& a = acc[static_cast<std::size_t>(s)];
      a = a * ext + (dig[s] / div) % ext;
    }
  };
  std::vector<std::int64_t> key(static_cast<std::size_t>(tb.S), 0);
  for (int i = 0; i < k; ++i) {
    if (cout[static_cast<std::size_t>(i)] == 0) continue;
    const std::int64_t ext = tb.sp_ext[static_cast<std::size_t>(i)];
    if (fused && i == tb.col_loop)
      push_digit(key, i, tb.block, ext / tb.block);
    else
      push_digit(key, i, 1, ext);
  }
  std::vector<std::int64_t> sort_key = key;
  if (fused) {
    for (int i = 0; i < k; ++i) {
      if (cout[static_cast<std::size_t>(i)] != 0) continue;
      const std::int64_t ext = tb.sp_ext[static_cast<std::size_t>(i)];
      if (i == tb.col_loop)
        push_digit(sort_key, i, tb.block, ext / tb.block);
      else
        push_digit(sort_key, i, 1, ext);
    }
    push_digit(sort_key, tb.col_loop, 1, tb.block);
  }
  std::vector<std::int64_t> perm(static_cast<std::size_t>(tb.S));
  std::iota(perm.begin(), perm.end(), std::int64_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return sort_key[static_cast<std::size_t>(a)] <
                            sort_key[static_cast<std::size_t>(b)];
                   });

  // Weighted spatial contributions, in permuted (group-major) order.
  tb.spd.resize(sp_dig.size());
  for (int i = 0; i < k; ++i) {
    const std::int64_t* dig =
        sp_dig.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
    std::int64_t* dst =
        tb.spd.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
    const std::int64_t str = tb.sp_stride[static_cast<std::size_t>(i)];
    for (std::int64_t s = 0; s < tb.S; ++s)
      dst[s] = dig[static_cast<std::size_t>(perm[static_cast<std::size_t>(s)])] * str;
  }
  auto permuted_project = [&](const std::vector<std::int64_t>& coeff) {
    std::vector<std::int64_t> out(static_cast<std::size_t>(tb.S), 0);
    for (int i = 0; i < k; ++i) {
      const std::int64_t c = coeff[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      const std::int64_t* src =
          tb.spd.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
      // spd already carries sp_stride; coefficients apply to gidx, whose
      // spatial part is exactly spd.
      for (std::int64_t s = 0; s < tb.S; ++s) out[static_cast<std::size_t>(s)] += c * src[s];
    }
    return out;
  };
  tb.in_sp = permuted_project(cin);
  tb.w_sp = permuted_project(cw);
  tb.out_sp = permuted_project(cout);
  if (tb.conv) {
    tb.ry_sp = permuted_project(cry);
    tb.cx_sp = permuted_project(ccx);
  }

  // Temporal projections (enumeration order; no reordering needed).
  tb.in_x = project(tb.xb, cin, tb.X);
  tb.w_x = project(tb.xb, cw, tb.X);
  tb.out_x = project(tb.xb, cout, tb.X);
  tb.in_l = project(tb.lb, cin, tb.L);
  tb.w_l = project(tb.lb, cw, tb.L);
  tb.out_l = project(tb.lb, cout, tb.L);
  tb.in_t = project(tb.td, cin, tb.T);
  tb.w_t = project(tb.td, cw, tb.T);
  tb.out_t = project(tb.td, cout, tb.T);
  if (tb.conv) {
    tb.ry_x = project(tb.xb, cry, tb.X);
    tb.cx_x = project(tb.xb, ccx, tb.X);
    tb.ry_l = project(tb.lb, cry, tb.L);
    tb.cx_l = project(tb.lb, ccx, tb.L);
    tb.ry_t = project(tb.td, cry, tb.T);
    tb.cx_t = project(tb.td, ccx, tb.T);
    tb.ry_t_max = *std::max_element(tb.ry_t.begin(), tb.ry_t.end());
    tb.cx_t_max = *std::max_element(tb.cx_t.begin(), tb.cx_t.end());
  }

  // ---- vector-plan verification and completion -------------------------
  const auto lcu = static_cast<std::size_t>(tb.col_loop);
  if (tb.block > 1) {
    // Verify the fused layout the innermost-ℓc sort was meant to produce:
    // every aligned block holds a single group-key value, constant digits
    // on every other loop, and ℓc's weighted digit sweeping base,
    // base + stride, base + 2*stride, ... — exactly the precondition for
    // gidx_ℓc advancing by 1 per column across the whole fused sweep.
    bool ok = tb.S % tb.block == 0;
    const std::int64_t* lcd = tb.spd.data() + lcu * static_cast<std::size_t>(tb.S);
    for (std::int64_t s0 = 0; ok && s0 < tb.S; s0 += tb.block) {
      for (std::int64_t j = 0; ok && j < tb.block; ++j) {
        const auto s = static_cast<std::size_t>(s0 + j);
        ok &= key[static_cast<std::size_t>(perm[s])] ==
              key[static_cast<std::size_t>(
                  perm[static_cast<std::size_t>(s0)])];
        ok &= lcd[s0 + j] == lcd[s0] + j * tb.sp_stride[lcu];
        for (int i = 0; ok && i < k; ++i) {
          if (i == tb.col_loop) continue;
          const std::int64_t* src =
              tb.spd.data() +
              static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
          ok &= src[s0 + j] == src[s0];
        }
      }
    }
    if (!ok) {
      tb.block = 1;
      tb.cols = tb.sp_stride[lcu];
    }
  }
  // Row loop: the largest remaining T tile, hoisted above the sweep with
  // constant per-row offset deltas.
  for (int i = 0; i < k; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (i == tb.col_loop || tb.t_ext[iu] <= 1) continue;
    if (tb.row_loop < 0 || tb.t_ext[iu] > tb.rows) {
      tb.row_loop = i;
      tb.rows = tb.t_ext[iu];
    }
  }
  if (tb.row_loop >= 0) {
    const auto lru = static_cast<std::size_t>(tb.row_loop);
    tb.row_din = cin[lru];
    tb.row_dw = cw[lru];
    tb.row_dout = cout[lru];
    if (tb.conv) {
      tb.row_dry = cry[lru];
      tb.row_dcx = ccx[lru];
    }
  }
  tb.col_din = cin[lcu];
  tb.col_dw = cw[lcu];
  tb.col_dout = cout[lcu];
  if (tb.conv) {
    tb.col_dry = cry[lcu];
    tb.col_dcx = ccx[lcu];
  }
  // T states with the ℓc/ℓr digits zero: (t0, row, col) then enumerates
  // every (spatial-in-block, X/L digits of ℓc, t) iteration exactly once.
  for (std::int64_t t = 0; t < tb.T; ++t) {
    if (tb.td[lcu * static_cast<std::size_t>(tb.T) +
              static_cast<std::size_t>(t)] != 0)
      continue;
    if (tb.row_loop >= 0 &&
        tb.td[static_cast<std::size_t>(tb.row_loop) *
                  static_cast<std::size_t>(tb.T) +
              static_cast<std::size_t>(t)] != 0)
      continue;
    tb.plan_t0.push_back(t);
  }
  // Dense-block bounds: the sweep covers cols gidx steps of ℓc and the T
  // tile of every other loop; image coordinates grow with every index.
  tb.sweep_ext = tb.t_ext;
  tb.sweep_ext[lcu] = tb.cols;
  if (tb.conv) {
    tb.ry_sweep_max = tb.ry_t_max + tb.col_dry * (tb.cols - tb.t_ext[lcu]);
    tb.cx_sweep_max = tb.cx_t_max + tb.col_dcx * (tb.cols - tb.t_ext[lcu]);
  }
  // X/L states of the burst loop: ℓc's X and L digits run inside the sweep.
  auto burst_states = [&](const std::vector<std::int64_t>& dig,
                          std::int64_t states) {
    std::vector<std::int64_t> out;
    for (std::int64_t s = 0; s < states; ++s) {
      if (dig[lcu * static_cast<std::size_t>(states) +
              static_cast<std::size_t>(s)] == 0)
        out.push_back(s);
    }
    return out;
  };
  tb.burst_x = burst_states(x_dig, tb.X);
  tb.burst_l = burst_states(l_dig, tb.L);

  // ---- chunks: contiguous runs of whole groups -------------------------
  std::vector<std::int64_t> group_start;  // first permuted index per group
  for (std::int64_t s = 0; s < tb.S; ++s) {
    if (s == 0 || key[static_cast<std::size_t>(perm[static_cast<std::size_t>(s)])] !=
                      key[static_cast<std::size_t>(perm[static_cast<std::size_t>(s - 1)])])
      group_start.push_back(s);
  }
  const std::int64_t n_groups = static_cast<std::int64_t>(group_start.size());
  tb.groups = n_groups;
  tb.valid_maccs = count_valid_maccs(tb);
  const std::int64_t n_chunks = std::max<std::int64_t>(
      1, std::min({n_groups, std::int64_t{max_chunks},
                   tb.valid_maccs / min_chunk_maccs}));
  for (std::int64_t c = 0; c < n_chunks; ++c) {
    const std::int64_t g0 = c * n_groups / n_chunks;
    const std::int64_t g1 = (c + 1) * n_groups / n_chunks;
    if (g0 == g1) continue;
    EngineTables::Chunk ch;
    ch.begin = group_start[static_cast<std::size_t>(g0)];
    ch.end = g1 < n_groups ? group_start[static_cast<std::size_t>(g1)] : tb.S;
    tb.chunks.push_back(ch);
  }
  return tb;
}

namespace {

/// Per-(x, l) burst state shared by the plan kernel and the stats-only
/// counter.
struct BurstBases {
  std::array<std::int64_t, kMaxLoops> base{};  ///< per-loop (x, l) offset
  std::int64_t in_b = 0, w_b = 0, out_b = 0;
  std::int64_t ry_b = 0, cx_b = 0;
};

BurstBases burst_bases(const EngineTables& tb, std::int64_t x, std::int64_t l) {
  BurstBases b;
  for (int i = 0; i < tb.k; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    b.base[iu] = tb.xb[iu * static_cast<std::size_t>(tb.X) + static_cast<std::size_t>(x)] +
                 tb.lb[iu * static_cast<std::size_t>(tb.L) + static_cast<std::size_t>(l)];
  }
  b.in_b = tb.in_const + tb.in_x[static_cast<std::size_t>(x)] +
           tb.in_l[static_cast<std::size_t>(l)];
  b.w_b = tb.w_x[static_cast<std::size_t>(x)] + tb.w_l[static_cast<std::size_t>(l)];
  b.out_b = tb.out_x[static_cast<std::size_t>(x)] + tb.out_l[static_cast<std::size_t>(l)];
  if (tb.conv) {
    b.ry_b = tb.ry_const + tb.ry_x[static_cast<std::size_t>(x)] +
             tb.ry_l[static_cast<std::size_t>(l)];
    b.cx_b = tb.cx_const + tb.cx_x[static_cast<std::size_t>(x)] +
             tb.cx_l[static_cast<std::size_t>(l)];
  }
  return b;
}

using PK = EngineTables::PlanKind;

/// Accumulator element of a plan kernel's output: int32 scratch on a narrow
/// Axpy/AxpyW run, the caller's int64 accumulators otherwise (a narrow Dot
/// keeps its int32 sum in registers for one sweep).
template <PK K, bool Narrow>
using Acc = std::conditional_t<Narrow && K != PK::Dot, std::int32_t, acc_t>;

/// One contiguous sweep of n MACCs under plan kind K (header docs): the
/// only place the plan kinds and accumulation widths differ.
template <PK K, bool Narrow>
inline void sweep(const std::int16_t* weights, const std::int16_t* input,
                  Acc<K, Narrow>* out, std::int64_t i0, std::int64_t w0,
                  std::int64_t o0, std::int64_t n) {
  if constexpr (K == PK::Dot) {
    out[o0] += Narrow ? simd::dot_i16_narrow(weights + w0, input + i0, n)
                      : simd::dot_i16(weights + w0, input + i0, n);
  } else if constexpr (Narrow) {
    if constexpr (K == PK::Axpy)
      simd::axpy_i16_narrow(out + o0, input + i0, weights[w0], n);
    else
      simd::axpy_i16_narrow(out + o0, weights + w0, input[i0], n);
  } else if constexpr (K == PK::Axpy) {
    simd::axpy_i16(out + o0, input + i0, weights[w0], n);
  } else {
    static_assert(K == PK::AxpyW);
    simd::axpy_i16(out + o0, weights + w0, input[i0], n);
  }
}

/// Clips the column slice [clo, chi) of a sweep to the columns whose image
/// coordinate p0 + j*d (d >= 0) lies in [0, bound): a unit step needs no
/// division. Returns false when a constant coordinate (d == 0) is outside.
inline bool clip_image(std::int64_t p0, std::int64_t d, std::int64_t bound,
                       std::int64_t& clo, std::int64_t& chi) {
  if (d == 0) return p0 >= 0 && p0 < bound;
  if (d == 1) {
    clo = std::max(clo, -p0);
    chi = std::min(chi, bound - p0);
  } else {
    if (p0 < 0) clo = std::max(clo, ceil_div(-p0, d));
    chi = std::min(chi, ceil_div(bound - p0, d));
  }
  return true;
}

/// The functional kernel under a vector plan: per fused block, every
/// (t0, row) slice is one contiguous sweep of up to tb.cols MACCs handed to
/// the runtime-dispatched SIMD kernels. Density is decided per block: an
/// interior block runs the branch-free row x column loop; an edge block
/// clips each sweep — the trip clip on ℓc is one contiguous [0, chi) slice
/// (gidx_ℓc advances by 1 per column), the row clip bounds ℓr and the conv
/// image clip is one [clo, chi) interval per axis, computed once per t0
/// when the row loop does not move the image coordinates. Returns the
/// number of valid MACCs executed.
template <PK K, bool Narrow>
std::int64_t burst_plan(const EngineTables& tb, const BurstBases& b,
                        std::int64_t begin, std::int64_t end,
                        const std::int16_t* FTDL_RESTRICT weights,
                        const std::int16_t* FTDL_RESTRICT input,
                        Acc<K, Narrow>* out) {
  const int k = tb.k;
  const std::int64_t S = tb.S;
  const auto lcu = static_cast<std::size_t>(tb.col_loop);
  const std::int64_t cols = tb.cols;
  const std::int64_t rows = tb.rows;
  const bool row_moves_image = tb.row_dry != 0 || tb.row_dcx != 0;
  const std::int64_t dense_maccs =
      static_cast<std::int64_t>(tb.plan_t0.size()) * rows * cols;
  std::int64_t valid = 0;
  std::array<std::int64_t, kMaxLoops> slack{};
  for (std::int64_t s0 = begin; s0 < end; s0 += tb.block) {
    // Per-loop digit headroom at the block start: a digit d_i past it is
    // in-trip iff d_i < slack_i. Within the block only ℓc's index moves,
    // by one per column.
    bool dead = false;
    bool dense = true;
    for (int i = 0; i < k; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      slack[iu] =
          tb.trip[iu] - b.base[iu] -
          tb.spd[iu * static_cast<std::size_t>(S) + static_cast<std::size_t>(s0)];
      dead |= slack[iu] <= 0;
      dense &= slack[iu] >= tb.sweep_ext[iu];
    }
    if (dead) continue;  // digit 0 already spills: nothing valid
    const std::int64_t in_s = b.in_b + tb.in_sp[static_cast<std::size_t>(s0)];
    const std::int64_t w_s = b.w_b + tb.w_sp[static_cast<std::size_t>(s0)];
    const std::int64_t out_s = b.out_b + tb.out_sp[static_cast<std::size_t>(s0)];
    const std::int64_t ry_s =
        tb.conv ? b.ry_b + tb.ry_sp[static_cast<std::size_t>(s0)] : 0;
    const std::int64_t cx_s =
        tb.conv ? b.cx_b + tb.cx_sp[static_cast<std::size_t>(s0)] : 0;
    if (tb.conv) {
      dense &= ry_s >= 0 && ry_s + tb.ry_sweep_max < tb.in_h && cx_s >= 0 &&
               cx_s + tb.cx_sweep_max < tb.in_w;
    }
    if (dense) {
      for (const std::int64_t t0 : tb.plan_t0) {
        const auto t0u = static_cast<std::size_t>(t0);
        std::int64_t i0 = in_s + tb.in_t[t0u];
        std::int64_t w0 = w_s + tb.w_t[t0u];
        std::int64_t o0 = out_s + tb.out_t[t0u];
        for (std::int64_t r = 0; r < rows;
             ++r, i0 += tb.row_din, w0 += tb.row_dw, o0 += tb.row_dout)
          sweep<K, Narrow>(weights, input, out, i0, w0, o0, cols);
      }
      valid += dense_maccs;
      continue;
    }
    const std::int64_t chi_all = std::min(cols, slack[lcu]);
    for (const std::int64_t t0 : tb.plan_t0) {
      const auto t0u = static_cast<std::size_t>(t0);
      // Constant digits of this t0 (the ℓc/ℓr digits are 0 by plan_t0
      // construction, so their checks are vacuous given slack > 0).
      bool ok = true;
      for (int i = 0; i < k; ++i) {
        const auto iu = static_cast<std::size_t>(i);
        ok &= tb.td[iu * static_cast<std::size_t>(tb.T) + t0u] < slack[iu];
      }
      if (!ok) continue;
      std::int64_t rhi = rows;
      if (tb.row_loop >= 0)
        rhi = std::min(rhi, slack[static_cast<std::size_t>(tb.row_loop)]);
      std::int64_t i0 = in_s + tb.in_t[t0u];
      std::int64_t w0 = w_s + tb.w_t[t0u];
      std::int64_t o0 = out_s + tb.out_t[t0u];
      std::int64_t ry0 = tb.conv ? ry_s + tb.ry_t[t0u] : 0;
      std::int64_t cx0 = tb.conv ? cx_s + tb.cx_t[t0u] : 0;
      // Image clipping: per column at most one of ry/cx varies (ℓc is a
      // single workload loop); the other is column-constant and checked
      // outright.
      std::int64_t clo = 0;
      std::int64_t chi = chi_all;
      if (tb.conv && !row_moves_image &&
          !(clip_image(ry0, tb.col_dry, tb.in_h, clo, chi) &&
            clip_image(cx0, tb.col_dcx, tb.in_w, clo, chi)))
        continue;
      for (std::int64_t r = 0; r < rhi;
           ++r, i0 += tb.row_din, w0 += tb.row_dw, o0 += tb.row_dout,
                ry0 += tb.row_dry, cx0 += tb.row_dcx) {
        std::int64_t lo = clo;
        std::int64_t hi = chi;
        if (tb.conv && row_moves_image &&
            !(clip_image(ry0, tb.col_dry, tb.in_h, lo, hi) &&
              clip_image(cx0, tb.col_dcx, tb.in_w, lo, hi)))
          continue;
        if (hi <= lo) continue;
        sweep<K, Narrow>(weights, input, out, i0 + lo * tb.col_din,
                         w0 + lo * tb.col_dw, o0 + lo * tb.col_dout, hi - lo);
        valid += hi - lo;
      }
    }
  }
  return valid;
}

/// Every burst (x, l) tile of one chunk under plan kind K.
template <PK K, bool Narrow>
std::int64_t chunk_plan(const EngineTables& tb, const EngineTables::Chunk& c,
                        const std::int16_t* weights, const std::int16_t* input,
                        Acc<K, Narrow>* out) {
  std::int64_t v = 0;
  for (const std::int64_t x : tb.burst_x)
    for (const std::int64_t l : tb.burst_l)
      v += burst_plan<K, Narrow>(tb, burst_bases(tb, x, l), c.begin, c.end,
                                 weights, input, out);
  return v;
}

/// Every chunk of the plan, fanned across `pool` when it has workers.
template <PK K, bool Narrow>
std::int64_t run_plan(const EngineTables& tb, const std::int16_t* weights,
                      const std::int16_t* input, Acc<K, Narrow>* out,
                      ThreadPool* pool) {
  auto run_chunk = [&](std::size_t ci) {
    return chunk_plan<K, Narrow>(tb, tb.chunks[ci], weights, input, out);
  };
  const std::size_t n_chunks = tb.chunks.size();
  if (pool != nullptr && pool->jobs() > 1 && n_chunks > 1) {
    std::vector<std::int64_t> valid(n_chunks, 0);
    pool->parallel_for(n_chunks,
                       [&](std::size_t ci) { valid[ci] = run_chunk(ci); });
    // Deterministic (and associative-integer) merge.
    std::int64_t total = 0;
    for (std::int64_t v : valid) total += v;
    return total;
  }
  // Serial path stays heap-free: it runs inside the serving steady state,
  // where per-request allocations are pinned to zero.
  std::int64_t total = 0;
  for (std::size_t ci = 0; ci < n_chunks; ++ci) total += run_chunk(ci);
  return total;
}

}  // namespace

std::int32_t max_abs(const std::int16_t* v, std::int64_t n) {
  MagnitudeBound bound;
  for (std::int64_t j = 0; j < n; ++j) bound.add(v[j]);
  return bound.value();
}

bool narrow_accumulation_proven(const EngineTables& tb, std::int32_t max_w,
                                std::int32_t max_in) {
  FTDL_ASSERT(tb.plan_kind != PK::None && max_w >= 0 && max_in >= 0);
  const std::int64_t terms = tb.plan_kind == PK::Dot ? tb.cols : tb.reduction;
  const std::int64_t product = std::int64_t{max_w} * max_in;  // <= 2^30
  constexpr std::int64_t kInt32Max = (std::int64_t{1} << 31) - 1;
  return product == 0 || terms <= kInt32Max / product;
}

std::int64_t run_functional(const EngineTables& tb, const std::int16_t* weights,
                            const std::int16_t* input, acc_t* out,
                            ThreadPool* pool, bool narrow) {
  FTDL_ASSERT(tb.plan_kind != PK::None);
  if (tb.plan_kind == PK::Dot) {
    return narrow ? run_plan<PK::Dot, true>(tb, weights, input, out, pool)
                  : run_plan<PK::Dot, false>(tb, weights, input, out, pool);
  }
  const bool axpy = tb.plan_kind == PK::Axpy;
  if (!narrow) {
    return axpy ? run_plan<PK::Axpy, false>(tb, weights, input, out, pool)
                : run_plan<PK::AxpyW, false>(tb, weights, input, out, pool);
  }
  // Narrow Axpy/AxpyW: every output's whole reduction stays in int32
  // scratch (zeroed, pooled under an installed arena), widened once here.
  ArenaVec<std::int32_t> acc(tb.out_elems);
  const std::int64_t valid =
      axpy ? run_plan<PK::Axpy, true>(tb, weights, input, acc.data(), pool)
           : run_plan<PK::AxpyW, true>(tb, weights, input, acc.data(), pool);
  for (std::int64_t i = 0; i < tb.out_elems; ++i)
    out[i] += acc[static_cast<std::size_t>(i)];
  return valid;
}

std::int64_t count_valid_maccs(const EngineTables& tb) {
  // Full-space image-coordinate ranges of the spatial states, for the
  // dense shortcut.
  std::int64_t ry_lo = 0, ry_hi = 0, cx_lo = 0, cx_hi = 0;
  if (tb.conv) {
    const auto ry = std::minmax_element(tb.ry_sp.begin(), tb.ry_sp.end());
    const auto cx = std::minmax_element(tb.cx_sp.begin(), tb.cx_sp.end());
    ry_lo = *ry.first;
    ry_hi = *ry.second;
    cx_lo = *cx.first;
    cx_hi = *cx.second;
  }
  // True when every (spatial, t) iteration of the burst is in-trip and
  // (conv) inside the input image.
  auto burst_is_dense = [&](const BurstBases& b) {
    for (int i = 0; i < tb.k; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (b.base[iu] + (tb.sp_ext[iu] - 1) * tb.sp_stride[iu] +
              tb.t_ext[iu] - 1 >=
          tb.trip[iu])
        return false;
    }
    return !tb.conv ||
           (b.ry_b + ry_lo >= 0 && b.ry_b + ry_hi + tb.ry_t_max < tb.in_h &&
            b.cx_b + cx_lo >= 0 && b.cx_b + cx_hi + tb.cx_t_max < tb.in_w);
  };

  std::int64_t total = 0;
  for (std::int64_t x = 0; x < tb.X; ++x) {
    for (std::int64_t l = 0; l < tb.L; ++l) {
      const BurstBases b = burst_bases(tb, x, l);
      if (burst_is_dense(b)) {
        total += tb.S * tb.T;
        continue;
      }
      // The burst iteration space is the cross product over loops of their
      // (spatial digit, t digit) pairs, so the valid count factorizes into
      // per-loop counts — with the (E, R) and (F, S) image-bound couplings
      // counted pairwise.
      std::int64_t burst = 1;
      for (int idx : tb.free_loops) {
        const auto iu = static_cast<std::size_t>(idx);
        std::int64_t cnt = 0;
        for (std::int64_t i = 0; i < tb.sp_ext[iu] && burst != 0; ++i) {
          const std::int64_t v0 = b.base[iu] + i * tb.sp_stride[iu];
          cnt += std::clamp<std::int64_t>(tb.trip[iu] - v0, 0, tb.t_ext[iu]);
        }
        burst *= cnt;
        if (burst == 0) break;
      }
      for (std::size_t p = 0; p < tb.pairs.size() && burst != 0; ++p) {
        const EngineTables::CoupledPair& cp = tb.pairs[p];
        const auto ie = static_cast<std::size_t>(cp.outer);
        const auto ir = static_cast<std::size_t>(cp.kernel);
        std::int64_t cnt = 0;
        for (std::int64_t i = 0; i < tb.sp_ext[ie]; ++i) {
          for (std::int64_t j = 0; j < tb.t_ext[ie]; ++j) {
            const std::int64_t v = b.base[ie] + i * tb.sp_stride[ie] + j;
            if (v >= tb.trip[ie]) break;  // j ascending: rest of block too
            // Kernel index range keeping the image coordinate in
            // [0, bound): r in [pad - stride*v, pad + bound - stride*v).
            const std::int64_t lo = tb.pad - tb.conv_stride * v;
            const std::int64_t hi =
                std::min(tb.trip[ir], tb.pad + cp.bound - tb.conv_stride * v);
            for (std::int64_t i2 = 0; i2 < tb.sp_ext[ir]; ++i2) {
              const std::int64_t b0 = b.base[ir] + i2 * tb.sp_stride[ir];
              const std::int64_t lo2 = std::max(b0, lo);
              const std::int64_t hi2 =
                  std::min({b0 + tb.t_ext[ir], hi, tb.trip[ir]});
              if (hi2 > lo2) cnt += hi2 - lo2;
            }
          }
        }
        burst *= cnt;
      }
      total += burst;
    }
  }
  return total;
}

}  // namespace ftdl::sim::detail
