// Internal engine of the fast cycle-level simulator (ftdl_sim.cpp).
//
// The reference interpreter in ftdl_sim.cpp re-derives the full Eqn. 2
// index nest per padded MACC; this layer replaces that arithmetic with
// tables computed once per layer:
//
//   * every workload loop's global index decomposes positionally over the
//     hardware levels, gidx_k = sp_k*(TX*TL*TT)_k + (x_k*TL_k + l_k)*TT_k
//     + t_k, so the per-state contributions of each level are precomputed
//     into flat digit arrays (the spatial levels D3/D2/D1 flatten into one
//     contiguous array instead of enumerate_spatial's vector-per-TPE);
//   * the flat tensor offsets (weight / activation / output) are linear in
//     the global loop indices, so they decompose into per-level
//     contribution arrays too — the inner loop is lookups and adds only;
//   * the engine is layout-aware: per layer it picks the operand layouts
//     (OperandLayout in ftdl_sim.h) that make the longest T-tile loop
//     unit-stride — native CHW/OIHW, output channels innermost (weights
//     [N,R,S,M], accumulators [E,F,M]) or input channels innermost
//     (activations HWC, weights [M,R,S,N]) — the way the overlay's
//     datapath follows the layout its compiler chose. The coefficient
//     vectors below are those of the chosen layout; ftdl_sim.cpp re-lays
//     the operands (simulate_layer per call, CachedLayerSim once for its
//     weights). Memory rule: cached weights are copied once, straight into
//     the engine layout and kept by their runner — never a
//     reference-layout copy beside them — and per-run scratch (an HWC
//     input) comes from the installed TensorArena;
//   * one kernel runs every layer, under a *vector plan* (EngineTables docs
//     below): a unit-coefficient column loop — its X, L and T digits, fused
//     with its spatial digits when possible — turns the inner sweep into
//     one contiguous dot/axpy fed to the runtime-dispatched SIMD kernels of
//     common/simd.h, with the scalar oracles as the exactness baseline.
//     Every layer has such a loop, so a plan always exists; its sweep may
//     be a single column. Density is decided per fused block by interval
//     arithmetic on the precomputed digit ranges: a block whose whole
//     sweep is in-trip and free of pad clipping runs branch-free, the
//     others clip each sweep;
//   * accumulation width is proven per run: with max|w| known from the
//     weights and max|in| from one scan of the input, a run whose int32
//     accumulators provably cannot wrap (narrow_accumulation_proven) takes
//     the narrow int32 kernels of common/simd.h — 8 lanes per AVX2 vector
//     instead of 4 — and every other run the exact int64 ones. Both give
//     the same bits; obs counts the choice (sim/narrow_layer_runs,
//     sim/exact_layer_runs);
//   * the spatial states are regrouped by their output-projection digits
//     (the loops with a non-zero output-offset coefficient), so each group
//     writes a disjoint set of output accumulators — the unit of parallel
//     fan-out across the ThreadPool, deterministic at any jobs count;
//   * the same interval arithmetic counts valid MACCs per burst without
//     touching tensors — the stats-only path (SimOptions::functional =
//     false).
//
// Everything here is deterministic and bit-identical to the reference
// interpreter (pinned by tests/test_sim_engine.cpp). Internal header: only
// ftdl_sim.cpp and the tests include it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/fixed_point.h"
#include "common/thread_pool.h"
#include "compiler/codegen.h"
#include "sim/ftdl_sim.h"

namespace ftdl::sim::detail {

/// Per-layer precomputed index/offset tables (see file comment).
struct EngineTables {
  int k = 0;  ///< workload loop count (3 for MM, 5/6 for conv)

  // Level state counts: spatial (D3*D2*D1 combined), T, X, L trip products.
  std::int64_t S = 0, T = 0, X = 0, L = 0;

  // Per-loop geometry.
  std::vector<std::int64_t> trip;     ///< workload trip counts W_k
  std::vector<std::int64_t> sp_ext;   ///< spatial extent per loop (D3*D2*D1)
  std::vector<std::int64_t> t_ext;    ///< T-level tile per loop
  std::vector<std::int64_t> sp_stride;  ///< (TX*TL*TT)_k: weight of one
                                        ///< spatial digit in gidx_k

  // Digit-contribution tables, k-major and contiguous:
  //   gidx_k(sp, x, l, t) = spd[k*S+sp] + xb[k*X+x] + lb[k*L+l] + td[k*T+t]
  std::vector<std::int64_t> spd;  ///< k*S: spatial digit * sp_stride_k
  std::vector<std::int64_t> xb;   ///< k*X: x digit * (TL*TT)_k
  std::vector<std::int64_t> lb;   ///< k*L: l digit * TT_k
  std::vector<std::int64_t> td;   ///< k*T: t digit

  // Flat tensor-offset contributions (sum of coeff_k * digit contribution
  // over all loops): offset = const + _sp[sp] + _x[x] + _l[l] + _t[t].
  std::int64_t in_const = 0;  ///< conv: -pad*in_w - pad (times in_c, HWC)
  std::vector<std::int64_t> in_sp, w_sp, out_sp;  ///< length S
  std::vector<std::int64_t> in_x, w_x, out_x;     ///< length X
  std::vector<std::int64_t> in_l, w_l, out_l;     ///< length L
  std::vector<std::int64_t> in_t, w_t, out_t;     ///< length T

  // Tensor-offset coefficients per workload loop, in gidx space: one unit
  // step of gidx_k moves the input / weight / output offsets by
  // c_in/c_w/c_out[k] (and the conv image row/col by c_ry/c_cx[k]).
  std::vector<std::int64_t> c_in, c_w, c_out;
  std::vector<std::int64_t> c_ry, c_cx;  ///< conv only

  // ---- vector plan ------------------------------------------------------
  // The kernel sweeps one *column loop* ℓc whose unit coefficients make
  // consecutive gidx steps contiguous in memory, so a whole sweep feeds one
  // SIMD kernel (common/simd.h):
  //   Dot   (c_in=1, c_w=1, c_out=0): reduction — the sweep folds into a
  //         single accumulator via simd::dot_i16;
  //   Axpy  (c_in=1, c_w=0, c_out=1): broadcast weight — the input streams
  //         into consecutive accumulators via simd::axpy_i16;
  //   AxpyW (c_in=0, c_w=1, c_out=1): broadcast input — the same
  //         simd::axpy_i16 with the operand roles swapped, the weights
  //         streaming (output channels innermost).
  // The search scores every (layout, loop, kind) candidate through one
  // code path, on the coefficient vectors the layout implies, and keeps the
  // longest sweep; a re-laid candidate must be strictly longer than the
  // best native one. Native S is a Dot for every conv and depthwise layer
  // and native P an Axpy for every MM, so every layer gets a plan, if need
  // be a 1-column one (X, L and T tiles of ℓc all 1). The column sweep
  // spans ℓc's X, L and T digits: inside one spatial state
  // gidx_ℓc = sp*sp_stride + (x*TL + l)*TT + t is contiguous, so one
  // sweep covers sp_stride[ℓc] steps and the burst loop visits only the
  // X/L states whose ℓc digits are zero (burst_x, burst_l). Consecutive spatial digits continue the same index, so
  // `block` spatial states fuse into one sweep of `cols` steps. For an
  // output loop the block is the largest divisor of its spatial extent
  // leaving as many groups as the layer can use as chunks —
  // kMinFusedGroups, capped by the layer's MACCs / min_chunk_maccs (see
  // Chunk) — so a single-chunk layer fuses fully. The group permutation
  // sorts the low part of ℓc's spatial digit (digit % block) innermost
  // (full mixed-radix key) to make those states adjacent; build_tables
  // verifies the fused digit layout and falls back to block=1 if it does
  // not hold. The *row loop* ℓr (largest remaining T tile) is hoisted above
  // the sweep with constant per-row deltas; plan_t0 lists the T states
  // where both ℓc's and ℓr's digits are zero, so (burst x/l, t0, row, col)
  // enumerates every (x, l, spatial-in-block, t) iteration exactly once.
  // The kernel checks density per block: a block whose whole sweep is
  // in-trip and inside the image (sweep_ext, ry/cx_sweep_max) runs the
  // branch-free row x column loop, the others clip each sweep. Integer
  // accumulation is exact and associative, so the reordered/reassociated
  // sums stay bit-identical to the reference interpreter (and the SIMD
  // kernels are bit-identical to their scalar oracles by construction).
  enum class PlanKind : std::uint8_t { None, Dot, Axpy, AxpyW };
  OperandLayout layout = OperandLayout::Native;  ///< operand layouts the
                                                 ///< coefficients describe
  PlanKind plan_kind = PlanKind::None;  ///< None only before build_tables
  int col_loop = -1;       ///< ℓc
  std::int64_t block = 1;  ///< spatial states fused into one column sweep
  std::int64_t cols = 1;   ///< sweep length = block * sp_stride[col_loop]
  int row_loop = -1;       ///< ℓr (-1: single row)
  std::int64_t rows = 1;
  std::int64_t row_din = 0, row_dw = 0, row_dout = 0;
  std::int64_t row_dry = 0, row_dcx = 0;  ///< conv only
  std::int64_t col_din = 0, col_dw = 0, col_dout = 0;  ///< 0 or 1 per kind
  std::int64_t col_dry = 0, col_dcx = 0;  ///< conv only
  std::vector<std::int64_t> plan_t0;  ///< T states with ℓc/ℓr digits zero
  /// X / L states the burst loop visits: those whose ℓc digit is zero
  /// (the sweep covers the rest).
  std::vector<std::int64_t> burst_x, burst_l;
  /// Per loop, the gidx extent one block's sweep covers past its start:
  /// cols for ℓc, the T tile for the others (dense-block check).
  std::vector<std::int64_t> sweep_ext;
  /// Conv: the largest image row / col offset inside one block's sweep.
  std::int64_t ry_sweep_max = 0, cx_sweep_max = 0;

  // Conv-only: input row/col indices, y = stride*E + R - pad and
  // xc = stride*F + S - pad, decomposed the same way. Empty for MM.
  bool conv = false;
  std::int64_t in_h = 0, in_w = 0;
  std::int64_t ry_const = 0, cx_const = 0;  ///< -pad
  std::vector<std::int64_t> ry_sp, ry_x, ry_l, ry_t;
  std::vector<std::int64_t> cx_sp, cx_x, cx_l, cx_t;
  std::int64_t ry_t_max = 0, cx_t_max = 0;  ///< max over t of ry_t / cx_t

  /// Valid MACCs of one functional pass (count_valid_maccs), computed once
  /// here because it sizes the chunk count.
  std::int64_t valid_maccs = 0;

  /// Per-output reduction length: the trip product of the loops that do
  /// not move the output (conv in_c*kh*kw, depthwise kh*kw, MM mm_m).
  std::int64_t reduction = 0;
  /// Output accumulators the plan writes (max output offset + 1).
  std::int64_t out_elems = 0;

  /// A contiguous range [begin, end) of the (group-reordered) spatial
  /// arrays whose output accumulators are disjoint from every other
  /// chunk's — the unit of parallel work. Groups: states agreeing on the
  /// spatial digits of every output loop, with only ℓc's high part
  /// (digit / block) keyed when its states are fused into the sweep
  /// (block > 1: a fused block must stay in one group). Keying unfused ℓc
  /// digits keeps the fan-out as fine as the native layout's. Chunk
  /// count: at most max_chunks, at most one per group, and at least
  /// min_chunk_maccs (kMinChunkMaccs) valid MACCs per chunk, so small
  /// layers run as one inline chunk and never touch the pool.
  struct Chunk {
    std::int64_t begin = 0, end = 0;
  };
  std::vector<Chunk> chunks;
  std::int64_t groups = 0;  ///< write-disjoint groups (>= chunks.size())

  // Stats-only helpers: loops free of pad coupling, and the coupled
  // (index loop, kernel loop, bound) pairs — (E, R, in_h) and (F, S, in_w)
  // for conv, none for MM.
  std::vector<int> free_loops;
  struct CoupledPair {
    int outer = 0;   ///< E or F
    int kernel = 0;  ///< R or S
    std::int64_t bound = 0;  ///< in_h / in_w
  };
  std::vector<CoupledPair> pairs;
  std::int64_t conv_stride = 1, pad = 0;
};

/// Floor on the valid MACCs of one parallel chunk: below it the pool's
/// hand-off costs more than the work it spreads.
constexpr std::int64_t kMinChunkMaccs = std::int64_t{1} << 20;

/// Floor on the group count a fused output-loop sweep may leave (see the
/// plan docs): enough chunks to balance a pool of a few workers. Layers
/// too small for that many chunks keep only as many groups as they have
/// chunks' worth of MACCs.
constexpr std::int64_t kMinFusedGroups = 16;

/// Builds the tables for one compiled layer, choosing its operand layout
/// and vector plan. `max_chunks` and `min_chunk_maccs` bound the parallel
/// fan-out granularity (chunk boundaries never split an output-projection
/// group, so any values are deterministic-safe; tests lower the floor to
/// fan small layers out).
EngineTables build_tables(const compiler::LayerProgram& program,
                          int max_chunks = 64,
                          std::int64_t min_chunk_maccs = kMinChunkMaccs);

/// Running max|v| over int16 values (32768 for -32768, 0 for none). The
/// separate min/max folds vectorize without widening.
struct MagnitudeBound {
  std::int16_t lo = 0, hi = 0;
  void add(std::int16_t v) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::int32_t value() const {
    return std::max<std::int32_t>(hi, -std::int32_t{lo});
  }
};

/// max|v[j]| over j in [0, n).
std::int32_t max_abs(const std::int16_t* v, std::int64_t n);

/// The range proof of the narrow accumulation path, given bounds on the
/// magnitude of every weight (max_w) and input (max_in) of one run. Each
/// int32 accumulator of the narrow kernels sums at most `n` products:
///   Dot         n = tables.cols — one sweep, in registers, widened into
///               its int64 output right after;
///   Axpy/AxpyW  n = tables.reduction — an output's whole reduction, kept
///               in int32 scratch for the run.
/// No partial sum can then leave int32 when n * max_w * max_in < 2^31.
bool narrow_accumulation_proven(const EngineTables& tables,
                                std::int32_t max_w, std::int32_t max_in);

/// Runs the plan kernel over every burst (x, l) tile — branch-free on
/// interior blocks, clipped on edge ones — fanned across `pool` (nullptr,
/// jobs()==1 or a single chunk runs serially on the caller).
/// `weights`, `input` and `out` are in tables.layout (the caller re-lays
/// them); `out` is zero-initialized by the caller. `narrow` selects the
/// int32 kernels and may be set only when narrow_accumulation_proven holds
/// for this run's operands; an Axpy/AxpyW plan then accumulates into
/// int32 scratch drawn from the installed TensorArena and widens it into
/// `out` at the end. Returns the number of valid MACCs executed. Output
/// writes are chunk-disjoint, so the result is bit-identical at any jobs
/// count, and on either accumulation width.
std::int64_t run_functional(const EngineTables& tables,
                            const std::int16_t* weights,
                            const std::int16_t* input, acc_t* out,
                            ThreadPool* pool, bool narrow = false);

/// Counts the valid MACCs of every burst by interval arithmetic on the loop
/// bounds without touching tensors — exactly the count run_functional would
/// produce (stats-only path).
std::int64_t count_valid_maccs(const EngineTables& tables);

}  // namespace ftdl::sim::detail
