// Pins the fast simulation engine to the reference scalar interpreter:
// bit-identical outputs, identical SimStats and DRAM traces across odd
// strides / pads / tail sizes, at every jobs count, and on the stats-only
// (functional = false) path (docs/simulator.md) — for each operand layout
// the engine's vector-plan search can choose.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "compiler/analytical_model.h"
#include "compiler/codegen.h"
#include "compiler/search.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"
#include "obs/obs.h"
#include "sim/ftdl_sim.h"
#include "sim/sim_engine.h"

namespace ftdl {
namespace {

using compiler::Objective;

arch::OverlayConfig random_config(Rng& rng) {
  arch::OverlayConfig c;
  c.d1 = static_cast<int>(rng.uniform(2, 8));
  c.d2 = static_cast<int>(rng.uniform(1, 4));
  c.d3 = static_cast<int>(rng.uniform(1, 5));
  c.actbuf_words = 64 << rng.uniform(0, 2);
  c.psumbuf_words = 1024 << rng.uniform(0, 2);
  c.validate();
  return c;
}

/// Odd extents, strides and pads on purpose: the plan kernel's edge-block
/// clipping is exercised hardest when trip counts spill past the padded
/// tiles and pad clipping cuts into edge bursts.
nn::Layer random_layer(Rng& rng, int idx) {
  const double pick = rng.uniform01();
  if (pick < 0.45) {
    const int in_c = static_cast<int>(rng.uniform(1, 13));
    const int hw = static_cast<int>(rng.uniform(5, 17));
    const int out_c = static_cast<int>(rng.uniform(1, 17));
    const int k = static_cast<int>(rng.uniform(1, std::min(hw, 5)));
    const int stride = static_cast<int>(rng.uniform(1, 3));
    const int pad = static_cast<int>(rng.uniform(0, k - 1 > 0 ? k - 1 : 0));
    return nn::make_conv("eng_conv_" + std::to_string(idx), in_c, hw, hw,
                         out_c, k, stride, pad);
  }
  if (pick < 0.65) {
    const int ch = static_cast<int>(rng.uniform(2, 24));
    const int hw = static_cast<int>(rng.uniform(5, 15));
    const int k = static_cast<int>(rng.uniform(2, std::min(hw, 4)));
    const int stride = static_cast<int>(rng.uniform(1, 2));
    return nn::make_depthwise("eng_dw_" + std::to_string(idx), ch, hw, hw, k,
                              stride, k / 2);
  }
  return nn::make_matmul("eng_mm_" + std::to_string(idx), rng.uniform(1, 97),
                         rng.uniform(1, 65), rng.uniform(1, 25));
}

struct LayerData {
  nn::Tensor16 weights, input;
};

LayerData make_data(const nn::Layer& layer, std::uint64_t seed) {
  Rng rng(seed);
  LayerData d;
  if (layer.kind == nn::LayerKind::Conv) {
    d.input = nn::Tensor16({layer.in_c, layer.in_h, layer.in_w});
    d.weights = nn::Tensor16({layer.out_c, layer.in_c, layer.kh, layer.kw});
  } else if (layer.kind == nn::LayerKind::Depthwise) {
    d.input = nn::Tensor16({layer.in_c, layer.in_h, layer.in_w});
    d.weights = nn::Tensor16({layer.in_c, layer.kh, layer.kw});
  } else {
    d.input = nn::Tensor16({static_cast<int>(layer.mm_m),
                            static_cast<int>(layer.mm_p)});
    d.weights = nn::Tensor16({static_cast<int>(layer.mm_n),
                              static_cast<int>(layer.mm_m)});
  }
  d.input.fill_random(rng);
  d.weights.fill_random(rng);
  return d;
}

void expect_same_stats(const sim::SimStats& a, const sim::SimStats& b,
                       const char* what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.compute_cycles, b.compute_cycles) << what;
  EXPECT_EQ(a.act_stall_cycles, b.act_stall_cycles) << what;
  EXPECT_EQ(a.psum_stall_cycles, b.psum_stall_cycles) << what;
  EXPECT_EQ(a.valid_maccs, b.valid_maccs) << what;
  EXPECT_EQ(a.padded_maccs, b.padded_maccs) << what;
  EXPECT_EQ(a.act_refills, b.act_refills) << what;
  EXPECT_EQ(a.psum_drains, b.psum_drains) << what;
}

/// Forces the scalar oracles for its lifetime; restores the vector path on
/// exit (set_enabled(true) is a no-op where no vector path exists).
struct ScopedScalarOnly {
  ScopedScalarOnly() { simd::set_enabled(false); }
  ~ScopedScalarOnly() { simd::set_enabled(true); }
};

/// Output elements of a layer (any operand layout).
std::int64_t output_elems(const nn::Layer& layer) {
  if (layer.kind == nn::LayerKind::MatMul) return layer.mm_n * layer.mm_p;
  const std::int64_t channels =
      layer.kind == nn::LayerKind::Depthwise ? layer.in_c : layer.out_c;
  return channels * layer.out_h() * layer.out_w();
}

/// Fans `prog`'s bursts across 8 workers in chunks finer than the work
/// floor — one per group, up to 64 — and checks them bit-identical to one
/// serial chunk of the same plan, with the vector kernels and with the
/// forced-scalar ones. Under the default floor small layers run as a single
/// inline chunk, so this is what keeps the group key's write-disjointness
/// under test (and under TSan) for every geometry and layout the callers
/// generate. Raw operand buffers: every run reads them in the same (chosen)
/// layout.
void expect_fine_chunks_match_serial(const compiler::LayerProgram& prog,
                                     const LayerData& data) {
  const sim::detail::EngineTables fine =
      sim::detail::build_tables(prog, 64, /*min_chunk_maccs=*/1);
  const sim::detail::EngineTables serial =
      sim::detail::build_tables(prog, /*max_chunks=*/1, /*min_chunk_maccs=*/1);
  ASSERT_EQ(serial.chunks.size(), 1u);
  ASSERT_EQ(fine.layout, serial.layout);
  ASSERT_EQ(fine.plan_kind, serial.plan_kind);
  ASSERT_EQ(fine.block, serial.block);
  EXPECT_EQ(static_cast<std::int64_t>(fine.chunks.size()),
            std::max<std::int64_t>(
                1, std::min<std::int64_t>({fine.groups, 64, fine.valid_maccs})));
  if (fine.groups > 1 && fine.valid_maccs > 1) {
    EXPECT_GT(fine.chunks.size(), 1u);
  }

  ThreadPool pool(8);
  nn::AccTensor a({static_cast<int>(output_elems(prog.layer))});
  nn::AccTensor b = a;
  nn::AccTensor c = a;
  const std::int64_t va = sim::detail::run_functional(
      serial, data.weights.data(), data.input.data(), a.data(), nullptr);
  const std::int64_t vb = sim::detail::run_functional(
      fine, data.weights.data(), data.input.data(), b.data(), &pool);
  std::int64_t vc = 0;
  {
    ScopedScalarOnly scalar_only;
    vc = sim::detail::run_functional(fine, data.weights.data(),
                                     data.input.data(), c.data(), &pool);
  }
  EXPECT_EQ(va, serial.valid_maccs);
  EXPECT_EQ(vb, va);
  EXPECT_EQ(vc, va);
  EXPECT_EQ(b, a) << fine.chunks.size() << " chunks vs serial: "
                  << prog.mapping.to_string(prog.workload);
  EXPECT_EQ(c, a) << "forced-scalar, " << fine.chunks.size() << " chunks";

  // The narrow (int32) kernels on the same fan-out, where the data lets
  // the range proof hold.
  if (sim::detail::narrow_accumulation_proven(
          fine,
          sim::detail::max_abs(data.weights.data(), data.weights.size()),
          sim::detail::max_abs(data.input.data(), data.input.size()))) {
    nn::AccTensor d({static_cast<int>(output_elems(prog.layer))});
    EXPECT_EQ(sim::detail::run_functional(fine, data.weights.data(),
                                          data.input.data(), d.data(), &pool,
                                          /*narrow=*/true),
              va);
    EXPECT_EQ(d, a) << "narrow, " << fine.chunks.size() << " chunks";
  }
}

class EngineSweep : public ::testing::TestWithParam<int> {};

TEST_P(EngineSweep, EngineMatchesReferenceBitExactly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const arch::OverlayConfig cfg = random_config(rng);
  const nn::Layer layer = random_layer(rng, GetParam());
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
  if (prog.weight_groups != 1) return;  // stitching covered in test_runtime

  const LayerData data =
      make_data(layer, static_cast<std::uint64_t>(GetParam()) + 11);

  sim::SimOptions ref_opt;
  ref_opt.engine = sim::SimEngine::Reference;
  const sim::SimResult ref =
      sim::simulate_layer(prog, cfg, data.weights, data.input, ref_opt);

  // (a) fast engine vs the reference scalar path: bit-identical outputs,
  // identical SimStats and traces.
  sim::SimOptions fast_opt;
  fast_opt.jobs = 1;
  const sim::SimResult fast =
      sim::simulate_layer(prog, cfg, data.weights, data.input, fast_opt);
  EXPECT_EQ(fast.output, ref.output) << prog.mapping.to_string(prog.workload);
  expect_same_stats(fast.stats, ref.stats, "fast vs reference");
  EXPECT_EQ(fast.trace, ref.trace);

  // (b) jobs = 8 vs jobs = 1: bit-identical (each accumulator is owned by
  // exactly one worker; integer sums are associative).
  sim::SimOptions par_opt;
  par_opt.jobs = 8;
  const sim::SimResult par =
      sim::simulate_layer(prog, cfg, data.weights, data.input, par_opt);
  EXPECT_EQ(par.output, fast.output);
  expect_same_stats(par.stats, fast.stats, "jobs=8 vs jobs=1");
  EXPECT_EQ(par.trace, fast.trace);
  // ... and with the layer really fanned out: small layers run as one
  // chunk under the default work floor.
  expect_fine_chunks_match_serial(prog, data);

  // (c) stats-only: SimStats + trace identical to the functional run, no
  // output tensor.
  const sim::SimResult stats = sim::simulate_layer_stats(prog, cfg);
  expect_same_stats(stats.stats, ref.stats, "stats-only vs functional");
  EXPECT_EQ(stats.trace, ref.trace);
  EXPECT_TRUE(stats.output.dims().empty());

  // The reference output itself stays pinned to the nn:: golden kernels.
  if (layer.kind == nn::LayerKind::Conv) {
    EXPECT_EQ(ref.output,
              nn::conv2d_reference(layer, data.input, data.weights));
  } else if (layer.kind == nn::LayerKind::MatMul) {
    EXPECT_EQ(ref.output,
              nn::matmul_reference(layer, data.input, data.weights));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineSweep, ::testing::Range(0, 48));

/// Runs the fast engine twice — vector dispatch vs forced-scalar — and once
/// on the reference interpreter; all three must agree bit-exactly.
void expect_simd_scalar_reference_agree(const compiler::LayerProgram& prog,
                                        const arch::OverlayConfig& cfg,
                                        const LayerData& data, int jobs) {
  sim::SimOptions fast_opt;
  fast_opt.jobs = jobs;
  const sim::SimResult vec =
      sim::simulate_layer(prog, cfg, data.weights, data.input, fast_opt);

  sim::SimResult sca;
  {
    ScopedScalarOnly scalar_only;
    sca = sim::simulate_layer(prog, cfg, data.weights, data.input, fast_opt);
  }
  EXPECT_EQ(vec.output, sca.output)
      << "SIMD vs scalar, jobs=" << jobs << ": "
      << prog.mapping.to_string(prog.workload);
  expect_same_stats(vec.stats, sca.stats, "SIMD vs scalar");

  sim::SimOptions ref_opt;
  ref_opt.engine = sim::SimEngine::Reference;
  const sim::SimResult ref =
      sim::simulate_layer(prog, cfg, data.weights, data.input, ref_opt);
  EXPECT_EQ(vec.output, ref.output)
      << "SIMD vs reference, jobs=" << jobs;
  expect_same_stats(vec.stats, ref.stats, "SIMD vs reference");
  if (jobs > 1) expect_fine_chunks_match_serial(prog, data);
}

// The randomized sweep again, now pinning the vector dispatch against the
// forced-scalar engine (simd::set_enabled test hook). One extra seed past
// the Fast≡Reference sweep keeps the two suites from sharing every case.
class SimdSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimdSweep, SimdMatchesScalarBitExactly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const arch::OverlayConfig cfg = random_config(rng);
  const nn::Layer layer = random_layer(rng, GetParam());
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
  if (prog.weight_groups != 1) return;
  const LayerData data =
      make_data(layer, static_cast<std::uint64_t>(GetParam()) + 11);
  expect_simd_scalar_reference_agree(prog, cfg, data, /*jobs=*/1);
  expect_fine_chunks_match_serial(prog, data);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimdSweep, ::testing::Range(0, 49));

// Kernel edge geometry: burst/tail widths that straddle the inline cutoff
// and every vector tail length (1..2*lanes for the widest 16-lane AVX2
// path), at jobs = 1 and jobs = 8. MatMul column length m is the dot/axpy
// sweep width, so it is the direct lever on kernel width.
TEST(SimEngine, EdgeTailWidthsSimdMatchesScalar) {
  const arch::OverlayConfig cfg = arch::paper_config();
  for (int m : {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33}) {
    const nn::Layer layer =
        nn::make_matmul("eng_tail_mm_" + std::to_string(m), 5, m, 3);
    const compiler::LayerProgram prog =
        compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
    ASSERT_EQ(prog.weight_groups, 1) << "m=" << m;
    const LayerData data = make_data(layer, static_cast<std::uint64_t>(m));
    for (int jobs : {1, 8})
      expect_simd_scalar_reference_agree(prog, cfg, data, jobs);
  }
}

// Single-element temporal runs (1x1 outputs, unit matmuls) and narrow
// bursts (single-column images, 1-wide kernels): the degenerate loop trips
// where a vector path must fall through to scalar tails cleanly.
TEST(SimEngine, SingleElementRunsAndNarrowBursts) {
  const arch::OverlayConfig cfg = arch::paper_config();
  const nn::Layer cases[] = {
      // k == hw, pad 0: exactly one output pixel per channel.
      nn::make_conv("eng_edge_1x1out", 4, 3, 3, 6, 3, 1, 0),
      // 1x1 kernel on a single-column image: narrow burst per row.
      nn::make_conv("eng_edge_col", 5, 9, 1, 7, 1, 1, 0),
      // Depthwise with k == hw: one output element per channel.
      nn::make_depthwise("eng_edge_dw", 6, 4, 4, 4, 1, 0),
      // Fully degenerate matmul.
      nn::make_matmul("eng_edge_unit_mm", 1, 1, 1),
  };
  for (const nn::Layer& layer : cases) {
    const compiler::LayerProgram prog =
        compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
    ASSERT_EQ(prog.weight_groups, 1) << layer.name;
    const LayerData data = make_data(layer, 31);
    for (int jobs : {1, 8})
      expect_simd_scalar_reference_agree(prog, cfg, data, jobs);
  }
}

TEST(SimEngine, SharedPoolAndTransientPoolAgree) {
  Rng rng(2026);
  const arch::OverlayConfig cfg = arch::paper_config();
  // Large enough (over 3M valid MACCs) to clear the per-chunk work floor,
  // so both pools really fan out.
  const nn::Layer layer = nn::make_conv("eng_pool_conv", 32, 14, 14, 64, 3,
                                        /*stride=*/1, /*pad=*/1);
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
  ASSERT_EQ(prog.weight_groups, 1);
  ASSERT_GT(sim::detail::build_tables(prog).chunks.size(), 1u);
  const LayerData data = make_data(layer, 99);

  sim::SimOptions shared;  // jobs = 0: CompilerSession pool
  sim::SimOptions serial;
  serial.jobs = 1;
  const sim::SimResult a =
      sim::simulate_layer(prog, cfg, data.weights, data.input, shared);
  const sim::SimResult b =
      sim::simulate_layer(prog, cfg, data.weights, data.input, serial);
  EXPECT_EQ(a.output, b.output);
  expect_same_stats(a.stats, b.stats, "shared pool vs serial");
  EXPECT_EQ(a.trace, b.trace);
}

TEST(SimEngine, CheckBuffersRunsOnAnyEngineSetting) {
  Rng rng(7);
  const arch::OverlayConfig cfg = arch::paper_config();
  const nn::Layer layer =
      nn::make_conv("eng_cb_conv", 8, 10, 10, 12, 3, 1, 1);
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
  ASSERT_EQ(prog.weight_groups, 1);
  const LayerData data = make_data(layer, 3);

  sim::SimOptions ref_cb;
  ref_cb.engine = sim::SimEngine::Reference;
  ref_cb.check_buffers = true;
  sim::SimOptions fast_cb;  // Fast + check_buffers falls back to Reference
  fast_cb.check_buffers = true;
  const sim::SimResult a =
      sim::simulate_layer(prog, cfg, data.weights, data.input, ref_cb);
  const sim::SimResult b =
      sim::simulate_layer(prog, cfg, data.weights, data.input, fast_cb);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.stats.max_act_words_per_tpe, b.stats.max_act_words_per_tpe);
  EXPECT_EQ(a.stats.max_psum_words_per_sb, b.stats.max_psum_words_per_sb);
  EXPECT_EQ(a.stats.max_wbuf_words_per_tpe, b.stats.max_wbuf_words_per_tpe);
  EXPECT_GT(b.stats.max_wbuf_words_per_tpe, 0);
}

TEST(SimEngine, StatsOnlyRejectsCheckBuffers) {
  const arch::OverlayConfig cfg = arch::paper_config();
  const nn::Layer layer = nn::make_matmul("eng_mm_reject", 8, 8, 8);
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
  const LayerData data = make_data(layer, 1);
  sim::SimOptions opt;
  opt.functional = false;
  opt.check_buffers = true;
  EXPECT_THROW(sim::simulate_layer(prog, cfg, data.weights, data.input, opt),
               ConfigError);
}

TEST(SimEngine, HardwareEfficiencyGuardsDegenerateInputs) {
  sim::SimStats st;
  EXPECT_EQ(st.hardware_efficiency(1200), 0.0);  // cycles == 0
  st.cycles = 100;
  st.valid_maccs = 50;
  EXPECT_EQ(st.hardware_efficiency(0), 0.0);  // tpes == 0
  EXPECT_EQ(st.hardware_efficiency(-3), 0.0);
  EXPECT_DOUBLE_EQ(st.hardware_efficiency(1), 0.5);
}

TEST(SimEngine, MaxPaddedMacsErrorNamesTheCounts) {
  const arch::OverlayConfig cfg = arch::paper_config();
  const nn::Layer layer = nn::make_matmul("eng_mm_limit", 32, 32, 32);
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
  const LayerData data = make_data(layer, 2);
  sim::SimOptions opt;
  opt.max_padded_macs = 1;
  try {
    sim::simulate_layer(prog, cfg, data.weights, data.input, opt);
    FAIL() << "expected ftdl::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(prog.mapping.padded_macs())),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("max_padded_macs = 1"), std::string::npos) << msg;
  }
}

// ---- layout-aware vector plans ----------------------------------------------

using PlanKind = sim::detail::EngineTables::PlanKind;
using Tiles = std::array<std::vector<std::int64_t>, compiler::kHwLevels>;

/// Lowers an explicit mapping, so each case below pins the exact plan it
/// targets instead of whatever the search happens to find. Tiles are per
/// hardware level (D1, D2, D3, X, L, T), per workload loop (conv: M, N, E,
/// F, R, S; MM: M, N, P).
compiler::LayerProgram hand_program(const nn::Layer& layer, const Tiles& tiles,
                                    const arch::OverlayConfig& cfg) {
  const compiler::Workload w = compiler::Workload::from_layer(layer);
  compiler::Solution sol;
  sol.mapping.t = tiles;
  sol.perf = compiler::evaluate(w, sol.mapping, cfg);
  return compiler::lower_solution(layer, w, sol);
}

/// Random data saturated with int16 extremes: -32768 (whose square
/// overflows pairwise multiply-add) and 32767, mixed with small values.
LayerData extreme_data(const nn::Layer& layer, std::uint64_t seed) {
  LayerData d = make_data(layer, seed);
  Rng rng(seed ^ 0x5a5a);
  for (nn::Tensor16* t : {&d.weights, &d.input}) {
    for (std::int64_t i = 0; i < t->size(); ++i) {
      const double u = rng.uniform01();
      if (u < 0.4) (*t)[i] = -32768;
      else if (u < 0.6) (*t)[i] = 32767;
    }
  }
  return d;
}

struct LayoutCase {
  const char* what;
  nn::Layer layer;
  Tiles tiles;
  sim::OperandLayout layout;
  PlanKind kind;
  bool fused;       ///< block > 1
  bool one_column;  ///< cols == 1: no loop sweeps further
};

std::vector<LayoutCase> layout_cases() {
  using L = sim::OperandLayout;
  return {
      // Conv tiles: {M, N, E, F, R, S} per level D1, D2, D3, X, L, T.
      {"out-inner fused, dense (1x1, exact trips)",
       nn::make_conv("lay_mi_dense", 16, 12, 12, 24, 1, 1, 0),
       {{{1, 1, 1, 6, 1, 1}, {4, 1, 1, 1, 1, 1}, {1, 1, 12, 1, 1, 1},
         {1, 1, 1, 2, 1, 1}, {1, 16, 1, 1, 1, 1}, {6, 1, 1, 1, 1, 1}}},
       L::OutChannelInner, PlanKind::AxpyW, true, false},
      {"out-inner fused, stride-2 pad, trip-spilled",
       nn::make_conv("lay_mi_s2", 3, 9, 9, 21, 3, 2, 1),
       {{{1, 1, 1, 5, 1, 1}, {4, 1, 1, 1, 1, 1}, {1, 1, 5, 1, 1, 1},
         {1, 1, 1, 1, 1, 1}, {1, 3, 1, 1, 3, 1}, {6, 1, 1, 1, 1, 3}}},
       L::OutChannelInner, PlanKind::AxpyW, true, false},
      {"out-inner spanned over an X tile on M, fused, pad-clipped",
       nn::make_conv("lay_mi_span", 5, 7, 7, 18, 3, 1, 1),
       {{{1, 1, 1, 1, 1, 1}, {3, 1, 1, 1, 1, 1}, {1, 1, 7, 1, 1, 1},
         {2, 1, 1, 1, 1, 1}, {1, 5, 1, 7, 3, 3}, {3, 1, 1, 1, 1, 1}}},
       L::OutChannelInner, PlanKind::AxpyW, true, false},
      {"in-inner fused, dense (1x1, exact trips)",
       nn::make_conv("lay_ni_dense", 24, 10, 10, 6, 1, 1, 0),
       {{{1, 4, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1}, {1, 1, 10, 1, 1, 1},
         {1, 1, 1, 10, 1, 1}, {6, 1, 1, 1, 1, 1}, {1, 6, 1, 1, 1, 1}}},
       L::InChannelInner, PlanKind::Dot, true, false},
      {"in-inner fused, stride-2 pad, trip-spilled",
       nn::make_conv("lay_ni_s2", 11, 9, 9, 5, 3, 2, 1),
       {{{1, 3, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1}, {1, 1, 5, 1, 1, 1},
         {1, 1, 1, 5, 1, 1}, {5, 1, 1, 1, 3, 1}, {1, 4, 1, 1, 1, 3}}},
       L::InChannelInner, PlanKind::Dot, true, false},
      {"in-inner spanned over an L tile on N, fused, pad-clipped",
       nn::make_conv("lay_ni_span", 20, 6, 6, 4, 3, 1, 1),
       {{{1, 2, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1}, {1, 1, 6, 1, 1, 1},
         {1, 1, 1, 6, 1, 1}, {4, 2, 1, 1, 3, 3}, {1, 5, 1, 1, 1, 1}}},
       L::InChannelInner, PlanKind::Dot, true, false},
      {"native axpy over F, pad-clipped",
       nn::make_conv("lay_native", 4, 8, 8, 3, 3, 1, 1),
       {{{1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1}, {1, 1, 8, 1, 1, 1},
         {1, 1, 1, 1, 1, 1}, {3, 4, 1, 1, 3, 3}, {1, 1, 1, 8, 1, 1}}},
       L::Native, PlanKind::Axpy, false, false},
      // MM tiles: {M, N, P} per level.
      // One chunk's worth of MACCs: fuses all 4 output groups (under the
      // fine-chunk floor of expect_fine_chunks_match_serial it keeps them
      // and stays unfused). More outputs than inputs, so the 40-column
      // AxpyW beats the native 28-column Dot over M (P = 1).
      {"MM out-inner fused (fc-shaped), trip-spilled",
       nn::make_matmul("lay_mm_mi", 27, 38, 1),
       {{{7, 1, 1}, {1, 4, 1}, {1, 1, 1}, {1, 1, 1}, {4, 1, 1},
         {1, 10, 1}}},
       L::OutChannelInner, PlanKind::AxpyW, true, false},
      {"MM in-inner fused",
       nn::make_matmul("lay_mm_ni", 32, 6, 3),
       {{{4, 1, 1}, {1, 2, 1}, {1, 1, 1}, {1, 1, 1}, {1, 3, 3},
         {8, 1, 1}}},
       L::InChannelInner, PlanKind::Dot, true, false},
      // 1-column plans: a layer whose only unit-coefficient loop has
      // extent 1 still runs the plan kernel. Native S of a stride-2 1x1
      // depthwise layer (trip-spilled N and E tiles, E the row loop) ...
      // Depthwise tiles: {N, E, F, R, S} per level.
      {"1-column Dot, stride-2 1x1 depthwise, trip-spilled",
       nn::make_depthwise("lay_one_col_dw", 6, 9, 9, 1, 2, 0),
       {{{4, 1, 1, 1, 1}, {1, 1, 1, 1, 1}, {1, 3, 1, 1, 1},
         {2, 1, 1, 1, 1}, {1, 1, 5, 1, 1}, {1, 2, 1, 1, 1}}},
       L::Native, PlanKind::Dot, false, true},
      // ... and native M of the fully degenerate matmul.
      {"1-column Dot, 1x1x1 matmul",
       nn::make_matmul("lay_one_col_mm", 1, 1, 1),
       {{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1},
         {1, 1, 1}}},
       L::Native, PlanKind::Dot, false, true},
  };
}

// Each operand layout the plan search can choose — native, output channels
// innermost and input channels innermost — over interior and edge
// (trip-spilled and pad-clipped) blocks, fused and unfused blocks, 1-column
// sweeps and a stride-2 padded conv: Fast≡Reference (outputs and SimStats)
// and SIMD≡scalar at jobs 1 and 8 on int16-extreme data — these layers
// are one chunk under the work floor, so jobs 8 also fans them out one
// chunk per group — and the CachedLayerSim engine-layout path agreeing
// with simulate_layer once its output is un-permuted.
TEST(SimEngine, LayoutPlansMatchReferenceAndScalar) {
  const arch::OverlayConfig cfg = arch::paper_config();
  for (const LayoutCase& c : layout_cases()) {
    SCOPED_TRACE(c.what);
    const compiler::LayerProgram prog = hand_program(c.layer, c.tiles, cfg);
    const sim::detail::EngineTables tb = sim::detail::build_tables(prog);
    ASSERT_EQ(tb.layout, c.layout);
    ASSERT_EQ(tb.plan_kind, c.kind);
    EXPECT_EQ(tb.block > 1, c.fused) << "block " << tb.block;
    EXPECT_EQ(tb.cols == 1, c.one_column) << "cols " << tb.cols;
    EXPECT_EQ(tb.chunks.size(), 1u);

    const LayerData data = extreme_data(c.layer, 17);
    for (int jobs : {1, 8})
      expect_simd_scalar_reference_agree(prog, cfg, data, jobs);

    sim::SimOptions opt;
    opt.jobs = 1;
    const sim::SimResult one_shot =
        sim::simulate_layer(prog, cfg, data.weights, data.input, opt);
    sim::CachedLayerSim cached(prog, cfg, opt);
    ASSERT_EQ(cached.layout(), c.layout);
    nn::AccTensor out;
    EXPECT_THROW(cached.run(data.input, out), ConfigError);  // no weights yet
    cached.load_weights(data.weights);
    cached.run(data.input, out);
    // The engine-layout accumulators, un-permuted by hand ...
    nn::AccTensor restored(one_shot.output.dims());
    const std::int64_t channels = restored.dims()[0];
    const std::int64_t plane = restored.size() / channels;
    for (std::int64_t ch = 0; ch < channels; ++ch)
      for (std::int64_t i = 0; i < plane; ++i)
        restored[ch * plane + i] =
            c.layout == sim::OperandLayout::OutChannelInner
                ? out[i * channels + ch]
                : out[ch * plane + i];
    EXPECT_EQ(restored, one_shot.output);
    // ... and by the runner's own stitch copy.
    nn::AccTensor stored(one_shot.output.dims());
    cached.store_output(out, stored.data());
    EXPECT_EQ(stored, one_shot.output);
  }
}

// ---- range-proven accumulation width ----------------------------------------

/// Runs `prog` through simulate_layer and CachedLayerSim at jobs 1 and 4,
/// with SIMD on and off: every output must equal the Reference
/// interpreter's, and every run must record the narrow (int32) path when
/// `narrow`, the exact one otherwise, in the sim/*_layer_runs counters.
void expect_accumulation_path(const compiler::LayerProgram& prog,
                              const arch::OverlayConfig& cfg,
                              const LayerData& data, bool narrow) {
  sim::SimOptions ref_opt;
  ref_opt.engine = sim::SimEngine::Reference;
  const sim::SimResult ref =
      sim::simulate_layer(prog, cfg, data.weights, data.input, ref_opt);

  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  obs::set_enabled(true);
  ThreadPool pool(4);
  std::int64_t runs = 0;
  for (bool simd_on : {true, false}) {
    simd::set_enabled(simd_on);
    for (int jobs : {1, 4}) {
      SCOPED_TRACE("simd " + std::to_string(simd_on) + ", jobs " +
                   std::to_string(jobs));
      sim::SimOptions opt;
      opt.jobs = jobs;
      EXPECT_EQ(
          sim::simulate_layer(prog, cfg, data.weights, data.input, opt).output,
          ref.output);
      sim::CachedLayerSim cached(prog, cfg, opt);
      cached.load_weights(data.weights);
      nn::AccTensor out;
      cached.run(data.input, out, jobs > 1 ? &pool : nullptr);
      nn::AccTensor stored(ref.output.dims());
      cached.store_output(out, stored.data());
      EXPECT_EQ(stored, ref.output);
      runs += 2;
    }
  }
  simd::set_enabled(true);
  const std::int64_t narrow_runs = reg.counter("sim/narrow_layer_runs");
  const std::int64_t exact_runs = reg.counter("sim/exact_layer_runs");
  obs::set_enabled(false);
  reg.reset();
  EXPECT_EQ(narrow_runs, narrow ? runs : 0);
  EXPECT_EQ(exact_runs, narrow ? 0 : runs);
}

// ±7 data, the simulator's own range: every plan kind and layout proves
// its int32 accumulators safe and takes the narrow kernels.
TEST(SimEngine, SmallDataTakesTheNarrowPath) {
  const arch::OverlayConfig cfg = arch::paper_config();
  for (const LayoutCase& c : layout_cases()) {
    SCOPED_TRACE(c.what);
    expect_accumulation_path(hand_program(c.layer, c.tiles, cfg), cfg,
                             make_data(c.layer, 23), /*narrow=*/true);
  }
}

// Data saturated with -32768/32767: a product reaches 2^30, so any
// accumulator that sums two of them fails the proof and the exact kernels
// run. A 1-column Dot sums one product per int32 sum, which always fits.
TEST(SimEngine, SaturatedDataTakesTheExactPath) {
  const arch::OverlayConfig cfg = arch::paper_config();
  for (const LayoutCase& c : layout_cases()) {
    SCOPED_TRACE(c.what);
    expect_accumulation_path(hand_program(c.layer, c.tiles, cfg), cfg,
                             extreme_data(c.layer, 29),
                             /*narrow=*/c.one_column);
  }
}

// An AxpyW layer whose sweep is short (32 output channels) but whose
// per-output reduction is long (in_c 16 x 3x3 = 144 terms): with every
// operand 4096, one sweep's worth of products fits in int32 (32 * 2^24)
// while a whole reduction (144 * 2^24 > 2^31) would wrap — so the proof
// must bound the int32 scratch by the reduction length and fail.
TEST(SimEngine, AxpyProofBoundsTheWholeReduction) {
  const arch::OverlayConfig cfg = arch::paper_config();
  const nn::Layer layer =
      nn::make_conv("long_k_axpyw", 16, 10, 10, 32, 3, 1, 1);
  // Conv tiles {M, N, E, F, R, S} per level D1, D2, D3, X, L, T: M is a
  // 32-wide T tile, N/R/S run at L.
  const Tiles tiles{{{1, 1, 1, 10, 1, 1}, {1, 1, 5, 1, 1, 1},
                     {1, 1, 2, 1, 1, 1}, {1, 1, 1, 1, 1, 1},
                     {1, 16, 1, 1, 3, 3}, {32, 1, 1, 1, 1, 1}}};
  const compiler::LayerProgram prog = hand_program(layer, tiles, cfg);
  const sim::detail::EngineTables tb = sim::detail::build_tables(prog);
  ASSERT_EQ(tb.plan_kind, PlanKind::AxpyW);
  ASSERT_EQ(tb.reduction, 16 * 3 * 3);
  constexpr std::int64_t kOperand = 4096;
  constexpr std::int64_t kInt32Max = (std::int64_t{1} << 31) - 1;
  EXPECT_LE(tb.cols * kOperand * kOperand, kInt32Max);
  EXPECT_GT(tb.reduction * kOperand * kOperand, kInt32Max);
  EXPECT_FALSE(sim::detail::narrow_accumulation_proven(tb, kOperand, kOperand));

  LayerData data = make_data(layer, 37);
  for (nn::Tensor16* t : {&data.weights, &data.input})
    std::fill(t->data(), t->data() + t->size(), std::int16_t{kOperand});
  expect_accumulation_path(prog, cfg, data, /*narrow=*/false);
}

// ---- level-spanning sweeps ---------------------------------------------------

struct SpanCase {
  nn::Layer layer;
  Tiles tiles;
  int target = 0;  ///< the loop the plan must sweep
};

/// A random layer and mapping for the level-spanning sweep. One loop the
/// plan search can sweep (conv: M, N, F, or E on a single-column image;
/// MM: M, N or P) gets X and L tiles > 1 and the largest extent. Half the
/// time its trip is that extent exactly — so the last block is trip-dense
/// and an image edge at the layer's end falls inside it — else the extent
/// overshoots the trip (trip spill at the sweep's far end). Every other
/// loop gets small X/L/T tiles, one of them an X tile and one an L tile,
/// so the sweep shares both levels with other loops. Most convs are 3x3
/// with pad 1: image clipping cuts the sweep's ends when it walks F or E,
/// and whole sweeps otherwise.
SpanCase random_span_case(Rng& rng, int idx) {
  const std::string name = "span_" + std::to_string(idx);
  SpanCase c;
  const std::int64_t pick = rng.uniform(0, 6);
  // The target's tiles first: its trip follows from them.
  const std::int64_t tx = rng.uniform(2, 3);
  const std::int64_t tl = rng.uniform(2, 3);
  const std::int64_t tt = rng.uniform(1, 4);
  const std::int64_t xlt = tx * tl * tt;
  const std::int64_t tsp = std::max(ceil_div(13, xlt),
                                    rng.uniform(1, std::max<std::int64_t>(
                                                       1, 48 / xlt)));
  const std::int64_t extent = xlt * tsp;  // >= 13
  const std::int64_t big =
      rng.uniform01() < 0.5
          ? extent
          : extent - rng.uniform(1, std::min(xlt, extent - 12));
  auto small = [&] { return static_cast<int>(rng.uniform(2, 6)); };
  const int bigi = static_cast<int>(big);
  if (pick == 6) {
    // One image column: E is unit-stride in input and output (a native
    // Axpy whose sweep moves the image row).
    c.layer = nn::make_conv(name, small(), bigi, 1, small(), 3, 1, 1);
    c.target = 2;
  } else if (pick == 2) {
    // F: native Axpy along the image row (stride 1 keeps it unit-stride).
    const int k = rng.uniform01() < 0.7 ? 3 : 1;
    c.layer = nn::make_conv(name, small(), small() + 2, bigi, small(), k, 1,
                            k / 2);
    c.target = 3;
  } else if (pick < 2) {
    // M (output channels innermost) or N (input channels innermost).
    const int k = rng.uniform01() < 0.7 ? 3 : 1;
    const int stride = static_cast<int>(rng.uniform(1, 2));
    const int hw = small() + 2;
    c.layer = nn::make_conv(name, pick == 1 ? bigi : small(), hw, hw,
                            pick == 0 ? bigi : small(), k, stride, k / 2);
    c.target = static_cast<int>(pick);
  } else {
    c.layer = nn::make_matmul(name, pick == 3 ? big : small(),
                              pick == 4 ? big : small(),
                              pick == 5 ? big : small());
    c.target = static_cast<int>(pick - 3);
  }
  const compiler::Workload w = compiler::Workload::from_layer(c.layer);
  const int k = w.k();
  for (auto& level : c.tiles) level.assign(static_cast<std::size_t>(k), 1);
  const auto at = [](int level) { return static_cast<std::size_t>(level); };
  const int lx = static_cast<int>(compiler::HwLevel::X);
  const int ll = static_cast<int>(compiler::HwLevel::L);
  const int lt = static_cast<int>(compiler::HwLevel::T);
  // On the single-column image R stays one exact spatial tile: an R spill
  // would make every block that reaches the image's bottom edge non-dense.
  const int exact = pick == 6 ? w.loop_index('R') : -1;
  auto other = [&] {
    std::int64_t o = 0;
    do o = rng.uniform(0, k - 1);
    while (o == c.target || o == exact);
    return o;
  };
  const std::int64_t other_x = other();
  const std::int64_t other_l = other();
  const arch::OverlayConfig cfg = arch::paper_config();
  std::array<std::int64_t, 3> room{cfg.d1, cfg.d2, cfg.d3};  // D1, D2, D3
  for (int i = 0; i < k; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    const bool target = i == c.target;
    const std::int64_t x =
        target ? tx
               : (i == other_x ? 2 : (i == exact ? 1 : rng.uniform(1, 2)));
    const std::int64_t l =
        target ? tl
               : (i == other_l ? 2 : (i == exact ? 1 : rng.uniform(1, 2)));
    std::int64_t t = target ? tt : (i == exact ? 1 : rng.uniform(1, 2));
    const std::int64_t sp =
        target ? tsp : ceil_div(w.loops[iu].trip, x * l * t);
    // Spatial tile at the D level with the most room left; T takes it when
    // none fits (the padded extent stays the same).
    const auto lvl = static_cast<std::size_t>(
        std::max_element(room.begin(), room.end()) - room.begin());
    if (room[lvl] >= sp) {
      room[lvl] /= sp;
      c.tiles[lvl][iu] = sp;
    } else {
      t *= sp;
    }
    c.tiles[at(lx)][iu] = x;
    c.tiles[at(ll)][iu] = l;
    c.tiles[at(lt)][iu] = t;
  }
  return c;
}

// Level-spanning sweeps: random mappings whose column loop spans X and L
// digits it shares with other loops, trip-spilled at the sweep's end and
// pad-clipped — Fast≡Reference (outputs and SimStats) and SIMD≡scalar at
// jobs 1 and 8 on int16-extreme data, and fine chunks ≡ one serial chunk.
TEST(SimEngine, LevelSpanningSweepsMatchReferenceAndScalar) {
  const arch::OverlayConfig cfg = arch::paper_config();
  int spilled = 0;
  for (int seed = 0; seed < 48; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
    const SpanCase c = random_span_case(rng, seed);
    const compiler::LayerProgram prog = hand_program(c.layer, c.tiles, cfg);
    SCOPED_TRACE(c.layer.name + ": " + prog.mapping.to_string(prog.workload));
    const sim::detail::EngineTables tb = sim::detail::build_tables(prog);
    ASSERT_EQ(tb.col_loop, c.target);
    const auto lc = static_cast<std::size_t>(tb.col_loop);
    EXPECT_EQ(tb.cols, tb.block * tb.sp_stride[lc]);
    EXPECT_GE(tb.sp_stride[lc], 4 * tb.t_ext[lc]);  // X and L tiles >= 2
    spilled += tb.sp_ext[lc] * tb.sp_stride[lc] > tb.trip[lc];

    const LayerData data = extreme_data(c.layer, static_cast<std::uint64_t>(seed));
    sim::SimOptions ref_opt;
    ref_opt.engine = sim::SimEngine::Reference;
    sim::SimOptions fast_opt;
    fast_opt.jobs = 1;
    const sim::SimResult ref =
        sim::simulate_layer(prog, cfg, data.weights, data.input, ref_opt);
    const sim::SimResult fast =
        sim::simulate_layer(prog, cfg, data.weights, data.input, fast_opt);
    EXPECT_EQ(fast.output, ref.output);
    expect_same_stats(fast.stats, ref.stats, "fast vs reference");
    for (int jobs : {1, 8})  // jobs 8 also runs the fine-chunk check
      expect_simd_scalar_reference_agree(prog, cfg, data, jobs);
  }
  EXPECT_GE(spilled, 12);
  EXPECT_LE(spilled, 36);
}

// The plan-quality floor: at paper_config every ResNet50 overlay layer gets
// a vector plan at least two columns long, and no sweep is shorter than the
// longest T tile of a unit-coefficient loop of its layout; spanning the X/L
// levels lengthens res3_*/conv3_1x1 (an 8-wide M tile under a 13-wide X
// tile) to at least 104 columns.
TEST(SimEngine, EveryResNet50LayerGetsAVectorPlan) {
  const arch::OverlayConfig cfg = arch::paper_config();
  const nn::Network& net = nn::model_by_name("ResNet50");
  for (const nn::Layer& layer : net.overlay_layers()) {
    const compiler::LayerProgram prog =
        compiler::compile_layer(layer, cfg, Objective::Performance, 2'000);
    const sim::detail::EngineTables tb = sim::detail::build_tables(prog);
    EXPECT_NE(tb.plan_kind, PlanKind::None)
        << layer.name << ": " << prog.mapping.to_string(prog.workload);
    EXPECT_GE(tb.cols, 2) << layer.name;
    std::int64_t t_sweep = 0;
    for (int i = 0; i < tb.k; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      const std::array<std::int64_t, 3> c{tb.c_in[iu], tb.c_w[iu],
                                          tb.c_out[iu]};
      const bool unit = c == std::array<std::int64_t, 3>{1, 1, 0} ||
                        c == std::array<std::int64_t, 3>{1, 0, 1} ||
                        c == std::array<std::int64_t, 3>{0, 1, 1};
      if (unit) t_sweep = std::max(t_sweep, tb.t_ext[iu]);
    }
    EXPECT_GE(tb.cols, t_sweep) << layer.name;
    if (layer.name.rfind("res3_", 0) == 0 &&
        layer.name.find("/conv3_1x1") != std::string::npos) {
      EXPECT_GE(tb.cols, 104) << layer.name;
    }
  }
}

}  // namespace
}  // namespace ftdl
