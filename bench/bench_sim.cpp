// Simulator-engine benchmarks (google-benchmark): wall-clock of
// simulate_layer over ResNet50, comparing the scalar Reference interpreter
// against the fast engine at 1/2/8 jobs and the stats-only
// (functional = false) path, with MACCs/s reported per run.
//
// The fast engine runs every ResNet50 overlay layer, compiled at the
// search budget of the zoo-resnet50 benchmark workload (2000), so each
// layer's vector plan (and its operand layout) shows up as its own row.
// Reference and stats-only rows cover the four shapes that stress
// different engine paths: the pad-heavy 7x7 stride-2 stem (clipped edge
// blocks), a 1x1 bottleneck reduce (pure dense interior), a 3x3 mid-stage
// conv (mixed), and the fc1000 matmul. Outputs are bit-identical across every variant
// (pinned by tests/test_sim_engine.cpp); these benchmarks measure only
// speed.
//
// Unless the caller passes --benchmark_out themselves, results are also
// written to BENCH_sim.json (google-benchmark's JSON reporter); CI uploads
// the file as a build artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compiler/codegen.h"
#include "nn/model_zoo.h"
#include "sim/ftdl_sim.h"

namespace {

using namespace ftdl;

/// Search budget per layer: the budget the repository benchmark's
/// zoo-resnet50 workload compiles ResNet50 at (and hands its ExecContext),
/// so each row times the program and vector plan that benchmark executes.
constexpr std::int64_t kBudget = 2'000;

struct LayerCase {
  std::string label;
  bool reference = false;  ///< also run the Reference / stats-only rows
  compiler::LayerProgram prog;
  nn::Tensor16 weights, input;
};

LayerCase make_case(const nn::Layer& layer, bool reference) {
  const arch::OverlayConfig cfg = arch::paper_config();
  LayerCase c;
  c.label = layer.name;
  std::replace(c.label.begin(), c.label.end(), '/', '_');
  c.reference = reference;
  c.prog = compiler::compile_layer(layer, cfg, compiler::Objective::Performance,
                                   kBudget);
  // One weight group's shapes: the program simulates a single group.
  const nn::Layer& part = c.prog.layer;
  Rng rng(0x5eedULL + std::hash<std::string>{}(c.label));
  if (part.kind == nn::LayerKind::MatMul) {
    c.input = nn::Tensor16({static_cast<int>(part.mm_m),
                            static_cast<int>(part.mm_p)});
    c.weights = nn::Tensor16({static_cast<int>(part.mm_n),
                              static_cast<int>(part.mm_m)});
  } else {
    c.input = nn::Tensor16({part.in_c, part.in_h, part.in_w});
    c.weights = nn::Tensor16({part.out_c, part.in_c, part.kh, part.kw});
  }
  c.input.fill_random(rng);
  c.weights.fill_random(rng);
  return c;
}

/// Every ResNet50 overlay layer, in network order.
const std::vector<LayerCase>& cases() {
  static const std::vector<LayerCase> all = [] {
    const std::set<std::string> reference = {
        "conv1/7x7_s2", "res2_1/conv1_1x1", "res4_1/conv2_3x3", "fc1000"};
    std::vector<LayerCase> v;
    for (const nn::Layer& l :
         nn::model_by_name("ResNet50").overlay_layers())
      v.push_back(make_case(l, reference.count(l.name) > 0));
    return v;
  }();
  return all;
}

void report_rate(benchmark::State& state, std::int64_t padded,
                 std::int64_t valid) {
  state.counters["MACCs/s"] = benchmark::Counter(
      static_cast<double>(padded), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["valid_MACCs/s"] = benchmark::Counter(
      static_cast<double>(valid), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SimReference(benchmark::State& state, std::size_t idx) {
  const LayerCase& c = cases()[idx];
  const arch::OverlayConfig cfg = arch::paper_config();
  sim::SimOptions opt;
  opt.engine = sim::SimEngine::Reference;
  std::int64_t padded = 0, valid = 0;
  for (auto _ : state) {
    const sim::SimResult r =
        sim::simulate_layer(c.prog, cfg, c.weights, c.input, opt);
    padded = r.stats.padded_maccs;
    valid = r.stats.valid_maccs;
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  report_rate(state, padded, valid);
}

void BM_SimEngine(benchmark::State& state, std::size_t idx) {
  const LayerCase& c = cases()[idx];
  const arch::OverlayConfig cfg = arch::paper_config();
  sim::SimOptions opt;
  opt.jobs = static_cast<int>(state.range(0));
  std::int64_t padded = 0, valid = 0;
  for (auto _ : state) {
    const sim::SimResult r =
        sim::simulate_layer(c.prog, cfg, c.weights, c.input, opt);
    padded = r.stats.padded_maccs;
    valid = r.stats.valid_maccs;
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  report_rate(state, padded, valid);
}

void BM_SimStatsOnly(benchmark::State& state, std::size_t idx) {
  const LayerCase& c = cases()[idx];
  const arch::OverlayConfig cfg = arch::paper_config();
  std::int64_t padded = 0, valid = 0;
  for (auto _ : state) {
    const sim::SimResult r = sim::simulate_layer_stats(c.prog, cfg);
    padded = r.stats.padded_maccs;
    valid = r.stats.valid_maccs;
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  report_rate(state, padded, valid);
}

void register_benchmarks() {
  for (std::size_t i = 0; i < cases().size(); ++i) {
    const std::string& label = cases()[i].label;
    if (cases()[i].reference) {
      benchmark::RegisterBenchmark(("BM_SimReference/" + label).c_str(),
                                   BM_SimReference, i)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(("BM_SimStatsOnly/" + label).c_str(),
                                   BM_SimStatsOnly, i)
          ->Unit(benchmark::kMillisecond);
    }
    for (int jobs : {1, 2, 8}) {
      benchmark::RegisterBenchmark(("BM_SimEngine/" + label).c_str(),
                                   BM_SimEngine, i)
          ->Arg(jobs)
          ->ArgName("jobs")
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_sim.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
