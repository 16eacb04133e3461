// ftdl-prof — cross-layer observability profiler (docs/observability.md).
//
// Runs a model-zoo network (or an .ftdl spec) through the full stack with
// ftdl::obs collection enabled — compile + schedule (wall-clock compiler
// spans), host-pipeline evaluation, multi-FPGA pipeline planning, and a
// cycle-level simulation of the whole network on a scaled-down overlay
// (virtual-clock timelines of LoopT bursts, ActBUF refills, PSumBUF drains
// and stalls) — then writes
//   trace.json    Chrome trace-event JSON (open in https://ui.perfetto.dev)
//   metrics.json  flat counters/gauges snapshot (schema ftdl-metrics-v1)
// and, with --stream, an ftdl-stream-v1 binary event log
// (docs/obs-stream-format.md; query with ftdl-obsq). The functional
// simulator executes every MACC, so networks above --sim-macs-limit skip
// the cycle-level phase. `ftdl-prof --bogus` prints the options (generated
// from the table below).
//
// Exit status: 0 = profiled, 1 = run or partition-check error,
// 2 = usage error.
#include <cstdio>
#include <memory>
#include <string>

#include "analyze/analyze.h"
#include "arch/overlay_config.h"
#include "common/cli.h"
#include "common/error.h"
#include "compiler/program_store.h"
#include "compiler/session.h"
#include "frontend/spec_parser.h"
#include "host/host_pipeline.h"
#include "multifpga/partition.h"
#include "nn/model_zoo.h"
#include "obs/obs.h"
#include "obs/stream_writer.h"
#include "runtime/executor.h"
#include "tool_report.h"

namespace {

using namespace ftdl;

struct Args {
  std::string model = "Sentimental-seqCNN";
  std::string trace_path = "trace.json";
  std::string metrics_path = "metrics.json";
  std::string stream_path;  ///< empty = no binary event log
  std::int64_t budget = 8'000;
  std::int64_t sim_macs_limit = 500'000'000;
  std::string cache_dir;
  int jobs = 0;  ///< 0 = session default (FTDL_JOBS env / hardware threads)
  bool no_sim = false;
  bool list = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  cli::parse(
      {"ftdl-prof",
       {"MODEL", "zoo model name or .ftdl spec path", &args.model, false},
       {cli::text("--trace", "FILE", "trace output path", &args.trace_path),
        cli::text("--metrics", "FILE", "metrics output path",
                  &args.metrics_path),
        cli::text("--stream", "FILE", "also record an ftdl-stream-v1 event log",
                  &args.stream_path),
        cli::integer("--budget", "N", "mapping-search budget per layer",
                     &args.budget, 1, 1'000'000'000),
        cli::integer("--jobs", "N",
                     "compiler parallelism (default FTDL_JOBS env, else "
                     "hardware threads)",
                     &args.jobs, 1, 1024),
        cli::text("--cache-dir", "DIR",
                  "persistent program cache (else FTDL_CACHE_DIR env)",
                  &args.cache_dir),
        cli::flag("--no-sim", "skip the cycle-level execution phase",
                  &args.no_sim),
        cli::integer("--sim-macs-limit", "N",
                     "skip simulation above N network MACs",
                     &args.sim_macs_limit, 0, 9'223'372'036'854'775'807LL),
        cli::flag("--list", "list the model zoo and exit", &args.list)}},
      argc, argv);
  return args;
}

/// Overlay the cycle-level phase runs on: small enough that functional
/// simulation of a whole network finishes in seconds (the schedule phase
/// still uses the full paper overlay).
arch::OverlayConfig sim_config() {
  arch::OverlayConfig c;
  c.d1 = 4;
  c.d2 = 2;
  c.d3 = 3;
  c.actbuf_words = 128;
  c.wbuf_words = 1024;
  c.psumbuf_words = 2048;
  c.clocks = fpga::ClockPair::from_high(650e6);
  return c;
}

std::int64_t overlay_macs(const nn::Network& net) {
  std::int64_t macs = 0;
  for (const nn::Layer& l : net.layers()) {
    if (l.on_overlay()) macs += l.macs() * l.repeat;
  }
  return macs;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.list) {
    for (const nn::Network& net : nn::mlperf_models()) {
      std::printf("%s\n", net.name().c_str());
    }
    return 0;
  }

  try {
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    // Attach the streaming backend (when requested) after the reset so the
    // log sees the run from its first event.
    obs::set_enabled(true, args.stream_path);

    compiler::CompilerSession& session = compiler::CompilerSession::global();
    if (args.jobs > 0) session.set_jobs(args.jobs);
    const std::string cache_dir = compiler::resolve_cache_dir(args.cache_dir);
    if (!cache_dir.empty()) {
      session.set_store(std::make_shared<compiler::ProgramStore>(cache_dir));
    }

    const nn::Network net = args.model.ends_with(".ftdl")
                                ? frontend::parse_network_file(args.model)
                                : nn::model_by_name(args.model);
    std::printf("ftdl-prof: %s (%lld overlay MACs)\n", net.name().c_str(),
                static_cast<long long>(overlay_macs(net)));

    // Phase 1 — compile + schedule on the full paper overlay.
    const compiler::NetworkSchedule sched = compiler::schedule_network(
        net, arch::paper_config(), compiler::Objective::Performance,
        args.budget);
    std::printf("  schedule: %.1f FPS, %.1f%% hardware efficiency\n",
                sched.fps(), 100.0 * sched.hardware_efficiency);

    // Phase 2 — host EWOP pipeline + multi-FPGA plan.
    const host::PipelineReport pipe =
        host::evaluate_pipeline(net, sched, host::HostModel{});
    std::printf("  host pipeline: %.2f host/overlay ratio (%s-bound)\n",
                pipe.host_over_overlay,
                pipe.ewop_bounds_throughput ? "host" : "overlay");
    const multifpga::MultiFpgaPlan plan = multifpga::partition_pipeline(sched, 2);
    std::printf("  2-FPGA plan: %.1f FPS, balance %.2f, resident=%s\n",
                plan.fps, plan.balance, plan.weights_resident ? "yes" : "no");
    const analyze::AnalysisResult part_check =
        analyze::analyze_partition(sched, plan);
    if (!part_check.diagnostics.empty()) {
      std::fputs(part_check.to_string().c_str(), stdout);
    }
    std::printf("  partition check: %d error(s), %d warning(s)\n",
                part_check.errors(), part_check.warnings());
    if (!part_check.ok()) return 1;

    // Phase 3 — cycle-level execution on a scaled-down overlay.
    const std::int64_t macs = overlay_macs(net);
    if (args.no_sim) {
      obs::count("prof/sim_skipped");
    } else if (macs > args.sim_macs_limit) {
      std::printf("  cycle sim: SKIPPED (%lld MACs > limit %lld; "
                  "--sim-macs-limit raises it)\n",
                  static_cast<long long>(macs),
                  static_cast<long long>(args.sim_macs_limit));
      obs::count("prof/sim_skipped");
    } else {
      try {
        const runtime::WeightStore weights =
            runtime::WeightStore::random_for(net, 2);
        runtime::ExecOptions opt;
        opt.path = runtime::OverlayPath::CycleSim;
        opt.config = sim_config();
        opt.search_budget_per_layer = args.budget;
        const runtime::ExecResult r = runtime::run_network(
            net, tools::network_input(net, 1), weights, opt);
        std::printf("  cycle sim: %lld cycles over %zu layer runs\n",
                    static_cast<long long>(r.total_sim_cycles),
                    r.runs.size());
      } catch (const ConfigError& e) {
        // Recurrent networks are not executable feed-forward; the schedule
        // and pipeline phases above still profile them.
        std::printf("  cycle sim: SKIPPED (%s)\n", e.what());
        obs::count("prof/sim_skipped");
      }
    }

    obs::gauge("prof/schedule_fps", sched.fps());
    obs::gauge("prof/schedule_efficiency", sched.hardware_efficiency);

    const compiler::SessionStats ss = session.stats();
    std::printf("  session: jobs=%d, %lld cache hits / %lld misses, "
                "%lld programs (%.1f KiB)\n",
                session.jobs(), static_cast<long long>(ss.hits),
                static_cast<long long>(ss.misses),
                static_cast<long long>(ss.entries),
                double(ss.program_bytes) / 1024.0);
    if (!cache_dir.empty()) tools::print_cache_stats("  ", cache_dir, ss);

    reg.write_chrome_trace(args.trace_path);
    reg.write_metrics(args.metrics_path);
    std::printf("wrote %s (%zu events) and %s (%zu counters, %zu gauges)\n",
                args.trace_path.c_str(), reg.event_count(),
                args.metrics_path.c_str(), reg.metrics().counters.size(),
                reg.metrics().gauges.size());
    if (reg.stream_attached())
      tools::print_stream_stats(args.stream_path, reg.detach_stream());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "ftdl-prof: %s\n", e.what());
    return 1;
  }
}
