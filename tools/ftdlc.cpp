// ftdlc — the FTDL command-line compiler.
//
// Compiles a network spec (see src/frontend/spec_parser.h for the grammar)
// onto a parameterized overlay, printing the per-layer schedule and the
// network roll-up; optionally emits the controllers' encoded instruction
// streams, a whole-network bundle, a timing report and the overlay RTL.
// `ftdlc --bogus` prints the options (generated from the table below).
//
// Exit status: 0 = compiled clean, 1 = compile/verify/analysis error,
// 2 = usage error.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "analyze/analyze.h"
#include "analyze/network_io.h"
#include "common/cli.h"
#include "common/str_util.h"
#include "common/table.h"
#include "compiler/program_store.h"
#include "compiler/program_verify.h"
#include "compiler/session.h"
#include "frontend/spec_parser.h"
#include "ftdl/ftdl.h"
#include "rtlgen/verilog_gen.h"
#include "timing/timing_report.h"
#include "verify/verifier.h"
#include "tool_report.h"

namespace {

using namespace ftdl;

struct Args {
  std::string spec_path;
  FrameworkOptions fw;
  std::string emit_path;
  std::string bundle_path;
  std::string cache_dir;
  bool quiet = false;
  bool timing = false;
  bool verify = false;
  std::string rtl_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  arch::OverlayConfig& cfg = args.fw.config;
  double clock_mhz = cfg.clocks.clk_h_hz / 1e6;
  std::string objective = "obj1";
  cli::parse(
      {"ftdlc",
       {"NETWORK.ftdl", "network spec to compile", &args.spec_path, true},
       {cli::text("--device", "NAME", "target device", &args.fw.device_name),
        cli::integer("--d1", "N", "overlay D1", &cfg.d1, 1, 1'000'000),
        cli::integer("--d2", "N", "overlay D2", &cfg.d2, 1, 1'000'000),
        cli::integer("--d3", "N", "overlay D3", &cfg.d3, 1, 1'000'000),
        cli::real("--clock", "MHZ", "CLKh in MHz", &clock_mhz,
                  cli::Sign::Positive),
        cli::choice("--objective", "obj1|obj2",
                    "obj1 performance, obj2 balance", &objective),
        cli::integer("--budget", "N", "mapping-search budget per layer",
                     &args.fw.search_budget_per_layer, 1, 1'000'000'000),
        cli::integer("--jobs", "N",
                     "compiler parallelism (default FTDL_JOBS env, else "
                     "hardware threads)",
                     &args.fw.jobs, 1, 1024),
        cli::text("--emit", "FILE", "write the instruction words (hex)",
                  &args.emit_path),
        cli::text("--bundle", "FILE", "write the ftdl-network bundle",
                  &args.bundle_path),
        cli::flag("--verify", "statically verify every emitted stream",
                  &args.verify),
        cli::flag("--timing", "print the post-P&R style timing report",
                  &args.timing),
        cli::text("--rtl", "DIR", "generate the overlay's Verilog RTL",
                  &args.rtl_dir),
        cli::text("--cache-dir", "DIR",
                  "persistent program cache (else FTDL_CACHE_DIR env)",
                  &args.cache_dir),
        cli::flag("--quiet", "suppress the per-layer table", &args.quiet)}},
      argc, argv);
  cfg.clocks = fpga::ClockPair::from_high(clock_mhz * 1e6);
  if (objective == "obj2") args.fw.objective = compiler::Objective::Balance;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const std::string cache_dir = compiler::resolve_cache_dir(args.cache_dir);
    if (!cache_dir.empty()) {
      compiler::CompilerSession::global().set_store(
          std::make_shared<compiler::ProgramStore>(cache_dir));
    }

    const nn::Network net = frontend::parse_network_file(args.spec_path);
    Framework fw{args.fw};

    std::printf("ftdlc: %s -> %s on %s (fmax %s)\n", args.spec_path.c_str(),
                fw.config().to_string().c_str(), fw.device().name.c_str(),
                format_hz(fw.timing().clk_h_fmax_hz).c_str());

    if (args.timing) {
      timing::OverlayGeometry g;
      g.d1 = fw.config().d1;
      g.d2 = fw.config().d2;
      g.d3 = fw.config().d3;
      std::fputs(timing::render_timing_report(fw.device(), g,
                                              fw.config().clocks)
                     .c_str(),
                 stdout);
      std::printf("\n");
    }

    const NetworkReport report = fw.evaluate(net);

    if (!args.quiet) {
      AsciiTable table({"Layer", "Kind", "MACs", "Groups", "Cycles", "Eff.",
                        "E_WBUF"});
      for (const compiler::LayerProgram& lp : report.schedule.layers) {
        table.row({lp.layer.name, to_string(lp.layer.kind),
                   format_count(double(lp.layer.macs())),
                   std::to_string(lp.weight_groups),
                   std::to_string(lp.total_cycles()),
                   format_percent(lp.perf.hardware_efficiency),
                   strformat("%.2f", lp.perf.e_wbuf)});
      }
      table.print();
    }

    std::printf(
        "network %s: %zu overlay layers, %s MACs/frame\n"
        "  %.1f inferences/s | efficiency %s | %.1f W | %.1f GOPS/W\n",
        net.name().c_str(), report.schedule.layers.size(),
        format_count(double(report.schedule.overlay_macs)).c_str(),
        report.fps(),
        format_percent(report.schedule.hardware_efficiency).c_str(),
        report.power.total_w(), report.gops_per_w());

    if (!cache_dir.empty()) {
      tools::print_cache_stats("", cache_dir,
                               compiler::CompilerSession::global().stats());
    }

    if (args.verify) {
      int verify_errors = 0, verify_warnings = 0;
      for (const compiler::LayerProgram& lp : report.schedule.layers) {
        const verify::VerifyResult vr =
            compiler::verify_program(lp, fw.config());
        verify_errors += vr.errors();
        verify_warnings += vr.warnings();
        if (!vr.diagnostics.empty()) {
          std::printf("verify %s:\n", lp.layer.name.c_str());
          std::fputs(verify::annotate(lp.row_stream, vr).c_str(), stdout);
        }
      }
      std::printf("verify: %zu streams, %d error(s), %d warning(s)\n",
                  report.schedule.layers.size(), verify_errors,
                  verify_warnings);
      if (verify_errors) return 1;
    }

    // Whole-network static analysis over the compiled schedule: memory plan
    // liveness/overlap, producer/consumer shape agreement, program coverage.
    const analyze::ScheduledNetwork scheduled =
        analyze::make_scheduled(net, report.schedule);
    const analyze::AnalysisResult analysis =
        analyze::analyze_network(scheduled);
    if (!analysis.diagnostics.empty()) {
      std::fputs(analysis.to_string().c_str(), stdout);
    }
    std::printf("analyze: %llu-word DRAM image, %d error(s), %d warning(s)\n",
                static_cast<unsigned long long>(scheduled.memory.image_words),
                analysis.errors(), analysis.warnings());
    if (!analysis.ok()) return 1;

    if (!args.bundle_path.empty()) {
      analyze::save_network(scheduled, args.bundle_path);
      std::printf("network bundle written to %s\n", args.bundle_path.c_str());
    }

    if (!args.rtl_dir.empty()) {
      const int n = rtlgen::write_rtl_bundle(
          rtlgen::generate_overlay_rtl(fw.config()), args.rtl_dir);
      std::printf("%d RTL files written to %s\n", n, args.rtl_dir.c_str());
    }

    if (!args.emit_path.empty()) {
      std::ofstream out(args.emit_path);
      if (!out) throw Error("cannot open " + args.emit_path);
      for (const compiler::LayerProgram& lp : report.schedule.layers) {
        out << "# " << lp.layer.name << " (x" << lp.weight_groups
            << " weight groups)\n";
        for (std::uint64_t word : lp.encoded_stream()) {
          out << strformat("%016llx\n", static_cast<unsigned long long>(word));
        }
      }
      std::printf("instruction streams written to %s\n",
                  args.emit_path.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "ftdlc: error: %s\n", e.what());
    return 1;
  }
}
