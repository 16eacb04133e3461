// ftdl-lint — static verifier for compiled instruction artifacts.
//
// Disassembles a stream, runs the ftdl::verify analyzer against the
// configured overlay, and annotates every diagnostic on its offending
// instruction line. Accepts any artifact the compiler ships:
//
//   * a .ftdlprog program file (save_program / ftdl-program v1): the full
//     semantic verification — the stored stream must agree with the stored
//     mapping re-evaluated on the given overlay;
//   * an InstBUS hex word dump as written by `ftdlc --emit FILE`: one
//     16-hex-digit word per line, `#` comment lines delimit per-layer
//     streams; structural + resource checks only (no mapping available);
//   * a whole-network bundle (save_network / ftdl-network v1): every
//     embedded program is verified per-stream, then the whole-network
//     analyzer (ftdl::analyze) reports the memory/graph-family
//     diagnostics — overlapping tensor ranges, shape breaks, stale or
//     missing programs.
//
// `ftdl-lint --bogus` prints the options (generated from the table below).
//
// Exit status: 0 = clean, 1 = error diagnostics (or any diagnostic under
// --Werror), 2 = usage / unreadable input.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/network_io.h"
#include "arch/isa.h"
#include "arch/overlay_config.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/str_util.h"
#include "compiler/program_io.h"
#include "compiler/program_verify.h"
#include "verify/verifier.h"

namespace {

using namespace ftdl;

struct Args {
  std::string path;
  arch::OverlayConfig config = arch::paper_config();
  bool quiet = false;
  bool json = false;
  bool warnings_as_errors = false;
  bool require_network = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  arch::OverlayConfig& cfg = args.config;
  double clock_mhz = cfg.clocks.clk_h_hz / 1e6;
  cli::parse(
      {"ftdl-lint",
       {"FILE", ".ftdlprog, ftdl-network bundle or `ftdlc --emit` hex dump",
        &args.path, true},
       {cli::flag("--network", "require an ftdl-network bundle, no fallback",
                  &args.require_network),
        cli::flag("--json", "machine-readable diagnostics (ftdl-lint-v1)",
                  &args.json),
        cli::flag("--Werror", "promote warnings to the failing exit status",
                  &args.warnings_as_errors),
        cli::integer("--d1", "N", "overlay D1", &cfg.d1, 1, 1'000'000),
        cli::integer("--d2", "N", "overlay D2", &cfg.d2, 1, 1'000'000),
        cli::integer("--d3", "N", "overlay D3", &cfg.d3, 1, 1'000'000),
        cli::real("--clock", "MHZ", "CLKh in MHz", &clock_mhz,
                  cli::Sign::Positive),
        cli::flag("--quiet", "list only the failing streams", &args.quiet)}},
      argc, argv);
  cfg.clocks = fpga::ClockPair::from_high(clock_mhz * 1e6);
  return args;
}

/// One diagnostic in the unified report (stream diagnostics carry an
/// instruction index; network diagnostics carry a `where` entity).
struct ReportEntry {
  std::string severity;
  std::string check;
  std::string section;  ///< stream section / program label (may be empty)
  std::string where;    ///< network-level entity (may be empty)
  int index = -1;       ///< instruction index; -1 = not a stream diagnostic
  std::string message;
};

struct Report {
  std::string mode;
  std::vector<ReportEntry> entries;
  int errors = 0;
  int warnings = 0;

  void add_stream(const std::string& section, const verify::VerifyResult& vr) {
    errors += vr.errors();
    warnings += vr.warnings();
    for (const verify::Diagnostic& d : vr.diagnostics) {
      entries.push_back(ReportEntry{verify::to_string(d.severity),
                                    verify::to_string(d.check), section, "",
                                    d.index, d.message});
    }
  }

  void add_network(const analyze::AnalysisResult& ar) {
    errors += ar.errors();
    warnings += ar.warnings();
    for (const analyze::Diagnostic& d : ar.diagnostics) {
      entries.push_back(ReportEntry{verify::to_string(d.severity),
                                    analyze::to_string(d.check), "", d.where,
                                    -1, d.message});
    }
  }
};

void print_json(const Args& args, const Report& report) {
  std::printf("{\n  \"schema\": \"ftdl-lint-v1\",\n  \"file\": \"%s\",\n"
              "  \"mode\": \"%s\",\n  \"diagnostics\": [",
              json_escape(args.path).c_str(), report.mode.c_str());
  bool first = true;
  for (const ReportEntry& e : report.entries) {
    std::printf("%s\n    {\"severity\": \"%s\", \"check\": \"%s\"",
                first ? "" : ",", e.severity.c_str(), e.check.c_str());
    first = false;
    if (!e.section.empty())
      std::printf(", \"section\": \"%s\"", json_escape(e.section).c_str());
    if (!e.where.empty())
      std::printf(", \"where\": \"%s\"", json_escape(e.where).c_str());
    if (e.index >= 0) std::printf(", \"index\": %d", e.index);
    std::printf(", \"message\": \"%s\"}", json_escape(e.message).c_str());
  }
  std::printf("%s],\n  \"errors\": %d,\n  \"warnings\": %d\n}\n",
              report.entries.empty() ? "" : "\n  ", report.errors,
              report.warnings);
}

/// One `#`-delimited stream section of an --emit dump.
struct HexSection {
  std::string label;  ///< text of the introducing comment (may be empty)
  std::vector<std::uint64_t> words;
};

std::vector<HexSection> parse_hex_dump(const std::string& text) {
  std::vector<HexSection> sections;
  std::istringstream in(text);
  std::string line;
  auto current = [&]() -> HexSection& {
    if (sections.empty()) sections.push_back(HexSection{});
    return sections.back();
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // A comment starts a new per-layer stream (ftdlc --emit format).
      if (!sections.empty() && sections.back().words.empty() &&
          sections.back().label.empty()) {
        sections.back().label = line;
      } else {
        sections.push_back(HexSection{line, {}});
      }
      continue;
    }
    std::size_t pos = 0;
    std::uint64_t word = 0;
    try {
      word = std::stoull(line, &pos, 16);
    } catch (const std::exception&) {
      throw Error("not a hex InstBUS word: " + line);
    }
    if (pos != line.size()) throw Error("not a hex InstBUS word: " + line);
    current().words.push_back(word);
  }
  return sections;
}

void lint_hex_dump(const std::string& text, const Args& args,
                   Report& report) {
  report.mode = "hex";
  for (const HexSection& sec : parse_hex_dump(text)) {
    if (sec.words.empty()) continue;
    const verify::VerifyResult vr = verify::verify_words(sec.words, args.config);
    report.add_stream(sec.label, vr);
    if (args.json) continue;
    if (!sec.label.empty()) std::printf("%s\n", sec.label.c_str());
    if (!args.quiet || !vr.ok()) {
      std::fputs(verify::annotate(verify::decode_lenient(sec.words), vr).c_str(),
                 stdout);
    }
    std::printf("  -> %d error(s), %d warning(s)\n", vr.errors(), vr.warnings());
  }
}

void lint_program(const std::string& text, const Args& args, Report& report) {
  report.mode = "program";
  compiler::LayerProgram prog = compiler::deserialize_program(text, args.config);
  const verify::VerifyResult vr = compiler::verify_program(prog, args.config);
  const std::string label = "# " + prog.layer.name + " (x" +
                            std::to_string(prog.weight_groups) +
                            " weight groups)";
  report.add_stream(label, vr);
  if (args.json) return;
  std::printf("%s\n", label.c_str());
  if (!args.quiet || !vr.ok()) {
    std::fputs(verify::annotate(prog.row_stream, vr).c_str(), stdout);
  }
  std::printf("  -> %d error(s), %d warning(s)\n", vr.errors(), vr.warnings());
}

void lint_network(const std::string& text, const Args& args, Report& report) {
  report.mode = "network";
  // Per-program verification happens inside the bundle parse (each embedded
  // program re-runs the analytical model + stream verifier, throwing on the
  // first mismatch); the network-level analyzer then reports everything
  // it finds instead of stopping at the first.
  const analyze::ScheduledNetwork sn =
      analyze::parse_network_bundle(text, args.config);
  const analyze::AnalysisResult ar = analyze::analyze_network(sn);
  report.add_network(ar);
  if (args.json) return;
  std::printf("# %s: %zu layers, %zu programs, %llu-word DRAM image\n",
              sn.net.name().c_str(), sn.net.layers().size(),
              sn.schedule.layers.size(),
              static_cast<unsigned long long>(sn.memory.image_words));
  if (!args.quiet || !ar.ok()) std::fputs(ar.to_string().c_str(), stdout);
  std::printf("  -> %d error(s), %d warning(s)\n", ar.errors(), ar.warnings());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::ifstream in(args.path);
  if (!in) {
    std::fprintf(stderr, "ftdl-lint: cannot open %s\n", args.path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  Report report;
  try {
    const bool is_network = text.rfind("ftdl-network", 0) == 0;
    const bool is_program = text.rfind("ftdl-program", 0) == 0;
    if (args.require_network && !is_network)
      throw Error("--network given but the input is not a ftdl-network "
                  "bundle");
    if (is_network) lint_network(text, args, report);
    else if (is_program) lint_program(text, args, report);
    else lint_hex_dump(text, args, report);
  } catch (const Error& e) {
    // Undecodable artifacts (bad format, or an embedded program whose
    // stream disagrees with its mapping) fail before diagnostics exist.
    if (args.json) {
      std::printf("{\n  \"schema\": \"ftdl-lint-v1\",\n  \"file\": \"%s\",\n"
                  "  \"fatal\": \"%s\",\n  \"errors\": 1,\n"
                  "  \"warnings\": 0\n}\n",
                  json_escape(args.path).c_str(),
                  json_escape(e.what()).c_str());
    } else {
      std::printf("FAIL: %s\n", e.what());
    }
    return 1;
  }
  if (args.json) print_json(args, report);
  const bool fail =
      report.errors > 0 || (args.warnings_as_errors && report.warnings > 0);
  return fail ? 1 : 0;
}
