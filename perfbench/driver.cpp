// perfbench-driver — the measuring half of the repository benchmark.
//
// perfbench/run.py builds this program and runs it once per phase of a
// benchmark run; the driver prints one JSON object per invocation as the last
// line of its standard output. It calls only the public API of each module
// (serve::Server, runtime::ExecContext, nn::*_reference, sim::simulate_layer,
// compiler::CompilerSession / ProgramStore, analyze::analyze_graph) and times
// those calls from outside; the library is never patched.
//
//   perfbench-driver WORKLOAD --mode MODE --seed N --seconds S
//                    --root DIR --work DIR [--smoke]
//
// Workloads (perfbench/README.md has the rationale of each):
//   serve-cnn-sim          closed loop, 4 clients, Sentimental-seqCNN on the
//                          CycleSim path, scaled overlay (4,2,3), 2 workers
//   serve-lenet-ref-open   open loop, seeded Poisson arrivals, LeNet spec on
//                          the Reference path, 2 workers
//   zoo-resnet50           Objective-3 sweep (cold, then warm-store
//                          restarts), ExecContext warm-up, warm CycleSim
//                          frames
//
// Modes:
//   setup     set-up only; reports when the workload became ready
//   main      the untraced measurement (library obs off)
//   traced    the measurement with library obs on for half of the headline
//             segments (obs.overhead_pct compares the two halves), then the
//             per-layer probes with obs off
//   expected  the committed correctness values (perfbench/expected.json),
//             computed from the Reference path and the stats-only simulator
//   env       build and host facts
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/analyze.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "compiler/program_io.h"
#include "compiler/program_store.h"
#include "compiler/session.h"
#include "fpga/device_zoo.h"
#include "frontend/spec_parser.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"
#include "obs/obs.h"
#include "runtime/executor.h"
#include "runtime/weight_store.h"
#include "serve/serve.h"
#include "sim/ftdl_sim.h"

namespace {

using namespace ftdl;
using Clock = std::chrono::steady_clock;

// ---- fixed parameters ------------------------------------------------------

/// Weights are fixed (not drawn from --seed) so the committed output digests
/// of perfbench/expected.json hold for every run.
constexpr std::uint64_t kWeightSeed = 1001;
/// Seeds of the committed gate inputs (perfbench/expected.json).
constexpr std::uint64_t kGateSeed = 0x6a7e'0000;
constexpr int kServeGateInputs = 8;
constexpr int kResnetGateInputs = 2;
/// Distinct request inputs per serving run, drawn from --seed.
constexpr int kPoolInputs = 64;

constexpr int kServeWorkers = 2;
constexpr int kClosedClients = 4;

/// Open loop: nominal rate, latency limit and the fixed geometric ladder.
constexpr double kNominalRps = 300.0;
constexpr double kSloMs = 20.0;
constexpr double kLadderBase = 300.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderTop = 45;  ///< rungs 0..45: 300 .. ~2696 req/s
/// A ladder step stops sending (and fails) once this many requests are
/// pending: the backlog is growing, and stopping early keeps the step clear
/// of the admission bound (queue_depth 64), so it never causes a rejection.
constexpr std::size_t kBacklogAbort = 32;
/// The sender has fallen behind, and the run is invalid, when its p99
/// lateness exceeds the latency limit itself. Lateness below that is part of
/// each request's latency, which runs from the due time.
constexpr double kLatenessLimitMs = kSloMs;

/// Objective-3 sweep of the zoo workload.
constexpr int kSweepTpes = 1200;
constexpr std::int64_t kSweepBudget = 2'000;

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process (every thread), in ms. A guest kernel with
/// paravirtualized steal accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING, the
/// usual KVM guest setting) leaves out the time the hypervisor gave to other
/// guests, so on a shared virtual machine this reads the work the program
/// did, where wall time also reads the load of the host's other guests.
double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}

// ---- statistics --------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The tail percentile a sample supports: p99 from 1000 samples on;
/// below that the highest whole percentile with at least ten samples beyond
/// it, and the maximum when fewer than 20 samples exist.
double tail_pct(std::size_t n) {
  if (n >= 1000) return 99.0;
  if (n < 20) return 100.0;
  return std::floor(100.0 * (1.0 - 10.0 / double(n)));
}

double tail(const std::vector<double>& v) {
  return quantile(v, tail_pct(v.size()) / 100.0);
}

// ---- output ------------------------------------------------------------------

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Everything one invocation reports: operation accounting, metrics by name,
/// and exact values (digests, deterministic model figures) that run.py
/// compares with perfbench/expected.json.
class Report {
 public:
  void op(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (errors_.size() < 16) errors_.push_back(what);
    }
  }
  void error(const std::string& what) { op(false, what); }
  void metric(const std::string& name, double v) { metrics_[name] = v; }
  void exact(const std::string& name, const std::string& v) {
    exact_[name] = v;
  }
  void exact(const std::string& name, double v) { exact_[name] = json_num(v); }
  void info(const std::string& name, double v) { info_[name] = v; }

  std::string json() const {
    std::string s = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"errors\": [";
    for (std::size_t i = 0; i < errors_.size(); ++i)
      s += (i ? ", " : "") + json_str(errors_[i]);
    s += "], \"metrics\": " + object(metrics_);
    s += ", \"info\": " + object(info_);
    s += ", \"exact\": {";
    bool first = true;
    for (const auto& [k, v] : exact_) {
      s += (first ? "" : ", ") + json_str(k) + ": " + json_str(v);
      first = false;
    }
    return s + "}}";
  }

 private:
  static std::string object(const std::map<std::string, double>& m) {
    std::string s = "{";
    bool first = true;
    for (const auto& [k, v] : m) {
      s += (first ? "" : ", ") + json_str(k) + ": " + json_num(v);
      first = false;
    }
    return s + "}";
  }

  std::mutex mu_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, double> metrics_;
  std::map<std::string, double> info_;
  std::map<std::string, std::string> exact_;
};

// ---- arguments -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::string mode = "main";
  std::string root = ".";
  std::string work = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  int jobs = 1;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench-driver: %s\n"
               "usage: perfbench-driver WORKLOAD --mode "
               "setup|main|traced|expected|env --seed N --seconds S\n"
               "                        --root DIR --work DIR [--smoke]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  a.jobs = default_jobs();
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + s);
      return argv[++i];
    };
    if (s == "--mode") a.mode = next();
    else if (s == "--root") a.root = next();
    else if (s == "--work") a.work = next();
    else if (s == "--smoke") a.smoke = true;
    else if (s == "--seed") {
      std::int64_t v = 0;
      if (!parse_int_strict(next().c_str(), 0, INT64_MAX, &v))
        usage("--seed needs a non-negative integer");
      a.seed = static_cast<std::uint64_t>(v);
    } else if (s == "--seconds") {
      double v = 0.0;
      if (!parse_double_strict(next().c_str(), &v) || v <= 0.0)
        usage("--seconds needs a positive number");
      a.seconds = v;
    } else if (!s.empty() && s[0] == '-') {
      usage("unknown option " + s);
    } else {
      a.workload = s;
    }
  }
  static const char* kModes[] = {"setup", "main", "traced", "expected", "env"};
  if (std::find_if(std::begin(kModes), std::end(kModes), [&](const char* m) {
        return a.mode == m;
      }) == std::end(kModes))
    usage("unknown mode " + a.mode);
  if (a.mode != "env" && a.workload != "serve-cnn-sim" &&
      a.workload != "serve-lenet-ref-open" && a.workload != "zoo-resnet50")
    usage("unknown workload '" + a.workload + "'");
  return a;
}

// ---- inputs and digests -----------------------------------------------------------

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a * 0x9e3779b97f4a7c15ULL + b);
  return r.next_u64();
}

nn::Tensor16 make_input(const nn::Network& net, std::uint64_t seed) {
  const nn::Layer& first = net.layers().front();
  nn::Tensor16 t = first.kind == nn::LayerKind::MatMul
                       ? nn::Tensor16({static_cast<int>(first.mm_m),
                                       static_cast<int>(first.mm_p)})
                       : nn::Tensor16({first.in_c, first.in_h, first.in_w});
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

std::uint64_t digest(const nn::Tensor16& t) {
  Hash64 h;
  h.u64(t.dims().size());
  for (int d : t.dims()) h.i32(d);
  h.bytes(t.data(), static_cast<std::size_t>(t.size()) * sizeof(std::int16_t));
  return h.digest();
}

nn::Tensor16 random_tensor(const std::vector<int>& dims, std::uint64_t seed) {
  nn::Tensor16 t(dims);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

std::vector<int> layer_input_dims(const nn::Layer& l) {
  if (l.kind == nn::LayerKind::MatMul)
    return {static_cast<int>(l.mm_m), static_cast<int>(l.mm_p)};
  return {l.in_c, l.in_h, l.in_w};
}

// ---- workload models -----------------------------------------------------------

struct Model {
  nn::Network net{""};
  runtime::ExecOptions exec;
};

Model load_model(const Args& a) {
  Model m;
  m.exec.collect_runs = false;
  if (a.workload == "serve-cnn-sim") {
    m.net = nn::model_by_name("Sentimental-seqCNN");
    m.exec.path = runtime::OverlayPath::CycleSim;
    // ftdl-serve's scaled overlay: the functional simulator executes every
    // MACC, so the serving demo runs a small array.
    m.exec.config.d1 = 4;
    m.exec.config.d2 = 2;
    m.exec.config.d3 = 3;
  } else if (a.workload == "serve-lenet-ref-open") {
    const std::string path = a.root + "/examples/specs/lenet.ftdl";
    std::ifstream in(path);
    if (!in) throw Error("cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    m.net = frontend::parse_network_spec(text.str());
  } else {
    m.net = nn::model_by_name("ResNet50");
    m.exec.path = runtime::OverlayPath::CycleSim;
    m.exec.config = arch::paper_config();
    m.exec.search_budget_per_layer = kSweepBudget;
  }
  return m;
}

bool is_serve(const Args& a) { return a.workload != "zoo-resnet50"; }

/// A fresh, empty directory under the work dir.
std::string fresh_dir(const Args& a, const std::string& tag) {
  static int counter = 0;
  const std::string dir = a.work + "/" + tag + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---- compiling the workload's model ------------------------------------------------

/// A cold compile of the workload's model into an empty store.
struct CompileOutcome {
  compiler::NetworkSchedule schedule;
  double cold_cpu_s = 0.0;  ///< process CPU seconds of the compile
  compiler::SessionStats cold_stats;
  compiler::StoreStats cold_store;
  std::string store_dir;
};

/// The workload's compile: the Objective-3 sweep on the zoo workload, the
/// model's schedule at its ExecOptions overlay otherwise.
compiler::NetworkSchedule compile_model(const Args& a, const Model& m,
                                        compiler::CompilerSession& session) {
  if (is_serve(a))
    return session.schedule(m.net, m.exec.config,
                            compiler::Objective::Performance,
                            m.exec.search_budget_per_layer);
  return session
      .best_hw_config(m.net, arch::paper_config(), fpga::ultrascale_vu125(),
                      kSweepTpes, kSweepBudget)
      .schedule;
}

CompileOutcome cold_compile(const Args& a, const Model& m) {
  CompileOutcome c;
  c.store_dir = fresh_dir(a, "store");
  compiler::CompilerSession session(a.jobs);
  auto store = std::make_shared<compiler::ProgramStore>(c.store_dir);
  session.set_store(store);
  const double cpu0 = cpu_ms();
  c.schedule = compile_model(a, m, session);
  c.cold_cpu_s = (cpu_ms() - cpu0) / 1e3;
  c.cold_stats = session.stats();
  c.cold_store = store->stats();
  return c;
}

/// Whether two schedules are the same: overlay, totals and every layer's
/// program (its serialized form, as the program store writes it).
bool same_schedule(const compiler::NetworkSchedule& x,
                   const compiler::NetworkSchedule& y) {
  if (x.total_cycles != y.total_cycles || x.config.d1 != y.config.d1 ||
      x.config.d2 != y.config.d2 || x.config.d3 != y.config.d3 ||
      x.hardware_efficiency != y.hardware_efficiency ||
      x.layers.size() != y.layers.size())
    return false;
  for (std::size_t i = 0; i < x.layers.size(); ++i)
    if (compiler::serialize_program(x.layers[i]) !=
        compiler::serialize_program(y.layers[i]))
      return false;
  return true;
}

// ---- serving --------------------------------------------------------------------

struct RequestSample {
  double latency_ms = 0.0;  ///< closed loop: submit -> result; open: due -> result
  double submit_us = 0.0;
  double queue_ms = 0.0;
  double execute_ms = 0.0;
  double late_ms = 0.0;     ///< open loop: send time minus due time
  double done_ms = 0.0;     ///< open loop: completion, ms after the phase start
  std::uint64_t batch_id = 0;
};

struct ServeRun {
  std::vector<RequestSample> samples;
  std::int64_t rejected = 0;  ///< open loop: submissions not admitted
  double seconds = 0.0;       ///< closed loop: measured wall time
};

/// The serving set-up shared by every mode: model, weights, server, first
/// response.
struct ServeSetup {
  Model model;
  runtime::WeightStore weights;
  std::unique_ptr<serve::Server> server;
  std::int64_t ready_ns = 0;
  double first_response_ms = 0.0;
};

serve::ServerOptions server_options(const Model& m) {
  serve::ServerOptions opt;
  opt.workers = kServeWorkers;
  opt.exec = m.exec;
  return opt;
}

void setup_serve(const Args& a, ServeSetup& s, Report& rep) {
  s.model = load_model(a);
  s.weights = runtime::WeightStore::random_for(s.model.net, kWeightSeed);
  const std::int64_t t0 = mono_ns();
  {
    s.server = std::make_unique<serve::Server>(s.model.net, s.weights,
                                               server_options(s.model));
  }
  serve::Submission sub = s.server->submit(make_input(s.model.net, kGateSeed));
  if (!sub.accepted) throw Error("first request rejected");
  const serve::InferenceResult r = sub.result.get();
  s.ready_ns = mono_ns();
  s.first_response_ms = double(s.ready_ns - t0) / 1e6;
  rep.exact("gate.0", hex64(digest(r.output)));
}

/// Per-run request inputs (from --seed) and their outputs from a serial
/// Reference-path ExecContext: every served output must equal its entry.
struct RequestPool {
  std::vector<nn::Tensor16> inputs;
  std::vector<std::uint64_t> expected;
};

RequestPool make_pool(const Args& a, const ServeSetup& s) {
  RequestPool p;
  runtime::ExecOptions ref = s.model.exec;
  ref.path = runtime::OverlayPath::Reference;
  runtime::ExecContext ctx(s.model.net, s.weights, ref);
  const int n = a.smoke ? 8 : kPoolInputs;
  for (int i = 0; i < n; ++i) {
    p.inputs.push_back(make_input(s.model.net, mix(a.seed, std::uint64_t(i))));
    p.expected.push_back(digest(ctx.run(p.inputs.back()).output));
  }
  return p;
}

/// Measurements of the compile and runtime layers that a workload takes
/// beside its headline phase: cold compiles into an empty store (CPU time),
/// warm-memory reschedules, fresh-session restarts against the warm store
/// (each a stand-in for a restarted process sharing the cache directory), and
/// warm ExecContext runs (wall time). They run in short interleaved rounds,
/// so the samples of each metric spread over the run.
class SidePhase {
 public:
  /// `cold` is the process's first cold compile; its store is the warm one.
  SidePhase(const Args& a, const Model& m, CompileOutcome cold, Report& rep)
      : a_(a), m_(m), cold_(std::move(cold)), rep_(rep),
        warm_(a.jobs) {
    cold_cpu_s_.push_back(cold_.cold_cpu_s);
    warm_.set_store(std::make_shared<compiler::ProgramStore>(cold_.store_dir));
    compile_model(a_, m_, warm_);
  }

  /// Adds warm ExecContext runs with the workload's options to each round.
  void with_frames(const runtime::WeightStore& weights,
                   const RequestPool& pool) {
    ctx_ = std::make_unique<runtime::ExecContext>(m_.net, weights, m_.exec);
    pool_ = &pool;
  }

  /// Runs rounds until `ms` have passed, and at least one.
  void run_for(double ms) {
    const auto start = Clock::now();
    do round();
    while (ms_between(start, Clock::now()) < ms);
  }

  const std::string& store_dir() const { return cold_.store_dir; }

  /// Reports the median of each timing.
  void report() {
    const double restart_ms = median(restart_ms_);
    rep_.metric("compile_cpu_s", median(cold_cpu_s_));
    rep_.info("program_store.restart_ms", restart_ms);
    if (ctx_) rep_.info("runtime.frame_ms", median(frame_ms_));
    const compiler::NetworkSchedule& sched = cold_.schedule;
    rep_.metric("model_fps", sched.fps());
    rep_.metric("hw_eff", sched.hardware_efficiency);
    rep_.exact("model_fps", sched.fps());
    rep_.exact("hw_eff", sched.hardware_efficiency);
    rep_.exact("schedule_cycles", double(sched.total_cycles));
    const compiler::SessionStats& cs = cold_.cold_stats;
    const std::int64_t lookups = cs.hits + cs.misses;
    rep_.info("compiler.hit_frac",
              lookups ? double(cs.hits) / double(lookups) : 0.0);
    rep_.info("compiler.misses", double(cs.misses));
    rep_.info("compiler.program_kib", double(cs.program_bytes) / 1024.0);
    rep_.info("compiler.schedule_warm_ms", median(warm_ms_));
    rep_.info("program_store.written_kib",
              double(cold_.cold_store.bytes_written) / 1024.0);
    rep_.info("program_store.disk_hits", double(last_.hits));
    rep_.info("program_store.disk_misses", double(last_.misses));
    rep_.info("program_store.evictions", double(last_.evictions));
    rep_.info("program_store.load_ms",
              last_.hits ? restart_ms / double(last_.hits) : 0.0);
  }

 private:
  void round() {
    // A serving model cold-compiles in milliseconds, so each round adds a
    // cold sample; the zoo sweep takes one per process (run.py collects the
    // set-up processes' samples).
    if (is_serve(a_)) {
      CompileOutcome again = cold_compile(a_, m_);
      rep_.op(same_schedule(again.schedule, cold_.schedule),
              "cold compile differs between sessions");
      cold_cpu_s_.push_back(again.cold_cpu_s);
      std::filesystem::remove_all(again.store_dir);
    }
    for (int i = 0; i < (is_serve(a_) ? 5 : 4); ++i) {
      compiler::CompilerSession session(a_.jobs);
      auto store = std::make_shared<compiler::ProgramStore>(cold_.store_dir);
      session.set_store(store);
      const auto t0 = Clock::now();
      const compiler::NetworkSchedule s = compile_model(a_, m_, session);
      restart_ms_.push_back(ms_between(t0, Clock::now()));
      rep_.op(same_schedule(s, cold_.schedule), "warm-store restart differs");
      if (session.stats().misses != 0)
        rep_.error("warm-store restart ran the mapping search");
      last_ = store->stats();
    }
    {
      const auto t0 = Clock::now();
      const compiler::NetworkSchedule s = compile_model(a_, m_, warm_);
      warm_ms_.push_back(ms_between(t0, Clock::now()));
      rep_.op(same_schedule(s, cold_.schedule), "warm reschedule differs");
    }
    if (!ctx_) return;
    const auto start = Clock::now();
    do {
      const std::size_t k = next_input_++ % pool_->inputs.size();
      const auto t0 = Clock::now();
      const runtime::ExecResult r = ctx_->run(pool_->inputs[k]);
      frame_ms_.push_back(ms_between(t0, Clock::now()));
      rep_.op(digest(r.output) == pool_->expected[k],
              "ExecContext output differs from the Reference path");
    } while (ms_between(start, Clock::now()) < 20.0);
  }

  const Args& a_;
  const Model& m_;
  CompileOutcome cold_;
  Report& rep_;
  compiler::CompilerSession warm_;  ///< memory cache filled from the store
  std::unique_ptr<runtime::ExecContext> ctx_;
  const RequestPool* pool_ = nullptr;
  std::size_t next_input_ = 0;
  std::vector<double> cold_cpu_s_, restart_ms_, warm_ms_, frame_ms_;
  compiler::StoreStats last_{};
};

ServeRun closed_loop(const Args& a, serve::Server& server,
                     const RequestPool& pool, double seconds, Report& rep) {
  ServeRun run;
  std::vector<std::vector<RequestSample>> per_client(kClosedClients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClosedClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
        const std::size_t idx =
            mix(a.seed ^ 0xc1c1, (std::uint64_t(c) << 32) | k) %
            pool.inputs.size();
        nn::Tensor16 input = pool.inputs[idx];
        const auto t0 = Clock::now();
        serve::Submission sub = server.submit(std::move(input));
        const auto t1 = Clock::now();
        if (!sub.accepted) {
          rep.error(std::string("rejected: ") + serve::to_string(sub.reject_reason));
          continue;
        }
        try {
          const serve::InferenceResult r = sub.result.get();
          const auto t2 = Clock::now();
          RequestSample smp;
          smp.latency_ms = ms_between(t0, t2);
          smp.submit_us = ms_between(t0, t1) * 1e3;
          smp.queue_ms = r.queue_us / 1e3;
          smp.execute_ms = r.execute_us / 1e3;
      smp.batch_id = r.batch_id;
          per_client[std::size_t(c)].push_back(smp);
          rep.op(digest(r.output) == pool.expected[idx],
                 "served output differs from the Reference path");
        } catch (const std::exception& e) {
          rep.error(std::string("request failed: ") + e.what());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  run.seconds = ms_between(start, Clock::now()) / 1e3;
  for (auto& v : per_client)
    run.samples.insert(run.samples.end(), v.begin(), v.end());
  return run;
}

/// One open-loop phase: `n` seeded Poisson arrivals at `rate`, sent by this
/// thread at their due times. Latency runs from the due time: send lateness
/// plus the server's enqueue -> complete time.
struct OpenRun {
  ServeRun run;
  bool aborted = false;  ///< stopped on a growing backlog
  double drain_ms = 0.0; ///< last due -> last completion
};

OpenRun open_loop(serve::Server& server, const RequestPool& pool, double rate,
                  int n, std::uint64_t seed, bool backlog_abort, Report& rep) {
  OpenRun out;
  Rng rng(seed);
  struct Pending {
    std::size_t idx;
    double due_ms, send_ms;
    double submit_us;
    std::future<serve::InferenceResult> fut;
  };
  std::vector<Pending> pending;
  pending.reserve(std::size_t(n));
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  double due_ms = 0.0, last_due_ms = 0.0;
  for (int i = 0; i < n; ++i) {
    due_ms += -std::log(1.0 - rng.uniform01()) / rate * 1e3;
    const std::size_t idx = rng.next_u64() % pool.inputs.size();
    nn::Tensor16 input = pool.inputs[idx];
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(due_ms)));
    if (backlog_abort && server.queue_depth() >= kBacklogAbort) {
      out.aborted = true;
      break;
    }
    const auto t0 = Clock::now();
    serve::Submission sub = server.submit(std::move(input));
    const auto t1 = Clock::now();
    last_due_ms = due_ms;
    if (!sub.accepted) {
      ++out.run.rejected;
      rep.error(std::string("rejected: ") + serve::to_string(sub.reject_reason));
      continue;
    }
    pending.push_back({idx, due_ms, ms_between(start, t0),
                       ms_between(t0, t1) * 1e3, std::move(sub.result)});
  }
  double last_done_ms = 0.0;
  for (Pending& p : pending) {
    try {
      const serve::InferenceResult r = p.fut.get();
      RequestSample smp;
      smp.late_ms = p.send_ms - p.due_ms;
      smp.latency_ms = smp.late_ms + r.latency_us / 1e3;
      smp.submit_us = p.submit_us;
      smp.queue_ms = r.queue_us / 1e3;
      smp.execute_ms = r.execute_us / 1e3;
      smp.batch_id = r.batch_id;
      smp.done_ms = p.send_ms + r.latency_us / 1e3;
      last_done_ms = std::max(last_done_ms, smp.done_ms);
      out.run.samples.push_back(smp);
      rep.op(digest(r.output) == pool.expected[p.idx],
             "served output differs from the Reference path");
    } catch (const std::exception& e) {
      rep.error(std::string("request failed: ") + e.what());
    }
  }
  out.drain_ms = last_done_ms - last_due_ms;
  return out;
}

std::vector<double> field(const std::vector<RequestSample>& v,
                          double RequestSample::*f) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const RequestSample& s : v) out.push_back(s.*f);
  return out;
}

/// The rate at which the workers serve while busy: the worker count over the
/// median busy time per request. A batch's members run one after another, so
/// its busy time is its last member's execute time, shared by its members.
/// The median keeps a preempted worker's stall out of the rate.
double service_rps(const std::vector<RequestSample>& v) {
  std::map<std::uint64_t, std::pair<double, int>> batches;  // busy ms, size
  for (const RequestSample& s : v) {
    auto& b = batches[s.batch_id];
    b.first = std::max(b.first, s.execute_ms);
    ++b.second;
  }
  std::vector<double> per_request_ms;
  for (const auto& [id, b] : batches) per_request_ms.push_back(b.first / b.second);
  const double ms = median(per_request_ms);
  return ms > 0.0 ? kServeWorkers * 1e3 / ms : 0.0;
}

/// Latency, queue, execute and submit figures of a serving phase.
void serve_figures(const ServeRun& run, const serve::ServerStats& st,
                   Report& rep) {
  const std::vector<double> lat = field(run.samples, &RequestSample::latency_ms);
  rep.info("serve.latency_ms.p50", median(lat));
  rep.info("latency_samples", double(lat.size()));
  const std::vector<double> sub = field(run.samples, &RequestSample::submit_us);
  const std::vector<double> q = field(run.samples, &RequestSample::queue_ms);
  const std::vector<double> ex = field(run.samples, &RequestSample::execute_ms);
  rep.info("serve.submit_us.p50", median(sub));
  rep.info("serve.submit_us.p99", tail(sub));
  rep.info("serve.queue_ms.p50", median(q));
  rep.info("serve.queue_ms.p99", tail(q));
  rep.info("serve.execute_ms.p50", median(ex));
  rep.info("serve.execute_ms.p99", tail(ex));
  rep.info("serve.mean_batch", st.mean_batch_size());
  rep.info("serve.peak_queue", double(st.peak_queue_depth));
  const std::int64_t submitted = st.accepted + st.rejected();
  rep.info("serve.rejected_frac",
           submitted ? double(st.rejected()) / double(submitted) : 0.0);
}

/// Submits the committed gate inputs through the running server.
void serve_gate(ServeSetup& s, Report& rep) {
  for (int i = 1; i < kServeGateInputs; ++i) {
    serve::Submission sub =
        s.server->submit(make_input(s.model.net, kGateSeed + std::uint64_t(i)));
    if (!sub.accepted) {
      rep.error("gate request rejected");
      continue;
    }
    rep.exact("gate." + std::to_string(i),
              hex64(digest(sub.result.get().output)));
  }
}

/// The open-loop ladder: the highest rung that meets the latency limit with
/// no rejection and no growing backlog, found by bisection over the fixed
/// rungs (pass/fail is monotone in the rate). The p99 of one rung is noisy
/// near the limit, so a rung whose p99 lands within 25 % of it is run a
/// second time and judged on the pooled samples.
double slo_ladder(const Args& a, serve::Server& server, const RequestPool& pool,
                  Report& rep, std::vector<double>& lateness) {
  const int per_test = a.smoke ? 100 : 1200;
  auto drain = [&] {
    while (server.queue_depth() != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  int lo = -1, hi = a.smoke ? 4 : kLadderTop;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    const double rate = kLadderBase * std::pow(kLadderStep, mid);
    std::vector<double> lat;
    bool clean = true;  // no backlog, rejection or slow drain
    for (int test = 0; test < 2 && clean; ++test) {
      const OpenRun r = open_loop(
          server, pool, rate, per_test,
          mix(a.seed ^ 0x1add, std::uint64_t(mid) * 2 + std::uint64_t(test)),
          true, rep);
      drain();
      for (const RequestSample& smp : r.run.samples) {
        lat.push_back(smp.latency_ms);
        lateness.push_back(smp.late_ms);
      }
      clean = !r.aborted && r.run.rejected == 0 &&
              r.run.samples.size() == std::size_t(per_test) &&
              r.drain_ms <= kSloMs;
      const double p = tail(lat);
      if (p < 0.8 * kSloMs || p > 1.25 * kSloMs) break;  // unambiguous
    }
    const bool pass = clean && tail(lat) <= kSloMs;
    std::fprintf(stderr,
                 "perfbench: ladder rung %d (%.0f req/s): %s p%.0f=%.2f ms "
                 "over %zu requests\n",
                 mid, rate, pass ? "pass" : "fail", tail_pct(lat.size()),
                 tail(lat), lat.size());
    if (pass) lo = mid;
    else hi = mid - 1;
  }
  return lo < 0 ? 0.0 : kLadderBase * std::pow(kLadderStep, lo);
}

// ---- per-layer probes -----------------------------------------------------------

/// Median wall time of `fn` in ms, repeated until `min_ms` of samples or
/// `max_reps` calls.
template <typename Fn>
double time_median_ms(Fn&& fn, double min_ms, int min_reps, int max_reps) {
  std::vector<double> ms;
  double total = 0.0;
  while (int(ms.size()) < max_reps &&
         (int(ms.size()) < min_reps || total < min_ms)) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_between(t0, Clock::now()));
    total += ms.back();
  }
  return median(ms);
}

/// nn reference kernels per request: time of the kernels the workload's path
/// actually calls (conv/mm on the Reference path only; pooling on both).
void probe_nn(const Args& a, const Model& m, Report& rep) {
  const bool ref = m.exec.path == runtime::OverlayPath::Reference;
  double conv = 0.0, mm = 0.0, pool = 0.0;
  const int reps = a.smoke ? 1 : 5;
  std::uint64_t salt = 0;
  for (const nn::Layer& l : m.net.layers()) {
    const bool is_conv = l.kind == nn::LayerKind::Conv ||
                         l.kind == nn::LayerKind::Depthwise;
    if ((is_conv || l.kind == nn::LayerKind::MatMul) && !ref) continue;
    if (!is_conv && l.kind != nn::LayerKind::MatMul &&
        l.kind != nn::LayerKind::Pool)
      continue;
    const nn::Tensor16 in = random_tensor(layer_input_dims(l), ++salt);
    if (l.kind == nn::LayerKind::Pool) {
      pool += time_median_ms(
          [&] {
            const nn::Tensor16 o = l.pool_op == nn::PoolOp::Max
                                       ? nn::maxpool_reference(l, in)
                                       : nn::avgpool_reference(l, in);
            if (o.size() == 0) rep.error("empty pool output");
          },
          5.0, reps, 200);
      continue;
    }
    const nn::Tensor16 w = random_tensor(runtime::weight_dims(l), ++salt);
    const double t = time_median_ms(
        [&] {
          const nn::AccTensor o =
              l.kind == nn::LayerKind::Conv ? nn::conv2d_reference(l, in, w)
              : l.kind == nn::LayerKind::Depthwise
                  ? nn::depthwise_reference(l, in, w)
                  : nn::matmul_reference(l, in, w);
          if (o.size() == 0) rep.error("empty reference output");
        },
        5.0, reps, 200);
    (is_conv ? conv : mm) += t;
  }
  rep.info("nn.conv_ref_ms", conv);
  rep.info("nn.mm_ref_ms", mm);
  rep.info("nn.pool_ref_ms", pool);
}

void probe_analyze(const Args& a, const Model& m, Report& rep) {
  // Only the serving workloads analyze their graph (serve::Server does).
  double ms = 0.0;
  if (is_serve(a)) {
    ms = time_median_ms(
        [&] {
          const analyze::AnalysisResult r =
              analyze::analyze_graph(m.net, analyze::GraphStrictness::Serving);
          if (!r.ok()) rep.error("analyze_graph reported errors");
        },
        20.0, a.smoke ? 3 : 50, 2000);
  }
  rep.info("analyze.graph_ms", ms);
}

void probe_runtime(const Args& a, const Model& m,
                   const runtime::WeightStore& weights,
                   const std::vector<nn::Tensor16>& inputs, Report& rep) {
  runtime::ExecOptions opt = m.exec;
  opt.sim_jobs = 1;  // single-thread run time
  // Warm-up with a warm compile cache: the runtime's own set-up work.
  std::vector<double> warm_ms;
  const int warm_reps = a.smoke ? 1 : (is_serve(a) ? 5 : 1);
  std::unique_ptr<runtime::ExecContext> ctx;
  for (int i = 0; i < warm_reps; ++i) {
    const auto t0 = Clock::now();
    ctx = std::make_unique<runtime::ExecContext>(m.net, weights, opt);
    warm_ms.push_back(ms_between(t0, Clock::now()));
  }
  rep.info("runtime.warmup_ms", median(warm_ms));
  std::vector<double> run_ms;
  const std::size_t runs =
      is_serve(a) ? (a.smoke ? 4 : 32) : 1;  // a ResNet50 serial frame is ~9 s
  for (std::size_t i = 0; i < runs; ++i) {
    const auto t0 = Clock::now();
    const runtime::ExecResult r = ctx->run(inputs[i % inputs.size()]);
    run_ms.push_back(ms_between(t0, Clock::now()));
    if (r.output.size() == 0) rep.error("empty ExecContext output");
  }
  rep.info("runtime.run_ms.p50", median(run_ms));
  const ArenaStats as = ctx->arena_stats();
  rep.info("runtime.arena_high_water_mb", double(as.high_water_bytes) / 1048576.0);
  rep.info("runtime.arena_fallback_allocs", double(as.fallback_allocs));
}

/// Cold compile time of each overlay layer: a fresh single-thread session
/// with no store per layer, so every layer runs the mapping search.
std::map<std::string, double> probe_compile(const Model& m, Report& rep) {
  std::map<std::string, double> ms;
  double sum = 0.0, max = 0.0;
  for (const nn::Layer& l : m.net.overlay_layers()) {
    compiler::CompilerSession cold(1);
    const auto t0 = Clock::now();
    cold.compile(l, m.exec.config, compiler::Objective::Performance,
                 m.exec.search_budget_per_layer);
    ms[l.name] = ms_between(t0, Clock::now());
    sum += ms[l.name];
    max = std::max(max, ms[l.name]);
  }
  rep.info("compiler.layer_ms.sum", sum);
  rep.info("compiler.layer_ms.max", max);
  return ms;
}

/// One simulated unit of a layer: the layer itself, or one weight-group
/// slice when its weights exceed the WBUF (as runtime::ExecContext splits).
struct SimUnit {
  compiler::LayerProgram prog;
  nn::Tensor16 weights, input;
};

nn::Layer group_slice(const nn::Layer& l, int n) {
  nn::Layer g = l;
  if (l.kind == nn::LayerKind::Conv) g.out_c = n;
  else if (l.kind == nn::LayerKind::Depthwise) g.in_c = g.out_c = n;
  else g.mm_n = n;
  return g;
}

std::vector<SimUnit> sim_units(const nn::Layer& l, const arch::OverlayConfig& cfg,
                               std::int64_t budget,
                               compiler::CompilerSession& session,
                               std::uint64_t salt) {
  std::vector<SimUnit> units;
  const compiler::LayerProgram master =
      session.compile(l, cfg, compiler::Objective::Performance, budget);
  const int total = l.kind == nn::LayerKind::Conv        ? l.out_c
                    : l.kind == nn::LayerKind::Depthwise ? l.in_c
                                                         : int(l.mm_n);
  const int groups = master.weight_groups;
  const int gsz = (total + groups - 1) / groups;
  for (int off = 0; off < total; off += gsz) {
    const nn::Layer g = groups == 1 ? l : group_slice(l, std::min(gsz, total - off));
    SimUnit u;
    u.prog = groups == 1 ? master
                         : session.compile(g, cfg, compiler::Objective::Performance,
                                           budget);
    u.weights = random_tensor(runtime::weight_dims(g), salt + std::uint64_t(off));
    u.input = random_tensor(layer_input_dims(g), salt + 7777 + std::uint64_t(off));
    units.push_back(std::move(u));
  }
  return units;
}

std::string ledger_label(const std::string& name) {
  std::string s = name;
  std::replace(s.begin(), s.end(), '/', '_');
  return s;
}

/// Per-layer simulator probes and the per-layer ledger: compile ms (cold),
/// cache tier on a warm-store restart, sim ms at jobs 1 and N, simulated
/// cycles next to the analytical C_exe, valid/padded MACCs, efficiency.
void probe_sim(const Args& a, const Model& m, const std::string& store_dir,
               const std::map<std::string, double>& compile_ms_by_layer,
               Report& rep) {
  static const char* kNamed[] = {"conv1_7x7_s2", "res2_1_conv1_1x1",
                                 "res4_1_conv2_3x3", "fc1000", "conv_w3"};
  std::map<std::string, std::pair<double, double>> named;
  double frame_j1 = 0.0, frame_jn = 0.0, gain_min = 0.0;
  double cycles_over_cexe_min = 0.0, cycles_over_cexe_max = 0.0;
  std::int64_t valid = 0, padded = 0, frame_cycles = 0;
  if (m.exec.path == runtime::OverlayPath::CycleSim) {
    const arch::OverlayConfig& cfg = m.exec.config;
    const std::int64_t budget = m.exec.search_budget_per_layer;
    // The cache tier each layer is served from when a restarted process
    // schedules against the store the workload filled.
    compiler::CompilerSession restart(1);
    restart.set_store(std::make_shared<compiler::ProgramStore>(store_dir));
    compiler::CompilerSession units_session(a.jobs);
    std::ofstream ledger(a.work + "/ledger-" + a.workload + ".csv");
    ledger << "layer,kind,groups,compile_ms,cache_tier,sim_ms_j1,sim_ms_jN,"
              "sim_cycles,c_exe,valid_maccs,padded_maccs,efficiency\n";
    std::uint64_t salt = 0x51d;
    bool first_gain = true;
    for (const nn::Layer& l : m.net.overlay_layers()) {
      const double compile_ms = compile_ms_by_layer.at(l.name);
      const compiler::SessionStats before = restart.stats();
      restart.compile(l, cfg, compiler::Objective::Performance, budget);
      const compiler::SessionStats after = restart.stats();
      const char* tier = after.hits > before.hits           ? "memory"
                         : after.disk_hits > before.disk_hits ? "disk"
                                                              : "compiled";
      const std::vector<SimUnit> units =
          sim_units(l, cfg, budget, units_session, salt += 1000);
      double j1 = 0.0, jn = 0.0;
      std::int64_t cyc = 0, cexe = 0, lv = 0, lp = 0;
      for (const SimUnit& u : units) {
        for (int jobs : {1, a.jobs}) {
          sim::SimOptions so;
          so.collect_trace = false;
          so.jobs = jobs;
          sim::SimStats st;
          const double t = time_median_ms(
              [&] {
                st = sim::simulate_layer(u.prog, cfg, u.weights, u.input, so)
                         .stats;
              },
              a.smoke ? 0.0 : 20.0, 1, a.smoke ? 1 : 7);
          (jobs == 1 ? j1 : jn) += t;
          if (jobs == 1) {
            cyc += st.cycles;
            lv += st.valid_maccs;
            lp += st.padded_maccs;
          }
        }
        cexe += u.prog.total_cycles();
      }
      const double eff =
          cyc > 0 ? double(lv) / (double(cyc) * double(cfg.tpes())) : 0.0;
      char times[96];
      std::snprintf(times, sizeof(times), "%.4g,%s,%.4g,%.4g", compile_ms, tier,
                    j1, jn);
      ledger << l.name << "," << nn::to_string(l.kind) << "," << units.size()
             << "," << times << "," << cyc << "," << cexe << "," << lv << ","
             << lp << "," << json_num(eff) << "\n";
      rep.exact("ledger." + ledger_label(l.name),
                std::to_string(cyc) + "/" + std::to_string(cexe));
      frame_j1 += j1;
      frame_jn += jn;
      frame_cycles += cyc;
      valid += lv;
      padded += lp;
      const double ratio = cexe > 0 ? double(cyc) / double(cexe) : 0.0;
      const double gain = jn > 0.0 ? j1 / jn : 0.0;
      if (first_gain) {
        gain_min = gain;
        cycles_over_cexe_min = cycles_over_cexe_max = ratio;
        first_gain = false;
      } else {
        gain_min = std::min(gain_min, gain);
        cycles_over_cexe_min = std::min(cycles_over_cexe_min, ratio);
        cycles_over_cexe_max = std::max(cycles_over_cexe_max, ratio);
      }
      named[ledger_label(l.name)] = {j1, jn};
    }
  }
  for (const char* n : kNamed) {
    auto it = named.find(n);
    rep.info(std::string("sim.layer_ms.") + n + ".j1",
             it == named.end() ? 0.0 : it->second.first);
    rep.info(std::string("sim.layer_ms.") + n + ".jN",
             it == named.end() ? 0.0 : it->second.second);
  }
  rep.info("sim.frame_ms.j1", frame_j1);
  rep.info("sim.frame_ms.jN", frame_jn);
  rep.info("sim.valid_maccs_per_s.jN",
           frame_jn > 0.0 ? double(valid) / (frame_jn / 1e3) : 0.0);
  rep.info("sim.jobs_gain_min", gain_min);
  rep.info("sim.padded_over_valid", valid > 0 ? double(padded) / double(valid) : 0.0);
  rep.info("sim.cycles_over_cexe.min", cycles_over_cexe_min);
  rep.info("sim.cycles_over_cexe.max", cycles_over_cexe_max);
  rep.info("sim.frame_cycles", double(frame_cycles));
  if (frame_cycles > 0) rep.exact("sim.frame_cycles", double(frame_cycles));
}


/// Per-layer metrics of layers a workload never calls read 0: no work done.
void not_exercised(Report& rep, std::initializer_list<const char*> names) {
  for (const char* n : names) rep.info(n, 0.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// In a traced run the library's observability is on for set-up and for
/// half of the headline phase's segments (or frames), off for the rest.
void library_obs(bool traced, bool on) {
  if (traced) obs::set_enabled(on);
}

/// Whether segment (or frame) `i` of a traced run's headline phase runs with
/// obs on. The order off, on, on, off repeats, so that a steady drift of the
/// host's speed weighs both sides alike.
bool obs_segment(int i) { return i % 4 == 1 || i % 4 == 2; }

/// obs.overhead_pct: the headline metric, CPU ms per request (or frame),
/// with obs on against the same metric with obs off, both from the traced
/// process's own segments (median of each side).
void report_overhead(const std::vector<double>& off,
                     const std::vector<double>& on, Report& rep) {
  if (off.empty() || on.empty()) {
    rep.error("obs overhead needs segments with obs on and off");
    return;
  }
  rep.info("obs.overhead_pct", 100.0 * (median(on) / median(off) - 1.0));
}

void run_serve(const Args& a, bool traced, Report& rep,
               std::int64_t& ready_ns) {
  ServeSetup s;
  setup_serve(a, s, rep);
  ready_ns = s.ready_ns;
  if (a.mode == "setup") return;
  rep.info("serve.first_response_ms", s.first_response_ms);
  library_obs(traced, false);
  const RequestPool pool = make_pool(a, s);
  // The headline phase runs in segments, with a window of side rounds
  // before, between and after them. In a traced run, two of the four run
  // with obs on, for obs.overhead_pct.
  SidePhase side(a, s.model, cold_compile(a, s.model), rep);
  side.with_frames(s.weights, pool);
  const int segments = a.smoke ? (traced ? 2 : 1) : 4;
  const double window_ms = a.smoke ? 0.0 : 1000.0;
  const double segment_s = (a.smoke ? 1.0 : a.seconds) / segments;
  const bool open = a.workload == "serve-lenet-ref-open";
  ServeRun run;  // the samples of the segments with obs off
  // Per segment: p99 latency and throughput (wall time), and the headline
  // metric, process CPU ms per completed request, by obs state.
  std::vector<double> segment_p99, segment_rps, cpu_off, cpu_on;
  std::vector<double> lateness;
  side.run_for(window_ms);
  for (int seg = 0; seg < segments; ++seg) {
    const bool obs_on = traced && obs_segment(seg);
    library_obs(traced, obs_on);
    const double cpu0 = cpu_ms();
    ServeRun r;
    if (open) {
      r = open_loop(*s.server, pool, kNominalRps,
                    int(std::lround(kNominalRps * segment_s)),
                    mix(a.seed ^ 0x0e0e, std::uint64_t(seg)), false, rep)
              .run;
    } else {
      r = closed_loop(a, *s.server, pool, segment_s, rep);
    }
    const double cpu = cpu_ms() - cpu0;
    library_obs(traced, false);
    if (!r.samples.empty())
      (obs_on ? cpu_on : cpu_off).push_back(cpu / double(r.samples.size()));
    side.run_for(window_ms);
    if (obs_on) continue;
    // Closed loop: completions per second. Open loop: the workers' service
    // rate, since completions per second would restate the offered rate.
    segment_rps.push_back(open ? service_rps(r.samples)
                               : double(r.samples.size()) / r.seconds);
    segment_p99.push_back(tail(field(r.samples, &RequestSample::latency_ms)));
    run.samples.insert(run.samples.end(), r.samples.begin(), r.samples.end());
  }
  // The headline: the process's CPU time (server, load generator and the
  // output checks) per completed request, the median over the segments.
  rep.metric("cpu_ms_per_req", median(cpu_off));
  serve_figures(run, s.server->stats(), rep);
  // The tail and the rate are medians over the segments, so that one slow
  // stretch of the host, which sets the p99 of the pooled sample, does not
  // set the run's figure. A segment holds over 1000 requests at either
  // workload's rate, enough for its own p99 (tail() falls back to the
  // highest percentile its sample supports).
  rep.info("serve.latency_ms.p99", median(segment_p99));
  rep.info("serve.throughput_rps", median(segment_rps));
  if (traced) report_overhead(cpu_off, cpu_on, rep);
  if (!open) {
    not_exercised(rep, {"loadgen.late_p99_ms", "slo_rate_rps"});  // no arrivals
  } else {
    for (const RequestSample& r : run.samples) lateness.push_back(r.late_ms);
    // The ladder's outcome swings by several rungs between runs on a shared
    // host, so it is a per-layer metric of the traced run, measured with the
    // library's observability off.
    if (traced) {
      rep.info("slo_rate_rps",
               slo_ladder(a, *s.server, pool, rep, lateness));
    }
    const double late = tail(lateness);
    rep.info("loadgen.late_p99_ms", late);
    if (late > kLatenessLimitMs)
      rep.error("open-loop generator fell behind: p" +
                std::to_string(int(tail_pct(lateness.size()))) +
                " lateness " + std::to_string(late) + " ms");
  }

  serve_gate(s, rep);
  s.server->stop();
  const serve::ServerStats st = s.server->stats();
  if (st.failed != 0) rep.error("server reported failed requests");
  if (s.model.exec.path == runtime::OverlayPath::CycleSim) {
    runtime::ExecContext ctx(s.model.net, s.weights, s.model.exec);
    rep.exact("frame_cycles",
              double(ctx.run(pool.inputs.front()).total_sim_cycles));
  }
  side.report();

  if (!traced) return;
  probe_nn(a, s.model, rep);
  probe_analyze(a, s.model, rep);
  probe_runtime(a, s.model, s.weights, pool.inputs, rep);
  const auto compile_ms = probe_compile(s.model, rep);
  probe_sim(a, s.model, side.store_dir(), compile_ms, rep);
}

void run_zoo(const Args& a, bool traced, Report& rep,
             std::int64_t& ready_ns) {
  const Model m = load_model(a);
  const runtime::WeightStore weights =
      runtime::WeightStore::random_for(m.net, kWeightSeed);
  // Set-up: the cold Objective-3 sweep writes through to an empty store, then
  // an ExecContext warms up at the paper configuration against that store.
  CompileOutcome cold = cold_compile(a, m);
  compiler::CompilerSession::global().set_store(
      std::make_shared<compiler::ProgramStore>(cold.store_dir));
  std::unique_ptr<runtime::ExecContext> ctx;
  ctx = std::make_unique<runtime::ExecContext>(m.net, weights, m.exec);
  ready_ns = mono_ns();
  if (a.mode == "setup") {
    rep.metric("compile_cpu_s", cold.cold_cpu_s);
    return;
  }

  std::vector<nn::Tensor16> gate;
  for (int i = 0; i < kResnetGateInputs; ++i)
    gate.push_back(make_input(m.net, kGateSeed + std::uint64_t(i)));
  // Frames run for --seconds, and at least 3; a traced run alternates obs
  // between frames and needs both sides. Side measurements run one round
  // after each frame. Each frame is timed in process CPU ms (the headline)
  // and in wall ms.
  std::vector<double> frame_ms, cpu_off, cpu_on;
  std::map<int, std::uint64_t> seen;
  library_obs(traced, false);
  SidePhase side(a, m, std::move(cold), rep);
  const int min_frames = a.smoke ? (traced ? 2 : 1) : (traced ? 4 : 3);
  const auto start = Clock::now();
  for (int i = 0; int(cpu_off.size() + cpu_on.size()) < min_frames ||
                  ms_between(start, Clock::now()) < a.seconds * 1e3;
       ++i) {
    const int g = int((a.seed + std::uint64_t(i)) % kResnetGateInputs);
    const bool obs_on = traced && obs_segment(i);
    library_obs(traced, obs_on);
    const double cpu0 = cpu_ms();
    const auto t0 = Clock::now();
    const runtime::ExecResult r = ctx->run(gate[std::size_t(g)]);
    const double wall = ms_between(t0, Clock::now());
    (obs_on ? cpu_on : cpu_off).push_back(cpu_ms() - cpu0);
    library_obs(traced, false);
    if (!obs_on) frame_ms.push_back(wall);
    const std::uint64_t d = digest(r.output);
    const auto [it, fresh] = seen.emplace(g, d);
    rep.op(fresh || it->second == d, "repeated frame output differs");
    rep.exact("gate." + std::to_string(g), hex64(d));
    rep.exact("frame_cycles", double(r.total_sim_cycles));
    side.run_for(0.0);
  }
  // One frame is the workload's request.
  rep.metric("cpu_ms_per_req", median(cpu_off));
  rep.info("runtime.frame_ms", median(frame_ms));
  rep.info("frames", double(cpu_off.size() + cpu_on.size()));
  if (traced) report_overhead(cpu_off, cpu_on, rep);
  side.report();

  if (!traced) return;
  not_exercised(rep, {"serve.latency_ms.p50", "serve.latency_ms.p99",
                      "serve.throughput_rps",
                      "serve.submit_us.p50", "serve.submit_us.p99",
                      "serve.queue_ms.p50", "serve.queue_ms.p99",
                      "serve.execute_ms.p50", "serve.execute_ms.p99",
                      "serve.mean_batch", "serve.peak_queue",
                      "serve.rejected_frac", "serve.first_response_ms",
                      "loadgen.late_p99_ms", "slo_rate_rps"});
  probe_nn(a, m, rep);
  probe_analyze(a, m, rep);
  probe_runtime(a, m, weights, gate, rep);
  const auto compile_ms = probe_compile(m, rep);
  probe_sim(a, m, side.store_dir(), compile_ms, rep);
}

/// The committed correctness values: gate-input digests from the Reference
/// path, the compiled schedule's figures, and per-layer simulated cycles and
/// C_exe from the stats-only simulator.
void run_expected(const Args& a, Report& rep) {
  const Model m = load_model(a);
  const runtime::WeightStore weights =
      runtime::WeightStore::random_for(m.net, kWeightSeed);
  runtime::ExecOptions ref = m.exec;
  ref.path = runtime::OverlayPath::Reference;
  runtime::ExecContext ctx(m.net, weights, ref);
  const int gates = is_serve(a) ? kServeGateInputs : kResnetGateInputs;
  for (int i = 0; i < gates; ++i)
    rep.exact("gate." + std::to_string(i),
              hex64(digest(
                  ctx.run(make_input(m.net, kGateSeed + std::uint64_t(i))).output)));
  const CompileOutcome cold = cold_compile(a, m);
  rep.exact("model_fps", cold.schedule.fps());
  rep.exact("hw_eff", cold.schedule.hardware_efficiency);
  rep.exact("schedule_cycles", double(cold.schedule.total_cycles));
  if (m.exec.path != runtime::OverlayPath::CycleSim) return;
  compiler::CompilerSession session(a.jobs);
  std::int64_t frame = 0;
  for (const nn::Layer& l : m.net.overlay_layers()) {
    std::int64_t cyc = 0, cexe = 0;
    for (const SimUnit& u : sim_units(l, m.exec.config,
                                      m.exec.search_budget_per_layer, session, 1)) {
      cyc += sim::simulate_layer_stats(u.prog, m.exec.config).stats.cycles;
      cexe += u.prog.total_cycles();
    }
    rep.exact("ledger." + ledger_label(l.name),
              std::to_string(cyc) + "/" + std::to_string(cexe));
    frame += cyc;
  }
  rep.exact("sim.frame_cycles", double(frame));
  rep.exact("frame_cycles", double(frame));
}

/// Host speed: the median time of a fixed single-thread loop of dependent
/// multiplies. On a shared virtual machine it moves with the load of the
/// other guests, and every timing of a run moves with it.
double host_loop_ms() {
  static volatile std::uint64_t sink = 0;
  std::vector<double> ms;
  for (int rep = 0; rep < 25; ++rep) {
    std::uint64_t x = sink + 1;
    const auto t0 = Clock::now();
    for (int i = 0; i < 1'000'000; ++i)
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    ms.push_back(ms_between(t0, Clock::now()));
    sink = x;
  }
  return median(ms);
}

void print_env() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf(
      "{\"build_type\": %s, \"compiler\": %s, \"ndebug\": %s, "
      "\"simd_isa\": %s, \"simd_active\": %s, \"simd_lanes\": %d, "
      "\"default_jobs\": %d, \"host_loop_ms\": %s}\n",
      json_str(PERFBENCH_BUILD_TYPE).c_str(), json_str(PERFBENCH_COMPILER).c_str(),
      ndebug ? "true" : "false", json_str(simd::isa_name()).c_str(),
      simd::active() ? "true" : "false", simd::lanes(), default_jobs(),
      json_num(host_loop_ms()).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.mode == "env") {
    print_env();
    return 0;
  }
  Report rep;
  std::int64_t ready_ns = 0;
  const bool traced = a.mode == "traced";
  if (traced) {
    obs::Registry::global().reset();
    obs::set_enabled(true);
  }
  try {
    std::filesystem::create_directories(a.work);
    if (a.mode == "expected") run_expected(a, rep);
    else if (is_serve(a)) run_serve(a, traced, rep, ready_ns);
    else run_zoo(a, traced, rep, ready_ns);
  } catch (const std::exception& e) {
    rep.error(std::string("exception: ") + e.what());
  }
  obs::set_enabled(false);
  rep.metric("peak_rss_mb", peak_rss_mb());
  std::printf("{\"ready_mono_ns\": %lld, \"report\": %s}\n",
              static_cast<long long>(ready_ns), rep.json().c_str());
  return 0;
}
