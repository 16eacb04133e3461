// ftdl-serve — batched concurrent inference serving demo (docs/serving.md).
//
// Stands up an ftdl::serve::Server over a model-zoo network (or an .ftdl
// spec), drives it with a multi-client load generator — closed-loop by
// default, fixed-rate with --rate — and reports throughput, batching and
// latency percentiles. With observability on it also writes
//   trace.json    enqueue/batch/execute spans on client and worker tracks
//   metrics.json  serve/* counters, queue-depth and latency gauges
// and, with --stream, an ftdl-stream-v1 binary event log
// (docs/obs-stream-format.md; replay/verify it with ftdl-obsq). A restarted
// server with --cache-dir warm-starts its compiles from disk.
// `ftdl-serve --bogus` prints the options (generated from the table below).
//
// Exit status: 0 = served (and --check passed), 1 = run error,
// 2 = usage error.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "compiler/program_store.h"
#include "compiler/session.h"
#include "frontend/spec_parser.h"
#include "nn/model_zoo.h"
#include "obs/obs.h"
#include "obs/stream_writer.h"
#include "serve/serve.h"
#include "tool_report.h"

namespace {

using namespace ftdl;

struct Args {
  std::string model = "Sentimental-seqCNN";
  std::string trace_path = "trace.json";
  std::string metrics_path = "metrics.json";
  std::string stream_path;  ///< empty = no binary event log
  int requests = 16;
  int clients = 4;
  int workers = 2;
  int max_batch = 8;
  std::int64_t timeout_us = 2'000;
  std::size_t depth = 64;
  double rate = 0.0;  ///< 0 = closed loop
  std::uint64_t seed = 1;
  std::string cache_dir;
  std::string path = "ref";
  bool check = false;
  bool list = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  cli::parse(
      {"ftdl-serve",
       {"MODEL", "zoo model name or .ftdl spec path", &args.model, false},
       {cli::integer("--requests", "N", "total requests to submit",
                     &args.requests, 1, 1'000'000),
        cli::integer("--clients", "N", "load-generator threads", &args.clients,
                     1, 10'000),
        cli::integer("--workers", "N", "server worker threads", &args.workers,
                     1, 10'000),
        cli::integer("--batch", "N", "max dynamic batch size", &args.max_batch,
                     1, 100'000),
        cli::integer("--timeout-us", "N", "batch coalescing timeout",
                     &args.timeout_us, 0, 1'000'000'000),
        cli::integer("--depth", "N", "admission queue depth", &args.depth, 1,
                     1'000'000),
        cli::real("--rate", "R",
                  "submissions/s across all clients; 0 = closed loop",
                  &args.rate, cli::Sign::NonNegative),
        cli::choice("--path", "ref|sim", "execution path", &args.path),
        cli::integer("--seed", "N", "request input seed base", &args.seed, 0,
                     9'223'372'036'854'775'807LL),
        cli::flag("--check", "check outputs bit-identical to workers=1",
                  &args.check),
        cli::text("--trace", "FILE", "trace output path", &args.trace_path),
        cli::text("--metrics", "FILE", "metrics output path",
                  &args.metrics_path),
        cli::text("--stream", "FILE", "also record an ftdl-stream-v1 event log",
                  &args.stream_path),
        cli::text("--cache-dir", "DIR",
                  "persistent program cache (else FTDL_CACHE_DIR env)",
                  &args.cache_dir),
        cli::flag("--list", "list the model zoo and exit", &args.list)}},
      argc, argv);
  return args;
}

struct LoadResult {
  std::vector<nn::Tensor16> outputs;  ///< indexed by request; empty if lost
  std::int64_t submitted = 0;
  std::int64_t rejected = 0;
  double wall_seconds = 0.0;
};

/// Submits `n` seeded requests from `clients` threads. Closed loop when
/// rate == 0 (each client waits for its result before the next submit);
/// otherwise open loop paced to `rate` submissions/sec overall, collecting
/// futures as they resolve. Rejected submissions (backpressure) are counted
/// and not retried.
LoadResult run_load(serve::Server& server, const nn::Network& net,
                    const Args& args) {
  LoadResult lr;
  lr.outputs.resize(static_cast<std::size_t>(args.requests));
  std::atomic<int> next{0};
  std::atomic<std::int64_t> rejected{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(args.clients));
  for (int c = 0; c < args.clients; ++c) {
    threads.emplace_back([&, c] {
      obs::set_thread_track_name("client-" + std::to_string(c));
      std::vector<std::pair<int, std::future<serve::InferenceResult>>> open;
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= args.requests) break;
        if (args.rate > 0.0) {
          // Fixed-rate pacing: request i is due at start + i/rate.
          const auto due =
              start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(double(i) / args.rate));
          std::this_thread::sleep_until(due);
        }
        serve::Submission s =
            server.submit(tools::network_input(net, args.seed + std::uint64_t(i)));
        if (!s.accepted) {
          rejected.fetch_add(1);
          continue;
        }
        if (args.rate > 0.0) {
          open.emplace_back(i, std::move(s.result));
        } else {
          lr.outputs[static_cast<std::size_t>(i)] = s.result.get().output;
        }
      }
      for (auto& [i, fut] : open) {
        lr.outputs[static_cast<std::size_t>(i)] = fut.get().output;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  lr.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  lr.submitted = args.requests;
  lr.rejected = rejected.load();
  return lr;
}

serve::ServerOptions server_options(const Args& args) {
  serve::ServerOptions opt;
  opt.workers = args.workers;
  opt.max_batch = args.max_batch;
  opt.batch_timeout_us = args.timeout_us;
  opt.queue_depth = args.depth;
  if (args.path == "sim") {
    opt.exec.path = runtime::OverlayPath::CycleSim;
    // Scaled-down overlay: the functional simulator executes every MACC.
    opt.exec.config.d1 = 4;
    opt.exec.config.d2 = 2;
    opt.exec.config.d3 = 3;
  }
  return opt;
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

    const std::string cache_dir = compiler::resolve_cache_dir(args.cache_dir);
    if (!cache_dir.empty()) {
      compiler::CompilerSession::global().set_store(
          std::make_shared<compiler::ProgramStore>(cache_dir));
    }

    const nn::Network net = args.model.ends_with(".ftdl")
                                ? frontend::parse_network_file(args.model)
                                : nn::model_by_name(args.model);
    const runtime::WeightStore weights =
        runtime::WeightStore::random_for(net, args.seed + 1'000);

    std::printf("ftdl-serve: %s, %d requests from %d clients (%s)\n",
                net.name().c_str(), args.requests, args.clients,
                args.rate > 0.0 ? "fixed-rate" : "closed-loop");

    serve::Server server(net, weights, server_options(args));
    const LoadResult lr = run_load(server, net, args);
    server.stop();
    const serve::ServerStats st = server.stats();

    std::printf("  %lld completed, %lld rejected, %lld failed in %.3f s "
                "(%.1f req/s)\n",
                static_cast<long long>(st.completed),
                static_cast<long long>(lr.rejected),
                static_cast<long long>(st.failed), lr.wall_seconds,
                double(st.completed) / lr.wall_seconds);
    std::printf("  batches: %lld (mean size %.2f, max %lld), peak queue %lld\n",
                static_cast<long long>(st.batches), st.mean_batch_size(),
                static_cast<long long>(st.max_batch_observed),
                static_cast<long long>(st.peak_queue_depth));
    std::printf("  latency us: p50 %.0f  p95 %.0f  p99 %.0f  max %.0f\n",
                st.latency.percentile(50.0), st.latency.percentile(95.0),
                st.latency.percentile(99.0), st.latency.max_us());

    if (!cache_dir.empty()) {
      tools::print_cache_stats("  ", cache_dir,
                               compiler::CompilerSession::global().stats());
    }

    if (args.check) {
      // Replay the same request set on a serial server: every output the
      // concurrent run produced must be bit-identical (docs/serving.md).
      serve::ServerOptions serial = server_options(args);
      serial.workers = 1;
      serial.max_batch = 1;
      serial.batch_timeout_us = 0;
      serve::Server ref(net, weights, serial);
      std::int64_t checked = 0;
      for (int i = 0; i < args.requests; ++i) {
        if (lr.outputs[static_cast<std::size_t>(i)].size() == 0) continue;
        serve::Submission s =
            ref.submit(tools::network_input(net, args.seed + std::uint64_t(i)));
        if (!s.accepted) throw Error("check rerun rejected a request");
        if (!(s.result.get().output == lr.outputs[static_cast<std::size_t>(i)]))
          throw Error("determinism check FAILED at request " +
                      std::to_string(i));
        ++checked;
      }
      ref.stop();
      std::printf("  check: %lld outputs bit-identical to workers=1\n",
                  static_cast<long long>(checked));
    }

    reg.write_chrome_trace(args.trace_path);
    reg.write_metrics(args.metrics_path);
    std::printf("wrote %s (%zu events) and %s\n", args.trace_path.c_str(),
                reg.event_count(), args.metrics_path.c_str());
    if (reg.stream_attached())
      tools::print_stream_stats(args.stream_path, reg.detach_stream());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "ftdl-serve: %s\n", e.what());
    return 1;
  }
}
