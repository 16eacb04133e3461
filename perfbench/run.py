#!/usr/bin/env python3
"""The repository benchmark: builds perfbench-driver from source, runs one
workload, checks its outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload serve-cnn-sim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload zoo-resnet50 --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload serve-lenet-ref-open --smoke
    python3 perfbench/run.py --write-expected

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end metrics of BENCHMARK.json, measured with the library's
observability off; with `--trace 1` they are the per-layer metrics, from a
traced run, including the tracing overhead measured inside that run. The
line before it records the environment (CPU, cores, compiler, build type,
SIMD target, a host-speed loop time, and the share of CPU time stolen by
the hypervisor during the run).

Build products and run records go under $CARGO_TARGET_DIR (default
`.bench_build`) in the checkout. perfbench/README.md documents the
workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORKLOADS = ("serve-cnn-sim", "serve-lenet-ref-open", "zoo-resnet50")
# Release does not build with GCC 12 (-Werror=restrict in src/obs/obs.cpp);
# RelWithDebInfo is the repository's default optimized build.
BUILD_TYPE = "RelWithDebInfo"
# Extra set-up-only processes per run; setup_s is the median over these and
# the main process.
SETUP_SAMPLES = {"serve-cnn-sim": 10, "serve-lenet-ref-open": 30,
                 "zoo-resnet50": 4}
# A run must end within 180 s once the driver is built.
RUN_BUDGET_S = 175


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def check_sources():
    for rel in ("src/CMakeLists.txt", "examples/specs/lenet.ftdl"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError("repository source %s not found; run from a full "
                             "checkout" % rel)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds perfbench-driver; returns its path."""
    build_dir = os.path.join(target_dir(), "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", build_dir, "--target", "perfbench-driver",
         "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench-driver")


def run_driver(driver, args, deadline=None):
    """Runs the driver; returns (its JSON result, monotonic start in ns).
    `deadline` is a time.monotonic() value the driver must finish by."""
    start_ns = time.monotonic_ns()
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([driver] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: " + " ".join(args))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("driver failed (exit %d): %s" %
                         (proc.returncode, " ".join(args)))
    return json.loads(lines[-1]), start_ns


def cpu_jiffies():
    """The host-wide (busy, stolen) CPU time from /proc/stat, in jiffies, or
    None where it cannot be read."""
    try:
        with open("/proc/stat") as f:
            user, nice, system, _, _, irq, softirq, steal = (
                int(x) for x in f.readline().split()[1:9])
    except (OSError, ValueError):
        return None
    return user + nice + system + irq + softirq, steal


def steal_pct(before, after):
    """The share of the run's CPU time that the hypervisor gave to other
    guests (vCPU steal), in percent; None where /proc/stat is unreadable.
    On a shared virtual machine it tells a contended host from a slow
    program: every timing of a run with high steal reads slow."""
    if before is None or after is None:
        return None
    busy, steal = (a - b for a, b in zip(after, before))
    return 100.0 * steal / (busy + steal) if busy + steal > 0 else 0.0


def environment(driver):
    env, _ = run_driver(driver, ["--mode", "env"])
    if env["build_type"] == "Debug" or not env["ndebug"]:
        raise BenchError("refusing to measure a Debug build (%s)" %
                         env["build_type"])
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env["cpu"] = cpu
    env["nproc"] = len(os.sched_getaffinity(0))
    return env


class Gate:
    """Operation accounting plus the comparison of exact values with the
    committed ones in perfbench/expected.json."""

    def __init__(self, workload, expected):
        self.expected = expected.get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.seen = set()

    def absorb(self, result, what):
        rep = result["report"]
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        self.errors += ["%s: %s" % (what, e) for e in rep["errors"]]
        for key, value in rep["exact"].items():
            if key not in self.expected:
                continue
            self.seen.add(key)
            self.attempted += 1
            # Both sides are the driver's own renderings (hex digests,
            # %.17g numbers), so equal values are equal strings.
            if value != self.expected[key]:
                self.failed += 1
                self.errors.append("%s: %s is %s, committed %s" %
                                   (what, key, value, self.expected[key]))

    def require(self, keys):
        for key in keys:
            if key in self.expected and key not in self.seen:
                self.attempted += 1
                self.failed += 1
                self.errors.append("committed value %s was not produced" % key)


def required_exact(workload, trace, seed):
    # A zoo run's first frame uses committed gate input seed % 2.
    first_gate = seed % 2 if workload == "zoo-resnet50" else 0
    keys = ["gate.%d" % first_gate, "model_fps", "hw_eff", "schedule_cycles"]
    if workload != "serve-lenet-ref-open":
        keys.append("frame_cycles")
    if trace and workload != "serve-lenet-ref-open":
        keys.append("sim.frame_cycles")
    return keys


def run_workload(driver, opts, spec, env):
    deadline = time.monotonic() + RUN_BUDGET_S
    jiffies = cpu_jiffies()
    work = os.path.join(target_dir(), "perfbench-work",
                        "%s-seed%d-trace%d" % (opts.workload, opts.seed,
                                               opts.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    seconds = 1.0 if opts.smoke else opts.seconds
    base = [opts.workload, "--seed", str(opts.seed), "--seconds", str(seconds),
            "--root", ROOT, "--work", work] + (["--smoke"] if opts.smoke else [])
    with open(EXPECTED) as f:
        gate = Gate(opts.workload, json.load(f))
    records = {}
    try:
        if not opts.trace:
            main, start_ns = run_driver(driver, base + ["--mode", "main"],
                                        deadline)
            gate.absorb(main, "main")
            records["main"] = main
            setup = [(main["ready_mono_ns"] - start_ns) / 1e9]
            compile_cpu_s = [main["report"]["metrics"]["compile_cpu_s"]]
            for i in range(1 if opts.smoke else SETUP_SAMPLES[opts.workload]):
                res, t0 = run_driver(driver, base + ["--mode", "setup"], deadline)
                gate.absorb(res, "setup")
                records["setup.%d" % i] = res
                setup.append((res["ready_mono_ns"] - t0) / 1e9)
                if "compile_cpu_s" in res["report"]["metrics"]:
                    compile_cpu_s.append(
                        res["report"]["metrics"]["compile_cpu_s"])
            values = dict(main["report"]["metrics"])
            values["setup_s"] = statistics.median(setup)
            values["compile_cpu_s"] = statistics.median(compile_cpu_s)
            names = spec["end_to_end"]
        else:
            traced, _ = run_driver(driver, base + ["--mode", "traced"], deadline)
            gate.absorb(traced, "traced")
            records["traced"] = traced
            values = dict(traced["report"]["info"])
            names = spec["per_layer"]
        gate.require(required_exact(opts.workload, opts.trace, opts.seed))
    finally:
        for entry in os.listdir(work):
            if entry.startswith("store-"):
                shutil.rmtree(os.path.join(work, entry), ignore_errors=True)

    for e in gate.errors:
        log("FAILED " + e)
    metrics = {}
    for m in names:
        if m["name"] not in values:
            raise BenchError("driver did not report metric " + m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    env["steal_pct"] = steal_pct(jiffies, cpu_jiffies())
    with open(os.path.join(work, "record.json"), "w") as f:
        json.dump({"env": env, "result": result, "errors": gate.errors,
                   "records": records}, f, indent=1)
    return result


def write_expected(driver):
    """Regenerates perfbench/expected.json from the Reference path and the
    stats-only simulator. Run only when the committed values must change."""
    work = os.path.join(target_dir(), "perfbench-work", "expected")
    shutil.rmtree(work, ignore_errors=True)
    out = {}
    for w in WORKLOADS:
        res, _ = run_driver(driver, [w, "--mode", "expected", "--root", ROOT,
                                     "--work", work])
        if res["report"]["failed"]:
            raise BenchError("expected-value run failed: %s" %
                             res["report"]["errors"])
        out[w] = res["report"]["exact"]
    shutil.rmtree(work, ignore_errors=True)
    with open(EXPECTED, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + EXPECTED)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny phases: checks that every metric is emitted")
    p.add_argument("--write-expected", action="store_true")
    opts = p.parse_args(argv)
    if not opts.write_expected and not opts.workload:
        p.error("--workload is required")
    if opts.seed < 0:
        p.error("--seed must be non-negative")
    if opts.seconds is not None and opts.seconds <= 0:
        p.error("--seconds must be positive")
    return opts


def main(argv):
    opts = parse_args(argv)
    try:
        spec = load_benchmark_spec()
        if opts.seconds is None:
            opts.seconds = float(spec["run_seconds"])
        check_sources()
        driver = build()
        if opts.write_expected:
            write_expected(driver)
            return 0
        env = environment(driver)
        result = run_workload(driver, opts, spec, env)
    except BenchError as e:
        log("error: " + str(e))
        return 1
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
