#!/usr/bin/env python3
"""Runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest           # unit test of the checks
    python3 perfbench/run.py --write-reference    # regenerate reference_counts.json

Builds the library, graphpi_serve and the driver from this checkout's
sources (CMake, Release) under $CARGO_TARGET_DIR (default .bench_build),
writes the workload's inputs in a process of their own, then runs the timed
driver process. The driver's last stdout line is the result JSON.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_suite", "census_dist", "serve_mix")
RUN_BUDGET_S = 170  # a run must end within 180 s


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        log("the graphpi sources are not next to perfbench/; nothing to build")
        sys.exit(2)
    build_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    # Compiler temporaries stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT, env=env) != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                log("build failed: " + " ".join(step))
                sys.exit(2)
    return build_dir


def run_group(cmd, timeout, env=None, capture=False):
    """Runs `cmd` in its own process group; kills the whole group (the
    driver and any server it started) if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("timed out: " + " ".join(cmd))
        sys.exit(3)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
        except ProcessLookupError:
            pass
    return proc.returncode, (out.decode() if capture else "")


def check_result(result, trace):
    """True when `result` holds exactly the keys of a result line and the
    metrics BENCHMARK.json lists for this mode, each in its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        log("result does not match BENCHMARK.json: missing %s, unexpected %s" %
            (sorted(set(want.items()) - set(got.items())),
             sorted(set(got.items()) - set(want.items()))))
        return False
    return True


def benchmark(args):
    start = time.monotonic()
    build_dir = build(["perfbench_driver", "graphpi_serve"])
    driver = os.path.join(build_dir, "perfbench_driver")
    bin_dir = os.path.join(build_dir, "graphpi", "tools")
    run_dir = os.path.join(build_root(), "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(build_root(), "traces")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "kernels"))
    os.makedirs(os.path.join(run_dir, "tmp"))
    os.makedirs(trace_dir, exist_ok=True)
    # An empty kernel cache owned by the run; the kernel compiler's
    # temporaries go to the run directory as well.
    env = dict(os.environ, GRAPHPI_KERNEL_CACHE_DIR=os.path.join(run_dir, "kernels"),
               TMPDIR=os.path.join(run_dir, "tmp"))
    budget_start = time.monotonic()
    try:
        code, _ = run_group([driver, "prepare", "--workload", args.workload,
                             "--seed", str(args.seed), "--dir", run_dir],
                            RUN_BUDGET_S, env)
        if code != 0:
            log("prepare failed with exit code %d" % code)
            return code or 1
        cmd = [driver, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", run_dir, "--bin-dir", bin_dir,
               "--reference", os.path.join(HERE, "reference_counts.json"),
               "--trace-out", os.path.join(trace_dir, "%s-seed%d.json" %
                                           (args.workload, args.seed))]
        code, out = run_group(cmd, RUN_BUDGET_S - (time.monotonic() - budget_start),
                              env, capture=True)
        lines = [l for l in out.splitlines() if l.strip()]
        if code != 0 or not lines:
            log("driver failed with exit code %d" % code)
            return code or 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            sys.stderr.write(line + "\n")
        if not check_result(result, args.trace):
            return 1
        log("%s seed %d: %.1f s wall (build check included)" %
            (args.workload, args.seed, time.monotonic() - start))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        build_dir = build(["perfbench_checks_test"])
        return subprocess.call([os.path.join(build_dir, "perfbench_checks_test")])
    if args.write_reference:
        build_dir = build(["perfbench_driver"])
        return subprocess.call([os.path.join(build_dir, "perfbench_driver"), "reference",
                                "--out", os.path.join(HERE, "reference_counts.json")])
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
