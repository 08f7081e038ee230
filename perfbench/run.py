#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build (CMake,
RelWithDebInfo: the repository's default build type). Runtime files (duetd
data directories, span JSON) go to .bench_build/work/. The last line printed
is the JSON result: the perfbench binary's own line, cut to the metrics
BENCHMARK.json names for the run's --trace. The exit code is non-zero when
the build fails, a correctness gate fails, or the run did not measure a
metric BENCHMARK.json names (a traced run reports the layers a workload
does not run as 0; see NOT_RUN).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170

# Per-layer metrics (by name prefix) of the layers a workload does not run:
# only churn_live's traced run times the in-process controller, and only
# churn_live churns DIPs. A traced run reports them as 0; any other metric
# the workload did not measure fails the run.
CONTROLLER_ONLY = ("assignment.", "audit.", "controller.", "workload.", "persist.append",
                   "persist.apply_us", "persist.recover_ms", "persist.snapshot_ms",
                   "persist.restore_ms", "persist.replay_ms", "persist.journal_bytes")
CHURN_ONLY = ("serve.converge_ms", "serve.converged_frac", "serve.churn_op_us")
NOT_RUN = {
    "serve_stateful": CONTROLLER_ONLY + CHURN_ONLY,
    "serve_fast_tier": CONTROLLER_ONLY + CHURN_ONLY,
    "churn_live": (),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench + duetd. Output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(os.cpu_count() or 1, 4))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                log("build failed: %s (see %s)" % (" ".join(cmd), log_path))
                return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no duet sources under %s: run from the root of a checkout" % ROOT)
        return 2
    if not build():
        return 1
    if args.selftest:
        return subprocess.call([os.path.join(BUILD, "perfbench_selftest")])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(BUILD, "spans-%s-seed%d.json" % (args.workload, args.seed))
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--duetd", os.path.join(BUILD, "duet", "examples", "duetd")]
    if args.trace:
        cmd += ["--spans", spans]
    # "log", not "fatal": churn_live's traced run counts the audit
    # violations the controller raises instead of aborting on the first one.
    env = dict(os.environ, DUET_AUDIT_LEVEL="log")
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if args.trace:
        print("spans: %s" % spans)
        if args.workload == "churn_live":
            print("spans: %s" % spans.replace(".json", "-controller.json"))
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench printed no result line (exit %d)" % proc.returncode)
        return 1
    measured = result.get("metrics", {})
    metrics = {}
    for name, unit in expected.items():
        if name in measured:
            metrics[name] = measured[name]
        elif args.trace and name.startswith(NOT_RUN[args.workload]):
            metrics[name] = {"value": 0, "unit": unit}
        else:
            log("metric not measured: %s" % name)
            return 1
        if metrics[name]["unit"] != unit:
            log("%s: unit %r, BENCHMARK.json says %r" % (name, metrics[name]["unit"], unit))
            return 1
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result.get("correct"):
        log("correctness gate failed (exit %d)" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
