#!/usr/bin/env python3
"""MANATEE benchmark: one run of one workload, reported as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness (perfbench/harness.cpp, linked against the library built from
src/) is compiled into .bench_build/perfbench on first use. One run then:

  1. executes the workload's twin once, untimed: the uninterrupted
     reference whose fingerprints every job must reproduce, the
     other-protocol makespan behind cc_overhead_pct, and (vasp-cc,
     wide-world) one checkpoint + restart for the checkpoint metrics;
  2. executes measured jobs, each in a freshly exec'd process, until
     --seconds have passed (at least three), and reports the median of
     each end-to-end metric over them;
  3. with --trace 1, executes one more job with in-memory spans plus the
     per-layer rows, and reports the per-layer metrics instead.

Metric names and units come from BENCHMARK.json; perfbench/layer_map.json
records which end-to-end metric each per-layer metric should move, and on
which workload. The last line on stdout is the result object. The exit code
is 1 when an output is wrong or an operation failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
TRACE_DIR = ROOT / ".bench_build" / "traces"

STORM_FAILURES = 5  # kStormFailures in harness.cpp
MIN_JOBS = 3
RUN_BUDGET_S = 160  # one run after the build; the limit is 180 s
MIB = 1024.0 * 1024.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env(tmp):
    """Children run with no MANATEE_* variable: an inherited MANATEE_SCHED
    or MANATEE_COLL would silently change what is measured. Temporary files
    stay inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MANATEE_")}
    env["TMPDIR"] = str(tmp)
    return env


def build(env):
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


class Runner:
    """Runs harness children against one deadline and keeps the tally of
    operations. An operation is one run, or in vasp-storm one checkpoint or
    restart hop. An exception, a watchdog timeout, an incomplete lifecycle
    or a fingerprint that differs from the reference is a failure."""

    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def harness(self, mode, *args):
        timeout = self.deadline - time.monotonic()
        if timeout < 1:
            return {"ok": False, "error": f"{mode}: no time left in this run"}
        try:
            proc = subprocess.run([str(HARNESS), mode, *args], capture_output=True,
                                  text=True, env=self.env, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": f"{mode}: killed after {timeout:.0f} s"}
        results = [line[len("RESULT "):] for line in proc.stdout.splitlines()
                   if line.startswith("RESULT ")]
        if not results:
            return {"ok": False, "error": f"{mode}: exit {proc.returncode} without a result: "
                                          f"{proc.stderr.strip()[-400:]}"}
        result = json.loads(results[-1])
        if proc.returncode != 0:
            result["ok"] = False
        return result

    def record(self, what, ops, failed, result):
        self.attempted += ops
        self.failed += min(ops, failed)
        if failed:
            log(f"perfbench: {what}: {failed} of {ops} operations failed: "
                f"{result.get('error', 'wrong output')}")


def twin_ops(workload, twin):
    """The twin's operations: its reference run, then for vasp-cc and
    wide-world the checkpoint and the restart of the probe (and
    wide-world's CC companion run)."""
    ops = {"vasp-cc": 3, "vasp-storm": 1, "wide-world": 4}[workload]
    if not twin.get("ok"):
        return ops, ops
    reference = twin.get("companion_ref_digest", twin["ref_digest"])
    bad = 0
    if workload != "vasp-storm" and twin["probe_digest"] != reference:
        bad += 1
    if workload == "wide-world" and twin["cc_digest"] != reference:
        bad += 1
    return ops, bad


def job_ops(workload, job, reference):
    if workload != "vasp-storm":
        return 1, 0 if job.get("ok") and job["digest"] == reference else 1
    ops = 2 * STORM_FAILURES  # each crash is a checkpoint hop and a restart hop
    if not job.get("ok"):
        return ops, ops
    bad = ops - 2 * min(job["crashes"], STORM_FAILURES)
    if not job["completed"] or job["crashes"] != STORM_FAILURES or job["digest"] != reference:
        bad = max(bad, 1)
    return ops, bad


def median(values):
    return statistics.median(list(values))


def end_to_end(workload, jobs, twin):
    metrics = {
        "run_s": median(j["run_s"] for j in jobs),
        "setup_s": median(j["setup_s"] for j in jobs),
        "peak_rss_mb": median(j["hwm_kb"] / 1024 for j in jobs),
        "virt_makespan_ms": median(j["makespan_ns"] / 1e6 for j in jobs),
    }
    if workload == "wide-world":
        metrics["cc_overhead_pct"] = 100 * (twin["cc_ns"] / twin["native_ns"] - 1)
    else:
        metrics["cc_overhead_pct"] = 100 * median(
            j["makespan_ns"] / twin["native_ns"] - 1 for j in jobs)
    if workload == "vasp-storm":
        metrics["ckpt_stall_ms"] = median(j["stall_mean_ns"] / 1e6 for j in jobs)
        metrics["restart_ms"] = median(j["restart_mean_ns"] / 1e6 for j in jobs)
        metrics["ckpt_written_mb"] = median(j["written_mean_bytes"] / MIB for j in jobs)
    else:
        metrics["ckpt_stall_ms"] = twin["probe_stall_ns"] / 1e6
        metrics["restart_ms"] = twin["probe_restart_ns"] / 1e6
        metrics["ckpt_written_mb"] = twin["probe_written_bytes"] / MIB
    return metrics


def per_layer(jobs, traced, layers, twin):
    calls = max(1, traced["wrapper_calls"])
    parks = traced["stackless_parks"] + traced["fiber_fallbacks"]
    pool = traced["pool_hits"] + traced["pool_misses"]
    checkpoints = max(1, traced["checkpoints"])
    written, logical = traced["written_bytes"], traced["logical_bytes"]
    if not logical:  # the job itself never checkpoints: use the twin's probe
        written = twin.get("probe_written_bytes", 0)
        logical = twin.get("probe_logical_bytes", 0)
    metrics = {k: v for k, v in layers.items() if "." in k}
    metrics.update({
        "sched.dispatches_per_call": traced["dispatches"] / calls,
        "sched.stackless_ratio": traced["stackless_parks"] / parks if parks else 0.0,
        "sched.stack_vacations": traced["stack_vacations"],
        "sched.peak_committed_mb": traced["peak_committed_bytes"] / MIB,
        "simnet.pool_hit_ratio": traced["pool_hits"] / pool if pool else 0.0,
        "simnet.msgs_per_call": (traced["collective_msgs"] + traced["p2p_msgs"]) / calls,
        "split.segment_s": traced["segment_s"],
        "split.restart_segment_s": traced["restart_segment_s"],
        "core.protocol_msgs_per_ckpt": traced["protocol_msgs"] / checkpoints,
        "core.forced_targets_per_ckpt": traced["forced_targets"] / checkpoints,
        "ckpt.written_to_logical": written / logical if logical else 0.0,
        "trace.overhead_pct": 100 * (traced["run_s"] / median(j["run_s"] for j in jobs) - 1),
    })
    return metrics


def measure(args, runner, tmp):
    """Returns the metrics of this run, or None when no result could be
    computed (every failure is already in the runner's tally)."""
    workload = args.workload
    common = ["--workload", workload, "--seed", str(args.seed), "--tmp", str(tmp)]
    twin = runner.harness("twin", *common)
    runner.record("twin", *twin_ops(workload, twin), twin)
    if not twin.get("ok"):
        return None
    reference = twin["ref_digest"]
    def job_args(index):
        # vasp-storm: each job of the run draws its own failure stream.
        storm = ["--native-ns", str(twin["native_ns"]), "--variant", str(index)]
        return common + (storm if workload == "vasp-storm" else [])

    jobs = []
    start = time.monotonic()
    while len(jobs) < MIN_JOBS or time.monotonic() - start < args.seconds:
        job = runner.harness("job", *job_args(len(jobs)))
        runner.record(f"job {len(jobs)}", *job_ops(workload, job, reference), job)
        jobs.append(job)
        if time.monotonic() > runner.deadline - 30:
            break
    good = [j for j in jobs if j.get("ok")]
    if not good:
        return None
    print(f"{workload} seed {args.seed}: {len(jobs)} jobs; effective configuration: "
          f"{good[0]['config']}")
    if not args.trace:
        return end_to_end(workload, good, twin)

    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    stem = TRACE_DIR / f"{workload}-seed{args.seed}"
    traced = runner.harness("job", *job_args(len(jobs)), "--trace-out", f"{stem}-job.json")
    runner.record("traced job", *job_ops(workload, traced, reference), traced)
    layers = runner.harness("layers", "--tmp", str(tmp), "--trace-out", f"{stem}-layers.json")
    runner.record("layer rows", 1, 0 if layers.get("ok") else 1, layers)
    if not (traced.get("ok") and layers.get("ok")):
        return None
    log(f"perfbench: spans written to {stem}-job.json and {stem}-layers.json")
    return per_layer(good, traced, layers, twin)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    if {m["name"] for m in spec["per_layer"]} != set(layer_map["per_layer"]):
        sys.exit("perfbench: layer_map.json and BENCHMARK.json name different per-layer metrics")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src").is_dir():
        sys.exit("perfbench: this checkout has no library sources (src/)")

    tmp = ROOT / ".bench_build" / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env(tmp)
    try:
        build(env)
        runner = Runner(env, time.monotonic() + RUN_BUDGET_S)
        metrics = measure(args, runner, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    expected = spec["per_layer" if args.trace else "end_to_end"]
    correct = metrics is not None and runner.failed == 0
    if metrics is not None:
        names = {m["name"] for m in expected}
        if set(metrics) != names:
            sys.exit(f"perfbench: metrics out of step with BENCHMARK.json: "
                     f"missing {sorted(names - set(metrics))}, extra {sorted(set(metrics) - names)}")
        for m in expected:
            print(f"{m['name']:<34} {metrics[m['name']]:>18.6f} {m['unit']}")
    attempted = max(1, runner.attempted)
    print(f"operations: {runner.failed} of {attempted} failed "
          f"(failed_frac {runner.failed / attempted:g})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": runner.failed if metrics is not None else max(1, runner.failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in expected} if metrics is not None else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
