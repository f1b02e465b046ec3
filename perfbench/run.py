#!/usr/bin/env python3
"""Input-to-wall-frame benchmark: build the benchmark binary, run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dab_432 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The first call configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls only re-check the build. The binary's last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}. --trace 1 also writes
a Chrome trace-event file and a fingerprinted report under the build dir.

--self-check runs every workload at a tiny size, asserts that each metric of
BENCHMARK.json is emitted with its unit, that the counters meant to repeat do
repeat for one seed, and that every correctness check fails against a
deliberately wrong reference.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("dab_432", "scrub_432", "tenants_64", "refine_store")
# The library reads these whatever the caller passes; a run with either set
# would not measure the configured program.
REFUSED_ENV = ("SVQ_FORCE_SCALAR", "SVQ_ANYTIME_BUDGET_MS")
# Counters that must repeat exactly across runs with one seed.
REPEATING = (
    "query.rows_reclassified_per_frame",
    "render.cells_rasterized_per_frame",
    "wire.bytes_per_frame",
    "store.shard_loads",
    "progressive.pruned_frac",
)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the binary; returns its path or None."""
    if not (ROOT / "src" / "core" / "sessionservice.h").is_file():
        log(f"no svq sources under {ROOT / 'src'}; cannot build")
        return None
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("configure failed")
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", str(out), "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed")
            return None
    exe = out / "svq_frame_bench"
    return exe if exe.is_file() else None


def run_binary(exe, args, timeout=RUN_TIMEOUT_S):
    """Runs the binary to completion; returns (returncode, stdout)."""
    try:
        proc = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary timed out after {timeout} s")
        return 124, ""
    return proc.returncode, proc.stdout


def workload_args(out, workload, seed, seconds, trace, tiny=False):
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", str(out / "work"),
            "--report", str(out / "reports" / f"{tag}.json")]
    if trace:
        args += ["--trace-out", str(out / "traces" / f"{tag}.trace.json")]
    if tiny:
        args.append("--tiny")
    return args


def last_json_line(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def self_check(exe, out):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    code, text = run_binary(exe, ["--self-check", "--work-dir",
                                  str(out / "work")])
    if code != 0:
        problems.append("wrong references did not all fail their checks")
    for workload in WORKLOADS:
        repeated = None
        for trace, runs in ((0, 1), (1, 2)):
            expected = spec["end_to_end"] if trace == 0 else spec["per_layer"]
            for _ in range(runs):
                code, text = run_binary(
                    exe, workload_args(out, workload, 7, 1, trace, tiny=True))
                result = last_json_line(text) if code == 0 else None
                where = f"{workload} --trace {trace}"
                if result is None:
                    problems.append(f"{where}: exit {code}, no result")
                    continue
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    problems.append(f"{where}: result keys {sorted(result)}")
                if not result.get("correct") or result.get("failed") != 0:
                    problems.append(f"{where}: correctness checks failed")
                metrics = result.get("metrics", {})
                names = {m["name"] for m in expected}
                if set(metrics) != names:
                    problems.append(
                        f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ names)}")
                for m in expected:
                    got = metrics.get(m["name"])
                    if got is None:
                        continue
                    if got.get("unit") != m["unit"]:
                        problems.append(f"{where}: {m['name']} unit "
                                        f"{got.get('unit')} != {m['unit']}")
                    if not isinstance(got.get("value"), (int, float)) or \
                            not math.isfinite(got["value"]):
                        problems.append(f"{where}: {m['name']} not a number")
                if trace == 1:
                    counters = {k: metrics.get(k, {}).get("value")
                                for k in REPEATING}
                    if repeated is not None and counters != repeated:
                        problems.append(f"{where}: counters did not repeat: "
                                        f"{repeated} vs {counters}")
                    repeated = counters
    for p in problems:
        log(f"SELF-CHECK FAILED: {p}")
    log("self-check " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    for knob in REFUSED_ENV:
        if knob in os.environ:
            log(f"refusing to run with {knob} set")
            return 2
    out = build_dir()
    exe = build(out)
    if exe is None:
        return 2
    for sub in ("work", "traces", "reports"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    if args.self_check:
        return self_check(exe, out)
    code, text = run_binary(exe, workload_args(out, args.workload, args.seed,
                                               args.seconds, args.trace))
    sys.stdout.write(text)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
