#!/usr/bin/env python3
"""Gate a bench smoke run against a checked-in baseline.

Usage: perf_smoke.py <report.json> <baseline.json> [tolerance]
       perf_smoke.py --info <report.json> [...]

`--info` renders one or more BenchReport JSON reports (e.g. the replay
harness's timing logs) without gating: every scenario's median/p95 and
counters are printed and the exit code is always 0. Replay timing is
informational by design — determinism is asserted by frame hashes, while
wall-clock varies across runners.

Both files are BenchReport-shaped reports (src/util/bench_report.h).
Absolute frame times vary across runners, so the gate compares the
machine-independent ratio metrics each bench computes from a single run.

Which metrics to compare comes from the baseline itself: a top-level
"checks" array of {"scenario", "counter", "direction"} objects
(direction is "higher" or "lower" = which way is better). Baselines
without a "checks" array (the original BENCH_render one) fall back to
the legacy built-in render-pipeline list below.

A metric may regress by at most `tolerance` (default 0.25 = 25%) relative
to the baseline value; a missing scenario or counter fails outright.
Exit code: 0 pass, 1 regression/malformed report.
"""

import json
import sys

LEGACY_CHECKS = [
    # (scenario, counter, direction)
    ("pipeline_dab_serial", "speedup_vs_full", "higher"),
    ("pipeline_dab_serial", "dirty_fraction", "lower"),
    ("delta_broadcast", "delta_ratio", "lower"),
]


def counters(report, scenario):
    for s in report.get("scenarios", []):
        if s.get("name") == scenario:
            return s.get("counters", {})
    return None


def info(paths):
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        print(f"== {path} ==")
        for s in report.get("scenarios", []):
            print(f"  {s.get('name', '?')}: median {s.get('median_ms', 0):.3f} ms, "
                  f"p95 {s.get('p95_ms', 0):.3f} ms")
            for key, value in sorted(s.get("counters", {}).items()):
                print(f"    {key}: {value:.3f}")
    return 0


def main(argv):
    if len(argv) >= 3 and argv[1] == "--info":
        return info(argv[2:])
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 1
    with open(argv[1]) as f:
        report = json.load(f)
    with open(argv[2]) as f:
        baseline = json.load(f)
    tolerance = float(argv[3]) if len(argv) > 3 else 0.25

    checks = [(c["scenario"], c["counter"], c["direction"])
              for c in baseline.get("checks", [])] or LEGACY_CHECKS

    failed = False
    for scenario, counter, direction in checks:
        base_counters = counters(baseline, scenario)
        got_counters = counters(report, scenario)
        if base_counters is None or counter not in base_counters:
            print(f"SKIP {scenario}/{counter}: not in baseline")
            continue
        if got_counters is None or counter not in got_counters:
            print(f"FAIL {scenario}/{counter}: missing from report")
            failed = True
            continue
        base = base_counters[counter]
        got = got_counters[counter]
        if direction == "higher":
            bound = base * (1.0 - tolerance)
            ok = got >= bound
            rel = "<" if not ok else ">="
        else:
            bound = base * (1.0 + tolerance)
            ok = got <= bound
            rel = ">" if not ok else "<="
        status = "ok  " if ok else "FAIL"
        print(f"{status} {scenario}/{counter}: {got:.4f} {rel} "
              f"{bound:.4f} (baseline {base:.4f}, {direction} is better)")
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
