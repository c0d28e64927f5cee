"""Steadiness check: how far the end-to-end metrics move between runs.

    python3 benchmark/steady.py [--runs 10] [--seconds 20] [--workloads a,b]

For each workload, runs `run.py` as two sets of runs, alternating between
the sets (set 1 uses seeds 1..runs, set 2 seeds 1001..1000+runs, and the set
that goes first alternates), one process at a time.  Prints, per set, the
median and quartiles (statistics.quantiles, n=4) of every end-to-end metric,
the spread (q3 - q1) / median, how much worse set 2's median is than set 1's,
and the share of failed instances.  A bound for BENCHMARK.json should exceed
both the spread and the worsening; the last column suggests
max(3 x spread, 2 x worsening), capped at 0.25.  Raw results go to
.benchmark_out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sumset-large", "deficit-small", "stability-sweep", "cos-pipeline-2d")
BETTER = {"setup_s": "lower", "instances_per_s": "higher", "peak_rss_mb": "lower"}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["run_wall_s"] = time.monotonic() - start
    return result


def summarize(results: list) -> dict:
    out = {"failed_share": [r["failed"] / r["attempted"] for r in results],
           "run_wall_s": [r["run_wall_s"] for r in results]}
    for metric in BETTER:
        vals = [r["metrics"][metric]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[metric] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / statistics.median(vals),
                       "values": vals}
    return out


def worsening(metric: str, first: float, second: float) -> float:
    change = (second - first) / first
    return change if BETTER[metric] == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args(argv)

    report = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for w in args.workloads.split(","):
        sets = ([], [])
        for i in range(args.runs):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                res = run_once(w, 1 + i + 1000 * s, args.seconds)
                if not res["correct"]:
                    print(f"{w}: run {i} of set {s + 1} reported incorrect output")
                sets[s].append(res)
        summary = [summarize(r) for r in sets]
        report["workloads"][w] = {"sets": summary, "raw": sets}
        walls = summary[0]["run_wall_s"] + summary[1]["run_wall_s"]
        print(f"\n{w}  (failed share: set 1 {sorted(set(summary[0]['failed_share']))},"
              f" set 2 {sorted(set(summary[1]['failed_share']))}; run wall time"
              f" {min(walls):.1f}-{max(walls):.1f} s)")
        print(f"  {'metric':16} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11}"
              f" {'spread':>7} {'worse':>7} {'suggest':>7}")
        for metric in BETTER:
            a, b = summary[0][metric], summary[1][metric]
            worse = worsening(metric, a["median"], b["median"])
            suggest = min(0.25, max(3 * max(a["spread"], b["spread"]), 2 * worse))
            for k, st in enumerate((a, b)):
                tail = (f" {worse:7.3f} {suggest:7.3f}" if k == 1 else "")
                print(f"  {metric:16} {k + 1:>3} {st['median']:11.5g} {st['q1']:11.5g}"
                      f" {st['q3']:11.5g} {st['spread']:7.3f}{tail}")
    out = ROOT / ".benchmark_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"\nraw results: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
