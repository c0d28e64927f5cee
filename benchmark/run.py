"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bmstab checkout; the package is imported from its
`src/`.  The command does a fixed amount of work: round(S / pass_seconds)
whole passes over the workload's fixed list of calls (see workloads.py),
then checks every output.  Each measured process is a fresh, single-threaded
interpreter (BMSTAB_THREADS=1, one BLAS thread).

Times are CPU times of the (single-threaded) process, scaled to the
reference host's speed.  The host's speed drifts by up to 2x within
seconds, and over ten runs the raw rate of a workload spread by up to a
third (interquartile range over median).  So the run times a fixed
reference loop (calibrate.py, no bmstab code) after every call, or every
1500 short calls, and counts the CPU time t of those calls as
t * REF_S / (the loop's CPU time).  README.md has the scaled figures.

- untraced (--trace 0): four set-up-only processes and then the measuring
  process run one after the other.  setup_s is the median over the five of
  the CPU time from starting the process to the end of set-up (interpreter,
  `import bmstab`, inputs and config files), each scaled by reference
  loops run right after it.  instances_per_s is the instances completed
  over the scaled CPU time of the timed calls, and peak_rss_mb the
  measuring process's peak resident set.  The unscaled wall
  and CPU times are printed as `#` lines.
- traced (--trace 1): one process with every layer's public functions
  wrapped (tracing.py) prints the per-layer metrics and writes its spans to
  .benchmark_out/.  It runs no reference loops.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".benchmark_out"
SETUP_PROCESSES = 5
PROCESS_TIMEOUT_S = 170
THREAD_ENV = {
    "BMSTAB_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the measured process and when its parent started it
    ap.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                    help=argparse.SUPPRESS)
    ap.add_argument("--started", type=float, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role != "main":
        return _child(args)
    if not (ROOT / "src" / "bmstab" / "__init__.py").is_file():
        print(f"error: no bmstab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.trace:
        result = _spawn(args, "measure")
        del result["setup_s"]
    else:
        setups = [_spawn(args, "setup")["setup_s"]
                  for _ in range(SETUP_PROCESSES - 1)]
        result = _spawn(args, "measure")
        setups.append(result.pop("setup_s"))
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0


def _spawn(args, role) -> dict:
    """Run one child process to its end; returns its last-line JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role]
    env = dict(os.environ, **THREAD_ENV)
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--started", repr(started)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: {role} process exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    return json.loads(lines[-1])


def _child(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bmstab
    import workloads

    src = (ROOT / "src").resolve()
    if src not in Path(bmstab.__file__).resolve().parents:
        print(f"error: imported bmstab from {bmstab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        wl.setup()
        setup_wall_s = time.monotonic() - args.started
        setup_cpu_s = time.process_time()
        if not tracer:
            import calibrate
            ref = calibrate.timed()
            setup_s = setup_cpu_s * calibrate.REF_S / ref
            print(f"# set-up {setup_wall_s:.4f} s wall, {setup_cpu_s:.4f} s CPU; "
                  f"reference loop {ref:.4f} s: {setup_s:.4f} s at reference speed")
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        passes = max(1, round(args.seconds / wl.pass_seconds))
        every = 0 if tracer else wl.calls_per_reference_loop
        outputs, wall_s, cpu_s, scaled_s, ref_s = _run_passes(wl.calls, passes, every)
        if tracer:
            tracer.enabled = False
        failed, problems = wl.check(outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = passes * sum(wl.sizes)
    raised = sum(size for outs in outputs
                 for size, out in zip(wl.sizes, outs) if isinstance(out, Exception))
    for outs in outputs[:1]:
        for out in outs:
            if isinstance(out, Exception):
                print(f"# raised: {type(out).__name__}: {out}", file=sys.stderr)
    for msg in problems[:20]:
        print(f"# check failed: {msg}", file=sys.stderr)
    done = attempted - raised
    print(f"# {passes} passes, {wall_s:.3f} s wall and {cpu_s:.3f} s CPU in the "
          f"timed calls: {done / wall_s:.6g} instances per wall second")
    if tracer:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"# traced: {len(tracer.spans)} spans in {path.relative_to(ROOT)}")
        metrics = tracer.per_layer()
    else:
        ips = done / scaled_s
        print(f"# {len(ref_s)} reference loops, {min(ref_s):.4f}-{max(ref_s):.4f} s CPU "
              f"(reference host {calibrate.REF_S} s): {ips:.6g} instances/s at "
              f"reference speed")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"instances_per_s": {"value": ips, "unit": "1/s"},
                   "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"}}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics,
                      "setup_s": None if tracer else setup_s}))
    return 0


def _run_passes(calls, passes, every):
    """Runs the passes.  Returns each pass's outputs (a call's output, or the
    exception it raised), the wall and the CPU time spent in the calls, that
    CPU time scaled to the reference host's speed, and the CPU times of the
    reference loops.

    The reference loop is timed after every `every`-th call, and the CPU
    time of those calls is scaled by its time.  With `every` 0 no loop runs
    and nothing is scaled."""
    import calibrate
    outputs, wall_s, cpu_s, scaled_s, group_s, ref_s = [], 0.0, 0.0, 0.0, 0.0, []
    k = 0
    for _ in range(passes):
        outs = []
        for call in calls:
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                outs.append(call())
            except Exception as exc:  # an instance that raises counts as failed
                outs.append(exc)
            group_s += time.process_time() - cpu
            wall_s += time.perf_counter() - wall
            k += 1
            if every and k % every == 0:
                ref_s.append(calibrate.timed())
                scaled_s += group_s * calibrate.REF_S / ref_s[-1]
                cpu_s += group_s
                group_s = 0.0
        outputs.append(outs)
    if every and group_s:
        ref_s.append(calibrate.timed())
        scaled_s += group_s * calibrate.REF_S / ref_s[-1]
    cpu_s += group_s
    return outputs, wall_s, cpu_s, scaled_s if every else cpu_s, ref_s


if __name__ == "__main__":
    sys.exit(main())
