"""Per-layer timings of bmstab, written to one BENCH_layers.json.

Run from the root of a checkout:

    python tools/bench_layers.py                      # this tree, in-process
    python tools/bench_layers.py --parent HEAD~1      # parent and this tree
    python tools/bench_layers.py --parent HEAD~1 --cover-pairs 0 --rounds 8

Each run appends one entry to the output file (default BENCH_layers.json):
the layer, the commit of the tree, the parent revision if any, the machine,
and per input its sizes and the quartiles of the CPU time of one call.  The
file keeps one schema for every layer: later layers add their own inputs and
size fields to an entry, and no entry is ever rewritten.

With --parent REV, REV's files are taken with `git archive` and unpacked into
a temporary directory, and the parent and this tree are measured in fresh
processes that alternate (parent first in even rounds, this tree first in odd
rounds), each importing bmstab from its own `src`.  --cover-pairs sets the
sumset engine's prefilter threshold (`minkowski._COVER_PAIRS`) in this tree's
processes only, to find the pair count at which the prefilter breaks even.

Three layers are timed.  The sumset engine (`minkowski.convex_combination`)
runs on sumset-large's six inputs, on stability-sweep's 2D boundary bites at
base denoms 128 and 256, on four smaller members of sumset-large's family
that bracket the prefilter's break-even, and on `jittered-2d-r2000`: two 2D
sets of one run in each of 2000 rows, each run's first cell drawn from -4 to
4 and its length from 3 to 11, where 84% of the run pairs survive the
prefilter.  For each input it records both operands' run counts, their run
pairs, the pairs that reach the engine's merge (`kept`), S's runs and the
CPU time per call.  `minkowski.deficit` runs on criterion 02's small sets,
`criterion02-1d`, `-2d` and `-3d`: the first 100 scenarios of each dimension
in the order criterion 02's acceptance test draws them.  Their sizes are
those sums over the scenarios, and their CPU time per call is one pass over
the scenarios divided by their count.  `stability.hull_distance` runs on
`stability-sweep-s1`, the stability-sweep workload's 32 rows at benchmark
seed 1 (criterion 12's 2D bites ladder and two 3D bites), timed the same
way; its sizes are the rows, the hulls built (`hull_evals`) and the levels
scanned (`_box_bounds` tables computed), summed over the rows.  Each input
record names its layer;
an entry's `layer` is that name when all its inputs share it, and otherwise
the list of their layers.
"""

from __future__ import annotations

import argparse
import datetime
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from fractions import Fraction

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "bmstab-layers/1"

# name -> (scenario spec, t); sumset-large's inputs are criterion 01's ball
# plus a far cell, stability-sweep's are its smallest-eps bites per denom
SUMSET_INPUTS = {
    f"counterexample-{n}d-m{m}-{side}": (
        dict(family="counterexample", n=n, denom=m, L=4, bracket=side, seed=1), t)
    for n, m, t in ((2, 128, Fraction(1, 2)), (2, 64, Fraction(1, 3)),
                    (3, 8, Fraction(1, 2)))
    for side in ("inner", "outer")
}
SUMSET_INPUTS.update({
    f"boundary-bites-2d-m{m}": (
        dict(family="boundary-bites", n=2, denom=m, eps=eps, seed=1), Fraction(1, 2))
    for m, eps in ((128, Fraction(16, 100_000) * Fraction(125, 100) ** 2),
                   (256, Fraction(16, 100_000)))
})
# probes of the prefilter's break-even, smaller members of criterion 01's family
SUMSET_INPUTS.update({
    f"counterexample-{n}d-m{m}-outer": (
        dict(family="counterexample", n=n, denom=m, L=4, bracket="outer", seed=1),
        Fraction(1, 2))
    for n, m in ((2, 32), (2, 48), (3, 3), (3, 4))
})
# most pairs survive the prefilter here, so the engine merges every pair
SUMSET_INPUTS["jittered-2d-r2000"] = (
    dict(family="jittered", rows=2000, first=(-4, 4), length=(3, 11), seed=1),
    Fraction(1, 2))
# name -> dimension: criterion 02's scenarios, timed through deficit
DEFICIT_INPUTS = {f"criterion02-{n}d": n for n in (1, 2, 3)}
DEFICIT_COUNT = 100
# name -> benchmark seed: the stability-sweep workload's rows, timed through
# hull_distance
HULL_DISTANCE_INPUTS = {"stability-sweep-s1": 1}
INPUTS = [*SUMSET_INPUTS, *DEFICIT_INPUTS, *HULL_DISTANCE_INPUTS]
_MASK = (1 << 64) - 1


def _import_bmstab(src):
    """bmstab's minkowski, scenarios, vset and stability modules, imported
    from src."""
    sys.path.insert(0, src)
    return tuple(importlib.import_module(f"bmstab.{name}")
                 for name in ("minkowski", "scenarios", "vset", "stability"))


def _operands(sc, vset, spec):
    """The input's two sets: a scenario, or for the jittered family one run
    in each of `rows` 2D rows per set, its first cell and its length drawn
    uniformly from the closed ranges `first` and `length`."""
    if spec["family"] != "jittered":
        return sc.generate_scenario(sc.ScenarioSpec(**spec))
    rng = numpy.random.default_rng(spec["seed"])
    sets = []
    for _ in "AB":
        first = rng.integers(spec["first"][0], spec["first"][1] + 1, spec["rows"])
        length = rng.integers(spec["length"][0], spec["length"][1] + 1, spec["rows"])
        sets.append(vset.LatticeSet(2, 1, [
            (y, f + i) for y, (f, n) in enumerate(zip(first.tolist(), length.tolist()))
            for i in range(n)]))
    return sets


def _criterion02(sc, n):
    """(A, B, t) of the first DEFICIT_COUNT scenarios of dimension n in
    criterion 02's sequence: scenario k has n = 1 + k % 3 and seed k."""
    families = ("random-boxes", "perturbed-square", "boundary-bites")
    ts = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    return [(*sc.generate_scenario(sc.ScenarioSpec(
                family=families[(k // 3) % 3], n=n, denom=4 if n < 3 else 2,
                eps=(Fraction(1, 8), Fraction(1, 4))[k % 2], seed=k)), ts[k % 4])
            for k in range(n - 1, 3 * DEFICIT_COUNT, 3)]


def _derived_seed(seed, k):
    """Scenario seed k of a benchmark run (benchmark/workloads.py)."""
    z = (seed * 0x9E3779B97F4A7C15 + (k + 1) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 30)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _sweep_rows(sc, seed):
    """(A, B) of each stability-sweep row at a benchmark seed, in the order
    of its sweep calls: criterion 12's 2D bites ladder, one config per base
    denom, then the 3D bites config."""
    by_denom = {}
    for k in range(30):
        eps = Fraction(16, 100_000) * Fraction(125, 100) ** k
        m = 16
        while int(eps * m * m / 2) < 2:
            m *= 2
        by_denom.setdefault(m, []).append(eps)
    configs = [(2, m, eps_list, _derived_seed(seed, i))
               for i, (m, eps_list) in enumerate(sorted(by_denom.items()))]
    configs.append((3, 2, [Fraction(1, 4), Fraction(1, 2)], _derived_seed(seed, 100)))
    return [sc.generate_scenario(sc.ScenarioSpec(
                family="boundary-bites", n=n, denom=m, eps=eps, seed=s))
            for n, m, eps_list, s in configs for eps in sorted(eps_list)]


def _hull_distance_sizes(st, rows):
    """Rows, hulls built and levels scanned, summed over the rows."""
    levels, box_bounds = [0], st._box_bounds

    def counting(*args):
        levels[0] += 1
        return box_bounds(*args)

    st._box_bounds = counting
    try:
        evals = sum(st.hull_distance(A, B)["hull_evals"] for A, B in rows)
    finally:
        st._box_bounds = box_bounds
    return {"rows": len(rows), "hull_evals": evals, "levels": levels[0]}


def _pairs_reaching_merge(mk, A, B, t):
    """(kept, S): the run pairs that reach the engine's merge, and S.

    The engine hands its chunks of pairs to its first `_union` call, and
    S's shifted copies to a second.  Trees older than `_union` merged each
    chunk into the running union with `_merge` and then n - 1 shifted
    copies of the union, one base axis at a time; there a pair-stage call
    receives the last call's output and the chunk's pairs.
    """
    if hasattr(mk, "_union"):
        sizes, union = [], mk._union

        def counting(chunks):
            sizes.append(0)
            for s, e in chunks:
                sizes[-1] += s.size
                yield s, e

        mk._union = lambda chunks: union(counting(chunks))
        try:
            S = mk.convex_combination(A, B, t)
        finally:
            mk._union = union
        return sizes[0], S
    calls, merge = [], mk._merge

    def counting_merge(s, e):
        out = merge(s, e)
        calls.append((len(s), len(out[0])))
        return out

    mk._merge = counting_merge
    try:
        S = mk.convex_combination(A, B, t)
    finally:
        mk._merge = merge
    stage = calls[:len(calls) - (A.dim - 1)]
    return sum(n_in - prev for (n_in, _), (_, prev) in zip(stage, [(0, 0)] + stage)), S


def measure(src, names, reps, cover_pairs=None):
    """Per input: sizes and `reps` CPU times of one call, in seconds; for a
    deficit or hull_distance input, of one pass over its scenarios divided
    by their count."""
    mk, sc, vset, st = _import_bmstab(src)
    if cover_pairs is not None:
        mk._COVER_PAIRS = cover_pairs
    out = {}
    for name in names:
        if name in HULL_DISTANCE_INPUTS:
            cases = _sweep_rows(sc, HULL_DISTANCE_INPUTS[name])
            call = st.hull_distance
            sizes = _hull_distance_sizes(st, cases)  # also the warm-up calls
        else:
            if name in SUMSET_INPUTS:
                spec, t = SUMSET_INPUTS[name]
                cases = [(*_operands(sc, vset, spec), t)]
                call = mk.convex_combination
            else:
                cases = _criterion02(sc, DEFICIT_INPUTS[name])
                call = mk.deficit
            sizes = dict.fromkeys(("runs_a", "runs_b", "pairs", "kept", "out_runs"), 0)
            for A, B, t in cases:  # also the warm-up calls
                kept, S = _pairs_reaching_merge(mk, A, B, t)
                for key, x in (("runs_a", len(A.runs)), ("runs_b", len(B.runs)),
                               ("pairs", len(A.runs) * len(B.runs)), ("kept", kept),
                               ("out_runs", len(S.runs))):
                    sizes[key] += x
            if name in DEFICIT_INPUTS:
                sizes["scenarios"] = len(cases)
        times = []
        for _ in range(reps):
            t0 = time.process_time()
            for args in cases:
                call(*args)
            times.append((time.process_time() - t0) / len(cases))
        out[name] = {"sizes": sizes, "cpu_s": times}
    return out


def _quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"q1": q1, "median": q2, "q3": q3, "samples": len(xs)}


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _commit():
    """HEAD's short hash, marked when src differs from it; None outside git."""
    try:
        head = _git("rev-parse", "--short", "HEAD")
        return head + ("+dirty" if _git("status", "--porcelain", "--", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def _worker_cmd(src, names, reps, cover_pairs):
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", src,
           "--reps", str(reps), "--inputs", *names]
    return cmd + (["--cover-pairs", str(cover_pairs)] if cover_pairs is not None else [])


def _run_worker(cmd):
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                     text=True, env=env).stdout)


def compare(parent, names, reps, rounds, cover_pairs):
    """Alternating fresh processes of REV's tree and this tree."""
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tree:
        archive = os.path.join(tree, "tree.tar")
        with open(archive, "wb") as fh:
            subprocess.run(["git", "-C", ROOT, "archive", parent], check=True, stdout=fh)
        with tarfile.open(archive) as tar:
            tar.extractall(tree, filter="data")
        sides = {"parent": _worker_cmd(os.path.join(tree, "src"), names, reps, None),
                 "change": _worker_cmd(os.path.join(ROOT, "src"), names, reps, cover_pairs)}
        runs = {"parent": [], "change": []}
        for r in range(rounds):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                runs[side].append(_run_worker(sides[side]))
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", nargs="+", default=INPUTS, choices=INPUTS,
                    metavar="NAME")
    ap.add_argument("--reps", type=int, default=20, help="calls per input per process")
    ap.add_argument("--rounds", type=int, default=6, help="process pairs with --parent")
    ap.add_argument("--parent", metavar="REV", help="also measure REV's tree")
    ap.add_argument("--cover-pairs", type=int, metavar="N")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    ap.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.reps < 1 or args.rounds < 1:
        ap.error("--reps and --rounds must be at least 1")
    if args.worker:
        print(json.dumps(measure(args.worker, args.inputs, args.reps, args.cover_pairs)))
        return 0

    if args.parent:
        runs = compare(args.parent, args.inputs, args.reps, args.rounds,
                       args.cover_pairs)
    else:
        runs = {"change": [measure(os.path.join(ROOT, "src"), args.inputs,
                                   args.reps, args.cover_pairs)]}
    inputs = []
    for name in args.inputs:
        if name in SUMSET_INPUTS:
            spec, t = SUMSET_INPUTS[name]
            rec = {"name": name, "layer": "minkowski.convex_combination",
                   "spec": {k: str(v) for k, v in spec.items()}, "t": str(t)}
        elif name in DEFICIT_INPUTS:
            rec = {"name": name, "layer": "minkowski.deficit",
                   "spec": {"criterion": "02", "n": str(DEFICIT_INPUTS[name]),
                            "scenarios": str(DEFICIT_COUNT)}}
        else:
            rec = {"name": name, "layer": "stability.hull_distance",
                   "spec": {"workload": "stability-sweep",
                            "seed": str(HULL_DISTANCE_INPUTS[name])}}
        for side, rs in runs.items():
            rec[side] = {"sizes": rs[-1][name]["sizes"],
                         "cpu_s": _quartiles([x for r in rs for x in r[name]["cpu_s"]]),
                         "process_medians_s": [statistics.median(r[name]["cpu_s"])
                                               for r in rs]}
        inputs.append(rec)
    layers = list(dict.fromkeys(rec["layer"] for rec in inputs))
    entry = {
        "layer": layers[0] if len(layers) == 1 else layers,
        "commit": _commit(),
        "parent": args.parent,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "method": {"reps": args.reps, "rounds": args.rounds if args.parent else 1,
                   "cover_pairs": args.cover_pairs,
                   "clock": "process_time, one call; for deficit and hull_distance "
                            "inputs one pass over the scenarios, divided by their "
                            "count"},
        "inputs": inputs,
    }
    book = {"schema": SCHEMA, "entries": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            book = json.load(fh)
    book["entries"].append(entry)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(book, fh, indent=1)
        fh.write("\n")
    for rec in inputs:
        size, count = (("rows", "levels") if rec["layer"] == "stability.hull_distance"
                       else ("pairs", "kept"))
        cols = "  ".join(
            f"{side} {1e6 * rec[side]['cpu_s']['median']:8.0f} us "
            f"({count} {rec[side]['sizes'][count]})" for side in runs)
        print(f"{rec['name']:30s} {size} {rec['change']['sizes'][size]:8d}  {cols}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
