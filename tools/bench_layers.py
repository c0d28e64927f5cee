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
REV must be a98de2d or later: the sumset's kept pairs are counted through
`minkowski._union`, which older trees lack.

Four layers are timed.  The sumset engine (`minkowski.convex_combination`)
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
seed 1 (criterion 12's 2D bites ladder and two 3D bites), read from the
configs of `benchmark/workloads.py`'s `StabilitySweep` and timed the same
way; its sizes are the rows, the hulls built (`hull_evals`) and the levels
scanned (`_box_bounds` tables computed), summed over the rows.  The hull
candidate routine (`vset.hull_points`) runs on `cos-pipeline-2d-s1-sets`,
one call per set on both sets of the cos-pipeline-2d workload's six
instances at benchmark seed 1; on `stability-sweep-s1-pairs`, one call per
row on the row's two sets, as `hull_distance` makes it; and, one call each,
on the first set of criterion 01's 2D counterexample at denom 128 (577
runs), of the 2D boundary bites at denom 1024 and the ladder's smallest eps,
and of criterion 01's 3D counterexample at denom 8.  A tree older than
`vset._hull_candidates` takes one `hull_points` call per set of a call.  Its
sizes are the calls and, summed over their sets, the sets, runs, last-axis
columns and candidates.  Each input record names its layer; an entry's
`layer` is that name when all its inputs share it, and otherwise the list of
their layers.
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
# (a `ladder` index into StabilitySweep.LADDER, which `_sumset_input` reads)
SUMSET_INPUTS = {
    f"counterexample-{n}d-m{m}-{side}": (
        dict(family="counterexample", n=n, denom=m, L=4, bracket=side, seed=1), t)
    for n, m, t in ((2, 128, Fraction(1, 2)), (2, 64, Fraction(1, 3)),
                    (3, 8, Fraction(1, 2)))
    for side in ("inner", "outer")
}
SUMSET_INPUTS.update({
    f"boundary-bites-2d-m{m}": (
        dict(family="boundary-bites", n=2, denom=m, ladder=k, seed=1), Fraction(1, 2))
    for m, k in ((128, 2), (256, 0))
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
# name -> (source, benchmark seed or scenario spec): the sets timed through
# the hull candidate routine; a spec's first set, the large inputs
HULL_POINTS_INPUTS = {
    "cos-pipeline-2d-s1-sets": ("cos-pipeline-2d", 1),
    "stability-sweep-s1-pairs": ("stability-sweep", 1),
    "counterexample-2d-m128-a": ("scenario", SUMSET_INPUTS["counterexample-2d-m128-inner"][0]),
    "boundary-bites-2d-m1024-a": ("scenario", dict(family="boundary-bites", n=2, denom=1024,
                                                   ladder=0, seed=1)),
    "counterexample-3d-m8-a": ("scenario", SUMSET_INPUTS["counterexample-3d-m8-inner"][0]),
}
INPUTS = [*SUMSET_INPUTS, *DEFICIT_INPUTS, *HULL_DISTANCE_INPUTS, *HULL_POINTS_INPUTS]


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


def _workload(name, seed=None):
    """The benchmark's workload class `name` (`StabilitySweep` or
    `CosPipeline2D`), or with a benchmark seed that workload, set up.

    Its module imports bmstab, so a worker calls this only after importing
    bmstab from the tree it measures; elsewhere this tree's `src` serves.
    """
    sys.path[:0] = [os.path.join(ROOT, "benchmark"), os.path.join(ROOT, "src")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    cls = getattr(workloads, name)
    if seed is None:
        return cls
    with tempfile.TemporaryDirectory(prefix="bench-workload-") as workdir:
        workload = cls(seed, workdir)
        workload.setup()
    return workload


def _scenario_spec(spec):
    """A scenario spec, its `ladder` index replaced by that eps."""
    if "ladder" in spec:
        ladder = _workload("StabilitySweep").LADDER
        spec = {("eps" if k == "ladder" else k): (ladder[v] if k == "ladder" else v)
                for k, v in spec.items()}
    return spec


def _sumset_input(name):
    """SUMSET_INPUTS[name], its `ladder` index replaced by that eps."""
    spec, t = SUMSET_INPUTS[name]
    return _scenario_spec(spec), t


def _sweep_rows(sc, seed):
    """(A, B) of each stability-sweep row at a benchmark seed, in sweep
    order, from the configs of the benchmark's own workload."""
    return [sc.generate_scenario(sc.ScenarioSpec(
                family="boundary-bites", n=n, denom=m, eps=eps, seed=s))
            for n, m, items in _workload("StabilitySweep", seed).configs
            for eps, s in items]


def _hull_point_groups(sc, vset, name):
    """The sets of each call of a hull_points input: one set a call, or
    for a stability-sweep input the row's reconciled pair."""
    source, arg = HULL_POINTS_INPUTS[name]
    if source == "cos-pipeline-2d":
        return [(E,) for pair in _workload("CosPipeline2D", arg).inputs for E in pair]
    if source == "stability-sweep":
        return [vset.reconcile(A, B) for A, B in _sweep_rows(sc, arg)]
    return [sc.generate_scenario(sc.ScenarioSpec(**_scenario_spec(arg)))[:1]]


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
    S's shifted copies to a second.
    """
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


def measure(src, names, reps, cover_pairs=None):
    """Per input: sizes and `reps` CPU times of one call, in seconds; for a
    deficit, hull_distance or hull_points input, of one pass over its
    scenarios or calls divided by their count."""
    mk, sc, vset, st = _import_bmstab(src)
    if cover_pairs is not None:
        mk._COVER_PAIRS = cover_pairs
    out = {}
    for name in names:
        if name in HULL_DISTANCE_INPUTS:
            cases = _sweep_rows(sc, HULL_DISTANCE_INPUTS[name])
            call = st.hull_distance
            sizes = _hull_distance_sizes(st, cases)  # also the warm-up calls
        elif name in HULL_POINTS_INPUTS:
            cases = _hull_point_groups(sc, vset, name)
            # a tree older than `_hull_candidates` takes one call per set
            call = getattr(vset, "_hull_candidates",
                           lambda *sets: [E.hull_points() for E in sets])
            sizes = dict.fromkeys(("calls", "sets", "runs", "columns", "candidates"), 0)
            sizes["calls"] = len(cases)
            for sets in cases:  # also the warm-up calls
                for E, pts in zip(sets, call(*sets)):
                    for key, x in (("sets", 1), ("runs", len(E.runs)),
                                   ("columns", len(vset._column_breaks(E.runs)) - 1),
                                   ("candidates", len(pts))):
                        sizes[key] += x
        else:
            if name in SUMSET_INPUTS:
                spec, t = _sumset_input(name)
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
            spec, t = _sumset_input(name)
            rec = {"name": name, "layer": "minkowski.convex_combination",
                   "spec": {k: str(v) for k, v in spec.items()}, "t": str(t)}
        elif name in DEFICIT_INPUTS:
            rec = {"name": name, "layer": "minkowski.deficit",
                   "spec": {"criterion": "02", "n": str(DEFICIT_INPUTS[name]),
                            "scenarios": str(DEFICIT_COUNT)}}
        elif name in HULL_DISTANCE_INPUTS:
            rec = {"name": name, "layer": "stability.hull_distance",
                   "spec": {"workload": "stability-sweep",
                            "seed": str(HULL_DISTANCE_INPUTS[name])}}
        else:
            source, arg = HULL_POINTS_INPUTS[name]
            rec = {"name": name, "layer": "vset.hull_points",
                   "spec": ({k: str(v) for k, v in _scenario_spec(arg).items()}
                            if source == "scenario"
                            else {"workload": source, "seed": str(arg)})}
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
                   "clock": "process_time, one call; for deficit, hull_distance "
                            "and hull_points inputs one pass over the scenarios or "
                            "calls, divided by their count"},
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
        size, count = {"stability.hull_distance": ("rows", "levels"),
                       "vset.hull_points": ("runs", "candidates")}.get(
                           rec["layer"], ("pairs", "kept"))
        cols = "  ".join(
            f"{side} {1e6 * rec[side]['cpu_s']['median']:8.0f} us "
            f"({count} {rec[side]['sizes'][count]})" for side in runs)
        print(f"{rec['name']:30s} {size} {rec['change']['sizes'][size]:8d}  {cols}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
