"""Self-tests of the benchmark's checks: each accepts bmstab's true output and
rejects a corrupted copy of it.

    python3 benchmark/selftest.py

Run from the root of a checkout; exits 0 when every test passes.  The
corruptions are the smallest the checks must see: one cell dropped from S,
a volume or D* off by one fine-cell measure, one corner moved outside K.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import bmstab.convexity  # noqa: E402
import bmstab.minkowski  # noqa: E402
import bmstab.stability  # noqa: E402
from bmstab.vset import LatticeSet  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

HALF = Fraction(1, 2)


def test_pairwise_cube_sum_catches_a_dropped_cell():
    for n, t in ((1, Fraction(1, 3)), (2, HALF), (2, Fraction(2, 3)), (3, HALF)):
        A, B = workloads.generate(family="random-boxes", n=n, denom=3, seed=11 * n)
        S = bmstab.minkowski.convex_combination(A, B, t)
        assert workloads.sumset_matches(A, B, t, S)
        dropped = LatticeSet(S.dim, S.denom, S.cells - {min(S.cells)})
        assert not workloads.sumset_matches(A, B, t, dropped)
    # and on the counterexample family, against the pure-Python brute force
    A, B = workloads.generate(family="counterexample", n=2, denom=2, L=1)
    want = bmstab.minkowski.convex_combination_bruteforce(A, B, Fraction(1, 3))
    assert workloads.sumset_matches(A, B, Fraction(1, 3), want)


def test_deficit_check_catches_volS_off_by_one_cell():
    wl = workloads.DeficitSmall(5, ".")
    wl.COUNT = 40
    wl.setup()
    recs = [call() for call in wl.calls]
    assert wl.check([recs]) == (0, [])
    k = wl.SAMPLE_EVERY
    A, B, t = wl.inputs[k]
    cell = Fraction(1, (A.denom * t.denominator) ** A.dim)
    bad = list(recs)
    bad[k] = dataclasses.replace(recs[k], volS=recs[k].volS - cell)
    failed, problems = wl.check([bad])
    assert failed == 1 and "volS" in problems[0]
    bad = list(recs)
    bad[3] = dataclasses.replace(recs[3], delta_raw_hi=Fraction(-1, 10 ** 9))
    assert wl.check([bad])[0] == 1


def test_hull_measures_exact():
    square = np.array([(i, j) for i in range(3) for j in range(3)])
    assert oracles.hull_measure(square, 3) == 1
    # an L of three cells: hull is the square less a corner triangle
    ell = np.array([(0, 0), (1, 0), (0, 1)])
    assert oracles.hull_measure(ell, 1) == Fraction(7, 2)
    cube = np.array(list(itertools.product(range(2), repeat=3)))
    assert oracles.hull_measure(cube, 2) == 1
    # two unit cubes touching at an edge: a prism over an L-shaped hexagon
    prism = np.array([(0, 0, 0), (1, 1, 0)])
    assert oracles.hull_measure(prism, 1) == 3
    for seed in range(5):
        A, _ = workloads.generate(family="boundary-bites", n=2, denom=8,
                                  eps=Fraction(1, 4), seed=seed)
        K = bmstab.convexity.convex_hull(A)
        assert oracles.hull_measure(oracles.cells_array(A.cells, 2), 8) == K.volume


def _sweep_row(n, m, eps, seed):
    A, B = workloads.generate(family="boundary-bites", n=n, denom=m, eps=eps, seed=seed)
    rep = bmstab.stability.check_stability(
        A, B, HALF, HALF, instance_id=f"boundary-bites-e{float(eps):g}-s{seed}")
    header = bmstab.stability.StabilityReport.CSV_HEADER.split(",")
    return dict(zip(header, rep.csv_row().split(",")))


def test_hull_distance_check_catches_D_star_off_by_one_cell():
    for n, m, eps in ((2, 16, Fraction(1, 8)), (3, 2, Fraction(1, 2))):
        row = _sweep_row(n, m, eps, 3)
        check = workloads.StabilitySweep._check_row
        assert check(row, n, m, eps, 3) is None, check(row, n, m, eps, 3)
        for sign in (1, -1):
            bad = dict(row, D_star=repr(float(row["D_star"]) + sign / m ** n))
            assert "D*" in check(bad, n, m, eps, 3)
        assert "verdict" in check(dict(row, verdict="pass"), n, m, eps, 3)


def test_containment_catches_a_corner_moved_outside():
    A, B = workloads.generate(family="boundary-bites", n=2, denom=16,
                              eps=Fraction(1, 8), seed=2)
    K = bmstab.convexity.convex_hull(A)
    corners = [tuple(c) for c in oracles.cell_corners(
        oracles.cells_array(A.cells, 2)).tolist()]
    assert oracles.first_point_outside(corners, 16, K.verts, K.scale) is None
    far = max(corners)
    moved = [c if c != far else (c[0] + 1, c[1]) for c in corners]
    assert oracles.first_point_outside(moved, 16, K.verts, K.scale) == (far[0] + 1, far[1])
    # and through the workload check, with K replaced by A's own hull
    # nudged off its corners
    res = bmstab.stability.cos_pipeline(
        A, B, K, bmstab.convexity.convex_hull(B), HALF, HALF)
    check = workloads.CosPipeline2D._check_one
    assert check(A, B, res) is None
    nudged = dict(res, K=K.translate((Fraction(1, 1 << 20), 0)))
    assert "outside K" in check(A, B, nudged)
    cell = Fraction(1, 256)
    assert "zeta" in check(A, B, dict(res, zeta_hi=res["zeta_hi"] + cell))
    assert "sym_diff" in check(A, B, dict(res, sym_diff_AB=res["sym_diff_AB"] + cell))


def _box_overlap(a, b, m, shift):
    """Cell-by-cell exact overlap, the definition the split must agree with."""
    total = Fraction(0)
    for ca in a.tolist():
        for cb in b.tolist():
            v = Fraction(1)
            for x, y, s in zip(ca, cb, shift):
                o = min(Fraction(x + 1, m), Fraction(y + 1, m) + s) \
                    - max(Fraction(x, m), Fraction(y, m) + s)
                v *= max(o, Fraction(0))
            total += v
    return total


def test_split_shift_overlap_matches_cell_by_cell():
    rng = random.Random(7)
    overlapping = 0
    for n in (1, 2, 3):
        for _ in range(8):
            a = np.array(sorted({tuple(rng.randrange(5) for _ in range(n))
                                 for _ in range(12)}))
            b = np.array(sorted({tuple(rng.randrange(5) for _ in range(n))
                                 for _ in range(12)}))
            shift = [Fraction(rng.randrange(-12, 12), rng.choice((7, 16, 48)))
                     for _ in range(n)]
            want = _box_overlap(a, b, 4, shift)
            assert oracles.shifted_overlap(a, b, 4, shift) == want
            overlapping += want > 0
    assert overlapping >= 12


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
