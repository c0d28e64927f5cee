import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmstab._hull import hull
from bmstab.cli import sweep
from bmstab.convexity import Polytope, convex_hull, lattice_polytope_overlap
from bmstab.minkowski import convex_combination, convex_combination_bruteforce, deficit
from bmstab.scenarios import ScenarioSpec, generate_scenario
from bmstab.stability import _shifted_overlap, cos_pipeline, hull_distance
from bmstab.vset import (
    LatticeSet, _box_offsets, _slice_counts, fiber_profile, intersection_measure, measure,
    parse_vset, reconcile,
    slice_measure, superlevel_set, symmetric_difference_measure, write_vset,
)


def random_set(rng, n=2, m=2, max_cells=20, span=6):
    k = rng.randrange(1, max_cells)
    cells = frozenset(tuple(rng.randrange(-span, span) for _ in range(n))
                      for _ in range(k))
    return LatticeSet(n, m, cells)


def test_measure_examples():
    sq = LatticeSet(2, 4, frozenset((i, j) for i in range(4) for j in range(4)))
    assert measure(sq) == 1
    three = LatticeSet(2, 2, frozenset([(0, 0), (1, 0), (1, 1)]))
    assert measure(three) == Fraction(3, 4)


def test_measure_matches_bruteforce_recount():
    rng = random.Random(11)
    for _ in range(10):
        E = random_set(rng, max_cells=50)
        assert measure(E) == Fraction(len(set(E.cells)), E.denom ** 2)


def test_refine_preserves_measure():
    rng = random.Random(5)
    for _ in range(6):
        E = random_set(rng)
        for k in range(2, 9):
            assert E.refine(k).measure() == E.measure()


def test_symmetric_difference():
    rng = random.Random(1)
    A = random_set(rng)
    assert symmetric_difference_measure(A, A) == 0
    B = A.translate((100, 100))
    assert symmetric_difference_measure(A, B) == 2 * A.measure()
    # identity |EdF| = |E| + |F| - 2|E^F| on denominator-mismatched operands
    C = random_set(rng, m=3)
    lhs = symmetric_difference_measure(A, C)
    assert lhs == A.measure() + C.measure() - 2 * intersection_measure(A, C)


def test_symmetric_difference_dim_mismatch():
    A = LatticeSet(2, 1, frozenset([(0, 0)]))
    B = LatticeSet(1, 1, frozenset([(0,)]))
    with pytest.raises(ValueError):
        symmetric_difference_measure(A, B)


def test_fiber_profile_examples():
    sq = LatticeSet(2, 4, frozenset((i, j) for i in range(4) for j in range(4)))
    prof = fiber_profile(sq)
    assert all(l == 1 for _, l in prof.lengths)
    stair = LatticeSet(2, 2, frozenset([(0, 0), (1, 0), (1, 1)]))
    assert dict(fiber_profile(stair).lengths) == {(0,): Fraction(1, 2), (1,): Fraction(1)}
    assert slice_measure(stair, 0) == 1
    assert slice_measure(stair, 1) == Fraction(1, 2)
    assert slice_measure(stair, 7) == 0


def test_fubini_identity():
    rng = random.Random(2)
    for _ in range(15):
        E = random_set(rng, n=rng.choice([2, 3]), m=rng.choice([1, 2, 3]))
        prof = fiber_profile(E)
        total = sum((l for _, l in prof.lengths), Fraction(0))
        assert total / E.denom ** (E.dim - 1) == E.measure()


def test_superlevel_examples():
    sq = LatticeSet(2, 4, frozenset((i, j) for i in range(4) for j in range(4)))
    assert superlevel_set(sq, Fraction(1, 2)).measure() == 1
    assert superlevel_set(sq, 1).is_empty()  # strict inequality at the top
    stair = LatticeSet(2, 2, frozenset([(0, 0), (1, 0), (1, 1)]))
    top = superlevel_set(stair, Fraction(3, 4))
    assert top.cells == frozenset([(1,)]) and top.measure() == Fraction(1, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_superlevel_antitone(a, b):
    rng = random.Random(a * 31 + b)
    E = random_set(rng)
    lam1, lam2 = sorted([Fraction(a, 8), Fraction(b, 8)])
    s1 = superlevel_set(E, lam1)
    s2 = superlevel_set(E, lam2)
    assert s2.cells <= s1.cells


def test_vset_round_trip_and_rejects():
    rng = random.Random(3)
    E = random_set(rng, n=3)
    assert parse_vset(write_vset(E)) == E
    with pytest.raises(ValueError):
        parse_vset("vset 2 4\ncells 2\n0 0\n0 0\n")       # duplicates
    with pytest.raises(ValueError):
        parse_vset("vset 2 4\ncells 1\n0 0 0\n")          # wrong arity
    with pytest.raises(ValueError):
        parse_vset("vset 2 4\ncells 2\n0 0\n")            # wrong count


def test_writer_emits_sorted_cells():
    E = LatticeSet(2, 2, frozenset([(1, 0), (0, 1), (0, 0)]))
    body = write_vset(E).splitlines()[2:]
    assert body == sorted(body, key=lambda ln: tuple(map(int, ln.split())))


# ---------------------------------------------------------------------------
# the cell array against a pure-tuple oracle


def _oracle_refine(cells, n, k):
    return {tuple(k * c[a] + o[a] for a in range(n))
            for c in cells for o in product(range(k), repeat=n)}


def _oracle_hull_points(cells, n):
    ends = {}
    for c in cells:
        lo, hi = ends.get(c[:-1], (c[-1], c[-1]))
        ends[c[:-1]] = (min(lo, c[-1]), max(hi, c[-1]))
    return {tuple(y[a] + o[a] for a in range(n - 1)) + (z,)
            for y, (lo, hi) in ends.items()
            for o in product((0, 1), repeat=n - 1) for z in (lo, hi + 1)}


def _oracle_counts(keys):
    counts = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    return counts


def _assert_canonical(E):
    rows = E.array.tolist()
    assert E.array.dtype == np.int64 and E.array.shape == (len(rows), E.dim)
    assert all(r < s for r, s in zip(rows, rows[1:]))  # sorted, unique
    assert not E.array.flags.writeable


def test_array_ops_match_tuple_oracle():
    rng = random.Random(2024)
    for trial in range(60):
        n = 1 + trial % 3
        m = rng.choice([1, 2, 3])
        k = 0 if trial % 10 == 0 else rng.randrange(1, 30)
        cells = {tuple(rng.randrange(-7, 5) for _ in range(n)) for _ in range(k)}
        E = LatticeSet(n, m, list(cells))
        _assert_canonical(E)
        assert E.cells == cells
        assert E.measure() == Fraction(len(cells), m ** n) == measure(E)
        assert E.is_empty() == (not cells)
        assert E.corner_points() == {tuple(c[a] + o[a] for a in range(n))
                                     for c in cells for o in product((0, 1), repeat=n)}
        for kk in (1, 2, 3):
            R = E.refine(kk)
            _assert_canonical(R)
            assert R.denom == m * kk and R.cells == _oracle_refine(cells, n, kk)
        off = tuple(rng.randrange(-9, 9) for _ in range(n))
        T = E.translate(off)
        _assert_canonical(T)
        assert T.cells == {tuple(c[a] + off[a] for a in range(n)) for c in cells}
        text = write_vset(E)
        assert text.splitlines()[2:] == [" ".join(map(str, c)) for c in sorted(cells)]
        assert parse_vset(text) == E and write_vset(parse_vset(text)) == text

        F_cells = {tuple(rng.randrange(-5, 6) for _ in range(n))
                   for _ in range(rng.randrange(0, 25))}
        F = LatticeSet(n, rng.choice([1, 2, 4]), F_cells)
        E2, F2 = reconcile(E, F)
        L = E2.denom
        e2 = _oracle_refine(cells, n, L // m)
        f2 = _oracle_refine(F_cells, n, L // F.denom)
        assert E2.cells == e2 and F2.cells == f2
        assert intersection_measure(E, F) == Fraction(len(e2 & f2), L ** n)
        assert symmetric_difference_measure(E, F) == Fraction(len(e2 ^ f2), L ** n)

        if not cells:
            with pytest.raises(ValueError):
                E.bounding_box()
            continue
        assert E.bounding_box() == [(min(c[a] for c in cells), max(c[a] for c in cells) + 1)
                                    for a in range(n)]
        hp = E.hull_points()
        assert len(set(hp)) == len(hp) and set(hp) <= _oracle_hull_points(cells, n)
        assert hull(hp) == hull(E.corner_points())
        if n == 1:
            continue
        fibers = _oracle_counts(c[:-1] for c in cells)
        assert fiber_profile(E).lengths == tuple(
            (y, Fraction(c, m)) for y, c in sorted(fibers.items()))
        rows = _oracle_counts(c[-1] for c in cells)
        assert list(zip(*(x.tolist() for x in _slice_counts(E)))) == sorted(rows.items())
        for s in (-8, -1, 0, 3, 2 ** 70):
            assert slice_measure(E, s) == Fraction(rows.get(s, 0), m ** (n - 1))
        for lam in (Fraction(0), Fraction(1, 3), Fraction(1, m), Fraction(5, 2)):
            S = superlevel_set(E, lam)
            _assert_canonical(S)
            assert S.cells == {y for y, c in fibers.items() if Fraction(c, m) > lam}
        # a spare draw, kept so that the later trials draw the same sets
        rng.choice([Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)])


def _hull_point_clouds(rng, n):
    """Cell sets whose hulls stress the envelope filter of `hull_points`."""
    side = 9 if n == 2 else 5
    # unions of boxes: collinear rims and coplanar faces
    for _ in range(8):
        cells = set()
        for _ in range(rng.randrange(1, 4)):
            lo = [rng.randrange(-side, side) for _ in range(n)]
            cells |= set(product(*(range(a, a + rng.randrange(1, 5)) for a in lo)))
        yield cells
    # random clouds: columns with holes, gaps along base lines
    for density in (0.15, 0.5, 0.9):
        yield {c for c in product(range(-3, side - 3), repeat=n)
               if rng.random() < density} or {(0,) * n}
    # a single cell, a lone column, a lone base row, a lattice ball
    yield {tuple(rng.randrange(-side, side) for _ in range(n))}
    yield {(0,) * (n - 1) + (z,) for z in range(-3, 4)}
    yield {(x,) + (0,) * (n - 1) for x in range(-3, 4)}
    yield {c for c in product(range(-4, 5), repeat=n) if sum(x * x for x in c) <= 12}
    # scattered cells: sparse lines with gaps of every length
    yield {tuple(rng.randrange(-40, 40) for _ in range(n)) for _ in range(12)}


def test_hull_points_are_exact_hull_candidates():
    rng = random.Random(2718)
    w = 2 ** 31 - 2  # the widest cell span whose corners stay on int64
    huge = [
        {(0, 0), (w, w), (1, w - 1), (w - 1, 1), (w // 2, 3), (w // 2 + 1, w - 3)},
        {(0, 0, 0), (w, w, w), (w, 0, 1), (1, w, 0), (0, 2, w), (w // 3, w // 2, 5)},
        # an axis extent of 2^31 or more, and corners at both ends of int64
        {(0, 0), (2 ** 31, 5), (-3, 2 ** 40), (7, 1)},
        {(0, 0, 0), (2 ** 31, 1, 2), (3, -2 ** 33, 1), (1, 1, 2 ** 50), (2, 2, 2)},
        {(2 ** 63 - 1, 0), (2 ** 63 - 2, 3), (2 ** 63 - 5, 1)},
        {(-2 ** 63, 2 ** 63 - 1), (2 ** 63 - 1, -2 ** 63), (0, 0)},
        {(5, 2 ** 63 - 1, -2 ** 63), (-2 ** 63, 0, 2 ** 63 - 1), (1, 2, 3)},
    ]
    clouds = [(n, cells) for n in (2, 3) for _ in range(4)
              for cells in _hull_point_clouds(rng, n)]
    clouds += [(len(next(iter(cells))), cells) for cells in huge]
    for n, cells in clouds:
        E = LatticeSet(n, rng.choice([1, 3]), cells)
        hp = E.hull_points()
        corners = E.corner_points()
        assert all(type(x) is int for p in hp for x in p)
        assert len(set(hp)) == len(hp) and set(hp) <= corners, cells
        assert hull(hp) == hull(corners), cells
    # flat rims leave only the vertices, of 514 column-end corners at denom 256
    assert len(LatticeSet(2, 256, np.argwhere(np.ones((256, 256)))).hull_points()) == 4
    assert len(LatticeSet(3, 8, np.argwhere(np.ones((8, 8, 8)))).hull_points()) == 8
    assert LatticeSet(1, 2, [(3,), (-1,)]).hull_points() == [(-1,), (4,)]
    assert LatticeSet(2, 2).hull_points() == []


def test_equal_sets_built_five_ways_are_equal_and_hash_equal():
    rng = random.Random(7)
    for n in (1, 2, 3):
        cells = sorted({tuple(rng.randrange(-6, 6) for _ in range(n)) for _ in range(40)})
        shuffled = np.array(cells, dtype=np.int64)[rng.sample(range(len(cells)), len(cells))]
        ways = [
            LatticeSet(n, 3, frozenset(cells)),
            LatticeSet(n, 3, list(cells)),
            LatticeSet(n, 3, (c for c in cells)),
            LatticeSet(n, 3, shuffled),
            LatticeSet(n, 3, cells + cells[::3]),
        ]
        for E in ways:
            _assert_canonical(E)
            assert E == ways[0] and hash(E) == hash(ways[0])
            with pytest.raises(ValueError):
                E.array[0, 0] = 99
        assert pickle.loads(pickle.dumps(ways[3])) == ways[0] == copy.deepcopy(ways[4])
        assert ways[0] != LatticeSet(n, 6, cells)
        assert ways[0] != LatticeSet(n, 3, cells[1:])
        assert shuffled.flags.writeable  # the caller's array is copied, not frozen
    assert LatticeSet(2, 1) == LatticeSet(2, 1, frozenset()) == LatticeSet(2, 1, np.empty((0, 2)))
    assert hash(LatticeSet(2, 1)) == hash(LatticeSet(2, 1, []))


def test_constructor_rejects_inexact_input():
    with pytest.raises(ValueError):
        LatticeSet(1, 2, [(0.5,), (1.7,)])              # no silent truncation
    with pytest.raises(ValueError):
        LatticeSet(1, 2, frozenset([(0.5,), (1.7,)]))   # not stored as floats either
    with pytest.raises(ValueError):
        LatticeSet(2, 2.0, [(0, 0)])                    # denom must be an integer
    with pytest.raises(ValueError):
        LatticeSet(2.0, 2, [(0, 0)])
    with pytest.raises(ValueError):
        LatticeSet(2, 1, np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        LatticeSet(2, 1, [(0, 0), (1,)])                # ragged arity
    with pytest.raises(ValueError):
        LatticeSet(1, 1, [0, 1])                        # cells are tuples
    for bad in (2 ** 63, -2 ** 63 - 1, 2 ** 70):
        with pytest.raises(ValueError):
            LatticeSet(2, 1, [(0, 0), (bad, 1)])
    assert LatticeSet(2, 1, [(2 ** 63 - 1, -2 ** 63)]).cells == {(2 ** 63 - 1, -2 ** 63)}


def test_results_outside_int64_are_refused():
    F = LatticeSet(2, 1, [(2 ** 62, 0), (2 ** 62, 1)])
    with pytest.raises(ValueError):
        convex_combination(F, F, Fraction(1, 3))        # 3 * 2^62 > int64
    G = LatticeSet(2, 1, [(2 ** 61, 0), (2 ** 61, 1)])  # 3 * 2^61 still fits
    assert convex_combination(G, G, Fraction(1, 3)) == convex_combination_bruteforce(
        G, G, Fraction(1, 3))
    with pytest.raises(ValueError):
        F.refine(2)
    long_run = LatticeSet(1, 1, [(0,)]).refine(2 ** 62)  # one run, never laid out
    assert long_run.runs.tolist() == [[0, 2 ** 62]]
    with pytest.raises(ValueError):  # its cells fit int64, its 2^63 cells do not
        long_run.refine(2)
    with pytest.raises(ValueError):
        F.translate((2 ** 62, 0))
    with pytest.raises(ValueError):
        parse_vset("vset 2 1\ncells 1\n1180591620717411303424 0\n")


def test_repr_is_compact():
    E = LatticeSet(2, 1024, np.argwhere(np.ones((40, 50), dtype=bool)))
    assert repr(E) == "LatticeSet(dim=2, denom=1024, cells=<2000 cells>)"


def test_from_mask_lists_true_entries():
    mask = np.zeros((3, 4), dtype=bool)
    mask[0, 1] = mask[2, 0] = mask[2, 3] = True
    E = LatticeSet.from_mask(mask, 5, (-1, 10))
    _assert_canonical(E)
    assert E == LatticeSet(2, 5, [(-1, 11), (1, 10), (1, 13)])
    with pytest.raises(ValueError):
        LatticeSet.from_mask(mask, 5, (2 ** 63 - 2, 0))
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        shapes = [tuple(rng.integers(1, 9, size=n)) for _ in range(6)]
        for shape in shapes:
            origins = [0, -3, tuple(rng.integers(-50, 50, size=n)),
                       (-2 ** 63,) * n]
            masks = [rng.random(shape) < 0.4, np.zeros(shape, dtype=bool),
                     np.ones(shape, dtype=bool)]
            for mask in masks:
                for origin in origins:
                    E = LatticeSet.from_mask(mask, 3, origin)
                    _assert_canonical(E)
                    assert E.array.flags.c_contiguous
                    want = np.argwhere(mask) + np.array(origin, dtype=np.int64)
                    assert np.array_equal(E.array, want)
                    assert E == LatticeSet(n, 3, want)
        with pytest.raises(ValueError):
            LatticeSet.from_mask(np.ones((2,) * n, dtype=bool), 1, 2 ** 63 - 1)
        with pytest.raises(ValueError):
            LatticeSet.from_mask(np.ones((2,) * n, dtype=bool), 1, -2 ** 63 - 1)
        with pytest.raises(ValueError):  # no cells, but an origin outside int64
            LatticeSet.from_mask(np.zeros((0,) * n, dtype=bool), 1, 2 ** 63)


def test_bounding_box_matches_per_axis_reference():
    rng = random.Random(13)
    extremes = (-2 ** 63, 2 ** 63 - 1)
    for trial in range(60):
        n = 1 + trial % 3
        k = rng.randrange(1, 40)
        cells = {tuple(rng.randrange(-20, 20) for _ in range(n)) for _ in range(k)}
        if trial % 4 == 0:  # both ends of int64 in one array
            cells |= {tuple(rng.choice(extremes) for _ in range(n)) for _ in range(3)}
            cells.add(extremes[:1] * n)
            cells.add(extremes[1:] * n)
        E = LatticeSet(n, 2, cells)
        box = E.bounding_box()
        assert box == [(min(c[a] for c in cells), max(c[a] for c in cells) + 1)
                       for a in range(n)]
        assert all(type(v) is int for pair in box for v in pair)


def test_hot_paths_never_build_cell_tuples(monkeypatch, tmp_path):
    def no_tuples(self):
        raise AssertionError("a library computation read LatticeSet.cells")

    monkeypatch.setattr(LatticeSet, "cells", property(no_tuples))
    for n, family in ((1, "perturbed-square"), (2, "boundary-bites"), (3, "perturbed-square")):
        A, B = generate_scenario(ScenarioSpec(family=family, n=n, denom=4 if n < 3 else 2,
                                              eps=Fraction(1, 4), seed=3))
        S = convex_combination(A, B, Fraction(1, 3))
        assert deficit(A, B, Fraction(1, 3)).volS == S.measure()
        deficit(A, B, Fraction(1, 2))
        hull_distance(A, B)
        KA, KB = convex_hull(A), convex_hull(B)
        if n > 1:
            cos_pipeline(A, B, KA, KB, Fraction(1, 2), Fraction(1, 2))
    cfg = tmp_path / "s.cfg"
    for family in ("boundary-bites", "perturbed-square"):
        cfg.write_text(f"family={family}\nn=2\nm=8\nt=1/2\ntau=1/2\n"
                       "eps_list=1/8,1/4\nseeds=1,2\n")
        assert sweep(str(cfg)).count("\n") == 5


def test_box_offsets_and_runs_layout():
    for steps in ((3,), (2, 2), (1, 3, 2), (2, 2, 2)):
        offs = _box_offsets(steps)
        assert offs.dtype == np.int64
        assert list(map(tuple, offs.tolist())) == list(product(*map(range, steps)))
    # runs (base, first, length) laid out as cells, near both int64 ends
    lo, hi = -2 ** 63, 2 ** 63 - 1
    base = np.array([[lo], [0], [0], [hi]], dtype=np.int64)
    first = np.array([lo, -2, 5, hi - 2], dtype=np.int64)
    length = np.array([2, 3, 1, 3])
    E = LatticeSet._from_runs(2, 7, base, first, length)
    want = [(lo, lo), (lo, lo + 1), (0, -2), (0, -1), (0, 0), (0, 5),
            (hi, hi - 2), (hi, hi - 1), (hi, hi)]
    assert E == LatticeSet(2, 7, want)
    assert E.array.tolist() == [list(c) for c in want]


# ---------------------------------------------------------------------------
# the cell-array kernels against test-local oracles


def _oracle_boxes(cells, steps):
    """Every sub-cell of every cell's box, sorted: the brute-force expansion."""
    return sorted({tuple(c[a] * steps[a] + o[a] for a in range(len(steps)))
                   for c in cells for o in product(*map(range, steps))})


def test_boxes_match_brute_force_expansion():
    rng = random.Random(4242)
    lo, hi = -2 ** 62, 2 ** 62 - 1  # times 2: both ends of int64 exactly
    cases = []
    for trial in range(90):
        n = 1 + trial % 3
        k = rng.randrange(0, 25)  # empty sets included
        cells = {tuple(rng.randrange(-6, 6) for _ in range(n)) for _ in range(k)}
        steps = tuple(rng.choice([1, 1, 2, 3]) for _ in range(n))
        cases.append((n, cells, steps))
    for n in (1, 2, 3):
        cases.append((n, set(), (2,) * n))
        cases.append((n, {(lo,) * n, (hi,) * n, (0,) * (n - 1) + (hi,)}, (2,) * n))
        cases.append((n, {(hi - 1,) * n, (hi,) * n}, (1,) * (n - 1) + (2,)))
        # one long column with gaps, and a column of single cells
        cases.append((n, {(0,) * (n - 1) + (z,) for z in (-5, -4, -3, 0, 2, 3)},
                      (2,) * (n - 1) + (1,)))
    for n, cells, steps in cases:
        E = LatticeSet(n, 3, cells)
        F = E._boxes(steps, 3 * math.prod(steps))
        _assert_canonical(F)
        assert F.array.tolist() == [list(c) for c in _oracle_boxes(cells, steps)]
        assert F.denom == 3 * math.prod(steps)
    # the first coordinate one past int64 is refused before any allocation
    with pytest.raises(ValueError):
        LatticeSet(2, 1, [(0, hi + 1)])._boxes((1, 2), 2)
    with pytest.raises(ValueError):
        LatticeSet(3, 1, [(lo - 1, 0, 0)])._boxes((2, 1, 1), 2)


def _oracle_runs(base, first, length):
    return [tuple(y) + (f + i,) for y, f, l in zip(base, first, length)
            for i in range(l)]


def test_from_runs_lays_out_each_run():
    rng = random.Random(99)
    for trial in range(60):
        n = 1 + trial % 3
        # distinct base rows, with jumps across empty rows, each with
        # disjoint runs of length 1 and longer
        rows = sorted({tuple(rng.randrange(-30, 30) for _ in range(n - 1))
                       for _ in range(rng.randrange(1, 6))})
        base, first, length = [], [], []
        for y in rows:
            z = rng.randrange(-40, 0)
            for _ in range(rng.randrange(1, 4)):
                l = rng.choice([1, 1, 2, 5])
                base.append(y)
                first.append(z)
                length.append(l)
                z += l + rng.randrange(1, 6)
        arrays = (np.array(base, dtype=np.int64).reshape(len(base), n - 1),
                  np.array(first, dtype=np.int64), np.array(length))
        E = LatticeSet._from_runs(n, 2, *arrays)
        _assert_canonical(E)
        assert E.array.tolist() == [list(c) for c in _oracle_runs(base, first, length)]
    # 1D runs, no base columns; and no runs at all
    E = LatticeSet._from_runs(1, 1, np.empty((3, 0), dtype=np.int64),
                              np.array([-7, 0, 4]), np.array([1, 3, 2]))
    assert E.array.tolist() == [[-7], [0], [1], [2], [4], [5]]
    for n in (1, 2, 3):
        E = LatticeSet._from_runs(n, 1, np.empty((0, n - 1), dtype=np.int64),
                                  np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert E.is_empty() and E.array.shape == (0, n)


# ---------------------------------------------------------------------------
# a set's runs, and every reader of them, against a tuple oracle


def _oracle_run_rows(cells):
    """The maximal last-axis runs of a cell set as (base..., first, length)
    rows, in lexicographic order."""
    rows = []
    for c in sorted(cells):
        if rows and tuple(rows[-1][:-2]) == c[:-1] and rows[-1][-2] + rows[-1][-1] == c[-1]:
            rows[-1][-1] += 1
        else:
            rows.append(list(c) + [1])
    return rows


def _from_run_rows(n, denom, runs):
    """The set of (base..., first, length) rows, built from its runs."""
    return LatticeSet._from_runs(
        n, denom, np.array([r[:-2] for r in runs], dtype=np.int64).reshape(len(runs), n - 1),
        np.array([r[-2] for r in runs], dtype=np.int64),
        np.array([r[-1] for r in runs], dtype=np.int64))


def _assert_forms(E, cells, n, denom):
    """E holds exactly `cells`: its runs, its array, its count, measure, box
    and hull candidates, and its equality and hash agree with the oracle."""
    runs = _oracle_run_rows(cells)
    assert E.dim == n and E.denom == denom and E.count == len(cells)
    assert E.runs.dtype == np.int64 and E.runs.shape == (len(runs), n + 1)
    assert E.runs.tolist() == runs and not E.runs.flags.writeable
    _assert_canonical(E)
    assert E.array.tolist() == [list(c) for c in sorted(cells)]
    assert E.measure() == Fraction(len(cells), denom ** n)
    assert E.is_empty() == (not cells)
    from_cells = LatticeSet(n, denom, sorted(cells))
    from_runs = _from_run_rows(n, denom, runs)
    assert E == from_cells == from_runs
    assert hash(E) == hash(from_cells) == hash(from_runs)
    if not cells:
        assert E.hull_points() == []
        return
    assert E != LatticeSet(n, denom, sorted(cells)[1:])
    assert E.bounding_box() == [(min(c[a] for c in cells), max(c[a] for c in cells) + 1)
                                for a in range(n)]
    hp, want = E.hull_points(), _oracle_hull_points(cells, n)
    assert len(set(hp)) == len(hp) and set(hp) <= want
    if len(want) <= 64:  # larger 3D hulls are checked in the tests above
        assert hull(hp) == hull(want)


def _box_overlap(cells, denom, box):
    """|cells intersect box|, cell by cell, for a box of rational (lo, hi)
    per axis."""
    total = Fraction(0)
    for c in cells:
        v = Fraction(1)
        for x, (lo, hi) in zip(c, box):
            v *= max(min(hi, Fraction(x + 1, denom)) - max(lo, Fraction(x, denom)), 0)
        total += v
    return total


def _assert_readers(E, cells, F, fcells, rng):
    """The run readers of two sets on one lattice against the cell oracle:
    intersection and symmetric difference (also with F refined where that
    fits int64, so that the operands are reconciled first), the overlap with
    F shifted by a rational vector, and the overlap with a box polytope that
    cuts cells, with E's hull and with a polytope clear of E."""
    n, m = E.dim, E.denom
    k = Fraction(1, m ** n)
    shift = tuple(Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3])) for _ in range(n))
    want = sum((_box_overlap(cells, m, [(Fraction(x, m) + s, Fraction(x + 1, m) + s)
                                        for x, s in zip(c, shift)])
                for c in fcells), Fraction(0))
    fits = all(abs(x) < 2 ** 61 for c in cells | fcells for x in c)
    for G in (F, F.refine(2)) if fits else (F,):
        assert intersection_measure(E, G) == len(cells & fcells) * k
        assert symmetric_difference_measure(E, G) == len(cells ^ fcells) * k
        assert _shifted_overlap(E, G, shift) == want
    if not cells:
        return
    box = [(Fraction(min(c[a] for c in cells), m) + Fraction(1, 3),
            Fraction(max(c[a] for c in cells) + 1, m) - Fraction(1, 4)) for a in range(n)]
    box = [(a, b) if a < b else (a, a + Fraction(1, 5)) for a, b in box]
    K = Polytope.from_rational_points(list(product(*box)))
    exact = _box_overlap(cells, m, box)
    assert lattice_polytope_overlap(E, K) == exact
    whole = E.measure()
    assert lattice_polytope_overlap(E, convex_hull(E)) == whole
    assert lattice_polytope_overlap(E, K.translate((2 * box[0][1] - box[0][0] + 1,)
                                                   + (0,) * (n - 1))) == 0


def test_runs_match_tuple_oracle_however_built():
    rng = random.Random(2026)
    lo, hi = -2 ** 63, 2 ** 63 - 1
    for trial in range(45):
        n, m = 1 + trial % 3, rng.choice([1, 2, 3])
        cells = {tuple(rng.randrange(-7, 7) for _ in range(n))
                 for _ in range(rng.randrange(0, 30))}
        other = {tuple(rng.randrange(-7, 7) for _ in range(n))
                 for _ in range(rng.randrange(0, 30))}
        if trial % 5 == 0:  # both ends of int64, and runs that end on them
            cells |= {(lo,) * n, (hi,) * n, (0,) * (n - 1) + (hi - 1,),
                      (0,) * (n - 1) + (hi,), (0,) * (n - 1) + (lo,)}
        shuffled = list(cells) * 2  # in any order, with repeats
        rng.shuffle(shuffled)
        for E in (LatticeSet(n, m, shuffled), _from_run_rows(n, m, _oracle_run_rows(cells))):
            _assert_forms(E, cells, n, m)
            for P in (pickle.loads(pickle.dumps(E)), copy.deepcopy(E)):
                assert P == E and P.runs.tolist() == E.runs.tolist() and P.count == E.count
                assert not P.runs.flags.writeable
            assert _shifted_overlap(E, E, (0,) * n) == E.measure()
            F = LatticeSet(n, m, other)
            assert intersection_measure(E, F) == Fraction(len(cells & other), m ** n)
            assert symmetric_difference_measure(E, F) == Fraction(len(cells ^ other), m ** n)
            if trial % 5 == 0:  # the same near both ends of int64, away from the far corner
                for end in (lo + 64, hi - 64):
                    near = {tuple(x + end for x in c) for c in other}
                    moved = {tuple(x + end for x in c) for c in cells if max(map(abs, c)) < 9}
                    _assert_readers(LatticeSet(n, m, moved), moved,
                                    LatticeSet(n, m, near), near, rng)
            else:
                _assert_readers(E, cells, F, other, rng)

        # masks, empty axes included, with origins at both ends of int64
        shape = tuple(rng.choice([0, 1, 3, 4]) if trial % 7 == 0 else rng.randrange(1, 5)
                      for _ in range(n))
        mask = np.array([rng.random() < 0.5 for _ in range(math.prod(shape))],
                        dtype=bool).reshape(shape)
        for origin in ([rng.randrange(-9, 9) for _ in range(n)], [lo] * n,
                       [hi - max(k, 1) + 1 for k in shape]):
            want = {tuple(i + o for i, o in zip(idx, origin))
                    for idx in np.ndindex(*shape) if mask[idx]}
            E = LatticeSet.from_mask(mask, m, origin)
            _assert_forms(E, want, n, m)
            assert intersection_measure(E, E) == Fraction(len(want), m ** n)
            assert symmetric_difference_measure(E, LatticeSet(n, m, want)) == 0

        # refine, translate and convex_combination, read from both forms:
        # each operation once on a set built from cells and once on its runs
        small = {c for c in cells if all(-7 <= x < 7 for x in c)}
        for F in (LatticeSet(n, m, small), LatticeSet(n, m, small).refine(1)):
            k = rng.choice([2, 3])
            _assert_forms(F.refine(k), _oracle_refine(small, n, k), n, m * k)
            if small:
                for target in (lo, hi):  # move the set onto an end of int64
                    off = [target - (min if target == lo else max)(c[a] for c in small)
                           for a in range(n)]
                    shifted = {tuple(x + o for x, o in zip(c, off)) for c in small}
                    _assert_forms(F.translate(off), shifted, n, m)
        G = LatticeSet(n, m, {tuple(rng.randrange(-3, 3) for _ in range(n))
                              for _ in range(rng.randrange(1, 7))})
        for A, B in ((G, G.refine(2)), (G.refine(2), G.translate([1] * n))):
            t = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
            want = convex_combination_bruteforce(A, B, t)
            _assert_forms(convex_combination(A, B, t), set(want.cells), n, want.denom)
    # a sum that reaches each end of int64: 2^62 + 2^62 - 1 = 2^63 - 1
    for n in (1, 2, 3):
        for sign in (1, -1):
            E = LatticeSet(n, 1, [(sign * 2 ** 62 - (sign > 0),) * n,
                                  (sign * 2 ** 62 - (sign > 0) - sign,) * n])
            want = convex_combination_bruteforce(E, E, Fraction(1, 2))
            assert (hi if sign > 0 else lo,) * n in want.cells
            _assert_forms(convex_combination(E, E, Fraction(1, 2)), set(want.cells), n, 2)


def test_no_library_computation_lays_out_cells(monkeypatch):
    # every computation reads runs: laying out a set's cells goes through
    # vset._cells_of, which fails here.  The operands have different
    # denoms, so each pair is refined onto one lattice first.
    import bmstab.vset as vset
    from bmstab.symmetry import steiner

    def no_layout(runs, count):
        raise AssertionError("a set's cells were laid out")

    half = Fraction(1, 2)
    for n, m in ((2, 4), (3, 2)):
        A, _ = generate_scenario(ScenarioSpec(family="boundary-bites", n=n, denom=m,
                                              eps=Fraction(1, 4), seed=3))
        B, _ = generate_scenario(ScenarioSpec(family="perturbed-square", n=n,
                                              denom=m + 1, eps=Fraction(1, 4), seed=5))
        K_A, K_B = convex_hull(A), convex_hull(B)

        def results():
            return (deficit(A, B, half), hull_distance(A, B),
                    cos_pipeline(A, B, K_A, K_B, half, half), steiner(B).exact,
                    intersection_measure(A, B), symmetric_difference_measure(A, B))

        want = results()
        with monkeypatch.context() as mp:
            mp.setattr(vset, "_cells_of", no_layout)
            assert results() == want
        assert 0 < want[4] < A.measure()


def test_from_mask_per_axis_origins_and_empty_axes():
    rng = np.random.default_rng(5)
    for shape, origin in (((7,), (-4,)), ((4, 6), (3, -100)), ((3, 5, 4), (-2, 0, 9)),
                          ((3, 0, 2), (1, 2, 3)), ((0,), (5,)), ((2, 3, 0), 4),
                          ((5, 4), (2 ** 62, -2 ** 62))):
        mask = rng.random(shape) < 0.5
        E = LatticeSet.from_mask(mask, 2, origin)
        _assert_canonical(E)
        o = (origin,) * len(shape) if isinstance(origin, int) else origin
        want = [[i + a for i, a in zip(idx, o)]
                for idx in np.ndindex(*shape) if mask[idx]]
        assert E.array.tolist() == want
        assert E.dim == len(shape)


def test_hull_points_of_single_cell_columns():
    rng = random.Random(31)
    clouds = []
    for n in (2, 3):
        # a diagonal, an antidiagonal staircase and random columns of one cell
        clouds.append({(i,) * n for i in range(-3, 4)})
        clouds.append({(i,) * (n - 1) + (-2 * i,) for i in range(6)})
        for _ in range(8):
            bases = {tuple(rng.randrange(-9, 9) for _ in range(n - 1)) for _ in range(15)}
            clouds.append({y + (rng.randrange(-20, 20),) for y in bases})
    for cells in clouds:
        n = len(next(iter(cells)))
        E = LatticeSet(n, 2, cells)
        assert len(E.array) == len({c[:-1] for c in cells})  # one cell per column
        hp = E.hull_points()
        assert len(set(hp)) == len(hp) and set(hp) <= _oracle_hull_points(cells, n)
        assert hull(hp) == hull(E.corner_points()), cells
