import hashlib
import math
import random
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bmstab.minkowski as mk
from bmstab._roots import nth_root_brackets
from bmstab.minkowski import (
    IntervalSet, convex_combination, convex_combination_bruteforce, deficit,
    interval_sumset, kemperman_stability, parse_iset, write_iset,
)
from bmstab.scenarios import ScenarioSpec, generate_scenario
from bmstab.vset import LatticeSet, reconcile


def random_set(rng, n=2, m=2, max_cells=8, span=4):
    k = rng.randrange(1, max_cells)
    cells = frozenset(tuple(rng.randrange(-span, span) for _ in range(n))
                      for _ in range(k))
    return LatticeSet(n, m, cells)


def test_identity_cube():
    for n in (1, 2, 3):
        m = 2
        cells = {1: [(i,) for i in range(m)],
                 2: [(i, j) for i in range(m) for j in range(m)],
                 3: [(i, j, k) for i in range(m) for j in range(m) for k in range(m)]}[n]
        cube = LatticeSet(n, m, frozenset(cells))
        S = convex_combination(cube, cube, Fraction(1, 2))
        assert S.measure() == 1


def test_matches_bruteforce_randomized():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        A = random_set(rng, n=n, m=rng.choice([1, 2]))
        B = random_set(rng, n=n, m=rng.choice([1, 2, 3]))
        t = Fraction(rng.randrange(1, 6), 6)
        if not 0 < t < 1:
            continue
        assert convex_combination(A, B, t) == convex_combination_bruteforce(A, B, t)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=5))
def test_combination_matches_bruteforce_property(seed, tnum):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3])
    A = random_set(rng, n=n, m=rng.choice([1, 2]))
    B = random_set(rng, n=n, m=rng.choice([1, 2, 3]))
    t = Fraction(tnum, 6)
    assert convex_combination(A, B, t) == convex_combination_bruteforce(A, B, t)


def test_engines_agree(monkeypatch):
    rng = random.Random(23)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        A = random_set(rng, n=n)
        B = random_set(rng, n=n)
        t = Fraction(1, 3)
        ref = convex_combination(A, B, t)
        # deficit sums the engine's runs without building S's cells
        assert deficit(A, B, t).volS == ref.measure()
        for chunk in (1, 3):  # every run pair its own chunk, then ragged chunks
            monkeypatch.setattr(mk, "_PAIR_CHUNK", chunk)
            assert convex_combination(A, B, t) == ref
            assert deficit(A, B, t).volS == ref.measure()
        monkeypatch.undo()
        assert ref == convex_combination_bruteforce(A, B, t)


def _splits_a_column(E):
    """Whether some last-axis column of E holds more than one run."""
    c = E.array.tolist()
    return any(a[:-1] == b[:-1] and b[-1] > a[-1] + 1 for a, b in zip(c, c[1:]))


@pytest.mark.parametrize("n", [2, 3])
def test_engine_columns_with_several_runs(n):
    split = 0
    for denom in (2, 3):
        for seed in range(4):
            A, B = generate_scenario(ScenarioSpec(family="random-boxes", n=n,
                                                  denom=denom, seed=seed))
            split += _splits_a_column(A) + _splits_a_column(B)
            for t in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
                S = convex_combination(A, B, t)
                assert S == convex_combination_bruteforce(A, B, t)
                assert deficit(A, B, t).volS == S.measure()
    assert split  # the family does split columns at these sizes


def _jittered(rng, shape, first, length):
    """One run in every row of the base box `shape`, its first cell and its
    length drawn from the ranges `first` and `length`."""
    return LatticeSet(len(shape) + 1, 1, [
        (*y, f + i) for y in np.ndindex(*shape)
        for f, l in [(rng.randrange(*first), rng.randrange(*length))] for i in range(l)])


def _cover_cases():
    """(A, B, t) for the cover prefilter: boxes and their translates, where
    many pair intervals are equal; split columns; scattered runs, whose
    neighbour rows often lie outside their box; a run in every row with
    jittered ends; cells at both ends of int64."""
    ts = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(2, 3)]
    box2 = LatticeSet(2, 1, [(i, j) for i in range(4) for j in range(5)])
    box3 = LatticeSet(3, 1, [(i, j, k) for i in range(3) for j in range(3)
                             for k in range(4)])
    for E, off in ((box2, (3, -2)), (box3, (1, 2, -1))):
        yield E, E, Fraction(1, 2)
        yield E, E.translate(off), Fraction(1, 2)
        for t in ts:
            yield E, E.translate(off), t
    for n in (2, 3):
        for seed in range(3):
            A, B = generate_scenario(ScenarioSpec(family="random-boxes", n=n,
                                                  denom=2, seed=seed))
            for t in ts:
                yield A, B, t
    rng = random.Random(5)
    for _ in range(40):  # runs of 1 to 6 cells in a few rows
        n = rng.choice([2, 3])
        A, B = (LatticeSet(n, 1, [(*y, f + i) for y, f, l in (
            ([rng.randrange(3) for _ in range(n - 1)], rng.randrange(-6, 6),
             rng.randrange(1, 7)) for _ in range(rng.randrange(1, 9)))
            for i in range(l)]) for _ in "AB")
        yield A, B, rng.choice(ts)
    for shape in ((8,), (4, 4)):
        A, B = (_jittered(rng, shape, (-3, 4), (4, 10)) for _ in "AB")
        yield A, B, Fraction(1, 2)
        yield A, B, Fraction(1, 3)
    lo, hi = -2 ** 63, 2 ** 63 - 1
    A = LatticeSet(2, 1, [(lo + i, hi - j) for i in range(3) for j in range(4)
                          if (i, j) != (1, 2)] + [(lo + 5, hi)])
    B = LatticeSet(2, 1, [(hi - i, lo + j) for i in range(4) for j in range(3)
                          if i != j])
    yield A, B, Fraction(1, 2)
    A = LatticeSet(2, 1, [(lo + i, hi - j) for i in range(3) for j in range(4)])
    yield A, A.translate((2 ** 64 - 3, -2 ** 64 + 4)), Fraction(1, 2)


def test_cover_prefilter_keeps_every_cell(monkeypatch):
    # the prefilter runs on every input here; its output must equal the
    # unfiltered engine's and the brute force at every chunking
    for A, B, t in _cover_cases():
        monkeypatch.setattr(mk, "_COVER_PAIRS", 1 << 62)
        ref = convex_combination(A, B, t)
        assert ref == convex_combination_bruteforce(A, B, t)
        monkeypatch.setattr(mk, "_COVER_PAIRS", 0)
        for chunk in (1, 3, mk._PAIR_CHUNK):
            monkeypatch.setattr(mk, "_PAIR_CHUNK", chunk)
            assert convex_combination(A, B, t) == ref, (A.runs, B.runs, t, chunk)
            assert deficit(A, B, t).volS == ref.measure()
        monkeypatch.undo()


def test_cover_classes_match_python_oracle():
    # each run's class holds exactly its own clipped neighbour digits
    clip = mk._COVER_CLIP
    top = 2 * clip + 1
    rng = random.Random(9)
    # many rows with jittered ends: most digit combinations occur
    many = [_jittered(rng, shape, (-4, 5), (3, 12)) for shape in ((300,), (15, 15))]
    for A, B, t in [*_cover_cases(), *((E, E, Fraction(2, 5)) for E in many)]:
        p, q = t.numerator, t.denominator
        for E, step in ((A, q - p), (B, -p)):
            runs = [(tuple(y), f, f + l - 1) for *y, f, l in E.runs.tolist()]
            classes, digits = mk._cover_classes(E, E.bounding_box(), step)
            for r, (y, first, last) in enumerate(runs):
                want = []
                for k in range(E.dim - 1):
                    for d in (step, -step):
                        row = y[:k] + (y[k] + d,) + y[k + 1:]
                        near = [(f, g) for z, f, g in runs if z == row and f <= last]
                        f, g = max(near) if near else (first + top, last - top)
                        f, g = f - first + clip, last - g + clip
                        want.append(min(max(f, 0), top) * (top + 1) + min(max(g, 0), top))
                assert digits[classes[r]].tolist() == want


def test_cover_prefilter_memory_is_bounded_by_the_chunk(monkeypatch):
    # a run in each of 40 x 40 rows, its ends jittered, so that most runs
    # have neighbour digits of their own: a table over every pair of classes
    # would hold over 2M entries, while each chunk's holds at most 2^14
    rng = random.Random(11)
    A, B = (_jittered(rng, (40, 40), (-4, 5), (3, 12)) for _ in "AB")
    assert len(mk._cover_classes(A, A.bounding_box(), 1)[1]) ** 2 > 2_000_000
    monkeypatch.setattr(mk, "_PAIR_CHUNK", 1 << 14)
    t = Fraction(1, 2)
    convex_combination(A, B, t)  # the operands' runs are derived here, once
    tracemalloc.start()
    try:
        S = convex_combination(A, B, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000
    monkeypatch.setattr(mk, "_COVER_PAIRS", 1 << 62)
    assert S == convex_combination(A, B, t)


def _uncovered_oracle(A, B, t):
    """The run pairs (i, j) that no neighbour pair covers, by a loop over
    the classes' digits and the cover tables."""
    p, q = t.numerator, t.denominator
    ca, ga = mk._cover_classes(A, A.bounding_box(), q - p)
    cb, gb = mk._cover_classes(B, B.bounding_box(), -p)
    tables = mk._cover_tables(p, q)
    runs_a, runs_b = ([np.flatnonzero(c == k).tolist() for k in range(len(g))]
                      for c, g in ((ca, ga), (cb, gb)))
    kept = set()
    for a, da in enumerate(ga.tolist()):
        for b, db in enumerate(gb.tolist()):
            if not any(tables[j % 2][x, y] for j, (x, y) in enumerate(zip(da, db))):
                kept.update((i, j) for i in runs_a[a] for j in runs_b[b])
    return kept


def test_kept_pairs_match_python_oracle(monkeypatch):
    # each uncovered pair is listed exactly once and no chunk holds more
    # than _PAIR_CHUNK pairs; when more than half survive, none is listed
    rng = random.Random(9)
    many = [_jittered(rng, shape, (-4, 5), (3, 12)) for shape in ((300,), (15, 15))]
    near = _jittered(rng, (10, 10), (0, 2), (2, 4))  # just under half survive
    cases = [*_cover_cases(), *((E, E, Fraction(2, 5)) for E in many),
             (near, near.translate((3, 3, 3)), Fraction(1, 2))]
    for n, denom in ((2, 16), (3, 2)):  # criterion 01's family, many classes in 3D
        A, B = generate_scenario(ScenarioSpec(family="counterexample", n=n,
                                              denom=denom, bracket="outer"))
        cases += [(A, B, Fraction(1, 2)), (A, B, Fraction(1, 3))]
    listed = fell_back = 0
    for A, B, t in cases:
        A, B = reconcile(A, B)
        p, q = t.numerator, t.denominator
        want = _uncovered_oracle(A, B, t)
        for chunk in (1, 3, mk._PAIR_CHUNK):
            monkeypatch.setattr(mk, "_PAIR_CHUNK", chunk)
            got = mk._kept_pairs(A, B, A.bounding_box(), B.bounding_box(), p, q)
            if 2 * len(want) > len(A.runs) * len(B.runs):
                assert got is None, (len(want), len(A.runs) * len(B.runs))
                fell_back += 1
                continue
            oa, ob, chunks = got
            pairs = []
            for r, c in chunks:
                assert 0 < len(r) == len(c) <= chunk
                pairs += zip(oa[r].tolist(), ob[c].tolist())
            assert len(pairs) == len(want) and set(pairs) == want
            listed += 1
        monkeypatch.undo()
        monkeypatch.setattr(mk, "_COVER_PAIRS", 0)
        merged = _pairs_merged(monkeypatch, A, B, t)
        assert merged == (len(A.runs) * len(B.runs) if got is None else len(want))
    assert listed >= 30 and fell_back >= 30


def test_cover_fallback_is_decided_once_per_call(monkeypatch):
    # most pairs survive here, so the engine merges every pair; the class
    # table is read in blocks of classes, not once per chunk of pairs
    rng = random.Random(2)
    A, B = (_jittered(rng, (2000,), (-4, 5), (3, 12)) for _ in "AB")
    t = Fraction(1, 2)
    monkeypatch.setattr(mk, "_COVER_PAIRS", 1 << 62)
    ref = convex_combination(A, B, t)
    monkeypatch.undo()
    chunk = 1 << 14
    monkeypatch.setattr(mk, "_PAIR_CHUNK", chunk)
    tables, covered = [], mk._covered

    def counting(ga, gb, t):
        tables.append(len(ga) * len(gb))
        return covered(ga, gb, t)

    monkeypatch.setattr(mk, "_covered", counting)
    assert convex_combination(A, B, t) == ref
    read = tables[:]  # the table blocks that one call read
    assert _pairs_merged(monkeypatch, A, B, t) == len(A.runs) * len(B.runs)
    classes = [len(mk._cover_classes(E, E.bounding_box(), s)[1])
               for E, s in ((A, 1), (B, -1))]
    chunks = len(A.runs) * len(B.runs) // chunk
    assert max(read) <= chunk and sum(read) <= classes[0] * classes[1]
    assert len(read) <= 2 * -(-classes[0] * classes[1] // chunk) < chunks // 5


def test_kept_pairs_are_laid_out_a_chunk_at_a_time(monkeypatch):
    # criterion 01's 3D outer pair keeps 64,465 pairs, sixteen chunks of
    # 2^12: laying them all out at once would take over 2.5 MB
    A, B = generate_scenario(ScenarioSpec(family="counterexample", n=3, denom=8,
                                          bracket="outer"))
    t = Fraction(1, 2)
    ref = convex_combination(A, B, t)  # the operands' runs are derived here, once
    monkeypatch.setattr(mk, "_PAIR_CHUNK", 1 << 12)
    assert _pairs_merged(monkeypatch, A, B, t) == 64_465
    monkeypatch.setattr(mk, "_PAIR_CHUNK", 1 << 12)
    tracemalloc.start()
    try:
        S = convex_combination(A, B, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S == ref and peak < 1_000_000


def _union_inputs(monkeypatch, A, B, t):
    """The entry counts of the chunks that each of the engine's `_union`
    calls takes in: the first call takes the run pairs, a second S's
    shifted copies."""
    sizes, union = [], mk._union

    def counting(chunks):
        sizes.append([])
        for s, e in chunks:
            sizes[-1].append(s.size)
            yield s, e

    monkeypatch.setattr(mk, "_union", lambda chunks: union(counting(chunks)))
    S = convex_combination(A, B, t)
    monkeypatch.undo()
    return sizes, S


def _pairs_merged(monkeypatch, A, B, t):
    """The run pairs that reach the engine's merge."""
    return sum(_union_inputs(monkeypatch, A, B, t)[0][0])


def test_copies_are_merged_a_chunk_at_a_time(monkeypatch):
    # at t = 1/8 in 3D, S is the union of 64 shifted copies of the pair
    # stage's runs; no merge takes in more than the union so far and one
    # chunk of copies, and the result is the same at every chunking
    rng = random.Random(4)
    A = _jittered(rng, (6, 6), (0, 3), (1, 3))
    B = LatticeSet(3, 1, [(y, z, 0) for y in range(5) for z in range(5)])
    t = Fraction(1, 8)
    ref = convex_combination(A, B, t)
    assert ref == convex_combination_bruteforce(A, B, t)
    for chunk in (1, 64, 1000):
        monkeypatch.setattr(mk, "_PAIR_CHUNK", chunk)
        (pairs, copies), S = _union_inputs(monkeypatch, A, B, t)
        assert S == ref
        runs = sum(copies) // 64  # the pair stage's runs, each copied 64 times
        assert sum(pairs) == len(A.runs) * len(B.runs) and sum(copies) == 64 * runs
        assert max(copies) <= max(chunk, runs)
        assert len(copies) == -(-64 // max(1, chunk // runs)) > 1


def test_cover_prefilter_engages_on_large_inputs_only(monkeypatch):
    A, B = generate_scenario(ScenarioSpec(family="counterexample", n=3, denom=8,
                                          bracket="outer"))
    pairs = len(A.runs) * len(B.runs)
    assert pairs >= mk._COVER_PAIRS
    assert _pairs_merged(monkeypatch, A, B, Fraction(1, 2)) <= pairs // 10
    for n, denom in ((1, 4), (2, 4), (3, 2)):  # criterion 02's sizes
        for family in ("random-boxes", "perturbed-square", "boundary-bites"):
            A, B = generate_scenario(ScenarioSpec(family=family, n=n, denom=denom,
                                                  eps=Fraction(1, 8), seed=1))
            assert A.count <= 64 and B.count <= 64
            assert _pairs_merged(monkeypatch, A, B, Fraction(1, 3)) == \
                len(A.runs) * len(B.runs)


def test_grid_guard_edge():
    # S's box holds exactly _GRID_GUARD cells, so the engine's line, one
    # spare cell per base row, is at its longest: 2^24 rows of 3 in 2D
    assert mk._GRID_GUARD == 1 << 25
    half = 1 << 23
    for n, far in ((1, (2 * half - 1,)), (2, (half - 1, 0)),
                   (2, (2 ** 11 - 1, 2 ** 12 - 1)), (3, (2 ** 11 - 1, 2 ** 11 - 1, 0))):
        A = LatticeSet(n, 1, [(0,) * n, far])
        t = Fraction(1, 2)
        S = convex_combination(A, A, t)
        assert math.prod(hi - lo for lo, hi in S.bounding_box()) == mk._GRID_GUARD
        assert S == convex_combination_bruteforce(A, A, t)
        assert deficit(A, A, t).volS == S.measure()
        # one more cell on axis 0 of S's box is refused, as before
        B = LatticeSet(n, 1, [(0,) * n, (far[0] + 1,) + far[1:]])
        for f in (convex_combination, deficit):
            with pytest.raises(ValueError) as err:
                f(A, B, t)
            assert str(err.value) == "combination grid too large; reduce denom or set size"


# SHA-256 of S's cell array and its denom on criterion 01's family (unit
# ball plus a far cell, L = 4), recorded before the engine's numpy paths
# were reworked: the rewrite keeps every cell.
_ENGINE_DIGESTS = {
    (2, 16, "inner", "1/2"):
        (128, "2b232336998b37aaf677c3ffeecfd29b5b355911c5640636ae5ef57c36f3ad22"),
    (2, 16, "inner", "1/3"):
        (192, "921bd01516b1e806aef6f7476fd0b6253f2d69f045efb328479aefcda134621e"),
    (2, 16, "outer", "1/2"):
        (128, "c0f20f88366b47c29a440134fc7b4771eeb72b7feb4b06d16373451fb446c9f5"),
    (2, 16, "outer", "1/3"):
        (192, "525bcf4bbffe40d3f8725b8913534afed24ea51dce493623b7b3b3cf634c67ae"),
    (2, 32, "inner", "1/2"):
        (256, "4278c1e3c5cee78a934bc95c9444e3cb6cabd9923a3f353712ed0c679d16caed"),
    (2, 32, "inner", "1/3"):
        (384, "c86223f969d37df3929b5722a2843f80c122fee09655a6e5e3ff897546cb2812"),
    (2, 32, "outer", "1/2"):
        (256, "4a51717c49579f1e1d3e32388c06e8b161f04996f0343c408ff4c641305e8dde"),
    (2, 32, "outer", "1/3"):
        (384, "4007535f43a1a170f2644e4784ba371120bddd42dff257f448b2294269a4abef"),
    (3, 4, "inner", "1/2"):
        (32, "b143b18f327bfbf8e6e5a564d762ec8e006e317d0b7774de51db55b437e1a97c"),
    (3, 4, "inner", "1/3"):
        (48, "0dc4adbbfa5e7fe68d362bd345f7c12a8d85d48b0713dda60ee909b77864b2b9"),
    (3, 4, "outer", "1/2"):
        (32, "1c0b0dad38b5ddbf6afdaf4e947ca7718be05d7468dce119151534c28aa69c1f"),
    (3, 4, "outer", "1/3"):
        (48, "18dc9476962f795403380be4c795029dae08d0203a955dff0de9b5c4d0974d02"),
}


def test_engine_matches_recorded_digests():
    got = {}
    for n, denom in ((2, 16), (2, 32), (3, 4)):
        for side in ("inner", "outer"):
            A, B = generate_scenario(ScenarioSpec(family="counterexample", n=n,
                                                  denom=denom, L=4, bracket=side))
            for t in (Fraction(1, 2), Fraction(1, 3)):
                S = convex_combination(A, B, t)
                got[n, denom, side, str(t)] = (
                    S.denom, hashlib.sha256(S.array.tobytes()).hexdigest())
    assert got == _ENGINE_DIGESTS


def test_monotone_in_first_argument():
    rng = random.Random(5)
    for _ in range(20):
        A = random_set(rng)
        extra = random_set(rng)
        A_big = LatticeSet(2, 2, A.refine(1).cells | extra.cells)
        B = random_set(rng)
        S1 = convex_combination(A, B, Fraction(1, 3))
        S2 = convex_combination(A_big, B, Fraction(1, 3))
        assert S1.cells <= S2.cells


def test_t_validation_and_guard():
    cube = LatticeSet(2, 1, frozenset([(0, 0)]))
    with pytest.raises(ValueError):
        convex_combination(cube, cube, Fraction(3, 2))
    far = LatticeSet(2, 1, [(0, 0), (10 ** 4, 10 ** 4)])
    for A, B, t in ((cube, cube, Fraction(1, 1 << 21)),    # fine-denom guard
                    (far, far, Fraction(1, 2))):           # grid guard
        with pytest.raises(ValueError) as want:
            convex_combination(A, B, t)
        with pytest.raises(ValueError) as got:            # the same engine
            deficit(A, B, t)
        assert str(got.value) == str(want.value)


def test_deficit_cube_exact_zero():
    cube = LatticeSet(2, 4, frozenset((i, j) for i in range(4) for j in range(4)))
    rec = deficit(cube, cube, Fraction(1, 2))
    assert rec.delta_raw_lo == rec.delta_raw_hi == 0
    assert rec.delta_norm == 0
    assert rec.exact


def test_deficit_nonnegative_and_oracle():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        A = random_set(rng, n=n)
        B = random_set(rng, n=n)
        t = Fraction(rng.randrange(1, 4), 4)
        rec = deficit(A, B, t)
        # certified lower bound never dips below the bracket width
        assert rec.delta_raw_hi >= 0
        assert rec.delta_raw_lo >= -Fraction(1, 2 ** 60)
        # oracle recomputation from the combination + measures
        S = convex_combination(A, B, t)
        assert rec.volS == S.measure()
        one = Fraction(1)
        assert rec.delta_norm == abs(rec.volA - one) + abs(rec.volB - one) \
            + abs(rec.volS - one)


def test_deficit_rejects_empty():
    cube = LatticeSet(2, 1, frozenset([(0, 0)]))
    empty = LatticeSet(2, 1)
    for A, B in ((cube, empty), (empty, cube), (empty, empty)):
        with pytest.raises(ValueError, match="^deficit needs nonempty operands$"):
            deficit(A, B, Fraction(1, 2))


def _deficit_from_fractions(A, B, t):
    """The deficit formula on Fraction volumes and `nth_root_brackets`."""
    n = A.dim
    vA, vB, vS = A.measure(), B.measure(), convex_combination(A, B, t).measure()
    one = Fraction(1)
    sA, sB, sS = (nth_root_brackets(v, n) for v in (vA, vB, vS))
    return mk.DeficitRecord(
        t=t, tau=min(t, 1 - t), volA=vA, volB=vB, volS=vS,
        delta_norm=abs(vA - one) + abs(vB - one) + abs(vS - one),
        delta_raw_lo=sS[0] - t * sA[1] - (1 - t) * sB[1],
        delta_raw_hi=sS[1] - t * sA[0] - (1 - t) * sB[0])


def test_deficit_matches_fraction_formula():
    # deficit counts cells on S's lattice and brackets integer roots; every
    # field must equal the Fraction formula's, on operands of unequal denoms
    # (the reconcile path), t = p/q with q <= 5, and perfect n-th powers
    rng = random.Random(43)
    ts = sorted({Fraction(p, q) for q in range(2, 6) for p in range(1, q)})
    cases = []
    for _ in range(150):
        n = rng.choice([1, 2, 3])
        cases.append((random_set(rng, n=n, m=rng.choice([1, 2, 3, 4])),
                      random_set(rng, n=n, m=rng.choice([1, 2, 3, 4])),
                      rng.choice(ts)))
    block = LatticeSet(2, 4, [(i, j) for i in range(2) for j in range(2)])
    cube = LatticeSet(3, 2, [(i, j, k) for i in range(2) for j in range(2)
                             for k in range(2)])
    line = LatticeSet(1, 3, [(0,), (1,), (5,)])
    cases += [(block, block, Fraction(1, 2)), (block, block.translate((3, 1)), Fraction(2, 5)),
              (cube, cube, Fraction(1, 3)), (cube, random_set(rng, n=3, m=2), Fraction(3, 4)),
              (line, line, Fraction(1, 2)), (line, LatticeSet(1, 2, [(0,)]), Fraction(1, 5))]
    exact = 0
    for A, B, t in cases:
        rec, ref = deficit(A, B, t), _deficit_from_fractions(A, B, t)
        for f in fields(rec):
            got, want = getattr(rec, f.name), getattr(ref, f.name)
            assert type(got) is Fraction and got == want, (A, B, t, f.name)
        exact += rec.exact and A.dim > 1
    assert exact >= 3  # the perfect-power branch ran in 2D and 3D


def test_deficit_bracket_contains_highprec_value():
    # independent recomputation of the root-form gap at 120-bit precision
    import mpmath as mp
    rng = random.Random(31)
    with mp.workprec(120):
        for _ in range(15):
            n = rng.choice([2, 3])
            A = random_set(rng, n=n)
            B = random_set(rng, n=n)
            t = Fraction(rng.randrange(1, 4), 4)
            rec = deficit(A, B, t)

            def root(x):
                return mp.root(mp.mpf(x.numerator) / x.denominator, n)

            ref = root(rec.volS) - mp.mpf(t.numerator) / t.denominator * root(rec.volA) \
                - mp.mpf((1 - t).numerator) / (1 - t).denominator * root(rec.volB)
            lo = mp.mpf(rec.delta_raw_lo.numerator) / rec.delta_raw_lo.denominator
            hi = mp.mpf(rec.delta_raw_hi.numerator) / rec.delta_raw_hi.denominator
            assert lo <= ref <= hi


def test_far_point_counterexample_deficit_quarter():
    # unit-volume ball plus a far cell: the halving combination gains 2^-n,
    # so the normalized deficit sits at 1/4 up to the rasterization slack,
    # which shrinks like 1/denom (the acceptance suite pins the tight case)
    vals = {}
    for denom in (16, 32):
        for side in ("inner", "outer"):
            spec = ScenarioSpec(family="counterexample", n=2, denom=denom,
                                L=4, bracket=side)
            A, B = generate_scenario(spec)
            vals[(denom, side)] = deficit(A, B, Fraction(1, 2)).delta_norm
    for denom in (16, 32):
        assert abs(vals[(denom, "inner")] - Fraction(1, 4)) < Fraction(8, 100)
        assert abs(vals[(denom, "outer")] - Fraction(1, 4)) < Fraction(15, 100)
    # slack shrinks under refinement
    assert abs(vals[(32, "outer")] - Fraction(1, 4)) < \
        abs(vals[(16, "outer")] - Fraction(1, 4))
    assert abs(vals[(32, "inner")] - Fraction(1, 4)) < \
        abs(vals[(16, "inner")] - Fraction(1, 4))


# --- intervals ---------------------------------------------------------------


def test_interval_normalization():
    s = IntervalSet.from_intervals([(Fraction(1), Fraction(2)), (0, 1), (3, 4)])
    assert s.components == ((Fraction(0), Fraction(2)), (Fraction(3), Fraction(4)))
    with pytest.raises(ValueError):
        IntervalSet(((0, 1), (1, 2)))  # touching components must be merged


def test_interval_sumset_examples():
    I = IntervalSet.from_intervals([(0, 1)])
    assert interval_sumset(I, I).components == ((Fraction(0), Fraction(2)),)
    B = IntervalSet.from_intervals([(0, Fraction(2, 5)), (Fraction(1, 2), 1)])
    assert interval_sumset(I, B).components == ((Fraction(0), Fraction(2)),)
    point = IntervalSet.from_intervals([(Fraction(3), Fraction(3))])
    A = IntervalSet.from_intervals([(0, Fraction(1, 4)), (1, 2)])
    assert interval_sumset(A, point).components == tuple(
        (a + 3, b + 3) for a, b in A.components)


def test_kemperman_examples():
    I = IntervalSet.from_intervals([(0, 1)])
    v = kemperman_stability(I, I)
    assert v["applicable"] and v["delta"] == 0 and v["pass"]
    B = IntervalSet.from_intervals([(0, Fraction(2, 5)), (Fraction(1, 2), 1)])
    v = kemperman_stability(I, B)
    assert v["delta"] == Fraction(1, 10)
    assert v["excessB"] == Fraction(1, 10) and v["excessA"] == 0
    assert v["pass"]
    far = IntervalSet.from_intervals([(0, Fraction(1, 10)), (5, Fraction(51, 10))])
    assert not kemperman_stability(I, far)["applicable"]


def test_kemperman_randomized_sound():
    rng = random.Random(41)
    for _ in range(300):
        def rand_set():
            k = rng.randrange(1, 4)
            cuts = sorted(rng.randrange(0, 65) for _ in range(2 * k))
            comps = [(Fraction(a, 16), Fraction(b, 16))
                     for a, b in zip(cuts[::2], cuts[1::2]) if b > a]
            return IntervalSet.from_intervals(comps) if comps else None
        A, B = rand_set(), rand_set()
        if A is None or B is None or A.is_empty() or B.is_empty():
            continue
        v = kemperman_stability(A, B)
        if v["applicable"]:
            assert v["pass"], (A.components, B.components, v)


def _kemperman_oracle(A, B):
    """(A + B, Kemperman's dict) from Fraction sums merged by from_intervals."""
    S = IntervalSet.from_intervals([(a0 + a1, b0 + b1) for a0, b0 in A.components
                                    for a1, b1 in B.components])
    delta = S.measure() - A.measure() - B.measure()
    (i0, i1), (j0, j1) = A.hull(), B.hull()
    exA, exB = i1 - i0 - A.measure(), j1 - j0 - B.measure()
    applicable = delta < min(A.measure(), B.measure())
    return S, {"applicable": applicable, "delta": delta, "I": (i0, i1),
               "J": (j0, j1), "excessA": exA, "excessB": exB,
               "pass": applicable and exA <= delta and exB <= delta}


def _padded_rows(sets, d, k=3):
    """Integer endpoint rows in units of 1/d, padded to k components."""
    rows = []
    for X in sets:
        comps = [[int(x * d) for x in comp] for comp in X.components]
        rows.append(comps + comps[:1] * (k - len(comps)))
    return np.array(rows, dtype=object)


def test_interval_engine_matches_fraction_oracle(monkeypatch):
    rng = random.Random(29)

    def union(den, offset):
        # endpoints drawn with repeats: point components, and sums that touch
        k = rng.randrange(1, 4)
        cuts = sorted(rng.randrange(0, 13) for _ in range(2 * k))
        return IntervalSet.from_intervals(
            [(Fraction(a, den) + offset, Fraction(b, den) + offset)
             for a, b in zip(cuts[::2], cuts[1::2])])

    I = IntervalSet.from_intervals([(0, 1)])
    # [0,1] u [2,3] + [0,1] touches at 2; {0} u [1,2] + [0,1] touches at 1
    fixed = [(IntervalSet.from_intervals([(0, 1), (2, 3)]), I),
             (IntervalSet.from_intervals([(0, 0), (1, 2)]), I)]
    d = 48  # every denominator below divides it
    # the last offset puts endpoint sums outside int64: the object path
    for offset, dtype in ((0, np.int64), (Fraction(-7, 3), np.int64),
                          (2 ** 62, object)):
        pairs = [(union(rng.choice([1, 2, 4, 16]), offset),
                  union(rng.choice([1, 3, 16]), offset)) for _ in range(150)]
        if offset == 0:
            pairs += fixed
        refs = []
        for A, B in pairs:
            S, ref = _kemperman_oracle(A, B)
            assert interval_sumset(A, B) == S
            assert kemperman_stability(A, B) == ref
            refs.append(ref)
        a = _padded_rows([A for A, _ in pairs], d)
        b = _padded_rows([B for _, B in pairs], d)
        assert mk._endpoint_arrays(a, b)[0].dtype == dtype
        got = mk.kemperman_batch(a, b)
        for r, ref in enumerate(refs):
            for key in ("delta", "excessA", "excessB"):
                assert got[key][r] == ref[key] * d
            assert got["applicable"][r] == ref["applicable"]
            assert got["pass"][r] == ref["pass"]
        # every pair at once by broadcasting, and one interval sum per chunk
        grid = mk.kemperman_batch(a[:, None], b[None])
        for key, x in got.items():
            assert (np.diagonal(grid[key]) == x).all()
        for i, j in ((0, 1), (5, 2), (9, 140)):
            ref = _kemperman_oracle(pairs[i][0], pairs[j][1])[1]
            assert grid["delta"][i, j] == ref["delta"] * d
            assert grid["pass"][i, j] == ref["pass"]
        monkeypatch.setattr(mk, "_SUM_CHUNK", 1)
        for key, x in mk.kemperman_batch(a, b).items():
            assert (x == got[key]).all()
        monkeypatch.undo()


def test_kemperman_batch_rejects_malformed_rows():
    ok = np.array([[[0, 1]]])
    for bad in (np.zeros((2, 3), dtype=np.int64), np.array([[[0.5, 1]]]),
                np.array([[[2, 1]]]), np.zeros((1, 0, 2), dtype=np.int64),
                np.array([[[Fraction(1, 2), 1]]], dtype=object)):
        with pytest.raises(ValueError):
            mk.kemperman_batch(bad, ok)
    with pytest.raises(ValueError):
        mk.kemperman_batch(np.zeros((2, 1, 2), dtype=np.int64),
                           np.zeros((3, 1, 2), dtype=np.int64))


def test_iset_round_trip():
    s = IntervalSet.from_intervals([(Fraction(1, 3), Fraction(1, 2)), (2, 3)])
    assert parse_iset(write_iset(s)) == s
    with pytest.raises(ValueError):
        parse_iset("iset 2\n0/1 1/1\n")


def test_fiber_runs_int32_positions_match_int64_formula():
    # S's box just under _GRID_GUARD, operands far from the origin, and
    # near +-2^62, where the engine's product wraps modulo 2^64: the int32
    # positions equal the int64 sum of the offsets from the box
    rng = np.random.default_rng(17)
    for n, side, shift in ((1, 11_000_000, 2 ** 40), (2, (1900, 1930), -(2 ** 45)),
                           (3, (107, 107, 107), 2 ** 33 + 5),
                           (2, (1900, 1930), 2 ** 62 - 7), (3, (107, 107, 107), -(2 ** 62))):
        side = (side,) if n == 1 else side
        t = Fraction(1, 3)
        p, q = t.numerator, t.denominator
        cells = np.vstack([np.zeros((1, n), dtype=np.int64),
                           np.array(side, dtype=np.int64) - 1,
                           rng.integers(0, side, size=(2000, n))]) + shift
        A = LatticeSet(n, 1, cells)
        B = LatticeSet(n, 1, cells[:500])
        box_a, box_b = A.bounding_box(), B.bounding_box()
        shape = [p * (a1 - 1) + (q - p) * (b1 - 1) + q - p * a0 - (q - p) * b0
                 for (a0, a1), (b0, b1) in zip(box_a, box_b)]
        assert mk._GRID_GUARD // 2 < math.prod(shape) <= mk._GRID_GUARD
        line = [math.prod(shape[a + 1:-1]) * (shape[-1] + 1) for a in range(n - 1)] + [1]
        for E, w, box in ((A, p, box_a), (B, q - p, box_b)):
            pos = sum((E.array[:, a] - lo) * (w * k)
                      for a, ((lo, _), k) in enumerate(zip(box, line)))
            assert pos.dtype == np.int64 and pos.max() >= 1 << 23
            brk = np.ones(len(pos) + 1, dtype=bool)
            brk[1:-1] = pos[1:] != pos[:-1] + w
            first, last = mk._fiber_runs(E, w, box, line)
            assert first.dtype == last.dtype == np.int32
            assert np.array_equal(first, pos[brk[:-1]])
            assert np.array_equal(last, pos[brk[1:]])


def test_sum_is_measured_without_laying_out_its_cells():
    # criterion 01's 2D denom-128 pair: S has about 1.3M cells, 21 MB as an
    # int64 (k, 2) array; the sum keeps its runs, so measuring it allocates
    # a small fraction of that
    A, B = generate_scenario(ScenarioSpec(family="counterexample", n=2, denom=128))
    t = Fraction(1, 2)
    convex_combination(A, B, t)  # A's runs are derived here, once
    tracemalloc.start()
    try:
        S = convex_combination(A, B, t)
        vol = S.measure()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layout = vol * S.denom ** 2 * 2 * 8  # S's cells, two int64 each
    assert vol == deficit(A, B, t).volS and layout > 20_000_000
    assert peak < layout / 4
