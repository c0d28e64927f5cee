import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import mpmath as mp
import numpy as np
import pytest

import bmstab.stability as stability
from bmstab._hull import hull
from bmstab.convexity import Polytope, convex_hull, lattice_polytope_overlap
from bmstab.scenarios import ScenarioSpec, generate_scenario
from bmstab.stability import (
    _box, _box_bound, _box_bounds, _shifted_overlap, check_stability, constants,
    cos_pipeline, hull_distance,
)
from bmstab.vset import LatticeSet, reconcile


def unit_square(m):
    return LatticeSet(2, m, frozenset((i, j) for i in range(m) for j in range(m)))


def test_constants_base_case():
    for tau in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
        tb = constants(1, tau)
        assert tb.eps == 1
        with mp.workprec(220):
            expect = abs(mp.log(mp.mpf(tau.numerator) / tau.denominator / 3))
            assert abs(tb.M - expect) <= expect * mp.mpf(2) ** -190
        assert tb.beta is None


def test_constants_beta_value():
    tb = constants(2, Fraction(1, 2))
    assert abs(float(tb.beta) - 1 / (32 * math.log(2))) < 1e-15


def test_constants_bounds_sample():
    for n, tau in [(2, Fraction(1, 2)), (3, Fraction(1, 4)), (4, Fraction(1, 10))]:
        tb = constants(n, tau)
        assert tb.bounds_ok


def test_constants_rejects_bad_tau():
    with pytest.raises(ValueError):
        constants(2, Fraction(3, 4))


def test_constants_are_computed_once_per_argument():
    tb = constants(2, Fraction(1, 2))
    assert constants(2, "1/2") is tb and constants(2, 0.5) is tb
    assert constants(3, Fraction(1, 2)) is not tb
    assert constants(3, Fraction(1, 4)).tau == Fraction(1, 4)
    # arguments are checked on every call, before the cache
    for n, tau in ((0, Fraction(1, 2)), (2, Fraction(3, 4)), (2, 0), (2, -1)):
        for _ in range(2):
            with pytest.raises(ValueError):
                constants(n, tau)


def test_constants_refuses_n_above_the_cap(monkeypatch):
    assert constants(stability._MAX_N, Fraction(1, 2)).n == stability._MAX_N

    def no_work(*args):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(stability, "_eps_M", no_work)
    for n in (stability._MAX_N + 1, 1200, 2.5):
        with pytest.raises(ValueError, match="n must"):
            constants(n, Fraction(1, 2))


def test_hull_distance_identical_convex():
    sq = unit_square(4)
    hd = hull_distance(sq, sq)
    assert hd["D_star"] == 0 and hd["v_star"] == (0, 0)


def test_hull_distance_recovers_translation():
    sq = unit_square(4)
    B = sq.translate((7, -2))
    hd = hull_distance(sq, B)
    assert hd["D_star"] == 0
    assert hd["v_star"] == (Fraction(-7, 4), Fraction(2, 4))


def test_hull_distance_never_worse_than_zero_shift():
    rng = random.Random(89)
    for _ in range(10):
        A = LatticeSet(2, 2, frozenset((rng.randrange(0, 5), rng.randrange(0, 5))
                                       for _ in range(8)))
        B = LatticeSet(2, 2, frozenset((rng.randrange(0, 5), rng.randrange(0, 5))
                                       for _ in range(8)))
        hd = hull_distance(A, B)
        assert 0 <= hd["D_star"] <= hd["D_at_zero"]
        # K contains both sets at the optimal shift
        for c in A.corner_points():
            assert hd["K"].contains(tuple(Fraction(x, A.denom) for x in c))


def test_hull_distance_deterministic():
    rng = random.Random(97)
    cells = frozenset((rng.randrange(0, 6), rng.randrange(0, 6)) for _ in range(10))
    A = LatticeSet(2, 2, cells)
    B = LatticeSet(2, 2, frozenset((x + 1, y) for x, y in cells))
    h1 = hull_distance(A, B)
    h2 = hull_distance(A, B)
    assert h1["v_star"] == h2["v_star"] and h1["D_star"] == h2["D_star"]


def _stride_search(A, B):
    """The unpruned coarse-to-fine search that `hull_distance` must match."""
    A, B = reconcile(A, B)
    m = A.denom
    dim = A.dim
    ptsA = hull(A.hull_points())[0]
    ptsB = hull(B.hull_points())[0]
    volA, volB = A.measure(), B.measure()
    scale = math.factorial(dim) * m ** dim

    # the bounding boxes' shift window with one cell of slack; each axis
    # extreme of a hull is reached at a vertex
    lo = [min(p[a] for p in ptsA) - max(p[a] for p in ptsB) - 1 for a in range(dim)]
    hi = [max(p[a] for p in ptsA) - min(p[a] for p in ptsB) + 1 for a in range(dim)]

    def union(v):
        return ptsA + [tuple(x + y for x, y in zip(p, v)) for p in ptsB]

    def D(v) -> Fraction:
        return 2 * Fraction(hull(union(v))[2], scale) - volA - volB

    best_v = (0,) * dim
    best = D_at_zero = D(best_v)
    stride = max(1, m // 4)
    # coarse scan of the full window
    for v in product(*(range(l, h, stride) for l, h in zip(lo, hi))):
        d = D(v)
        if d < best or (d == best and v < best_v):
            best, best_v = d, v
    # halving descent
    while stride > 1:
        stride = max(1, stride // 2)
        span = [range(max(l, b - 2 * stride), min(h, b + 2 * stride + 1), stride)
                for l, h, b in zip(lo, hi, best_v)]
        for v in product(*span):
            d = D(v)
            if d < best or (d == best and v < best_v):
                best, best_v = d, v

    return {
        "v_star": tuple(Fraction(x, m) for x in best_v),
        "K": Polytope.from_lattice_points(union(best_v), m),
        "D_star": best,
        "D_at_zero": D_at_zero,
    }


def _assert_same_search(A, B):
    got, want = hull_distance(A, B), _stride_search(A, B)
    for key in ("v_star", "D_star", "D_at_zero"):
        assert got[key] == want[key], key
    assert got["K"] == want["K"]  # scale, verts, faces and volume
    return got


def _search_specs(family):
    # seeded families at small denominators in each dimension; in 3D the
    # unpruned scan builds every hull of its stride-1 window
    if family != "counterexample":
        for (n, m), seed in product(((1, 4), (1, 16), (2, 4), (2, 8), (2, 16),
                                     (3, 2), (3, 3)), (1, 2)):
            yield ScenarioSpec(family=family, n=n, denom=m, eps=Fraction(1, 8),
                               seed=seed)
        return
    # the counterexample ignores the seed, and its 3D sets sit on a refined
    # lattice, so 3D keeps the separation small
    for n, m, L in ((1, 4, 4), (1, 16, 4), (2, 4, 4), (2, 8, 4), (3, 1, 1)):
        yield ScenarioSpec(family=family, n=n, denom=m, L=L)


@pytest.mark.parametrize("family", ["homothetic-convex", "perturbed-square",
                                    "boundary-bites", "random-boxes",
                                    "counterexample"])
def test_hull_distance_matches_unpruned_search(family):
    dims = set()
    for spec in _search_specs(family):
        A, B = generate_scenario(spec)
        _assert_same_search(A, B)
        dims.add(spec.n)
    assert dims == {1, 2, 3}


def _span(A, B):
    """hull_distance's shift window as one range per axis, on A's lattice
    (A and B share it)."""
    ptsA, ptsB = hull(A.hull_points())[0], hull(B.hull_points())[0]
    boxA, boxB = _box(ptsA), _box(ptsB)
    return [range(la - hb - 1, ha - lb + 1) for (la, ha), (lb, hb) in zip(boxA, boxB)]


def _window(A, B):
    """hull_distance's shift window, on A's lattice (A and B share it)."""
    return product(*_span(A, B))


def test_box_bound_is_a_lower_bound():
    checked = tight = 0
    for family, n, m, seed in (("boundary-bites", 2, 4, 1), ("random-boxes", 2, 4, 2),
                               ("perturbed-square", 3, 2, 1), ("random-boxes", 3, 2, 1)):
        A, B = reconcile(*generate_scenario(ScenarioSpec(
            family=family, n=n, denom=m, eps=Fraction(1, 4), seed=seed)))
        ptsA, _, VA = hull(A.hull_points())
        ptsB, _, VB = hull(B.hull_points())
        for v in _window(A, B):
            union = ptsA + [tuple(x + y for x, y in zip(p, v)) for p in ptsB]
            exact = hull(union)[2]
            bound = _box_bound(VA, _box(ptsA), VB, _box(ptsB), v)
            assert bound <= exact, (family, n, v)
            checked += 1
            tight += bound == exact
    assert checked > 1000 and tight > 0


def test_box_bounds_table_matches_box_bound():
    for family, n, m, seed in (("boundary-bites", 2, 4, 1), ("random-boxes", 2, 4, 2),
                               ("perturbed-square", 3, 2, 1), ("random-boxes", 3, 2, 1)):
        A, B = reconcile(*generate_scenario(ScenarioSpec(
            family=family, n=n, denom=m, eps=Fraction(1, 4), seed=seed)))
        ptsA, _, VA = hull(A.hull_points())
        ptsB, _, VB = hull(B.hull_points())
        boxA, boxB = _box(ptsA), _box(ptsB)
        span = _span(A, B)
        # the whole window, and a strided level as the coarse scan takes it
        for sp in (span, [range(r.start, r.stop, 3) for r in span]):
            got = _box_bounds(VA, boxA, VB, boxB, sp)
            want = [_box_bound(VA, boxA, VB, boxB, v) for v in product(*sp)]
            assert got == want, (family, n)


def test_hull_distance_ties_pick_the_smallest_shift():
    # one cell fits at three places inside a 3x1 box; D = |A| - |B| at each
    A = LatticeSet(2, 1, frozenset({(0, 0), (1, 0), (2, 0)}))
    B = LatticeSet(2, 1, frozenset({(5, 5)}))
    hd = _assert_same_search(A, B)
    assert hd["v_star"] == (-5, -5)
    assert hd["D_star"] == 2
    # the same at denom 8, where the search starts from stride 2
    A8 = LatticeSet(2, 8, frozenset((i, j) for i in range(24) for j in range(8)))
    B8 = LatticeSet(2, 8, frozenset((i + 40, j + 40) for i in range(8) for j in range(8)))
    hd8 = _assert_same_search(A8, B8)
    assert hd8["v_star"] == (-5, -5)
    assert hd8["D_star"] == 2


def test_hull_distance_counts_hull_evaluations():
    A, B = generate_scenario(ScenarioSpec(family="boundary-bites", n=2, denom=16,
                                          eps=Fraction(1, 8), seed=1))
    hd = hull_distance(A, B)
    window = sum(1 for _ in _window(A, B))
    assert 1 <= hd["hull_evals"] < window


def test_hull_distance_3d_stride_one_window():
    # denom 6 is below 8, so the coarse level scans the full 3D window
    A, B = generate_scenario(ScenarioSpec(family="perturbed-square", n=3, denom=6,
                                          eps=Fraction(1, 4), seed=3))
    hd = hull_distance(A, B)
    assert hd["D_star"] == Fraction(349, 216)
    assert hd["v_star"] == (0, 0, 0)


_MASK64 = (1 << 64) - 1


def _derived_seed(seed, k):
    """Scenario seed k of a benchmark run: the stability-sweep workload's
    SplitMix64 step of the benchmark seed."""
    z = (seed * 0x9E3779B97F4A7C15 + (k + 1) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 30)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _sweep_specs(seed):
    """The stability-sweep workload's rows at a benchmark seed: criterion
    12's 2D bites ladder, one scenario seed per base denom, then 3D bites."""
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
    return [ScenarioSpec(family="boundary-bites", n=n, denom=m, eps=eps, seed=s)
            for n, m, eps_list, s in configs for eps in sorted(eps_list)]


# SHA-256 of repr([(v*, D*, D(0), hull_evals, K) per scenario]) from
# hull_distance over stability-sweep's rows at benchmark seeds 1-3 and over
# `_search_specs`' families, recorded before the search stopped at its box
# bound's floor; K is (dim, scale, verts, faces, volume).
_SEARCH_DIGESTS = {
    "sweep-seed1": "8565ce8134e3127346c8746a7d1b19780c97aabed74905f1c20e17a57d2f5461",
    "sweep-seed2": "5ad07a77cc26be5900d7ebf23f9096517e84e30bbefcfb05a034fe6bfa820faf",
    "sweep-seed3": "f8c58aac3806f05cc0bb5e378014a81adfcbf2df5a123d793ef5d118bc44f3f9",
    "homothetic-convex": "12fa357ba7aa19d5b30c7239af86e677f29169de947a363014023ac0399d7549",
    "perturbed-square": "0fa2e94cc8ac37686655f6525468a264514ef86773639567987772940fd6273a",
    "boundary-bites": "a5c5bdd23bc9b143929d58c07409733b016ee0b0ddf133959f9139b7e2f8e251",
    "random-boxes": "bccf962b5a07a4f19e86c57444259d6cff6481f8f0d3b8a13307d26cc42d6535",
    "counterexample": "80af33ee581ce8f5334d91f4dd7f58f4612f36dea294c1f1cea517244b1e1c66",
}


def test_hull_distance_matches_recorded_digests():
    groups = {f"sweep-seed{s}": _sweep_specs(s) for s in (1, 2, 3)}
    groups.update((family, list(_search_specs(family))) for family in (
        "homothetic-convex", "perturbed-square", "boundary-bites", "random-boxes",
        "counterexample"))
    got = {}
    for name, specs in groups.items():
        values = []
        for spec in specs:
            hd = hull_distance(*generate_scenario(spec))
            K = hd["K"]
            values.append((hd["v_star"], hd["D_star"], hd["D_at_zero"], hd["hull_evals"],
                           (K.dim, K.scale, K.verts, K.faces, K.volume)))
        got[name] = hashlib.sha256(repr(values).encode()).hexdigest()
    assert got == _SEARCH_DIGESTS


def test_hull_distance_scans_no_level_on_aligned_bites(monkeypatch):
    # criterion 12's bites and the sweep's 3D bites: the two hulls' boxes have
    # equal widths, and the hull at the aligned shift beats every other
    # shift's box bound, so no level table is computed
    def no_level(*args):
        raise AssertionError("a level was scanned")

    specs = _sweep_specs(1)
    for k in range(30):
        eps = Fraction(16, 100_000) * Fraction(125, 100) ** k
        m = 1
        while int(eps * m * m / 2) < 2:
            m *= 2
        specs.append(ScenarioSpec(family="boundary-bites", n=2, denom=max(m, 16),
                                  eps=eps, seed=k))
    cases = [generate_scenario(spec) for spec in specs]
    monkeypatch.setattr(stability, "_box_bounds", no_level)
    for A, B in cases:
        assert hull_distance(A, B)["hull_evals"] == 1


def test_hull_distance_scans_levels_the_stop_cannot_rule_out(monkeypatch):
    levels, box_bounds = [], stability._box_bounds  # the span of each level scanned

    def counted(*args):
        levels.append(args[-1])
        return box_bounds(*args)

    monkeypatch.setattr(stability, "_box_bounds", counted)
    # unequal box widths: the ties test's sets at denom 8 scan both levels
    A8 = LatticeSet(2, 8, frozenset((i, j) for i in range(24) for j in range(8)))
    B8 = LatticeSet(2, 8, frozenset((i + 40, j + 40) for i in range(8) for j in range(8)))
    _assert_same_search(A8, B8)
    assert [r.step for r in (span[0] for span in levels)] == [2, 1]
    # equal 2x2 boxes whose union's hull, at the aligned shift 0, has exactly
    # the floor of every other shift's box bound: the tie is still scanned
    levels.clear()
    A = LatticeSet(2, 1, frozenset({(0, 0), (1, 1)}))
    B = LatticeSet(2, 1, frozenset({(0, 1), (1, 0)}))
    VA, VB = hull(A.hull_points())[2], hull(B.hull_points())[2]
    best = hull(A.hull_points() + B.hull_points())[2]
    assert (VA, VB, best) == (6, 6, 8)
    assert best == VA + VB - 2 * (2 * 2 - 2)  # the floor, at widths (2, 2)
    hd = _assert_same_search(A, B)
    assert len(levels) == 1 and hd["v_star"] == (0, 0) and hd["hull_evals"] > 1
    # boxes 3 wide and 1 high: one step off v0 on axis 0 keeps an overlap of
    # 2 = prod(w) - w_1, the least product of all widths but one
    levels.clear()
    A = LatticeSet(2, 1, frozenset({(0, 0), (1, 0), (2, 0)}))
    hd = _assert_same_search(A, A.translate((1, 0)))
    assert len(levels) == 1 and hd["v_star"] == (-1, 0) and hd["D_star"] == 0


def test_cos_pipeline_exact_convex_case():
    sq = unit_square(4)
    K = convex_hull(sq)
    res = cos_pipeline(sq, sq, K, K, Fraction(1, 2), Fraction(1, 2))
    assert res["zeta_lo"] == res["zeta_hi"] == 0
    assert res["excess_A"] == 0 and res["excess_B"] == 0
    assert res["K"].volume == 1


def test_cos_pipeline_membership_and_zeta():
    sq = unit_square(4)
    bitten = LatticeSet(2, 4, sq.cells - {(3, 3), (3, 2)})
    K = convex_hull(sq)
    res = cos_pipeline(bitten, sq, K, K, Fraction(1, 2), Fraction(1, 2))
    assert res["zeta_lo"] == res["zeta_hi"] == Fraction(2, 16)
    assert res["sym_diff_AB"] == Fraction(2, 16)
    # returned K contains all corners of both (checked inside, re-verify)
    for c in bitten.corner_points():
        assert res["K"].contains(tuple(Fraction(x, 4) for x in c))
    assert res["excess_A"] >= 0 and res["excess_B"] >= 0


def test_cos_pipeline_inflation_captures_outliers():
    # K_A deliberately misses part of A; zeta > 0 and the inflation loop must
    # still end with A inside the returned convex set.
    sq = unit_square(4)
    K_small = convex_hull(LatticeSet(2, 4, frozenset(
        (i, j) for i in range(3) for j in range(4))))
    res = cos_pipeline(sq, sq, K_small, K_small, Fraction(1, 2), Fraction(1, 2))
    assert res["zeta_hi"] == Fraction(1, 2)  # two copies of the missing column
    for c in sq.corner_points():
        assert res["K"].contains(tuple(Fraction(x, 4) for x in c))
    assert res["inflation_factor"] > 1


def test_cos_pipeline_tests_vertices_only_of_sets_outside_their_k(monkeypatch):
    # A set that its own K holds (|A n K_A| = |A|) is inside every inflated
    # K, so with the sets' hulls as K_A and K_B no hull is rebuilt and no
    # point is tested; a set that K_small misses still takes the vertex test.
    cases = []
    for n, denom in ((2, 16), (3, 4)):
        A, B = generate_scenario(ScenarioSpec(family="boundary-bites", n=n,
                                              denom=denom, eps=Fraction(1, 8)))
        cases.append((A, B, convex_hull(A), convex_hull(B)))
    sq = unit_square(4)
    K_small = convex_hull(LatticeSet(2, 4, frozenset(
        (i, j) for i in range(3) for j in range(4))))
    # hull_points counts calls; _holds counts the points it tests
    calls = {"hull_points": 0, "_holds": 0}
    for cls, name in ((LatticeSet, "hull_points"), (Polytope, "_holds")):
        def counted(*args, _f=getattr(cls, name), _name=name):
            calls[_name] += len(args[1]) if _name == "_holds" else 1
            return _f(*args)
        monkeypatch.setattr(cls, name, counted)
    for A, B, K_A, K_B in cases:
        res = cos_pipeline(A, B, K_A, K_B, Fraction(1, 2), Fraction(1, 2))
        assert res["inflation_c"] == 1
    assert calls == {"hull_points": 0, "_holds": 0}
    res = cos_pipeline(sq, sq, K_small, K_small, Fraction(1, 2), Fraction(1, 2))
    assert res["inflation_factor"] > 1
    assert calls["hull_points"] == 2 and calls["_holds"] > 0


def test_cos_pipeline_barycenters_align():
    r1 = LatticeSet(2, 4, frozenset((i, j) for i in range(4) for j in range(4)))
    r2 = LatticeSet(2, 4, frozenset((i + 9, j) for i in range(4) for j in range(5)))
    K1, K2 = convex_hull(r1), convex_hull(r2)
    res = cos_pipeline(r1, r2, K1, K2, Fraction(1, 2), Fraction(1, 2))
    assert K2.translate(res["shift_B"]).centroid() == K1.centroid()


def test_check_stability_equal_convex_passes():
    sq = unit_square(4)
    rep = check_stability(sq, sq, Fraction(1, 2), Fraction(1, 2), instance_id="eq")
    assert rep.verdict == "pass"
    assert rep.D_star == 0
    assert rep.record.delta_norm == 0
    assert rep.bound == 0.0


def test_check_stability_csv_row_schema():
    sq = unit_square(2)
    rep = check_stability(sq, sq, Fraction(1, 2), Fraction(1, 2))
    row = rep.csv_row().split(",")
    assert len(row) == len(rep.CSV_HEADER.split(",")) == 12
    assert row[-1] == "pass"


def test_check_stability_typical_instance_vacuous():
    sq = unit_square(4)
    bitten = LatticeSet(2, 4, sq.cells - {(0, 0)})
    rep = check_stability(sq, bitten, Fraction(1, 2), Fraction(1, 2))
    assert rep.verdict == "vacuous"
    delta = rep.record.delta_norm
    assert rep.threshold * delta.denominator < delta.numerator
    # the bound is astronomically larger than the measured distance
    assert rep.bound > float(rep.D_star)


def test_check_stability_1d_threshold_is_exact():
    # at n = 1, e^(-M) = tau/3 exactly; here delta = 1/6 meets it, so the
    # hypothesis holds and D* = 2/3 is graded against the bound 16/3
    A = LatticeSet(1, 6, [(i,) for i in range(6)])
    B = LatticeSet(1, 6, [(i,) for i in (0, 1, 2, 3, 6, 7)])
    rep = check_stability(A, B, Fraction(1, 2), Fraction(1, 2))
    assert rep.threshold == rep.record.delta_norm == Fraction(1, 6)
    assert type(rep.threshold) is Fraction
    assert rep.D_star == Fraction(2, 3)
    assert abs(rep.bound - 16 / 3) < 1e-12
    assert rep.verdict == "pass"


def test_check_stability_1d_tie_with_the_bound_passes(monkeypatch):
    # at n = 1, eps_1 = 1, so the bound tau^(-5) * delta is exact and D* is
    # graded against it as a Fraction: here D* = 1 = 5^5 * (1/3125), a tie,
    # which passes, although the float product in the bound column rounds
    # below 1.  |A| = 1 + 1/6250, |B| = 1 - 1/6250 and |S| = 1 give
    # delta = 1/3125 at t = 1/2.  No 1D instance with t in [tau, 1 - tau] is
    # known to reach the tie itself, so hull_distance reports
    # D* = delta / tau^5.
    A = LatticeSet.from_mask(np.ones(6251, dtype=bool), 6250)
    B = LatticeSet.from_mask(np.ones(6249, dtype=bool), 6250)
    tau = Fraction(1, 5)
    real = stability.hull_distance
    monkeypatch.setattr(stability, "hull_distance",
                        lambda A, B: {**real(A, B), "D_star": Fraction(1)})
    rep = check_stability(A, B, Fraction(1, 2), tau)
    assert rep.record.delta_norm == Fraction(1, 3125) <= rep.threshold
    assert rep.D_star == rep.record.delta_norm / tau ** 5 == 1
    assert rep.bound < 1
    assert rep.verdict == "pass"
    assert rep.csv_row().split(",")[-2:] == [f"{rep.bound:.12g}", "pass"]


def test_check_stability_threshold_does_not_underflow():
    # at n = 2, e^(-M) is about 2.4e-18384, far below the smallest float, so
    # the threshold must stay a positive mpf for delta to be compared with it
    A, B = generate_scenario(ScenarioSpec(family="boundary-bites", n=2, denom=16,
                                          eps=Fraction(1, 64), seed=1))
    rep = check_stability(A, B, Fraction(1, 2), Fraction(1, 2))
    assert rep.record.delta_norm == Fraction(1, 64)
    assert 0 < rep.threshold < mp.mpf(1) / 64
    assert rep.threshold > mp.mpf(10) ** -18400
    assert rep.verdict == "vacuous"
    with mp.workprec(220):
        assert rep.threshold == mp.exp(-constants(2, Fraction(1, 2)).M)
    assert isinstance(rep.threshold, mp.mpf)
    # computed once per (n, tau): the next row with them shares it
    assert check_stability(B, A, Fraction(1, 2), Fraction(1, 2)).threshold \
        is rep.threshold


def test_cos_pipeline_3d_certified():
    cube = LatticeSet(3, 2, frozenset((i, j, k) for i in range(2)
                                      for j in range(2) for k in range(2)))
    K = convex_hull(cube)
    res = cos_pipeline(cube, cube, K, K, Fraction(1, 2), Fraction(1, 2))
    assert res["zeta_lo"] == res["zeta_hi"] == 0
    assert res["excess_A"] == 0
    bitten = LatticeSet(3, 2, cube.cells - {(1, 1, 1)})
    res2 = cos_pipeline(bitten, cube, K, K, Fraction(1, 2), Fraction(1, 2))
    assert res2["zeta_lo"] <= Fraction(1, 8) <= res2["zeta_hi"]
    for c in bitten.corner_points():
        assert res2["K"].contains(tuple(Fraction(x, 2) for x in c))
    # K smaller than its set: the unit cube at denom 3 against the hull of
    # the bitten cube, which misses the corner tetrahedron of volume 1/48
    cube3 = LatticeSet(3, 3, frozenset(product(range(3), repeat=3)))
    Kb = convex_hull(bitten)
    assert lattice_polytope_overlap(cube3, Kb) == Fraction(47, 48)
    res3 = cos_pipeline(cube3, cube3, Kb, Kb, Fraction(1, 2), Fraction(1, 2))
    assert res3["zeta_lo"] == res3["zeta_hi"] == Fraction(1, 24)


def test_check_stability_3d_instance():
    cube = LatticeSet(3, 2, frozenset((i, j, k) for i in range(2)
                                      for j in range(2) for k in range(2)))
    rep = check_stability(cube, cube, Fraction(1, 2), Fraction(1, 2),
                          instance_id="cube3")
    assert rep.verdict == "pass" and rep.D_star == 0
    bitten = LatticeSet(3, 2, cube.cells - {(0, 0, 0)})
    rep2 = check_stability(cube, bitten, Fraction(1, 3), Fraction(1, 3),
                           instance_id="bite3")
    assert rep2.verdict == "vacuous"
    assert rep2.D_star > 0
    assert len(rep2.csv_row().split(",")) == 12


def test_far_point_family_hull_distance_grows_with_L():
    # deficit stays pinned near 2^-n while the hull distance grows with the
    # separation, which is exactly why a smallness threshold is needed
    from bmstab.scenarios import ScenarioSpec, generate_scenario
    dstars = []
    for L in (2, 4, 8):
        spec = ScenarioSpec(family="counterexample", n=2, denom=4, L=L,
                            bracket="inner")
        A, B = generate_scenario(spec)
        rep = check_stability(A, B, Fraction(1, 2), Fraction(1, 2),
                                 instance_id=f"far-{L}")
        assert rep.verdict == "vacuous"
        assert abs(rep.record.delta_norm - Fraction(1, 4)) < Fraction(2, 10)
        dstars.append(rep.D_star)
    assert dstars[0] < dstars[1] < dstars[2]
    assert dstars[2] > 2 * dstars[0]


def _box_pair_overlap(A, B, shift):
    """|A intersect (B + shift)| summed over every pair of cell boxes."""
    total = Fraction(0)
    for a in A.cells:
        for b in B.cells:
            v = Fraction(1)
            for i, s in enumerate(shift):
                lo = max(Fraction(a[i], A.denom), Fraction(b[i], B.denom) + s)
                hi = min(Fraction(a[i] + 1, A.denom), Fraction(b[i] + 1, B.denom) + s)
                v *= max(hi - lo, 0)
            total += v
    return total


def test_shifted_overlap_matches_box_pairs():
    rng = random.Random(20150224)
    axes = random.Random(24)
    nonzero = 0
    for trial in range(60):
        n = 1 + trial % 3
        mA, mB = rng.sample((1, 2, 3, 4), 2)

        def cells(m):
            window = range(-1, m + 1)
            box = [tuple(rng.choice(window) for _ in range(n)) for _ in range(40)]
            return frozenset(box[:rng.randint(1, 40)])

        A = LatticeSet(n, mA, cells(mA))
        B = LatticeSet(n, mB, cells(mB))
        q = rng.choice((1, 2, 3, 5, 7))
        shift = tuple(Fraction(rng.randint(-2 * q, 2 * q), 2 * q) for _ in range(n))
        got = _shifted_overlap(A, B, shift)
        assert got == _box_pair_overlap(A, B, shift), (A, B, shift)
        nonzero += got > 0
        # a different denominator on each axis
        mixed = tuple(Fraction(axes.randint(-2 * q, 2 * q), q)
                      for q in axes.sample((2, 3, 5, 7, 9, 11), n))
        assert _shifted_overlap(A, B, mixed) == _box_pair_overlap(A, B, mixed), (
            A, B, mixed)
    assert nonzero >= 40
