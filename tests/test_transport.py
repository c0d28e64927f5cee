import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from bmstab.transport import (
    DensityProfile, monotone_rearrangement, slice_deficit, slice_density,
    transport_ratio_integral,
)
from bmstab.scenarios import ScenarioSpec, generate_scenario
from bmstab.vset import LatticeSet, sup_fiber_length, sup_slice_measure


def random_set(rng, n=2, m=2, max_cells=12, span=5):
    k = rng.randrange(1, max_cells)
    cells = frozenset(tuple(rng.randrange(0, span) for _ in range(n))
                      for _ in range(k))
    return LatticeSet(n, m, cells)


def test_slice_density_cube_uniform():
    cube = LatticeSet(2, 4, frozenset((i, j) for i in range(4) for j in range(4)))
    rho = slice_density(cube)
    assert rho.values == (Fraction(1),)
    assert rho.breaks == (Fraction(0), Fraction(1))
    assert rho.mass() == 1


def test_slice_density_staircase_matches_recount():
    stair = LatticeSet(2, 2, frozenset([(0, 0), (1, 0), (1, 1)]))
    rho = slice_density(stair)
    # slice areas 1 and 1/2, normalized by |E| = 3/4
    assert rho.breaks == (0, Fraction(1, 2), Fraction(1))
    assert rho.values == (Fraction(4, 3), Fraction(2, 3))
    assert rho.mass() == 1


def test_slice_density_errors():
    with pytest.raises(ValueError):
        slice_density(LatticeSet(2, 2))
    with pytest.raises(ValueError):
        slice_density(LatticeSet(1, 2, frozenset([(0,)])))


def test_identity_map_for_equal_densities():
    rho = DensityProfile((0, Fraction(1, 2), 1), (Fraction(3, 2), Fraction(1, 2)))
    T = monotone_rearrangement(rho, rho)
    for s in (Fraction(1, 8), Fraction(1, 2), Fraction(7, 8)):
        assert T(s) == s
    assert transport_ratio_integral(T) == 0


def test_closed_form_halving_map():
    uni = DensityProfile((0, 1), (1,))
    half = DensityProfile((0, Fraction(1, 2)), (2,))
    T = monotone_rearrangement(uni, half)
    assert T(Fraction(1, 3)) == Fraction(1, 6)
    assert all(T.derivative(i) == Fraction(1, 2) for i in range(len(T.pieces)))
    assert transport_ratio_integral(T) == Fraction(1, 2)


def test_pushforward_exact_on_random_pairs():
    rng = random.Random(47)
    for _ in range(40):
        A, B = random_set(rng), random_set(rng)
        rho_A, rho_B = slice_density(A), slice_density(B)
        T = monotone_rearrangement(rho_A, rho_B)
        assert T.is_monotone()
        assert T.pushforward_residual() == 0
        # interval mass balance oracle: rho_B on [a,b] vs rho_A on T^{-1}[a,b]
        for _ in range(8):
            a = Fraction(rng.randrange(-4, 10), 4)
            b = a + Fraction(rng.randrange(1, 9), 4)
            massB = rho_B.integrate(a, b)
            massA = Fraction(0)
            for s0, s1, u0, u1, va, vb in T.pieces:
                ulo, uhi = max(u0, a), min(u1, b)
                if uhi > ulo:
                    slo = s0 + (ulo - u0) * vb / va
                    shi = s0 + (uhi - u0) * vb / va
                    massA += va * (shi - slo)
            assert massA == massB


def test_jump_across_zero_plateau():
    rho_A = DensityProfile((0, 1), (1,))
    rho_B = DensityProfile((0, Fraction(1, 4), Fraction(3, 4), 1),
                           (2, 0, 2))
    T = monotone_rearrangement(rho_A, rho_B)
    assert T.is_monotone()
    assert T(Fraction(1, 4)) == Fraction(1, 8)
    assert T(Fraction(3, 4)) == Fraction(7, 8)


def test_slice_deficit_equal_cubes_zero():
    cube = LatticeSet(2, 2, frozenset((i, j) for i in range(2) for j in range(2)))
    rep = slice_deficit(cube, cube, Fraction(1, 2))
    assert rep.integral_lo == rep.integral_hi == 0
    assert rep.lhs_lo <= 0 <= rep.lhs_hi
    assert rep.mu_identity_residual == 0
    assert rep.ratio_integral == 0


def test_slice_deficit_random_suite():
    rng = random.Random(53)
    for _ in range(30):
        A, B = random_set(rng), random_set(rng)
        t = Fraction(rng.randrange(1, 4), 4)
        rep = slice_deficit(A, B, t)
        assert rep.e_min_lo >= 0                 # exact for n = 2
        assert rep.inequality_holds
        assert rep.chain_integral <= rep.volS
        assert rep.mu_identity_residual == 0
        assert rep.quadrature_bound == 0         # n = 2 is fully rational


def test_slice_deficit_n3_certified():
    rng = random.Random(59)
    for _ in range(5):
        A, B = random_set(rng, n=3, m=1, span=3), random_set(rng, n=3, m=1, span=3)
        rep = slice_deficit(A, B, Fraction(1, 2))
        assert rep.e_min_lo >= -Fraction(1, 10 ** 9)
        assert rep.quadrature_bound <= Fraction(1, 10 ** 6)
        assert rep.inequality_holds
        assert rep.chain_integral <= rep.volS
        assert rep.mu_identity_residual == 0


def test_mass_validation():
    bad = DensityProfile((0, 1), (Fraction(1, 2),))
    uni = DensityProfile((0, 1), (1,))
    with pytest.raises(ValueError):
        monotone_rearrangement(bad, uni)


def test_slice_deficit_far_point_family_strictly_positive():
    # identical operands, but the far cell spawns a middle copy in the
    # combination: the weighted slice-deficit integral is strictly positive
    from bmstab.scenarios import ScenarioSpec, generate_scenario
    spec = ScenarioSpec(family="counterexample", n=2, denom=4, L=4,
                        bracket="inner")
    A, B = generate_scenario(spec)
    rep = slice_deficit(A, B, Fraction(1, 2))
    assert rep.integral_lo > Fraction(1, 10)
    assert rep.e_min_lo >= 0
    assert rep.inequality_holds


def test_slice_deficit_reads_the_sum_as_runs(monkeypatch):
    # S's slices and measure come from its runs: laying out a run-built
    # set's cells goes through vset._cells_of, which fails here
    import bmstab.vset as vset

    def no_layout(runs, count):
        raise AssertionError("a run-built set's cells were laid out")

    for n, m in ((2, 16), (3, 4)):
        A, B = generate_scenario(ScenarioSpec(family="counterexample", n=n, denom=m))
        want = slice_deficit(A, B, Fraction(1, 3))
        with monkeypatch.context() as mp:
            mp.setattr(vset, "_cells_of", no_layout)
            assert slice_deficit(A, B, Fraction(1, 3)) == want


def test_mu_profile_identity_exact():
    rng = random.Random(61)
    A, B = random_set(rng), random_set(rng)
    t = Fraction(1, 3)
    rep = slice_deficit(A, B, t)
    target = ((1 - t) / t) ** 2 * B.measure() / A.measure()
    for s0, s1, mu1_pow, mu_n in rep.mu_pieces:
        assert mu_n * mu1_pow == target


def test_ratio_integral_shrinks_with_deficit():
    # sweep measurement: the transport-ratio integral decays as the family's
    # deficit shrinks over three decades
    from bmstab.scenarios import ScenarioSpec, generate_scenario
    from bmstab.minkowski import deficit
    points = []
    for eps, m in ((Fraction(1, 4), 16), (Fraction(1, 40), 32),
                   (Fraction(1, 400), 64)):
        spec = ScenarioSpec(family="boundary-bites", n=2, denom=m, eps=eps,
                            seed=2)
        A, B = generate_scenario(spec)
        rho_A, rho_B = slice_density(A), slice_density(B)
        T = monotone_rearrangement(rho_A, rho_B)
        ratio = transport_ratio_integral(T)
        d = deficit(A, B, Fraction(1, 2)).delta_norm
        points.append((float(d), float(ratio)))
    deltas = [p[0] for p in points]
    ratios = [p[1] for p in points]
    assert deltas[0] > deltas[1] > deltas[2]
    assert ratios[0] > ratios[1] > ratios[2]


# SHA-256 of the reprs of the slice layer's outputs, recorded before the
# layer moved from per-row Fractions to integer row counts: slice_density of
# both operands, their monotone rearrangement, slice_deficit at t = 1/3 and
# the sup slice / sup fiber measures, keyed by (case, n, seed).  The cases
# hold rows with no cell: random boxes with empty rows between boxes, the
# counterexample set with its axes reversed (the far cell 2L*M rows above
# the ball) and a ball with one cell 10^4 rows above it.  The "hand" entries
# rearrange hand-built densities with a zero first, middle and last piece.
_TRANSPORT_DIGESTS = {
    ('random-boxes', 2, 1):
        "ef9b6dbbb5c12bf1709d1c29b42e6632b06e053887dd0d7577dda0227b7836f8",
    ('random-boxes', 2, 2):
        "37ccc70f9bd025814ff8f39931f3a255d8505dbdfd52790429a8924e092279e8",
    ('random-boxes', 2, 3):
        "3e3667e81f9f6ad63314d9159380b05e306c99ea3ea832de9f09f61e39ea5907",
    ('random-boxes', 3, 1):
        "bc7123c2255380b041254403efaee20158f792c1d37250abacec3025420b43a1",
    ('random-boxes', 3, 2):
        "495b306052b1ddba585e274e6883fb7468c5a2a862c5a10b566aaaa9db636964",
    ('random-boxes', 3, 7):
        "f910ae69736a614532163ce1bf5bf7a442e967db1576ab3369f09b2d3878ec9c",
    ('boundary-bites', 2, 2):
        "09a8a15c1688223a9bf8e0c2d125ab0c856dfbad426eb974aabb564d40e0840d",
    ('perturbed-square', 3, 5):
        "a02b11e087f0c6041ecda5ca504abb7cf32e13f11ca59f8ff77ea8809a24ce06",
    ('counterexample', 2, 0):
        "189d83da05864596751102765222547379cabe4b957b143eb8562a855414479f",
    ('counterexample-reversed', 2, 0):
        "678a673b2cafc2a23acef24e3cae86870dad3bd00493816a9cf653ee78190965",
    ('ball-far-row', 2, 0):
        "cbb48ad9d160c35e1cbdd75fcaa29dabae64d1332cc1dbf941b5469b2d168c99",
    ('counterexample', 3, 0):
        "5ba2d30f7a75c38a0f3231b44f2b394f0f2df33caa24f01e9b93ff29e2ddb592",
    ('counterexample-reversed', 3, 0):
        "6cef238b67d37c386546dc534c343bd4a766d3cc1ddcc3e0b86a2bca654798f7",
    ('ball-far-row', 3, 0):
        "d3c72fa0297994f924abddcea377cf916538e1dc64e107f159bf3bce80236774",
    ('hand', 0, 0):
        "acb58390183a4461ca977ba80cb44d4f3e77f79043a19cf9c10a66cd4627f952",
    ('hand', 0, 1):
        "10bfffb81efc39771fd0f84cd8d6be9113feae64b77c1513e27371dab957c600",
    ('hand', 0, 2):
        "35c6e82a3f888bbe1fb413daa8f3b5c5cec93b7700229b673a30af1dd4b95620",
    ('hand', 0, 3):
        "762b5b156d69276b9b44524f4e3d0f7aaefdb23bcce76e935beb72134fef6aec",
    ('hand', 1, 0):
        "ad8917a6d2431bf11538e68645a72efdb402b561592f710cb28c738b59baf0d0",
    ('hand', 1, 1):
        "7157960e10fbb6a0b8a513c88ced253c4e91f55c084af9a3c2be6c937d44ebf6",
    ('hand', 1, 2):
        "269fefcf3fc049109dc0074fb54a67213d6299ee9655a08ce941cdd8cf1334ca",
    ('hand', 1, 3):
        "c85498427a279a3e28d40622c8b263fe35f3804ab56bb7b4cb8841a7cf97f9cd",
    ('hand', 2, 0):
        "fd62ffa149a1a6c7e488af1229066476086043539ae97e982533bdd584539256",
    ('hand', 2, 1):
        "136aceb3106a2591a352bbc6105f2c3b270a40b1af2833213931030ccf8b768b",
    ('hand', 2, 2):
        "a4288d6c3a1ff4afc82e595a8aadd72b6513d7bf91df32fe8deb660f740e4041",
    ('hand', 2, 3):
        "72bfc9d1e1e4e46efaedd6d61c2952272f697f05edea8a9ab2b7d76ee9f4487c",
    ('hand', 3, 0):
        "10f8dcd95ea286e03bf2696b9f29b0aa9160a8729834e2b708c0a702994583cb",
    ('hand', 3, 1):
        "80d0f7032ed21cc8ae3651cc34a64e681d454091ad72630d0e83f9d8ef2f35db",
    ('hand', 3, 2):
        "1d5db0909885cc7725b7c32677fbfd326685a110a1a04643879487dd034182b8",
    ('hand', 3, 3):
        "be73a03901566aaeb0500da92e6e12b1b3ae18c2ccaf5b9f07c7d731a41a9548",
}


def _transport_pairs():
    for n, m, seeds in ((2, 4, (1, 2, 3)), (3, 2, (1, 2, 7))):
        for seed in seeds:
            yield ("random-boxes", n, seed), generate_scenario(ScenarioSpec(
                family="random-boxes", n=n, denom=m, seed=seed))
    yield ("boundary-bites", 2, 2), generate_scenario(ScenarioSpec(
        family="boundary-bites", n=2, denom=16, eps=Fraction(1, 8), seed=2))
    yield ("perturbed-square", 3, 5), generate_scenario(ScenarioSpec(
        family="perturbed-square", n=3, denom=4, eps=Fraction(1, 4), seed=5))
    for n, m, L in ((2, 4, 2), (3, 2, 1)):
        E, _ = generate_scenario(ScenarioSpec(family="counterexample", n=n,
                                              denom=m, L=L, bracket="outer"))
        yield ("counterexample", n, 0), (E, E)
        flipped = LatticeSet(n, E.denom, E.array[:, ::-1])
        ball = LatticeSet(n, E.denom, E.array[:-1])
        yield ("counterexample-reversed", n, 0), (flipped, ball)
        far = LatticeSet(n, E.denom, np.vstack([E.array[:-1], [[0] * (n - 1) + [10 ** 4]]]))
        yield ("ball-far-row", n, 0), (far, ball)


def _transport_outputs():
    out = {}
    for key, (A, B) in _transport_pairs():
        rho_A, rho_B = slice_density(A), slice_density(B)
        out[key] = (rho_A, rho_B, monotone_rearrangement(rho_A, rho_B),
                    slice_deficit(A, B, Fraction(1, 3)),
                    sup_slice_measure(A), sup_slice_measure(B),
                    sup_fiber_length(A), sup_fiber_length(B))
    half, third = Fraction(1, 2), Fraction(1, 3)
    hand = (
        DensityProfile((0, 1, 2, 3), (0, half, half)),
        DensityProfile((0, 1, 2, 4), (third, 0, third)),
        DensityProfile((-1, half, 1, 2), (half, half, 0)),
        DensityProfile((0, third, 1, 2, 3, 5), (0, Fraction(3, 4), 0, half, 0)),
    )
    for i, rho_A in enumerate(hand):
        for j, rho_B in enumerate(hand):
            out[("hand", i, j)] = monotone_rearrangement(rho_A, rho_B)
    return out


def test_transport_outputs_match_recorded_digests():
    got = {key: hashlib.sha256(repr(value).encode()).hexdigest()
           for key, value in _transport_outputs().items()}
    assert got == _TRANSPORT_DIGESTS
