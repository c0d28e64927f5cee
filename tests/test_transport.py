import random
from fractions import Fraction

import pytest

from bmstab.transport import (
    DensityProfile, monotone_rearrangement, slice_deficit, slice_density,
    transport_ratio_integral,
)
from bmstab.vset import LatticeSet


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
