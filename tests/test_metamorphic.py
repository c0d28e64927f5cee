"""Metamorphic relations: transforms of an instance with a known effect.

Most engines favour the last axis (runs, fiber positions, cover classes,
hull candidates), so a lattice translation, a signed permutation of the
axes, swapping the operands with t <-> 1 - t, or a refinement sends the same
instance down other code paths, and the values below must not change.  Each
transformed set is rebuilt from its cells, so the run construction is
exercised too.  D* is left out: the stride search in `hull_distance` can
miss the lattice minimum, and then D* moves with the sets.
"""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from bmstab import LatticeSet, deficit, hull_excess, symmetric_difference_measure
from bmstab.scenarios import ScenarioSpec, generate_scenario

T = Fraction(1, 3)
FAMILIES = ("homothetic-convex", "perturbed-square", "boundary-bites", "random-boxes")
# (n, denom, a lattice vector); the sets have tens to a few hundred cells
LATTICES = ((2, 8, (3, -5)), (2, 16, (-7, 2)), (3, 4, (-3, 1, 2)), (3, 6, (2, -1, 3)))


def _instances():
    for family, (n, m, offset) in product(FAMILIES, LATTICES):
        A, B = generate_scenario(ScenarioSpec(family=family, n=n, denom=m,
                                              eps=Fraction(1, 8), seed=2))
        yield pytest.param(A, B, offset, id=f"{family}-{n}d-m{m}")


def _rebuilt(E, f):
    """E's cells mapped by f, as a new set on E's lattice."""
    return LatticeSet(E.dim, E.denom, [f(c) for c in E.cells])


def _translated(E, offset):
    return _rebuilt(E, lambda c: tuple(x + o for x, o in zip(c, offset)))


def _signed(E, perm, signs):
    """E under the signed permutation x -> (s_i * x_perm(i)): cell c spans
    [c, c + 1] on each axis, so a flipped axis sends it to -c - 1."""
    return _rebuilt(E, lambda c: tuple(c[p] if s > 0 else -c[p] - 1
                                       for p, s in zip(perm, signs)))


def _values(A, B, t):
    rec = deficit(A, B, t)
    return {"delta": rec.delta_norm, "delta_raw": (rec.delta_raw_lo, rec.delta_raw_hi),
            "S": rec.volS, "sym_diff": symmetric_difference_measure(A, B),
            "excess": (hull_excess(A), hull_excess(B))}


def _signed_permutations(n):
    """All 8 in 2D, a fixed sample of 8 of the 48 in 3D."""
    group = list(product(permutations(range(n)), product((1, -1), repeat=n)))
    return group if n == 2 else random.Random(48).sample(group, 8)


@pytest.mark.parametrize("A, B, offset", _instances())
def test_lattice_translation_keeps_delta_and_sum(A, B, offset):
    want = _values(A, B, T)
    for moved in ((_translated(A, offset), B), (A, _translated(B, offset)),
                  (_translated(A, offset), _translated(B, offset))):
        got = _values(*moved, T)
        assert (got["delta"], got["S"]) == (want["delta"], want["S"])


@pytest.mark.parametrize("A, B, offset", _instances())
def test_signed_axis_permutations_keep_every_value(A, B, offset):
    want = _values(A, B, T)
    for perm, signs in _signed_permutations(A.dim):
        assert _values(_signed(A, perm, signs), _signed(B, perm, signs), T) == want, \
            (perm, signs)


@pytest.mark.parametrize("A, B, offset", _instances())
def test_swapping_the_operands_and_weights_keeps_every_value(A, B, offset):
    want = _values(A, B, T)
    got = _values(B, A, 1 - T)
    got["excess"] = got["excess"][::-1]
    assert got == want


@pytest.mark.parametrize("A, B, offset", _instances())
def test_refinement_keeps_delta_and_sum(A, B, offset):
    def halved(E):
        cells = [tuple(2 * x + e for x, e in zip(c, step))
                 for c in E.cells for step in product((0, 1), repeat=E.dim)]
        return LatticeSet(E.dim, 2 * E.denom, cells)

    A2, B2 = halved(A), halved(B)
    assert (A2, B2) == (A.refine(2), B.refine(2))
    want, got = deficit(A, B, T), deficit(A2, B2, T)
    assert (got.delta_norm, got.volS) == (want.delta_norm, want.volS)
