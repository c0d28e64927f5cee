"""Schwarz, Steiner and composed symmetrizations of lattice sets.

Steiner symmetrization recenters every vertical fiber; Schwarz symmetrization
replaces every horizontal slice by the centered disk (interval for n = 2) of
equal measure.  Fibers and 1D slices recenter exactly on a doubled lattice;
3D disks are delivered as certified inner/outer cell brackets whose gap
shrinks with a refinement parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from ._roots import PI_HI, PI_LO, sqrt_brackets
from .vset import (
    LatticeSet, fiber_profile, intersection_measure, slice_profile, sup_slice_measure,
)

__all__ = ["SymmetrizedBody", "steiner", "schwarz", "natural", "sup_slice_ratio_check"]


@dataclass(frozen=True)
class SymmetrizedBody:
    kind: str  # "steiner" | "schwarz" | "natural"
    exact: LatticeSet | None = None
    bracket: tuple | None = None  # (inner, outer) LatticeSets, inner <= outer

    def __post_init__(self):
        if (self.exact is None) == (self.bracket is None):
            raise ValueError("exactly one of exact/bracket must be set")
        if self.bracket is not None:
            inner, outer = self.bracket
            if intersection_measure(inner, outer) != inner.measure():
                raise ValueError("inner bracket must be contained in outer")

    def measure_bounds(self) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            m = self.exact.measure()
            return m, m
        inner, outer = self.bracket
        return inner.measure(), outer.measure()

    def gap(self) -> Fraction:
        lo, hi = self.measure_bounds()
        return hi - lo


def steiner(E: LatticeSet) -> SymmetrizedBody:
    """Center every vertical fiber at 0; exact on the doubled lattice.

    A column of c cells becomes the 2c fine cells [-c, c) at denom 2m, so odd
    fiber counts stay exact and the measure is preserved cell for cell.
    """
    if E.dim < 2:
        raise ValueError("steiner needs dim >= 2")
    prof = fiber_profile(E)
    base_offs = list(product((0, 1), repeat=E.dim - 1))
    cells = set()
    for y, length in prof.lengths:
        c = int(length * E.denom)  # fiber cell count
        for off in base_offs:
            base = tuple(2 * y[a] + off[a] for a in range(E.dim - 1))
            for v in range(-c, c):
                cells.add(base + (v,))
    return SymmetrizedBody("steiner", exact=LatticeSet(E.dim, 2 * E.denom, frozenset(cells)))


def schwarz(E: LatticeSet, refinement: int = 4) -> SymmetrizedBody:
    """Replace each horizontal slice by the centered disk of equal measure.

    n = 2: slices are 1D, recentring is exact on the doubled lattice.
    n = 3: each slice becomes a disk bracket (cells fully inside / cells
    meeting the disk) on the lattice refined by `refinement`; the radius
    comparison r^2 = area/pi is done against rational brackets of pi, so
    inner <= true disk <= outer is certified.
    """
    if E.dim < 2:
        raise ValueError("schwarz needs dim >= 2")
    if E.dim == 2:
        prof = slice_profile(E)
        cells = set()
        for (s,), area in prof.lengths:
            c = int(area * E.denom)
            for ss in (2 * s, 2 * s + 1):
                for v in range(-c, c):
                    cells.add((v, ss))
        return SymmetrizedBody("schwarz", exact=LatticeSet(2, 2 * E.denom, frozenset(cells)))

    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    m = E.denom
    M = m * refinement
    prof = slice_profile(E)
    inner_cells = set()
    outer_cells = set()
    for (s,), area in prof.lengths:
        if area == 0:
            continue
        # r^2 = area / pi; certified bounds from the pi brackets.
        r2_lo = area / PI_HI
        r2_hi = area / PI_LO
        rad = _disk_radius_cells(r2_hi, M)
        for i in range(-rad - 1, rad + 1):
            for j in range(-rad - 1, rad + 1):
                dmin, dmax = _cell_dist2_range(i, j, M)
                if dmax <= r2_lo:
                    for ss in range(refinement * s, refinement * (s + 1)):
                        inner_cells.add((i, j, ss))
                if dmin <= r2_hi:
                    for ss in range(refinement * s, refinement * (s + 1)):
                        outer_cells.add((i, j, ss))
    inner = LatticeSet(3, M, frozenset(inner_cells))
    outer = LatticeSet(3, M, frozenset(outer_cells))
    return SymmetrizedBody("schwarz", bracket=(inner, outer))


def _disk_radius_cells(r2_hi: Fraction, M: int) -> int:
    lo, hi = sqrt_brackets(r2_hi, bits=32)
    return int(math.ceil(float(hi) * M)) + 1


def _cell_dist2_range(i: int, j: int, M: int):
    """Min and max squared distance from the origin over cell (i, j)."""
    def axis_range(k):
        lo, hi = Fraction(k, M), Fraction(k + 1, M)
        furthest = max(abs(lo), abs(hi))
        nearest = Fraction(0) if lo <= 0 <= hi else min(abs(lo), abs(hi))
        return nearest, furthest
    nx, fx = axis_range(i)
    ny, fy = axis_range(j)
    return nx * nx + ny * ny, fx * fx + fy * fy


def natural(E: LatticeSet, refinement: int = 4) -> SymmetrizedBody:
    """Steiner then Schwarz; fully exact for n = 2."""
    st = steiner(E).exact
    inner = schwarz(st, refinement)
    if inner.exact is not None:
        return SymmetrizedBody("natural", exact=inner.exact)
    return SymmetrizedBody("natural", bracket=inner.bracket)


def sup_slice_ratio_check(A: LatticeSet, B: LatticeSet, t, delta) -> dict:
    """Check that near-equal volumes force comparable sup-slice measures.

    gamma is the sup-slice ratio raised to the complementary weight (operands
    exchanged if needed so gamma <= 1); the verified inequality is
    4*delta >= (tau/2) * |gamma - 1|^2, i.e. |gamma - 1| <= sqrt(8*delta/tau).
    """
    t = Fraction(t)
    delta = Fraction(delta)
    if not (0 < t < 1):
        raise ValueError("t must lie in (0,1)")
    supA = sup_slice_measure(A)
    supB = sup_slice_measure(B)
    if supA == 0 or supB == 0:
        raise ValueError("zero sup-slice measure")
    tau = min(t, 1 - t)
    g1 = float(supA / supB) ** float(1 - t)
    g2 = float(supB / supA) ** float(t)
    gamma = min(g1, g2)
    bound = math.sqrt(8 * float(delta) / float(tau))
    return {
        "gamma": gamma,
        "bound": bound,
        "pass": abs(gamma - 1) <= bound + 1e-12,
    }
