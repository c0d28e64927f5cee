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

import numpy as np

from ._roots import PI_HI, PI_LO, nth_root_brackets
from .vset import (
    LatticeSet, _ball_cells, _columns, _integer, _lay_out, _slice_counts,
    intersection_measure, sup_slice_measure,
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
    # each base cell split in 2^(n-1), heights kept: the columns of the
    # result, in order, each with its source column's count c
    F = E._boxes((2,) * (E.dim - 1) + (1,), 2 * E.denom)
    base, counts = _columns(F)
    return SymmetrizedBody("steiner", exact=LatticeSet._from_runs(
        E.dim, F.denom, base, -counts, 2 * counts))


def schwarz(E: LatticeSet, refinement: int = 4) -> SymmetrizedBody:
    """Replace each horizontal slice by the centered disk of equal measure.

    n = 2: slices are 1D, recentring is exact on the doubled lattice; a
    slice of c cells becomes the 2c fine cells [-c, c).
    n = 3: each slice becomes a disk bracket (cells fully inside / cells
    meeting the disk) on the lattice refined by `refinement`; the radius
    comparison r^2 = area/pi is done against rational brackets of pi, so
    inner <= true disk <= outer is certified.
    """
    return _schwarz("schwarz", E, refinement)


def natural(E: LatticeSet, refinement: int = 4) -> SymmetrizedBody:
    """Steiner then Schwarz; fully exact for n = 2."""
    return _schwarz("natural", E, refinement)


def _schwarz(kind: str, E: LatticeSet, refinement: int) -> SymmetrizedBody:
    """`schwarz` of E, or of `steiner(E)` for "natural", as a body of that kind."""
    refinement = _integer(refinement, "refinement")
    if E.dim < 2:
        raise ValueError(f"{kind} needs dim >= 2")
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    if kind == "natural":
        E = steiner(E).exact
    if E.dim == 2:
        # each slice doubled to two fine rows, each keeping its count c
        rows, counts = _slice_counts(E._boxes((1, 2), 2 * E.denom))
        x = _lay_out(-counts, 2 * counts, 2 * int(counts.sum()))
        cells = np.column_stack([x, np.repeat(rows, 2 * counts)])
        return SymmetrizedBody(kind, exact=LatticeSet(2, 2 * E.denom, cells))

    M = E.denom * refinement
    # slice s as the fine rows refinement*s + t, each with the slice's count
    rows, counts = _slice_counts(E._boxes((1, 1, refinement), M))
    sides = ([np.empty((0, 3), dtype=np.int64)], [np.empty((0, 3), dtype=np.int64)])
    for c in np.unique(counts).tolist():
        ss = rows[counts == c]
        area = Fraction(c, E.denom ** 2)
        for cells, pi, outer in zip(sides, (PI_HI, PI_LO), (False, True)):
            disk = _ball_cells(2, M, area / pi, 1, outer)
            cells.append(np.column_stack([np.repeat(disk, len(ss), axis=0),
                                          np.tile(ss, len(disk))]))
    inner, outer = (LatticeSet(3, M, np.concatenate(cells)) for cells in sides)
    return SymmetrizedBody(kind, bracket=(inner, outer))


def sup_slice_ratio_check(A: LatticeSet, B: LatticeSet, t, delta) -> dict:
    """Check that near-equal volumes force comparable sup-slice measures.

    gamma is the sup-slice ratio raised to the complementary weight (operands
    exchanged if needed so gamma <= 1); the verified inequality is
    4*delta >= (tau/2) * |gamma - 1|^2, i.e. |gamma - 1| <= sqrt(8*delta/tau).
    For t = p/q, gamma is the q-th root of a rational power of the ratio, so
    it comes as a certified bracket, and `pass` is False only when the
    bracket proves (1 - gamma)^2 > 8*delta/tau.  `gamma` and `bound` are
    reported as floats.
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
    p, q = t.numerator, t.denominator
    if supA <= supB:
        ratio, power = supA / supB, q - p  # gamma = (supA/supB)^(1-t)
    else:
        ratio, power = supB / supA, p  # gamma = (supB/supA)^t
    lo, hi = nth_root_brackets(ratio ** power, q)
    return {
        "gamma": float((lo + hi) / 2),
        "bound": math.sqrt(8 * float(delta) / float(tau)),
        "pass": (1 - min(hi, 1)) ** 2 <= 8 * delta / tau,
    }
