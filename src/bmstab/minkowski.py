"""Exact Minkowski convex combinations, volume deficits, and the 1D engine.

The lattice-set combination S = t*A + (1-t)*B with rational t = p/q is exact:
after the operands share a denom m, every cell pair contributes the cube of
side 1/m whose fine corner (at denom m*q) is p*i + (q-p)*j.  One engine
computes it fiber by fiber.  A run [a0, a1) of A over base cell y and a run
[b0, b1) of B over base cell z combine into the single fine interval
[p*a0 + (q-p)*b0, p*(a1-1) + (q-p)*(b1-1) + q) over the base corner
p*y + (q-p)*z; it is contiguous because consecutive corner sums differ by p
or q-p, both below the block length q.  Run pairs are enumerated in chunks of
at most _PAIR_CHUNK, so memory stays bounded by the guarded output grid
whatever the pair count.  The runs are read straight off each operand's
sorted cell array, and the engine's result is the covered output grid.
Only `convex_combination` turns it into S's cells (already sorted, read off
in C order); `deficit` needs |S| alone and counts the grid's true entries.
No cell passes through a Python tuple.
Everything is exact integer arithmetic: S's extent is sized in Python ints
first, and a combination whose cells would leave int64 is refused.
Randomized tests compare the engine, at every chunking, against a
pure-Python brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ._roots import nth_root_brackets
from .vset import LatticeSet, _check_int64, _column_breaks, reconcile

__all__ = [
    "convex_combination", "convex_combination_bruteforce", "deficit",
    "DeficitRecord", "IntervalSet", "interval_sumset", "kemperman_stability",
    "write_iset", "parse_iset",
]

_DENOM_GUARD = 1 << 20
_GRID_GUARD = 1 << 25
_PAIR_CHUNK = 1 << 20  # run pairs combined per vectorized step


def _as_lowest_terms(t) -> Fraction:
    t = Fraction(t)
    if not (0 < t < 1):
        raise ValueError(f"t must lie in (0,1), got {t}")
    return t


def convex_combination(A: LatticeSet, B: LatticeSet, t) -> LatticeSet:
    """Exact S = t*A + (1-t)*B at denom m*q (t = p/q in lowest terms).

    t must be rational; a caller holding an irrational weight picks a
    rational approximation first (the combination measure is continuous in
    t, so the approximation error is the caller's to budget).
    """
    return LatticeSet.from_mask(*_combination_grid(A, B, t))


def _combination_grid(A: LatticeSet, B: LatticeSet, t):
    """The engine: (covered grid, denom, origin) of S = t*A + (1-t)*B.

    S is the cells origin + i for the true entries i of the grid, at denom
    m*q; the grid has no entries when an operand is empty.
    """
    t = _as_lowest_terms(t)
    p, q = t.numerator, t.denominator
    A, B = reconcile(A, B)
    m = A.denom
    if q * m > _DENOM_GUARD:
        raise ValueError(f"fine denom {q * m} exceeds guard {_DENOM_GUARD}")
    n = A.dim
    if A.is_empty() or B.is_empty():
        return np.zeros((0,) * n, dtype=bool), m * q, 0

    # S's cells span [lo, lo + shape) per axis; sized with Python ints, so
    # coordinates that would leave int64 are refused before any numpy step
    box_a, box_b = A.bounding_box(), B.bounding_box()
    lo, shape = [], []
    for (a0, a1), (b0, b1) in zip(box_a, box_b):
        lo.append(p * a0 + (q - p) * b0)
        shape.append(p * (a1 - 1) + (q - p) * (b1 - 1) + q - lo[-1])
    _check_int64(min(lo), max(l + s - 1 for l, s in zip(lo, shape)))
    if math.prod(shape) > _GRID_GUARD:
        raise ValueError("combination grid too large; reduce denom or set size")
    runs_a = _fiber_runs(A, p, box_a)
    runs_b = _fiber_runs(B, q - p, box_b)

    # reach[y, s]: the furthest end of a fine interval starting at s over
    # base corner y; a fine cell x is covered iff some interval starting at
    # or before x reaches past it.  A run pair's key is the flat index of its
    # interval start, so pairs combine by adding per-run keys and ends.
    row = shape[-1]
    base_ext = tuple(s - q + 1 for s in shape[:-1])
    reach = np.zeros(base_ext + (row,), dtype=np.int32)
    flat = reach.reshape(-1)
    strides = np.array([math.prod(base_ext[a + 1:]) for a in range(n - 1)],
                       dtype=np.int64)
    key_a = (runs_a.base @ strides) * row + runs_a.first
    key_b = (runs_b.base @ strides) * row + runs_b.first
    # ends as int32, the dtype of reach, keep np.maximum.at off its casting
    # path; every end is at most row <= _GRID_GUARD = 2^25 < 2^31
    end_a = (runs_a.last + q).astype(np.int32)
    end_b = runs_b.last.astype(np.int32)
    nb = min(len(key_b), _PAIR_CHUNK)
    na = max(1, _PAIR_CHUNK // nb)
    for i in range(0, len(key_a), na):
        for j in range(0, len(key_b), nb):
            keys = key_a[i:i + na, None] + key_b[None, j:j + nb]
            ends = end_a[i:i + na, None] + end_b[None, j:j + nb]
            np.maximum.at(flat, keys.ravel(), ends.ravel())
    np.maximum.accumulate(reach, axis=-1, out=reach)
    cover = reach > np.arange(row, dtype=np.int32)

    # Each base corner spans the q^(n-1) block of fine base cells filling a
    # face of side 1/m.
    out = np.zeros(shape, dtype=bool)
    for off in np.ndindex(*(q,) * (n - 1)):
        out[tuple(slice(o, o + e) for o, e in zip(off, base_ext))] |= cover
    return out, m * q, lo


class _Runs(NamedTuple):
    """Maximal runs of cells along the last axis, coordinates scaled by w.

    base[r] is the run's scaled (n-1)-dim base cell and [first[r], last[r]]
    its scaled first and last cell on the fiber, all shifted so the set's
    per-axis minima sit at 0.
    """
    base: np.ndarray
    first: np.ndarray
    last: np.ndarray


def _fiber_runs(E: LatticeSet, w: int, box) -> _Runs:
    """E's runs scaled by w; box is E.bounding_box()."""
    c = E.array  # sorted, so each run is a block of consecutive rows
    brk = _column_breaks(c)
    brk[1:] |= c[1:, -1] != c[:-1, -1] + 1
    starts = np.flatnonzero(brk)
    stops = np.append(starts[1:], len(c)) - 1
    lo = np.array([l for l, _ in box], dtype=np.int64)
    return _Runs(base=(c[starts, :-1] - lo[:-1]) * w,
                 first=(c[starts, -1] - lo[-1]) * w,
                 last=(c[stops, -1] - lo[-1]) * w)


def convex_combination_bruteforce(A: LatticeSet, B: LatticeSet, t) -> LatticeSet:
    """Pure-Python pairwise cube-sum rasterization (test oracle)."""
    t = _as_lowest_terms(t)
    p, q = t.numerator, t.denominator
    A, B = reconcile(A, B)
    n = A.dim
    if A.is_empty() or B.is_empty():
        return LatticeSet(n, A.denom * q)
    offs = list(np.ndindex(*(q,) * n))
    cells = set()
    for i in A.cells:
        for j in B.cells:
            base = tuple(p * i[a] + (q - p) * j[a] for a in range(n))
            for off in offs:
                cells.add(tuple(base[a] + off[a] for a in range(n)))
    return LatticeSet(n, A.denom * q, frozenset(cells))


# ---------------------------------------------------------------------------
# deficits


@dataclass(frozen=True)
class DeficitRecord:
    t: Fraction
    tau: Fraction
    volA: Fraction
    volB: Fraction
    volS: Fraction
    delta_norm: Fraction
    delta_raw_lo: Fraction
    delta_raw_hi: Fraction

    @property
    def delta_raw(self) -> float:
        return float((self.delta_raw_lo + self.delta_raw_hi) / 2)

    @property
    def delta_raw_err(self) -> float:
        return float((self.delta_raw_hi - self.delta_raw_lo) / 2)

    @property
    def exact(self) -> bool:
        return self.delta_raw_lo == self.delta_raw_hi


def deficit(A: LatticeSet, B: LatticeSet, t) -> DeficitRecord:
    """Both deficit flavors for (A, B, t), S = t*A + (1-t)*B.

    |S| is the count of the engine's covered grid; S's cells are not built.

    delta_norm = ||A|-1| + ||B|-1| + ||S|-1| is exact; the root-form gap
    |S|^(1/n) - t|A|^(1/n) - (1-t)|B|^(1/n) comes with a certified rational
    bracket [delta_raw_lo, delta_raw_hi] from 64-bit root brackets.
    """
    t = _as_lowest_terms(t)
    if A.is_empty() or B.is_empty():
        raise ValueError("deficit needs nonempty operands")
    out, denom, _ = _combination_grid(A, B, t)
    n = A.dim
    vA, vB = A.measure(), B.measure()
    vS = Fraction(int(np.count_nonzero(out)), denom ** n)
    one = Fraction(1)
    delta_norm = abs(vA - one) + abs(vB - one) + abs(vS - one)
    sA = nth_root_brackets(vA, n)
    sB = nth_root_brackets(vB, n)
    sS = nth_root_brackets(vS, n)
    lo = sS[0] - t * sA[1] - (1 - t) * sB[1]
    hi = sS[1] - t * sA[0] - (1 - t) * sB[0]
    return DeficitRecord(
        t=t, tau=min(t, 1 - t), volA=vA, volB=vB, volS=vS,
        delta_norm=delta_norm, delta_raw_lo=lo, delta_raw_hi=hi,
    )


# ---------------------------------------------------------------------------
# exact 1D interval engine


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint closed intervals with rational endpoints."""
    components: tuple

    def __post_init__(self):
        comps = tuple((Fraction(a), Fraction(b)) for a, b in self.components)
        for a, b in comps:
            if a > b:
                raise ValueError(f"interval [{a}, {b}] reversed")
        for (a0, b0), (a1, b1) in zip(comps, comps[1:]):
            if not b0 < a1:
                raise ValueError("components must be sorted and disjoint")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_intervals(cls, pairs) -> "IntervalSet":
        """Normalize arbitrary closed intervals: sort, merge overlap/contact."""
        pairs = sorted((Fraction(a), Fraction(b)) for a, b in pairs if a <= b)
        merged = []
        for a, b in pairs:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return cls(tuple((a, b) for a, b in merged))

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.components), Fraction(0))

    def is_empty(self) -> bool:
        return not self.components

    def hull(self):
        if not self.components:
            raise ValueError("empty interval set has no hull")
        return self.components[0][0], self.components[-1][1]

    def translate(self, v) -> "IntervalSet":
        v = Fraction(v)
        return IntervalSet(tuple((a + v, b + v) for a, b in self.components))


def interval_sumset(A: IntervalSet, B: IntervalSet) -> IntervalSet:
    """Exact A + B as a normalized interval union."""
    if A.is_empty() or B.is_empty():
        raise ValueError("interval_sumset needs nonempty operands")
    sums = [(a0 + a1, b0 + b1)
            for a0, b0 in A.components for a1, b1 in B.components]
    return IntervalSet.from_intervals(sums)


def kemperman_stability(A: IntervalSet, B: IntervalSet) -> dict:
    """1D near-equality check: delta = |A+B| - |A| - |B| bounds hull excesses.

    Applicable iff delta < min(|A|, |B|) -- strict, because the underlying
    hypothesis is a strict inequality and equality cases genuinely violate
    the conclusion (e.g. A = [0,2] u [2+g, 4+g] against any B with
    |B| = g <= 2, where the hull excess is g while delta = g as well only
    when the sum's two branches stay disjoint, i.e. g >= |B|).  When
    applicable, the hulls I, J of A, B must satisfy |I \\ A| <= delta and
    |J \\ B| <= delta.
    """
    if A.is_empty() or B.is_empty():
        raise ValueError("kemperman_stability needs nonempty operands")
    S = interval_sumset(A, B)
    delta = S.measure() - A.measure() - B.measure()
    I = A.hull()
    J = B.hull()
    excessA = (I[1] - I[0]) - A.measure()
    excessB = (J[1] - J[0]) - B.measure()
    applicable = delta < min(A.measure(), B.measure())
    passed = bool(applicable and excessA <= delta and excessB <= delta)
    return {
        "applicable": bool(applicable),
        "delta": delta,
        "I": I,
        "J": J,
        "excessA": excessA,
        "excessB": excessB,
        "pass": passed,
    }


def write_iset(A: IntervalSet) -> str:
    lines = [f"iset {len(A.components)}"]
    for a, b in A.components:
        lines.append(f"{a.numerator}/{a.denominator} {b.numerator}/{b.denominator}")
    return "\n".join(lines) + "\n"


def parse_iset(text: str) -> IntervalSet:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty iset payload")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "iset":
        raise ValueError(f"bad iset header: {lines[0]!r}")
    count = int(head[1])
    if len(lines) - 1 != count:
        raise ValueError(f"expected {count} components, got {len(lines) - 1}")
    comps = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad component line: {ln!r}")
        comps.append((Fraction(parts[0]), Fraction(parts[1])))
    return IntervalSet(tuple(comps))
