"""Exact lattice representation of compact sets in R^n, n in {1, 2, 3}.

A set is a finite union of closed axis-aligned cubes ("cells") of side 1/m on
the lattice (1/m)Z^n; cell k covers prod_i [k_i/m, (k_i+1)/m].  Boundaries of
adjacent cells overlap in measure zero, so all measure arithmetic is exact
cell counting over the rationals.  Values are immutable and all operations
are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

__all__ = [
    "LatticeSet", "FiberProfile", "measure", "symmetric_difference_measure",
    "fiber_profile", "slice_measure", "superlevel_set", "normalize_Mtau",
    "reconcile", "write_vset", "parse_vset",
]


@dataclass(frozen=True)
class LatticeSet:
    dim: int
    denom: int
    cells: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.denom < 1:
            raise ValueError("denom must be a positive integer")
        # frozensets from internal ops are already canonical tuples of ints;
        # normalize anything else.
        if not isinstance(self.cells, frozenset):
            object.__setattr__(
                self, "cells",
                frozenset(tuple(int(x) for x in c) for c in self.cells))
        for c in self.cells:
            if len(c) != self.dim:
                raise ValueError(f"cell {c} has arity {len(c)}, expected {self.dim}")

    # -- basic queries ------------------------------------------------------

    def measure(self) -> Fraction:
        return Fraction(len(self.cells), self.denom ** self.dim)

    def is_empty(self) -> bool:
        return not self.cells

    def bounding_box(self):
        """Per-axis (lo, hi) cell-index ranges, hi exclusive."""
        if not self.cells:
            raise ValueError("empty set has no bounding box")
        los = [min(c[a] for c in self.cells) for a in range(self.dim)]
        his = [max(c[a] for c in self.cells) + 1 for a in range(self.dim)]
        return list(zip(los, his))

    def refine(self, k: int) -> "LatticeSet":
        """Multiply denom by k; the represented point set (and measure) is unchanged."""
        if k < 1:
            raise ValueError("refinement factor must be >= 1")
        if k == 1:
            return self
        offs = list(product(range(k), repeat=self.dim))
        cells = frozenset(
            tuple(k * c[a] + o[a] for a in range(self.dim))
            for c in self.cells for o in offs
        )
        return LatticeSet(self.dim, self.denom * k, cells)

    def translate(self, offset) -> "LatticeSet":
        """Translate by integer cell offsets on the current lattice."""
        off = tuple(int(o) for o in offset)
        if len(off) != self.dim:
            raise ValueError("offset arity mismatch")
        return LatticeSet(self.dim, self.denom,
                          frozenset(tuple(c[a] + off[a] for a in range(self.dim))
                                    for c in self.cells))

    def corner_points(self):
        """All cell corners as integer lattice points (coordinates x denom)."""
        offs = list(product((0, 1), repeat=self.dim))
        return {tuple(c[a] + o[a] for a in range(self.dim))
                for c in self.cells for o in offs}

    def hull_points(self):
        """Integer points (coordinates x denom) with the hull of all cell corners.

        For each last-axis column y, the 2^(n-1) base corners y+o at the
        heights lo and hi+1 of its lowest and highest cell: every corner of
        the column lies on a segment between two of them.
        """
        ends = {}
        for c in self.cells:
            y, z = c[:-1], c[-1]
            e = ends.get(y)
            if e is None:
                ends[y] = [z, z]
            elif z < e[0]:
                e[0] = z
            elif z > e[1]:
                e[1] = z
        offs = list(product((0, 1), repeat=self.dim - 1))
        return {tuple(a + b for a, b in zip(y, o)) + (z,)
                for y, (lo, hi) in ends.items() for o in offs for z in (lo, hi + 1)}


@dataclass(frozen=True)
class FiberProfile:
    """Map from (n-1)-dim base cell indices to exact fiber lengths H^1(E_y).

    The same structure transposed (index = last-coordinate row) stores slice
    areas H^{n-1}(E(s)).
    """
    base_dim: int
    denom: int
    lengths: tuple  # sorted tuple of (index_tuple, Fraction)

    def as_dict(self):
        return dict(self.lengths)

    def total_measure(self) -> Fraction:
        return sum((l for _, l in self.lengths), Fraction(0)) / self.denom ** self.base_dim


# ---------------------------------------------------------------------------
# operations


def measure(E: LatticeSet) -> Fraction:
    return E.measure()


def reconcile(E: LatticeSet, F: LatticeSet):
    """Refine both operands to the lcm lattice (never resamples)."""
    if E.dim != F.dim:
        raise ValueError("dimension mismatch")
    m = math.lcm(E.denom, F.denom)
    return E.refine(m // E.denom), F.refine(m // F.denom)


def symmetric_difference_measure(E: LatticeSet, F: LatticeSet) -> Fraction:
    E2, F2 = reconcile(E, F)
    return Fraction(len(E2.cells ^ F2.cells), E2.denom ** E2.dim)


def intersection_measure(E: LatticeSet, F: LatticeSet) -> Fraction:
    E2, F2 = reconcile(E, F)
    return Fraction(len(E2.cells & F2.cells), E2.denom ** E2.dim)


def fiber_profile(E: LatticeSet) -> FiberProfile:
    """Fiber lengths H^1(E_y) over base cells y in the first n-1 coordinates."""
    if E.dim < 2:
        raise ValueError("fiber_profile needs dim >= 2")
    counts = {}
    for c in E.cells:
        counts[c[:-1]] = counts.get(c[:-1], 0) + 1
    lengths = tuple(sorted((y, Fraction(k, E.denom)) for y, k in counts.items()))
    return FiberProfile(E.dim - 1, E.denom, lengths)


def slice_profile(E: LatticeSet) -> FiberProfile:
    """Transposed profile: slice areas H^{n-1}(E(s)) per last-coordinate row."""
    if E.dim < 2:
        raise ValueError("slice_profile needs dim >= 2")
    counts = {}
    for c in E.cells:
        counts[(c[-1],)] = counts.get((c[-1],), 0) + 1
    areas = tuple(sorted((s, Fraction(k, E.denom ** (E.dim - 1))) for s, k in counts.items()))
    return FiberProfile(1, E.denom, areas)


def slice_measure(E: LatticeSet, s_row: int) -> Fraction:
    """H^{n-1} of the slice through the lattice row s_row (last coordinate)."""
    if E.dim < 2:
        raise ValueError("slice_measure needs dim >= 2")
    k = sum(1 for c in E.cells if c[-1] == s_row)
    return Fraction(k, E.denom ** (E.dim - 1))


def superlevel_set(E: LatticeSet, lam) -> LatticeSet:
    """Base cells whose fiber length strictly exceeds lam, at the same denom."""
    if E.dim < 2:
        raise ValueError("superlevel_set needs dim >= 2")
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    prof = fiber_profile(E)
    cells = frozenset(y for y, l in prof.lengths if l > lam)
    return LatticeSet(E.dim - 1, E.denom, cells)


def base_projection(E: LatticeSet) -> LatticeSet:
    """Projection onto the first n-1 coordinates, as an (n-1)-dim LatticeSet."""
    return superlevel_set(E, 0)


def sup_fiber_length(E: LatticeSet) -> Fraction:
    prof = fiber_profile(E)
    return max((l for _, l in prof.lengths), default=Fraction(0))


def sup_slice_measure(E: LatticeSet) -> Fraction:
    prof = slice_profile(E)
    return max((l for _, l in prof.lengths), default=Fraction(0))


def _scaling_blowup(lam: Fraction, n: int) -> int:
    """Lattice refinement factor that makes (lam*y, lam^(1-n)*s) cell-exact.

    Base-axis pitch lam/m and last-axis pitch lam^(1-n)/m both land on the
    lattice of denom m*mult iff denominator(lam) | mult and
    numerator(lam)^(n-1) | mult; gcd(num, den) = 1 makes the minimum their
    product.
    """
    return lam.numerator ** (n - 1) * lam.denominator


def _feasible_snap(lam_star: Fraction, n: int, cap: int):
    """Closest rational to lam_star whose per-cell blowup fits the cap.

    The materialized set has _scaling_blowup(lam, n)**n fine cells per source
    cell, so that is the quantity capped; candidates come from continued-
    fraction convergents at successively coarser denominators, plus integer
    and reciprocal-integer snaps for the strongly anisotropic cases.
    """
    best = None
    candidates = set()
    for d in (1 << 16, 4096, 512, 64, 16, 8, 4, 3, 2, 1):
        candidates.add(Fraction(lam_star).limit_denominator(d))
    if lam_star >= 1:
        candidates.add(Fraction(max(1, round(lam_star))))
    else:
        inv = 1 / lam_star
        candidates.add(Fraction(1, max(1, round(inv))))
    for cand in candidates:
        if cand <= 0:
            continue
        if _scaling_blowup(cand, n) ** n > cap:
            continue
        err = abs(cand - lam_star)
        if best is None or err < best[1] or (err == best[1] and cand < best[0]):
            best = (cand, err)
    if best is None:
        raise ValueError(
            f"no representable scaling near lambda={float(lam_star):.6g} "
            f"within per-cell blowup cap {cap}")
    return best


def normalize_Mtau(A: LatticeSet, B: LatticeSet, t, tau, max_cell_blowup: int = 4096):
    """Volume-preserving axis scaling (y, s) -> (lam*y, lam^(1-n)*s).

    lam targets lam^(n-1) * H^(n-1)(proj A) = 1/tau^n and is snapped to the
    nearest rational whose exact lattice refinement stays within
    max_cell_blowup; the snap error is recorded.  The map has unit Jacobian
    for any lam, so measures are preserved exactly.  Returns
    (lam, A', B', report) with the scaled projection / sup-fiber quantities
    and their product bounds, all exact rationals.
    """
    t = Fraction(t)
    tau = Fraction(tau)
    if A.dim != B.dim or A.dim < 2:
        raise ValueError("normalize_Mtau needs equal dim >= 2")
    if A.measure() < Fraction(1, 2) or B.measure() < Fraction(1, 2):
        raise ValueError("normalize_Mtau expects |A|, |B| >= 1/2")
    projA = base_projection(A)
    if projA.is_empty():
        raise ValueError("empty projection")
    PA = projA.measure()
    n = A.dim
    target = 1 / tau ** n
    if n == 2:
        lam_star = target / PA
    else:
        from ._roots import sqrt_brackets
        lo, hi = sqrt_brackets(target / PA, bits=48)
        lam_star = (lo + hi) / 2
    lam, snap_err = _feasible_snap(lam_star, n, max_cell_blowup)

    A2 = _materialize_scaling(A, lam)
    B2 = _materialize_scaling(B, lam)

    supA = sup_fiber_length(A)
    supB = sup_fiber_length(B)
    PB = base_projection(B).measure()
    scale_proj = lam ** (n - 1)
    scale_fiber = lam ** (1 - n)
    report = {
        "lambda": lam,
        "lambda_target": lam_star,
        "snap_error": snap_err,
        "proj_A": PA * scale_proj,        # equals 1/tau^n up to the snap
        "proj_B": PB * scale_proj,
        "sup_fiber_A": supA * scale_fiber,
        "sup_fiber_B": supB * scale_fiber,
        "product_AA": supA * PA,          # invariant under the scaling
        "product_BB": supB * PB,
        "product_AB": supA * PB,
        "product_BA": supB * PA,
        "product_AA_ge_volA": supA * PA >= A.measure(),
        "product_BB_ge_volB": supB * PB >= B.measure(),
        "normalized_sum": (PA + PB) * scale_proj + (supA + supB) * scale_fiber,
        "cell_blowup": _scaling_blowup(lam, n) ** n,
    }
    return lam, A2, B2, report


def _materialize_scaling(E: LatticeSet, lam: Fraction) -> LatticeSet:
    """Apply (y, s) -> (lam*y, lam^(1-n)*s) exactly on a refined lattice."""
    n = E.dim
    a, b = lam.numerator, lam.denominator
    mult = _scaling_blowup(lam, n)
    m = E.denom
    M = m * mult
    cells = set()
    for c in E.cells:
        # Image box of cell c: base axes [lam*c_i/m, lam*(c_i+1)/m], last
        # axis [lam^(1-n)*c_s/m, lam^(1-n)*(c_s+1)/m]; all endpoints land on
        # the 1/M lattice by the choice of mult.
        lo_hi = []
        for axis in range(n - 1):
            lo = a * c[axis] * mult // b
            hi = a * (c[axis] + 1) * mult // b
            lo_hi.append((lo, hi))
        lo = b ** (n - 1) * c[-1] * mult // a ** (n - 1)
        hi = b ** (n - 1) * (c[-1] + 1) * mult // a ** (n - 1)
        lo_hi.append((lo, hi))
        cells.update(product(*(range(lo, hi) for lo, hi in lo_hi)))
    out = LatticeSet(n, M, frozenset(cells))
    assert out.measure() == E.measure()
    return out


# ---------------------------------------------------------------------------
# .vset text format


def write_vset(E: LatticeSet) -> str:
    """Serialize; cells in lexicographic order for a bit-exact round trip."""
    lines = [f"vset {E.dim} {E.denom}", f"cells {len(E.cells)}"]
    for c in sorted(E.cells):
        lines.append(" ".join(str(x) for x in c))
    return "\n".join(lines) + "\n"


def parse_vset(text: str) -> LatticeSet:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("truncated vset payload")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "vset":
        raise ValueError(f"bad vset header: {lines[0]!r}")
    dim, denom = int(head[1]), int(head[2])
    chead = lines[1].split()
    if len(chead) != 2 or chead[0] != "cells":
        raise ValueError(f"bad cells header: {lines[1]!r}")
    count = int(chead[1])
    body = lines[2:]
    if len(body) != count:
        raise ValueError(f"expected {count} cells, got {len(body)}")
    cells = []
    for ln in body:
        parts = ln.split()
        if len(parts) != dim:
            raise ValueError(f"cell {ln!r} has wrong arity")
        cells.append(tuple(int(p) for p in parts))
    if len(set(cells)) != len(cells):
        raise ValueError("duplicate cells in vset payload")
    return LatticeSet(dim, denom, frozenset(cells))
