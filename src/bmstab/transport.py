"""Slice densities, 1D monotone rearrangement, and slice-deficit analysis.

Slice densities of lattice sets are piecewise-constant rationals, formed
from the integer cell counts of the occupied rows; their distribution
functions are piecewise linear, and the monotone rearrangement
T = G_B^(-1) o G_A is assembled exactly in one merge over the positive pieces
of both densities.  Everything stays rational except n-th and (n-1)-th roots
in the slice deficit, which carry certified brackets; piecewise-constant
integrands make per-piece midpoint evaluation exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._roots import nth_root_brackets, root_bracket
from .minkowski import convex_combination
from .vset import LatticeSet, _slice_counts

__all__ = [
    "DensityProfile", "TransportMap", "SliceDeficitReport",
    "slice_density", "monotone_rearrangement", "transport_ratio_integral",
    "slice_deficit",
]


@dataclass(frozen=True)
class DensityProfile:
    """Piecewise-constant probability density: values[i] on [breaks[i], breaks[i+1])."""
    breaks: tuple
    values: tuple

    def __post_init__(self):
        breaks = tuple(Fraction(b) for b in self.breaks)
        values = tuple(Fraction(v) for v in self.values)
        if len(breaks) != len(values) + 1:
            raise ValueError("need one more break than value")
        if any(b1 <= b0 for b0, b1 in zip(breaks, breaks[1:])):
            raise ValueError("breaks must be strictly increasing")
        if any(v < 0 for v in values):
            raise ValueError("density values must be >= 0")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)

    def mass(self) -> Fraction:
        return sum((v * (b1 - b0) for v, b0, b1 in
                    zip(self.values, self.breaks, self.breaks[1:])), Fraction(0))

    def integrate(self, lo, hi) -> Fraction:
        """Exact integral of the density over [lo, hi]."""
        lo, hi = Fraction(lo), Fraction(hi)
        if hi <= lo:
            return Fraction(0)
        total = Fraction(0)
        for v, b0, b1 in zip(self.values, self.breaks, self.breaks[1:]):
            a, b = max(lo, b0), min(hi, b1)
            if b > a:
                total += v * (b - a)
        return total


def slice_density(E: LatticeSet) -> DensityProfile:
    """Normalized slice density of a lattice set along its last coordinate.

    A run of adjacent occupied rows with c cells each is one piece of density
    c*m/k, where k = |E| in cells, and each run of empty rows between them is
    one zero piece.
    """
    if E.dim < 2:
        raise ValueError("slice_density needs dim >= 2")
    if E.is_empty():
        raise ValueError("slice_density needs a nonempty set")
    rows, counts = _slice_counts(E)
    # index of the first row of every run; rows[1:] - 1 cannot overflow
    starts = np.flatnonzero(np.concatenate(
        [[True], (rows[1:] - 1 != rows[:-1]) | (counts[1:] != counts[:-1])]))
    ends = np.append(starts[1:], len(rows)) - 1
    m, k = E.denom, E.count
    breaks, values = [rows[0].item()], []
    for lo, hi, c in zip(rows[starts].tolist(), rows[ends].tolist(),
                         counts[starts].tolist()):
        if lo > breaks[-1]:
            breaks.append(lo)
            values.append(0)
        breaks.append(hi + 1)
        values.append(Fraction(c * m, k))
    return DensityProfile(tuple(Fraction(b, m) for b in breaks), tuple(values))


@dataclass(frozen=True)
class TransportMap:
    """Piecewise-linear nondecreasing map with T#(rho_A) = rho_B.

    Each piece (s0, s1, u0, u1, va, vb) transports the mass cell
    va*(s1-s0) = vb*(u1-u0) linearly from [s0, s1] onto [u0, u1]; the
    derivative on the piece is va/vb.  Gaps between consecutive pieces are
    jumps across zero-density plateaus.
    """
    pieces: tuple

    def __call__(self, s) -> Fraction:
        s = Fraction(s)
        for s0, s1, u0, u1, va, vb in self.pieces:
            if s0 <= s <= s1:
                return u0 + (s - s0) * va / vb
        raise ValueError(f"{s} outside the support of the source density")

    def derivative(self, i: int) -> Fraction:
        s0, s1, u0, u1, va, vb = self.pieces[i]
        return va / vb

    def is_monotone(self) -> bool:
        prev = None
        for s0, s1, u0, u1, va, vb in self.pieces:
            if u1 < u0 or (prev is not None and u0 < prev):
                return False
            prev = u1
        return True

    def pushforward_residual(self) -> Fraction:
        """Max |mass-in - mass-out| over pieces; 0 by construction."""
        worst = Fraction(0)
        for s0, s1, u0, u1, va, vb in self.pieces:
            worst = max(worst, abs(va * (s1 - s0) - vb * (u1 - u0)))
        return worst


def monotone_rearrangement(rho_A: DensityProfile, rho_B: DensityProfile) -> TransportMap:
    """T = G_B^(-1) o G_A, in one merge over both densities' positive pieces
    that cuts wherever either piece's mass runs out."""
    if rho_A.mass() != 1 or rho_B.mass() != 1:
        raise ValueError("both densities must have unit mass")
    A, B = _positive_pieces(rho_A), _positive_pieces(rho_B)
    (s, va, ma), (u, vb, mb) = next(A), next(B)
    pieces = []
    while True:
        r = min(ma, mb)
        s1, u1 = s + r / va, u + r / vb
        pieces.append((s, s1, u, u1, va, vb))
        s, u, ma, mb = s1, u1, ma - r, mb - r
        if ma == 0:
            nxt = next(A, None)
            if nxt is None:  # unit masses: B runs out here too
                return TransportMap(tuple(pieces))
            s, va, ma = nxt
        if mb == 0:
            u, vb, mb = next(B)


def _positive_pieces(p: DensityProfile):
    """(start, value, mass) of each positive piece of p, in order."""
    return ((b0, v, v * (b1 - b0))
            for v, b0, b1 in zip(p.values, p.breaks, p.breaks[1:]) if v > 0)


def transport_ratio_integral(T: TransportMap) -> Fraction:
    """Exact integral of |rho_A(s)/rho_B(T(s)) - 1| * rho_A(s) ds.

    Each piece of T carries the densities rho_A = va and rho_B(T) = vb.
    """
    total = Fraction(0)
    for s0, s1, u0, u1, va, vb in T.pieces:
        total += abs(va / vb - 1) * va * (s1 - s0)
    return total


# ---------------------------------------------------------------------------
# slice deficit


@dataclass(frozen=True)
class SliceDeficitReport:
    t: Fraction
    dim: int
    pieces: tuple           # (s0, s1, weight, e_lo, e_hi) per quadrature piece
    mu_pieces: tuple        # (s0, s1, mu1^(n-1), mu_n) per transport piece
    integral_lo: Fraction   # certified bracket of the weighted e-integral
    integral_hi: Fraction
    lhs_lo: Fraction        # |S| - (t|A|^{1/n} + (1-t)|B|^{1/n})^n bracket
    lhs_hi: Fraction
    chain_integral: Fraction   # exact int H^{n-1}(S(T_t(s))) (t + (1-t)T') ds
    volS: Fraction
    mu_identity_residual: Fraction
    ratio_integral: Fraction

    @property
    def quadrature_bound(self) -> Fraction:
        return self.integral_hi - self.integral_lo

    @property
    def e_min_lo(self) -> Fraction:
        return min((p[3] for p in self.pieces), default=Fraction(0))

    @property
    def inequality_holds(self) -> bool:
        """Certified non-violation of the slice-deficit inequality."""
        return self.lhs_hi >= self.integral_lo


def slice_deficit(A: LatticeSet, B: LatticeSet, t) -> SliceDeficitReport:
    """Per-slice deficit decomposition of the combination S = t*A + (1-t)*B.

    For each transport piece the three slice measures are constants, so the
    deficit profile e(s) and its weighted integral are exact up to the
    certified root brackets entering through fractional powers (n = 3).
    """
    t = Fraction(t)
    n = A.dim
    if n not in (2, 3):
        raise ValueError("slice_deficit supports dim 2 and 3")
    S = convex_combination(A, B, t)
    volA, volB, volS = A.measure(), B.measure(), S.measure()
    rho_A = slice_density(A)
    rho_B = slice_density(B)
    T = monotone_rearrangement(rho_A, rho_B)

    s_rows = dict(zip(*(x.tolist() for x in _slice_counts(S))))
    mS, area = S.denom, S.denom ** (n - 1)

    pieces = []
    mu_pieces = []
    int_lo = int_hi = Fraction(0)
    chain = Fraction(0)
    mu_res = Fraction(0)
    ratio = ((1 - t) / t) ** n * volB / volA
    for s0, s1, u0, u1, va, vb in T.pieces:
        Tp = va / vb
        w = t + (1 - t) * Tp
        aA = va * volA           # H^{n-1}(A(s)) on the piece
        aB = vb * volB           # H^{n-1}(B(T(s))) on the piece
        # mu-factor identity: mu_n * mu_1^{n-1} = ((1-t)/t)^n |B|/|A|.
        mu1_pow = ((1 - t) / t) ** (n - 1) * aB / aA
        mu_n = (1 - t) / t * (aA * volB) / (aB * volA)
        mu_pieces.append((s0, s1, mu1_pow, mu_n))
        mu_res = max(mu_res, abs(mu_n * mu1_pow - ratio))
        # Split where T_t crosses the slice lattice of S.
        for q0, q1 in _subsplit(s0, s1, u0, va, vb, t, mS):
            mid = (q0 + q1) / 2
            u_mid = t * mid + (1 - t) * (u0 + (mid - s0) * Tp)
            row = u_mid * mS
            aS = Fraction(s_rows.get(math.floor(row), 0), area)
            chain += aS * w * (q1 - q0)
            e_lo, e_hi = _slice_gap(aS, aA, aB, t, n)
            int_lo += e_lo * w * (q1 - q0)
            int_hi += e_hi * w * (q1 - q0)
            pieces.append((q0, q1, w, e_lo, e_hi))

    # (t|A|^{1/n} + (1-t)|B|^{1/n}) bracketed from the cell counts
    mix_lo, mix_hi = (
        t * Fraction(a, A.denom << 64) + (1 - t) * Fraction(b, B.denom << 64)
        for a, b in zip(root_bracket(A.count, A.denom, n),
                        root_bracket(B.count, B.denom, n)))
    lhs_lo = volS - mix_hi ** n
    lhs_hi = volS - mix_lo ** n

    return SliceDeficitReport(
        t=t, dim=n, pieces=tuple(pieces), mu_pieces=tuple(mu_pieces),
        integral_lo=int_lo, integral_hi=int_hi,
        lhs_lo=lhs_lo, lhs_hi=lhs_hi,
        chain_integral=chain, volS=volS,
        mu_identity_residual=mu_res,
        ratio_integral=transport_ratio_integral(T),
    )


def _subsplit(s0, s1, u0, va, vb, t, mS):
    """Cut [s0, s1] where T_t(s) crosses multiples of 1/mS (exact rationals)."""
    Tp = va / vb
    slope = t + (1 - t) * Tp
    c0 = t * s0 + (1 - t) * u0
    c1 = c0 + slope * (s1 - s0)
    cuts = [s0]
    j0 = math.floor(c0 * mS) + 1
    j1 = math.floor(c1 * mS)
    for j in range(j0, j1 + 1):
        s = s0 + (Fraction(j, mS) - c0) / slope
        if s0 < s < s1:
            cuts.append(s)
    cuts.append(s1)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _slice_gap(aS, aA, aB, t, n):
    """Certified bracket of aS - (t aA^{1/(n-1)} + (1-t) aB^{1/(n-1)})^{n-1}."""
    if n == 2:
        v = aS - (t * aA + (1 - t) * aB)
        return v, v
    # n = 3: expand the square; only sqrt(aA*aB) is irrational.
    cross_lo, cross_hi = nth_root_brackets(aA * aB, 2)
    base = aS - t * t * aA - (1 - t) * (1 - t) * aB
    return base - 2 * t * (1 - t) * cross_hi, base - 2 * t * (1 - t) * cross_lo
