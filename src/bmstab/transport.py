"""Slice densities, 1D monotone rearrangement, and slice-deficit analysis.

Slice densities of lattice sets are piecewise-constant rationals, their
distribution functions are piecewise linear, and the monotone rearrangement
T = G_B^(-1) o G_A is assembled exactly by composing quantiles on the merged
mass grid.  Everything stays rational except (n-1)-th roots in the slice
deficit, which carry certified brackets; piecewise-constant integrands make
per-piece midpoint evaluation exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._roots import nth_root_brackets
from .minkowski import convex_combination
from .vset import LatticeSet, slice_profile

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

    def cumulative(self) -> tuple:
        """Masses at the breaks: G(breaks[0]) = 0 ... G(breaks[-1]) = mass."""
        out = [Fraction(0)]
        for v, b0, b1 in zip(self.values, self.breaks, self.breaks[1:]):
            out.append(out[-1] + v * (b1 - b0))
        return tuple(out)

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
    """Normalized slice density of a lattice set along its last coordinate."""
    if E.dim < 2:
        raise ValueError("slice_density needs dim >= 2")
    if E.is_empty():
        raise ValueError("slice_density needs a nonempty set")
    vol = E.measure()
    prof = dict(slice_profile(E).lengths)
    rows = sorted(s for (s,) in prof)
    lo, hi = rows[0], rows[-1] + 1
    m = E.denom
    breaks = [Fraction(j, m) for j in range(lo, hi + 1)]
    values = [prof.get((j,), Fraction(0)) / vol for j in range(lo, hi)]
    return _compress(DensityProfile(tuple(breaks), tuple(values)))


def _compress(p: DensityProfile) -> DensityProfile:
    """Merge equal-value neighbours and strip zero tails (mass unchanged)."""
    breaks, values = list(p.breaks), list(p.values)
    while values and values[0] == 0:
        breaks.pop(0)
        values.pop(0)
    while values and values[-1] == 0:
        breaks.pop()
        values.pop()
    if not values:
        raise ValueError("density has no mass")
    out_b, out_v = [breaks[0]], []
    for v, b1 in zip(values, breaks[1:]):
        if out_v and v == out_v[-1]:
            out_b[-1] = b1
        else:
            out_v.append(v)
            out_b.append(b1)
    return DensityProfile(tuple(out_b), tuple(out_v))


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
    """Exact quantile composition on the merged mass grid of both densities."""
    if rho_A.mass() != 1 or rho_B.mass() != 1:
        raise ValueError("both densities must have unit mass")
    cum_A = rho_A.cumulative()
    cum_B = rho_B.cumulative()
    grid = sorted(set(cum_A) | set(cum_B))
    pieces = []
    for r0, r1 in zip(grid, grid[1:]):
        if r1 == r0:
            continue
        s0, s1, va = _quantile_span(rho_A, cum_A, r0, r1)
        u0, u1, vb = _quantile_span(rho_B, cum_B, r0, r1)
        pieces.append((s0, s1, u0, u1, va, vb))
    return TransportMap(tuple(pieces))


def _quantile_span(p: DensityProfile, cum, r0, r1):
    """The s-interval carrying mass (r0, r1); one strictly positive piece."""
    for i, v in enumerate(p.values):
        if v > 0 and cum[i] <= r0 and r1 <= cum[i + 1]:
            s0 = p.breaks[i] + (r0 - cum[i]) / v
            s1 = p.breaks[i] + (r1 - cum[i]) / v
            return s0, s1, v
    raise ValueError("mass cell does not sit inside a single density piece")


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

    s_rows = dict(slice_profile(S).lengths)
    mS = S.denom

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
            aS = s_rows.get((_floor(row),), Fraction(0))
            chain += aS * w * (q1 - q0)
            e_lo, e_hi = _slice_gap(aS, aA, aB, t, n)
            int_lo += e_lo * w * (q1 - q0)
            int_hi += e_hi * w * (q1 - q0)
            pieces.append((q0, q1, w, e_lo, e_hi))

    rootA = nth_root_brackets(volA, n)
    rootB = nth_root_brackets(volB, n)
    mix_lo = t * rootA[0] + (1 - t) * rootB[0]
    mix_hi = t * rootA[1] + (1 - t) * rootB[1]
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


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _subsplit(s0, s1, u0, va, vb, t, mS):
    """Cut [s0, s1] where T_t(s) crosses multiples of 1/mS (exact rationals)."""
    Tp = va / vb
    slope = t + (1 - t) * Tp
    c0 = t * s0 + (1 - t) * u0
    c1 = c0 + slope * (s1 - s0)
    cuts = [s0]
    j0 = _floor(c0 * mS) + 1
    j1 = _floor(c1 * mS)
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
