"""Stability pipelines: containing convex sets, hull distance, constants.

The hull distance realizes the "up to a translation" quantifier directly:
it minimizes the measure of co(A u (B+v)) minus both sets over fine-lattice
translations, each candidate evaluated exactly or skipped when a sound lower
bound proves it worse than the best found.  The constants calculator
runs the explicit recurrences for the admissible exponent eps_n(tau) and
smallness threshold M_n(tau) at 220-bit precision and cross-checks them
against their closed-form bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import mpmath as mp
import numpy as np

from ._hull import hull
from ._roots import iroot
from .convexity import Polytope, _lattice_vector, lattice_polytope_overlap
from .minkowski import DeficitRecord, deficit
from .vset import (
    _CORNERS, LatticeSet, _check_int64, _common_count, _hull_candidates, _integer, _run_step,
    reconcile,
)

__all__ = [
    "ConstantsTable", "StabilityReport", "constants", "hull_distance",
    "cos_pipeline", "check_stability",
]

_PREC_BITS = 220
_MAX_N = 64  # _eps_M recurses n levels deep over O(n^2) keys (n, tau/2^k)
_SNAP_DENOM = 1 << 16  # cos_pipeline's inflation bumps are multiples of 1/_SNAP_DENOM


@dataclass(frozen=True)
class ConstantsTable:
    n: int
    tau: Fraction
    beta: object          # mpf or None for n = 1
    alpha_bar: object
    eta: object
    zeta: object
    eps: object           # admissible exponent eps_n(tau)
    M: object             # smallness threshold M_n(tau)
    eps_lower_bound: object
    M_upper_bound: object

    @property
    def bounds_ok(self) -> bool:
        return bool(self.eps >= self.eps_lower_bound and self.M <= self.M_upper_bound)

    def as_text(self) -> str:
        def fmt(x):
            return "none" if x is None else mp.nstr(x, 12)
        lines = [
            f"n={self.n}",
            f"tau={self.tau}",
            f"beta={fmt(self.beta)}",
            f"alpha_bar={fmt(self.alpha_bar)}",
            f"eta={fmt(self.eta)}",
            f"zeta={fmt(self.zeta)}",
            f"eps={fmt(self.eps)}",
            f"M={fmt(self.M)}",
            f"eps_lower_bound={fmt(self.eps_lower_bound)}",
            f"M_upper_bound={fmt(self.M_upper_bound)}",
            f"bounds_ok={self.bounds_ok}",
        ]
        return "\n".join(lines) + "\n"


def _eps_M(n: int, tau: Fraction, cache: dict):
    key = (n, tau)
    if key in cache:
        return cache[key]
    if n == 1:
        eps = mp.mpf(1)
        M = abs(mp.log(mp.mpf(tau.numerator) / tau.denominator / 3))
        cache[key] = (eps, M, None, None, None, None)
        return cache[key]
    t = mp.mpf(tau.numerator) / tau.denominator
    logt = abs(mp.log(t))
    beta = t / (16 * (n - 1) * logt)
    alpha_bar = beta / (8 * n)
    eta = alpha_bar / n ** 2
    eps_prev_tau, _, *_ = _eps_M(n - 1, tau, cache)
    eps_prev_half, M_prev_half, *_ = _eps_M(n - 1, tau / 2, cache)
    zeta = eps_prev_tau / 3 * eta
    eps = zeta * beta / (8 * n ** 2) * eps_prev_half
    M = 4 / zeta * M_prev_half
    cache[key] = (eps, M, beta, alpha_bar, eta, zeta)
    return cache[key]


def constants(n: int, tau) -> ConstantsTable:
    """Constant table for dimension n and weight floor tau in (0, 1/2].

    The tables of the last 128 distinct (n, tau) are kept: equal arguments
    then return the same immutable object, and a sweep's rows share one.
    """
    n, tau = _integer(n, "n"), Fraction(tau)
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"n must lie in [1, {_MAX_N}]")
    if not (0 < tau <= Fraction(1, 2)):
        raise ValueError("tau must lie in (0, 1/2]")
    return _constants(n, tau)


@functools.lru_cache
def _constants(n: int, tau: Fraction) -> ConstantsTable:
    with mp.workprec(_PREC_BITS):
        eps, M, beta, alpha_bar, eta, zeta = _eps_M(n, tau, {})
        t = mp.mpf(tau.numerator) / tau.denominator
        logt = abs(mp.log(t))
        p = mp.mpf(3) ** n
        eps_lb = t ** p / (mp.mpf(2) ** (3 ** (n + 1)) * mp.mpf(n) ** p * logt ** p)
        M_ub = mp.mpf(2) ** (3 ** (n + 2)) * mp.mpf(n) ** p * logt ** p / t ** p
        return ConstantsTable(
            n=n, tau=tau, beta=beta, alpha_bar=alpha_bar, eta=eta, zeta=zeta,
            eps=eps, M=M, eps_lower_bound=eps_lb, M_upper_bound=M_ub,
        )


@functools.lru_cache
def _threshold(n: int, tau: Fraction):
    """e^(-M_n(tau)), reported with each verdict: the exact rational tau/3
    at n = 1, and an mpf at _PREC_BITS at n >= 2, where it underflows
    binary64 (M ~ 42330 at n = 2)."""
    if n == 1:
        return tau / 3
    with mp.workprec(_PREC_BITS):
        return mp.exp(-_constants(n, tau).M)


# ---------------------------------------------------------------------------
# hull distance


def hull_distance(A: LatticeSet, B: LatticeSet) -> dict:
    """Translation-minimized hull distance.

    Minimizes D(v) = |co(A u (B+v)) \\ A| + |co(A u (B+v)) \\ (B+v)| over
    fine-lattice translations v, with every D(v) evaluated exactly; since the
    set measures are fixed, this is 2*vol(hull) - |A| - |B|, and candidates
    are compared by the hull's integer d!-volume on the lattice.  Each hull
    is built from the two sets' hull vertices, found once from their exact
    hull candidates, which one `_hull_candidates` pass takes for both sets.
    `_lattice_search` picks the shifts, at a quarter-cell stride, in the
    window where the bounding boxes of A's and B's hulls HA and HB overlap,
    with one cell of slack, and bounds them by `_box_bound`.  `hull_evals`
    counts the hulls built; of them only the hull of the least (volume,
    shift), which the search returns, is kept.

    The search's floor is set when HA's and HB's boxes (low corners la and
    lb, d!-volumes VA and VB) have equal widths w on every axis.  Only the
    aligned shift v0 = la - lb overlaps them fully; any other shift is off
    by at least one cell on some axis j, so, as every w_i >= 1 (a cell spans
    one step), its box overlap is at most prod(w) - prod_{i != j} w_i: its
    bound is at least floor2 = VA + VB - d!*(prod(w) - min_j prod_{i != j} w_i).
    """
    if A.is_empty() or B.is_empty():
        raise ValueError("hull_distance needs nonempty operands")
    A, B = reconcile(A, B)
    m, dim = A.denom, A.dim
    (ptsA, _, VA), (ptsB, _, VB) = map(hull, _hull_candidates(A, B))

    boxA, boxB = _box(ptsA), _box(ptsB)
    lo = [la - hb - 1 for (la, _), (_, hb) in zip(boxA, boxB)]
    hi = [ha - lb + 1 for (_, ha), (lb, _) in zip(boxA, boxB)]

    def union(v):
        return ptsA + [tuple(x + y for x, y in zip(p, v)) for p in ptsB]

    # the hulls built, counted; the zero shift's d!-volume; and the least
    # (volume, shift) built with its hull, which is what the search returns
    evals, at_zero, least = 0, None, None

    def volume(v):
        nonlocal evals, at_zero, least
        evals += 1
        built = hull(union(v))
        if not any(v):
            at_zero = built[2]
        if least is None or (built[2], v) < least[:2]:
            least = built[2], v, built
        return built[2]

    widths = [h - l for l, h in boxA]
    full = math.prod(widths)
    floor2 = (VA + VB - math.factorial(dim) * (full - min(full // w for w in widths))
              if widths == [h - l for l, h in boxB] else None)
    best, best_v = _lattice_search(
        lo, hi, max(1, m // 4), volume,
        lambda span: _box_bounds(VA, boxA, VB, boxB, span), floor2)

    scale = math.factorial(dim) * m ** dim
    volAB = A.measure() + B.measure()
    return {
        "v_star": tuple(Fraction(x, m) for x in best_v),
        "K": Polytope._from_hull(least[2], m, union(best_v)),
        "D_star": 2 * Fraction(best, scale) - volAB,
        "D_at_zero": 2 * Fraction(at_zero, scale) - volAB,
        "hull_evals": evals,
    }


def _lattice_search(lo, hi, stride, value, bounds, floor) -> tuple:
    """(best, v*): the least (value, shift) a coarse-to-fine search finds.

    `value(v)` is an int at an integer shift v, `bounds(span)` one lower
    bound on it per shift of product(*span), in that order, and `floor` a
    lower bound on the value of every shift but one, or None.  The zero
    shift is evaluated first.  A coarse scan covers the window
    product(range(l, h)) at `stride`, and each halving of the stride down to
    1 scans the shifts within two strides of v* on every axis, clipped to
    the window.  Ties go to the least shift.  No shift is evaluated twice:
    (best, v*) is the least (value, shift) over the shifts evaluated so far,
    so a repeat cannot change it.

    Each level visits its shifts in increasing (bound, shift) order and
    stops at the first bound above best; a skipped shift is strictly worse
    than the level's minimum, so every level ends where a full scan would.
    Only the shifts whose bound does not exceed best at the level's start
    are sorted.  No level is scanned once best < floor: v* is then the shift
    the floor leaves out, and every other shift is strictly worse.  The
    inequality is strict: a shift whose value equals best may still tie it.
    """
    best_v = (0,) * len(lo)
    best = value(best_v)
    seen = {best_v}
    span = [range(l, h, stride) for l, h in zip(lo, hi)]
    while floor is None or best >= floor:
        for bound, v in sorted((b, v) for b, v in zip(bounds(span), product(*span))
                               if b <= best):
            if bound > best:
                break
            if v not in seen:
                seen.add(v)
                d = value(v)
                if d < best or (d == best and v < best_v):
                    best, best_v = d, v
        if stride == 1:
            break
        stride //= 2
        span = [range(max(l, b - 2 * stride), min(h, b + 2 * stride + 1), stride)
                for l, h, b in zip(lo, hi, best_v)]
    return best, best_v


def _box(verts) -> list:
    """Integer bounding box of a hull, (lo, hi) per axis, from its vertices."""
    return [(min(c), max(c)) for c in zip(*verts)]


def _box_bound(VA: int, boxA, VB: int, boxB, v) -> int:
    """Lower bound on the d!-volume of co(HA u (HB + v)).

    HA and HB are lattice hulls of d!-volumes VA and VB and bounding boxes
    boxA and boxB.  The hull contains HA and HB + v, which can overlap only
    inside boxA n (boxB + v), so its d!-volume is at least VA + VB less d!
    times the volume of that box.
    """
    overlap = math.prod(max(0, min(ha, hb + x) - max(la, lb + x))
                        for (la, ha), (lb, hb), x in zip(boxA, boxB, v))
    return VA + VB - math.factorial(len(v)) * overlap


def _box_bounds(VA: int, boxA, VB: int, boxB, span) -> list:
    """`_box_bound` of every shift of product(*span), in that order.

    The box overlap factors by axis, so each axis gets one exact table of
    its overlap at each offset of its range, and a shift's bound is VA + VB
    less d! times the product of its table entries.
    """
    overlaps = [1]
    for r, (la, ha), (lb, hb) in zip(span, boxA, boxB):
        table = [max(0, min(ha, hb + x) - max(la, lb + x)) for x in r]
        overlaps = [o * t for o in overlaps for t in table]
    f = math.factorial(len(span))
    return [VA + VB - f * o for o in overlaps]


# ---------------------------------------------------------------------------
# containing convex set pipeline


def _check_weights(t: Fraction, tau: Fraction):
    """ValueError unless 0 < tau <= 1/2 and tau <= t <= 1 - tau."""
    if not (0 < tau <= Fraction(1, 2)) or not (tau <= t <= 1 - tau):
        raise ValueError("need 0 < tau <= 1/2 and t in [tau, 1-tau]")


def _shifted_overlap(A: LatticeSet, B: LatticeSet, shift) -> Fraction:
    """Exact |A intersect (B + shift)| for two cell unions, any rational shift.

    On the common lattice 1/m, write m*s_i = k_i + u_i/D, 0 <= u_i < D, over
    one common denominator D.  The overlap of two cells is a product of
    per-axis tents, linear in s_i between lattice steps, so the overlap is
    the multilinear interpolation of the 2^n integer translates: sum over e
    in {0,1}^n of prod_i w_i(e_i) * |A intersect (B + (k+e)/m)|, with
    D*w_i(0) = D - u_i and D*w_i(1) = u_i.  The sum is one integer over
    (D*m)^n: the weights' numerators times the common cell counts.
    """
    A, B = reconcile(A, B)
    if B.is_empty():
        return Fraction(0)
    m = A.denom
    X, D = _lattice_vector(shift)
    split = [divmod(x * m, D) for x in X]  # (k_i, u_i)
    # every step k + e with a nonzero weight keeps B's cells in int64, the
    # step k too, so B's runs are moved by k with no second check
    for (lo, hi), (k, u) in zip(B.bounding_box(), split):
        _check_int64(lo + k, hi - 1 + k + (u > 0))
    base = B.runs + _run_step([k for k, _ in split])
    total = 0
    for e in _CORNERS[A.dim].tolist():
        w = math.prod(u if ei else D - u for (_, u), ei in zip(split, e))
        if w:
            total += w * _common_count(A.runs, base + np.array(e + [0], dtype=np.int64))
    return Fraction(total, (D * m) ** A.dim)


def _inflation_step(zeta: Fraction, n: int, j: int) -> int:
    """The least integer N >= 2^j * _SNAP_DENOM * zeta^(1/(2n^3)).

    With k = 2n^3 it is the least N with N^k >= y, y the ceiling of
    zeta * (2^j * _SNAP_DENOM)^k: iroot(y - 1, k) + 1, or 0 when zeta = 0.
    """
    if not zeta:
        return 0
    k = 2 * n ** 3
    y = -(-zeta.numerator * (_SNAP_DENOM << j) ** k // zeta.denominator)
    return iroot(y - 1, k) + 1


def cos_pipeline(A: LatticeSet, B: LatticeSet, K_A: Polytope, K_B: Polytope,
                 t, tau) -> dict:
    """Build a convex set containing A and B from nearby convex bodies.

    Measures zeta = |A d K_A| + |B d K_B| exactly (reported as zeta_lo ==
    zeta_hi), aligns K_A and K_B (with their sets) to a common
    barycenter, and inflates co(K_A u K_B) about it by 1 + N/_SNAP_DENOM,
    N the least integer >= c * _SNAP_DENOM * zeta^(1/(2n^3)), doubling c
    from 1 until A and the translated B are inside; the first sufficient c
    is the calibrated constant.  A set that its own K holds
    (|A n K_A| = |A|, from the overlap zeta needs) is inside every inflated
    K; only a set that its K does not hold has its hull built, and is tested
    at the hull's vertices.  Also reports |A d B| in the aligned frame
    against the zeta^(1/(2n)) trend.  Every polytope stays integer vertices
    on a lattice 1/L, and the centroids and the shift integer numerators
    over one denominator; Fractions are built only for the returned values.
    """
    t = Fraction(t)
    tau = Fraction(tau)
    _check_weights(t, tau)
    n = A.dim
    inA = lattice_polytope_overlap(A, K_A)
    inB = lattice_polytope_overlap(B, K_B)
    volA, volB = A.measure(), B.measure()
    zeta = volA + K_A.volume - 2 * inA + volB + K_B.volume - 2 * inB

    # shift_B = S/D moves K_B's centroid onto K_A's
    XA, DA = K_A._centroid
    XB, DB = K_B._centroid
    D = math.lcm(DA, DB)
    S = tuple(a * (D // DA) - b * (D // DB) for a, b in zip(XA, XB))
    K_B2 = K_B._translate(S, D)
    # a convex K holds a set iff it holds the vertices of the set's hull; a
    # set of closed cells inside K_A (|A n K_A| = |A|) is inside every K,
    # since K contains K0, which contains K_A and K_B + shift_B.  A's hull
    # vertices are on 1/A.denom, and B's, shifted, on 1/MB
    MB = math.lcm(B.denom, D)
    vertsA = [] if inA == volA else hull(A.hull_points())[0]
    vertsB = [] if inB == volB else [
        tuple(c * (MB // B.denom) + s * (MB // D) for c, s in zip(p, S))
        for p in hull(B.hull_points())[0]]

    L = math.lcm(K_A.scale, K_B2.scale)
    K0 = Polytope.from_lattice_points(
        [tuple(x * (L // P.scale) for x in v) for P in (K_A, K_B2) for v in P.verts], L)
    X0, D0 = K0._centroid

    for j in range(80):
        N = _inflation_step(zeta, n, j)
        factor = 1 + Fraction(N, _SNAP_DENOM)
        K = K0._dilate(X0, D0, factor) if N else K0
        if K._holds(vertsA, A.denom) and K._holds(vertsB, MB):
            break
    else:
        raise RuntimeError("inflation failed to capture A and B")

    shiftB = tuple(Fraction(s, D) for s in S)
    sym_AB = volA + volB - 2 * _shifted_overlap(A, B, shiftB)
    return {
        "zeta_lo": zeta,
        "zeta_hi": zeta,
        "K": K,
        "K0": K0,
        "inflation_c": 2.0 ** j,
        "inflation_factor": factor,
        "excess_A": K.volume - volA,
        "excess_B": K.volume - volB,
        "sym_diff_AB": sym_AB,
        "barycenter": K_A.centroid(),
        "shift_B": shiftB,
    }


# ---------------------------------------------------------------------------
# stability verdicts


@dataclass(frozen=True)
class StabilityReport:
    instance_id: str
    n: int
    t: Fraction
    tau: Fraction
    record: DeficitRecord
    v_star: tuple
    K: Polytope
    D_star: Fraction
    bound: float
    threshold: Fraction | mp.mpf  # e^(-M_n(tau)), reported, not graded: exact at n = 1
    verdict: str          # pass | vacuous | fail

    CSV_HEADER = "id,n,t,tau,delta_norm,delta_raw,vx,vy,vz,D_star,bound,verdict"

    def csv_row(self) -> str:
        v = [float(x) for x in self.v_star] + [0.0] * (3 - len(self.v_star))
        fields = [
            self.instance_id, str(self.n), str(self.t), str(self.tau),
            f"{float(self.record.delta_norm):.12g}",
            f"{self.record.delta_raw:.12g}",
            f"{v[0]:.12g}", f"{v[1]:.12g}", f"{v[2]:.12g}",
            f"{float(self.D_star):.12g}",
            f"{self.bound:.12g}",
            self.verdict,
        ]
        return ",".join(fields)


def check_stability(A: LatticeSet, B: LatticeSet, t, tau,
                    instance_id: str = "instance") -> StabilityReport:
    """Measure (delta, D*) for one instance and grade it against the bound.

    The verdict is `vacuous` when delta exceeds e^(-M_n(tau)) (the typical
    desk-scale outcome, reported honestly), `pass` when the hypothesis holds
    and D* <= tau^(-5n) * delta^(eps_n(tau)), and `fail` otherwise.  One
    exact rule decides it in every dimension: `vacuous` iff delta > c, with
    c = tau/3 at n = 1 and c = 0 at n >= 2, else `pass` iff
    D* <= delta / tau^(5n).  The margin lemma makes it exact: at n = 1,
    e^(-M) = tau/3 and eps_1 = 1; at n >= 2, delta is an integer over D^n,
    D = m*q <= _DENOM_GUARD = 2^20 and n <= 3, so delta > 0 implies delta >=
    2^-60 = e^(-41.6), while M_n(tau) >= M_2(1/2) ~ 42330 on (0, 1/2]: only
    delta = 0 meets the hypothesis, and there delta^eps = delta.  `threshold`
    and the CSV's float `bound` (an mpf product when delta != 0) are
    reported, not graded.
    The measured pair feeds empirical-exponent fits regardless of the verdict.
    Like `cos_pipeline`, it refuses t outside [tau, 1 - tau] and tau outside
    (0, 1/2] with ValueError, before any work.
    """
    t = Fraction(t)
    tau = Fraction(tau)
    _check_weights(t, tau)
    n = A.dim
    rec = deficit(A, B, t)
    hd = hull_distance(A, B)
    delta = rec.delta_norm
    threshold = _threshold(n, tau)
    if delta > (threshold if n == 1 else 0):
        verdict = "vacuous"
    elif hd["D_star"] <= delta / tau ** (5 * n):
        verdict = "pass"
    else:
        verdict = "fail"
    bound = 0.0
    if delta:
        with mp.workprec(_PREC_BITS):
            d = mp.mpf(delta.numerator) / delta.denominator
            bound = float(mp.mpf(tau.numerator) / tau.denominator) ** (-5 * n) \
                * float(d ** constants(n, tau).eps)
    return StabilityReport(
        instance_id=instance_id, n=n, t=t, tau=tau, record=rec,
        v_star=hd["v_star"], K=hd["K"], D_star=hd["D_star"],
        bound=bound, threshold=threshold, verdict=verdict,
    )
