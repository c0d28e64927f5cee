"""Convex hulls with exact volumes, concave envelopes, and concavity fitting.

Hulls of lattice sets are computed on integer corner coordinates, so volumes,
centroids, membership tests and hull excesses are exact rationals in any of
the supported dimensions.  Grid-function values are floats, hence dyadic
rationals: envelopes, concavity residuals and linear fits work on their exact
integer numerators over one power-of-two denominator, and round only the
results.  An envelope is read off the upper planes of the lifted graph's
integer hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul

import numpy as np

from ._hull import face_planes, hull, hull_3d_centroid, polygon_centroid
from .vset import _CORNERS, _INT64, LatticeSet

__all__ = [
    "Polytope", "GridFunction", "EnvelopeFit", "convex_hull", "hull_excess",
    "lattice_polytope_overlap", "concave_envelope", "four_point_residual",
    "concavity_fit", "linear_fit", "level_set_convexity_integral",
]

# ---------------------------------------------------------------------------
# exact polytopes


def _lattice_vector(v) -> tuple:
    """(X, D): the rational vector v as integer numerators X over D, the
    least common denominator of its coordinates."""
    v = [Fraction(x) for x in v]
    D = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (D // x.denominator) for x in v), D


@dataclass(frozen=True)
class Polytope:
    """Convex polytope with vertices on an integer lattice scaled by 1/scale.

    Its maps and membership tests are integer arithmetic on that lattice; a
    rational argument is put on a common denominator once, on entry.
    """
    dim: int
    scale: int
    verts: tuple                 # integer coordinate tuples
    faces: tuple = ()            # 3D: outward-oriented vertex index triples
    volume: Fraction = Fraction(0)

    @classmethod
    def from_lattice_points(cls, points, scale) -> "Polytope":
        """Hull of the points x/scale, x integer tuples.

        It sits on the coarsest lattice 1/L, L dividing scale, that holds
        every given point.
        """
        pts = list(points)
        if not pts:
            raise ValueError("polytope needs at least one point")
        return cls._from_hull(hull(pts), scale, pts)

    @classmethod
    def _from_hull(cls, built, scale, points) -> "Polytope":
        """The polytope `from_lattice_points(points, scale)`, given the hull
        `built = hull(points)` that the caller already holds.

        The hull of the points divided by their gcd g with scale is the
        built hull divided by g, faces unchanged, since dividing by a
        positive integer keeps every orientation test's sign.
        """
        verts, faces, vol = built
        g = math.gcd(scale, *(x for p in points for x in p))
        if g > 1:
            verts = [tuple(x // g for x in p) for p in verts]
        dim = len(verts[0])
        return cls(dim, scale // g, tuple(verts), tuple(faces),
                   Fraction(vol, math.factorial(dim) * scale ** dim))

    @classmethod
    def from_rational_points(cls, points) -> "Polytope":
        """Hull of rational points, on the coarsest lattice that holds them."""
        pts = [_lattice_vector(p) for p in points]
        L = math.lcm(*(D for _, D in pts))
        return cls.from_lattice_points(
            [tuple(x * (L // D) for x in X) for X, D in pts], L)

    @property
    def vertices(self) -> tuple:
        """Vertices in original coordinates, as Fraction tuples."""
        return tuple(tuple(Fraction(x, self.scale) for x in v) for v in self.verts)

    @cached_property
    def planes(self) -> tuple:
        """Outward integer planes (n, d): a solid P = {x : n.(scale*x) <= d}.

        The two end points in 1D, the CCW edges in 2D and the faces in 3D.
        """
        v = self.verts
        if self.dim == 1:
            return ((-1,), -v[0][0]), ((1,), v[1][0])
        if self.dim == 2:
            return tuple(((b[1] - a[1], a[0] - b[0]), a[0] * b[1] - a[1] * b[0])
                         for a, b in zip(v, v[1:] + v[:1]))
        return tuple(face_planes(v, self.faces))

    def contains(self, point) -> bool:
        """Whether the rational point lies in P or on its boundary, exact."""
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        X, D = _lattice_vector(point)
        return self._holds([X], D)

    def _holds(self, points, M) -> bool:
        """Whether every point X/M, X an integer tuple, lies in P.

        X/M is inside the plane (n, d) iff scale*(n.X) <= M*d.
        """
        s = self.scale
        if not self.volume:  # flat: X is inside iff it is no new extreme point
            L = math.lcm(s, M)
            verts = [tuple(c * (L // s) for c in v) for v in self.verts]
            for X in points:
                x = tuple(c * (L // M) for c in X)
                if x not in verts and x in hull(verts + [x])[0]:
                    return False
            return True
        return all(s * sum(map(mul, n, X)) <= M * d
                   for X in points for n, d in self.planes)

    @cached_property
    def _centroid(self) -> tuple:
        """(X, D) with the centroid X/D, X integer and D > 0."""
        if self.dim == 1:
            return (self.verts[0][0] + self.verts[1][0],), 2 * self.scale
        if self.dim == 2:
            X, D = polygon_centroid(self.verts)
        else:
            X, D = hull_3d_centroid(self.verts, self.faces)
        return X, D * self.scale

    def centroid(self) -> tuple:
        X, D = self._centroid
        return tuple(Fraction(x, D) for x in X)

    def translate(self, v) -> "Polytope":
        """P + v, on the lattice of scale lcm(scale, v's denominators)."""
        return self._translate(*_lattice_vector(v))

    def _translate(self, X, D) -> "Polytope":
        """P + X/D, X an integer tuple, on the lattice of scale lcm(scale, D)."""
        L = math.lcm(self.scale, D)
        k, j = L // self.scale, L // D
        verts = tuple(tuple(c * k + x * j for c, x in zip(vert, X))
                      for vert in self.verts)
        return Polytope(self.dim, L, verts, self.faces, self.volume)

    def scale_about(self, center, factor) -> "Polytope":
        """Dilation x -> center + factor*(x - center), factor a rational > 0.

        The result sits on the coarsest lattice that holds its vertices.
        """
        return self._dilate(*_lattice_vector(center), Fraction(factor))

    def _dilate(self, C, D, f: Fraction) -> "Polytope":
        """`scale_about(C/D, f)`, C an integer tuple.

        On L = lcm(scale, D), a vertex x/scale is x*k/L with k = L/scale, and
        the centre is C*(L/D)/L; the image of x is
        (b*C' + a*(x*k - C'))/(b*L) for f = a/b and C' = C*(L/D), divided by
        the gcd of b*L and every image coordinate.
        """
        a, b = f.numerator, f.denominator
        L = math.lcm(self.scale, D)
        k = L // self.scale
        C = [c * (L // D) for c in C]
        verts = [tuple(b * c + a * (x * k - c) for x, c in zip(vert, C))
                 for vert in self.verts]
        g = math.gcd(b * L, *(x for v in verts for x in v))
        return Polytope(self.dim, b * L // g,
                        tuple(tuple(x // g for x in v) for v in verts),
                        self.faces, self.volume * f ** self.dim)


def convex_hull(E: LatticeSet) -> Polytope:
    """Exact convex hull of a lattice set (of all its cell corners).

    Its vertices are the extreme points among `E.hull_points()`, the exact
    hull candidates, and it sits on the coarsest lattice 1/L, L dividing
    E.denom, that holds those vertices.
    """
    if E.is_empty():
        raise ValueError("convex_hull needs a nonempty set")
    built = hull(E.hull_points())
    return Polytope._from_hull(built, E.denom, built[0])


def hull_excess(E: LatticeSet) -> Fraction:
    """volume(co E) - |E|, exact and always >= 0."""
    return convex_hull(E).volume - E.measure()


def _edges(P: Polytope):
    """P's edges as vertex pairs on P's lattice.

    3D edges are `hull_3d`'s triangle sides; diagonals only add points of P.
    """
    v = P.verts
    if P.dim < 3:
        return list(zip(v, v[1:] + v[:1]))
    return {tuple(sorted((v[i], v[j]))) for f in P.faces for i, j in zip(f, f[1:] + f[:1])}


def _clip(edges, Lp, planes, Lq):
    """End points (D, x), meaning x/D, of the segments' parts inside all planes.

    Points p, q are on lattice 1/Lp and planes (n, d) on 1/Lq: x/Lp is inside
    iff Lq*(n.x) <= Lp*d.  The segment parameters t0 <= t1 are kept as
    integer pairs (numerator, positive denominator), compared by
    cross-multiplication, and put in lowest terms once, at the end points.
    """
    out = set()
    for p, q in edges:
        (j0, k0), (j1, k1) = (0, 1), (1, 1)
        for n, d in planes:
            fp = Lq * sum(map(mul, n, p)) - Lp * d
            fq = Lq * sum(map(mul, n, q)) - Lp * d
            if fp > 0 < fq:
                break
            if fp > 0:  # t = fp / (fp - fq) enters, with fp - fq > 0
                if fp * k0 > j0 * (fp - fq):
                    j0, k0 = fp, fp - fq
            elif fq > 0:  # t = -fp / (fq - fp) leaves, with fq - fp > 0
                if -fp * k1 < j1 * (fq - fp):
                    j1, k1 = -fp, fq - fp
            if j0 * k1 > j1 * k0:
                break
        else:
            for j, k in ((j0, k0), (j1, k1)):
                g = math.gcd(j, k)
                j, k = j // g, k // g
                out.add((k * Lp, tuple(a * k + j * (b - a) for a, b in zip(p, q))))
    return out


def lattice_polytope_overlap(E: LatticeSet, K: Polytope) -> Fraction:
    """Exact |E intersect K| in 1, 2 or 3 dimensions.

    Each last-axis run of E is one box [y, y+1]^(n-1) x [f, f+l] on lattice
    1/m.  A corner c/m meets K's plane n.x <= d (lattice 1/L) iff
    L*(n.c) <= m*d; one pass over all runs takes each box's corners with the
    largest and the least n.c per plane, in int64 when a bound on every value
    formed fits and on Python ints otherwise.  A box inside every plane
    counts its l cells whole; a box outside one plane (touching counts as
    outside) adds nothing.  A box cut by some planes is clipped once: its
    overlap is the hull volume of its edges clipped to the planes that cut it
    and K's edges clipped to its walls, since for dim <= 3 every vertex of
    the intersection of two convex polytopes lies on an edge of one of them.
    """
    if E.dim != K.dim:
        raise ValueError("dimension mismatch")
    if not K.volume or E.is_empty():
        return Fraction(0)
    n, m, L = E.dim, E.denom, K.scale
    box = E.bounding_box()
    base = [lo for lo, _ in box]
    normals = [[L * x for x in a] for a, _ in K.planes]
    # corner c/m is inside (a, d) iff (L*a).(c - base) <= m*d - (L*a).base
    md = [m * d - sum(map(mul, a, base)) for a, (_, d) in zip(normals, K.planes)]
    bound = max(sum(abs(x) * (hi - lo) for x, (lo, hi) in zip(a, box))
                for a in normals)
    dtype = np.int64 if bound + max(map(abs, md)) <= _INT64.max else object
    N = np.array(normals, dtype=dtype)
    pos = np.array([[max(x, 0) for x in a] for a in normals], dtype=dtype)
    runs = E.runs.astype(dtype, copy=False) - np.array(base + [0], dtype=dtype)
    # (L*a).c at the corners of run (y, f, l)'s box with the largest and the
    # least (L*a).c: (L*a).(y, f) plus the positive, or the negative, parts
    # of L*a, the last one times l
    at, l = runs[:, :-1] @ N.T, runs[:, -1:]
    top, low = (at + (P[:, :-1].sum(axis=1) + l * P[:, -1]) for P in (pos, N - pos))
    md = np.array(md, dtype=dtype)
    cut = top > md  # the planes each box reaches past
    inside = ~cut.any(axis=1)
    clipped = ~inside & (low < md).all(axis=1)  # cut, and outside no plane
    total = Fraction(int(l[inside].sum()), m ** n)
    k_edges = _edges(K)
    # a box's edges join a corner to the corner one axis further on
    steps = [(o, o[:a] + [1] + o[a + 1:]) for o in _CORNERS[n].tolist()
             for a in range(n) if not o[a]]
    for r, cutting in zip(runs[clipped].tolist(), cut[clipped].tolist()):
        lo = [x + b for x, b in zip(r[:-1], base)]
        hi = [x + 1 for x in lo[:-1]] + [lo[-1] + r[-1]]
        edges = [tuple(tuple(h if b else x for x, h, b in zip(lo, hi, o)) for o in e)
                 for e in steps]
        walls = [(tuple(s * (i == a) for i in range(n)), s * x)
                 for a in range(n) for s, x in ((-1, lo[a]), (1, hi[a]))]
        pts = (_clip(edges, m, [p for p, c in zip(K.planes, cutting) if c], L)
               | _clip(k_edges, L, walls, m))
        if pts:
            M = math.lcm(*(D for D, _ in pts))
            total += Polytope.from_lattice_points(
                [tuple(x * (M // D) for x in x_D) for D, x_D in pts], M).volume
    return total


# ---------------------------------------------------------------------------
# grid functions


@dataclass(frozen=True)
class GridFunction:
    """Real values on a finite set of (n-1)-dim lattice indices with pitch h."""
    base_dim: int
    spacing: Fraction
    points: tuple               # index tuples
    values: tuple               # floats
    bound: float = field(init=False)  # max |value|

    def __post_init__(self):
        pts = tuple(tuple(int(x) for x in p) for p in self.points)
        vals = tuple(float(v) for v in self.values)
        if len(pts) != len(vals):
            raise ValueError("points/values length mismatch")
        if not all(map(math.isfinite, vals)):
            raise ValueError("grid values must be finite")
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate grid points")
        for p in pts:
            if len(p) != self.base_dim:
                raise ValueError("index arity mismatch")
        spacing = Fraction(self.spacing)
        if spacing <= 0:
            raise ValueError("grid spacing must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "bound", max((abs(v) for v in vals), default=0.0))

    def as_dict(self):
        return dict(zip(self.points, self.values))

    def coords(self, p):
        return tuple(float(self.spacing) * x for x in p)

    def cell_weight(self) -> float:
        return float(self.spacing) ** self.base_dim

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.base_dim, self.spacing, self.points, tuple(values))


def _dyadic(values):
    """(D, ints) with values[i] == ints[i] / D exactly, D a power of two.

    Every finite float is a dyadic rational, so D, the largest denominator,
    is a common one.
    """
    fracs = [Fraction(v) for v in values]
    D = max((x.denominator for x in fracs), default=1)
    return D, [x.numerator * (D // x.denominator) for x in fracs]


# ---------------------------------------------------------------------------
# concave envelope


def concave_envelope(f: GridFunction) -> GridFunction:
    """Upper concave envelope of f on its grid, via the lifted upper hull.

    The values are lifted exactly (`_dyadic`), so each returned value is the
    exact envelope rounded to the nearest float: it majorizes f and is the
    least concave grid majorant up to that one rounding.
    """
    if not f.points:
        raise ValueError("empty domain")
    D, ints = _dyadic(f.values)
    return f.with_values(float(e / D) for e in _envelope(f.points, ints))


def _envelope(points, ints) -> list:
    """Exact upper concave envelope of integer values over integer points.

    The hull of the lifted points (p, ints[i]) is {x : n.x <= d}, so above p
    each upper plane (n[-1] > 0) lies on or over the hull's top, and the
    facet containing p attains it.  A flat lift means the values are affine,
    unless the domain itself is flat: a collinear 2D domain recurses along an
    axis it spreads on.  Two points or fewer are their own envelope.
    """
    if len(points) <= 2:
        return list(map(Fraction, ints))
    lifted = Polytope.from_lattice_points(
        [p + (v,) for p, v in zip(points, ints)], 1)
    if not lifted.volume:
        base = Polytope.from_lattice_points(points, 1)
        if base.volume:
            return [Fraction(v) for v in ints]
        axis = int(base.verts[0][0] == base.verts[-1][0])
        return _envelope([p[axis:axis + 1] for p in points], ints)
    upper = [(n[:-1], n[-1], d) for n, d in lifted.planes if n[-1] > 0]
    out = []
    for p in points:
        top = None  # the least (d - n.p) / n[-1], as (numerator, n[-1])
        for n, c, d in upper:
            z = d - sum(map(mul, n, p))
            if top is None or z * top[1] < top[0] * c:
                top = z, c
        out.append(Fraction(*top))
    return out


# ---------------------------------------------------------------------------
# residuals and fits


def _grid_pairs(pts, w: Fraction):
    """Index triples (i, j, k) with pts[k] = w*pts[i] + (1-w)*pts[j].

    For w = p/q in lowest terms, pts[j] + p*(pts[i] - pts[j])/q is a lattice
    point iff pts[i] == pts[j] (mod q) in every coordinate, so only pairs
    within one residue class are tried.  Every (i, i, i) is yielded.
    """
    p, q = w.numerator, w.denominator
    index = {y: k for k, y in enumerate(pts)}
    classes = {}
    for i, y in enumerate(pts):
        classes.setdefault(tuple(x % q for x in y), []).append(i)
    for members in classes.values():
        for i, j in product(members, repeat=2):
            k = index.get(tuple(b + p * (a - b) // q
                                for a, b in zip(pts[i], pts[j])))
            if k is not None:
                yield i, j, k


def four_point_residual(f: GridFunction, g: GridFunction, t) -> dict:
    """Worst 3-point and 4-point concavity violations over the shared grid.

    res3 scans t*f(y') + (1-t)*g(y'') <= [t*f + (1-t)*g](y) over admissible
    triples (y = t*y' + (1-t)*y'' also on the grid); res4 scans the induced
    4-point inequality for f alone with t' = 1/(2-t) (and with 1-t for g).
    The scans are exact integer arithmetic on the values' dyadic numerators;
    each float reported is the exact residual rounded to nearest, and the
    flags compare res4 with (2/t)*res3 (respectively (2/(1-t))*res3) exactly.
    """
    t = Fraction(t)
    if not (0 < t < 1):
        raise ValueError("t must lie in (0,1)")
    if f.points != g.points or f.spacing != g.spacing:
        raise ValueError("f and g must share a grid")
    pts = f.points
    D, ints = _dyadic(f.values + g.values)
    F, G = ints[:len(pts)], ints[len(pts):]
    p, q = t.numerator, t.denominator
    # q*D times the violation of t*f(y_i) + (1-t)*g(y_j) <= t*f(y_k) + (1-t)*g(y_k)
    r3 = max((p * (F[i] - F[k]) + (q - p) * (G[j] - G[k])
              for i, j, k in _grid_pairs(pts, t)), default=0)
    r4f = _four_point_scan(F, pts, Fraction(1, 2 - t))
    r4g = _four_point_scan(G, pts, Fraction(1, 1 + t))
    return {
        "res3": float(Fraction(r3, q * D)),
        "res4_f": float(Fraction(r4f, D)),
        "res4_g": float(Fraction(r4g, D)),
        "bound_f": float(Fraction(2 * r3, p * D)),
        "bound_g": float(Fraction(2 * r3, (q - p) * D)),
        "res4_f_within_bound": p * r4f <= 2 * r3,
        "res4_g_within_bound": (q - p) * r4g <= 2 * r3,
    }


def _four_point_scan(ints, pts, w: Fraction) -> int:
    """Largest ints[i] + ints[j] - ints[k] - ints[l], never below 0.

    Over grid points y_k = w*y_i + (1-w)*y_j and y_l = (1-w)*y_i + w*y_j;
    the pair (i, i) gives 0.
    """
    mid = {(i, j): k for i, j, k in _grid_pairs(pts, w)}
    return max((ints[i] + ints[j] - ints[k] - ints[mid[j, i]]
                for (i, j), k in mid.items() if (j, i) in mid), default=0)


def level_set_convexity_integral(psi: GridFunction, H=None):
    """Level integrals of hull excess inside H and of raw measure outside H.

    Superlevel sets are unions of grid cells; levels run over the attained
    value range, where the integrand is a step function, so the two integrals
    are finite sums.  H is a list of (lo, hi) level windows; None means all
    levels are in H.
    """
    w = psi.cell_weight()
    order = sorted(set(psi.values), reverse=True)
    if len(order) <= 1:
        return 0.0, 0.0
    pairs = sorted(zip(psi.values, psi.points), key=lambda q: -q[0])
    in_H = 0.0
    out_H = 0.0
    k = psi.base_dim
    idx = 0
    active = []
    for v_hi, v_lo in zip(order, order[1:]):
        while idx < len(pairs) and pairs[idx][0] >= v_hi:
            active.append(pairs[idx][1])
            idx += 1
        length = v_hi - v_lo
        mid = (v_hi + v_lo) / 2
        meas = len(active) * w
        if _level_in_H(mid, H):
            hull_volume = float(convex_hull(LatticeSet(k, 1, active)).volume)
            excess = hull_volume * float(psi.spacing) ** k - meas
            in_H += excess * length
        else:
            out_H += meas * length
    return in_H, out_H


def _level_in_H(level, H) -> bool:
    if H is None:
        return True
    return any(lo <= level <= hi for lo, hi in H)


@dataclass(frozen=True)
class EnvelopeFit:
    sigma: float
    varsigma: float
    tau: Fraction
    t_prime: Fraction
    t_dprime: Fraction
    beta_internal: float       # exponent used by the construction
    gamma: float               # truncation exponent (beta_internal / 2)
    beta_target: float         # tau / (16 (n-1) |log tau|), the headline rate
    level_h: float             # truncation level actually used
    Phi: GridFunction          # concave majorant of the penalized profile
    Psi: GridFunction          # final fitted function on the original scale
    l1_error: float
    diagnostics: dict


def concavity_fit(psi: GridFunction, sigma, varsigma, tau) -> EnvelopeFit:
    """Constructive concave fitting of an almost-concave grid function.

    Runs the quadratic-penalty + level-truncation + concave-envelope pipeline
    literally: psi is rescaled to |psi| <= 1, penalized by
    20*(sigma+varsigma)^beta * |y|^2, truncated at the smallest level whose
    superlevel measure drops to (sigma+varsigma)^gamma (gamma = beta/2), and
    the concave envelope of the result, shifted back, is returned with its
    measured L1 distance from psi.  Constants are reported as calibration
    outputs, never asserted; at desk-scale noise the quadratic penalty can
    dominate, which the diagnostics record (range_ok).
    """
    tau = Fraction(tau)
    if not (0 < tau <= Fraction(1, 2)):
        raise ValueError("tau must lie in (0, 1/2]")
    if not psi.points:
        raise ValueError("empty domain")
    sigma = float(sigma)
    varsigma = float(varsigma)
    for name, v in (("sigma", sigma), ("varsigma", varsigma)):
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"{name} must be a finite number >= 0, got {v}")
    t_prime = Fraction(1, 2 - tau)
    n_minus_1 = psi.base_dim
    n = n_minus_1 + 1

    Mhat = max(psi.bound, 1.0)
    scaled = [v / Mhat for v in psi.values]

    log_tau = abs(math.log(float(tau)))
    beta = min(math.log(2) / 3, abs(math.log(1 - float(tau) / 2)) / 4) \
        / (n_minus_1 * abs(math.log(float(tau) / 2)))
    gamma = beta / 2
    beta_target = float(tau) / (16 * n_minus_1 * log_tau)

    s = sigma + varsigma
    penalty = 20.0 * s ** beta if s > 0 else 0.0
    phi = []
    for p, v in zip(psi.points, scaled):
        y = psi.coords(p)
        phi.append(v + 2.0 - penalty * sum(c * c for c in y))

    w = psi.cell_weight()
    target = s ** gamma if s > 0 else 0.0
    level_h = _truncation_level(phi, w, target)
    phi_bar = [min(v, level_h) for v in phi]

    D, ints = _dyadic(phi_bar)
    env = _envelope(psi.points, ints)
    Phi = psi.with_values(float(e / D) for e in env)
    Psi_vals = [(v - 2.0) * Mhat for v in Phi.values]
    Psi = psi.with_values(Psi_vals)

    l1 = sum(abs(a - b) for a, b in zip(Psi_vals, psi.values)) * w

    # exact: contacts where the envelope equals phi_bar; range_ok iff Phi in [0, 4]
    contact = sum(e == v for e, v in zip(env, ints))
    range_ok = all(0 <= e <= 4 * D for e in env)
    in_H, out_H = level_set_convexity_integral(psi)
    D, ints = _dyadic(psi.values)
    res4 = float(Fraction(_four_point_scan(ints, psi.points, t_prime), D))
    diagnostics = {
        "Mhat": Mhat,
        "penalty_coefficient": penalty,
        "contact_density": contact / len(psi.points),
        "level_excess_in_H": in_H,
        "level_mass_out_H": out_H,
        "four_point_res4": res4,
        "range_ok": range_ok,
        "roundness": _domain_roundness(psi),
    }
    return EnvelopeFit(
        sigma=sigma, varsigma=varsigma, tau=tau,
        t_prime=t_prime, t_dprime=1 - t_prime,
        beta_internal=beta, gamma=gamma, beta_target=beta_target,
        level_h=level_h, Phi=Phi, Psi=Psi, l1_error=l1,
        diagnostics=diagnostics,
    )


def _truncation_level(phi, w, target) -> float:
    """Smallest level u >= 0 whose strict superlevel measure is <= target."""
    vals = sorted(phi, reverse=True)
    k_max = int(target / w)  # measure k*w <= target  <=>  k <= target/w
    if k_max >= len(vals):
        return 0.0
    return max(vals[k_max], 0.0)


def _domain_roundness(psi: GridFunction) -> dict:
    """Inradius/outradius of co(F) about the origin (diagnostic only)."""
    h = float(psi.spacing)
    P = Polytope.from_lattice_points(psi.points, 1)
    if len(P.verts) <= P.dim:  # a collinear 2D domain
        return {"r_in": 0.0, "r_out": 0.0}
    r_out = max(math.hypot(*(x * h for x in v)) for v in P.verts)
    if not all(d >= 0 for _, d in P.planes):  # the origin is outside
        return {"r_in": 0.0, "r_out": r_out}
    return {"r_in": min(abs(d) / math.hypot(*n) * h for n, d in P.planes),
            "r_out": r_out}


def linear_fit(f: GridFunction, m1, m2) -> dict:
    """Endpoint-anchored affine fit on a 1D grid function.

    The line passes through (m1, f(m1)) and (m2, f(m2)); returns the sup
    deviation over the window [m1, m2] and over the whole domain.  The slope
    and deviations are exact in the floats' rational values, rounded once.
    """
    if f.base_dim != 1:
        raise ValueError("linear_fit needs a 1D grid function")
    m1, m2 = Fraction(m1), Fraction(m2)
    if m2 <= m1:
        raise ValueError("need m1 < m2")
    vals = {Fraction(p[0]) * f.spacing: Fraction(v) for p, v in zip(f.points, f.values)}
    if m1 not in vals or m2 not in vals:
        raise ValueError("anchor points must belong to the domain")
    v1, v2 = vals[m1], vals[m2]
    slope = (v2 - v1) / (m2 - m1)

    def ell(x: Fraction) -> Fraction:
        return v1 + slope * (x - m1)

    sup_window = 0
    sup_all = 0
    for x, v in vals.items():
        d = abs(v - ell(x))
        sup_all = max(sup_all, d)
        if m1 <= x <= m2:
            sup_window = max(sup_window, d)
    return {
        "slope": float(slope),
        "value_at_m1": float(v1),
        "value_at_m2": float(v2),
        "sup_dev": float(sup_window),
        "sup_dev_all": float(sup_all),
        "anchored": ell(m1) == v1 and ell(m2) == v2,
    }
