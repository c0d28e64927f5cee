"""Independent computations that the benchmark checks bmstab's outputs against.

Nothing here calls into bmstab: sets arrive as integer cell arrays with their
lattice denominator, and every answer is exact (Python ints and Fractions),
except that the 3D hull takes its facets from Qhull (scipy) and then sums
exact integer determinants over them.

- pairwise_cube_sum: t*A + (1-t)*B as the union of all pairwise cube sums.
- hull_area2_2d / hull_volume6_3d: hull of all cell corners, exact.
- hull_distance_value: 2*vol(co(A u (B+v))) - |A| - |B| at a lattice shift v.
- first_point_outside: exact half-plane test against a convex polygon.
- shifted_overlap: |A n (B+s)| for a rational shift s, split into a lattice
  part and a remainder (a weighted sum of 2^n integer-translate overlaps).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def cells_array(cells, dim: int) -> np.ndarray:
    """(k, dim) int64 array of the cell tuples, sorted lexicographically."""
    return np.array(sorted(cells), dtype=np.int64).reshape(-1, dim)


def refine(cells: np.ndarray, k: int) -> np.ndarray:
    """The same point set on a lattice k times finer."""
    if k == 1:
        return cells
    n = cells.shape[1]
    offs = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)
    return (cells[:, None, :] * k + offs[None]).reshape(-1, n)


def pairwise_cube_sum(a: np.ndarray, ma: int, b: np.ndarray, mb: int,
                      t: Fraction) -> tuple[np.ndarray, int]:
    """Cells of t*A + (1-t)*B and their denominator, by brute force.

    On the common lattice 1/m, cell i of A and cell j of B give the cube of
    side 1/m with corner (p*i + (q-p)*j)/(m*q), i.e. the q^n fine cells
    p*i + (q-p)*j + o for o in {0..q-1}^n.  Returns the sorted unique cells.
    """
    p, q = t.numerator, t.denominator
    m = math.lcm(ma, mb)
    a = refine(a, m // ma)
    b = refine(b, m // mb)
    n = a.shape[1]
    corners = (p * a[:, None, :] + (q - p) * b[None, :, :]).reshape(-1, n)
    corners = np.unique(corners, axis=0)
    offs = np.array(list(itertools.product(range(q), repeat=n)), dtype=np.int64)
    cells = np.unique((corners[:, None, :] + offs[None]).reshape(-1, n), axis=0)
    return cells, m * q


# ---------------------------------------------------------------------------
# hulls


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_2d(points) -> list:
    """Monotone-chain hull of integer points, counter-clockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    chain = []
    for seq in (pts, pts[::-1]):
        part = []
        for p in seq:
            while len(part) >= 2 and _cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        chain += part[:-1]
    return chain


def area2(poly) -> int:
    """Twice the signed shoelace area of a polygon with integer vertices."""
    return sum(x0 * y1 - x1 * y0
               for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]))


def extreme_corners(cells: np.ndarray) -> np.ndarray:
    """Cell corners that can be hull vertices: for each line of cells along
    the last axis, the corners below its lowest and above its highest cell.
    Every other corner lies on a segment between two of these."""
    n = cells.shape[1]
    order = np.lexsort(cells.T[::-1])
    c = cells[order]
    new = np.ones(len(c), dtype=bool)
    new[1:] = (c[1:, :-1] != c[:-1, :-1]).any(axis=1)
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(c)) - 1
    base = c[starts, :-1]
    tips = np.stack([c[starts, -1], c[ends, -1] + 1], axis=1)
    out = []
    for off in itertools.product((0, 1), repeat=n - 1):
        for k in (0, 1):
            out.append(np.column_stack([base + np.array(off, dtype=np.int64),
                                        tips[:, k]]))
    return np.unique(np.concatenate(out), axis=0)


def hull_area2_2d(points: np.ndarray) -> int:
    """Twice the area of the hull of integer 2D points, exact."""
    return abs(area2(hull_2d(map(tuple, points.tolist()))))


def hull_volume6_3d(points: np.ndarray) -> int:
    """Six times the volume of the hull of integer 3D points, exact.

    Qhull supplies the triangulated facets; the volume is the sum of the
    exact integer determinants of the cones from one hull vertex over every
    facet (all of one sign for a convex body, zero for facets through it).
    """
    from scipy.spatial import ConvexHull

    hull = ConvexHull(points.astype(float))
    pts = points.tolist()
    o = pts[hull.vertices[0]]
    total = 0
    for i, j, k in hull.simplices.tolist():
        a = [pts[i][d] - o[d] for d in range(3)]
        b = [pts[j][d] - o[d] for d in range(3)]
        c = [pts[k][d] - o[d] for d in range(3)]
        det = (a[0] * (b[1] * c[2] - b[2] * c[1])
               - a[1] * (b[0] * c[2] - b[2] * c[0])
               + a[2] * (b[0] * c[1] - b[1] * c[0]))
        total += abs(det)
    if abs(total / 6 - hull.volume) > 1e-9 * max(1.0, hull.volume):
        raise ArithmeticError("Qhull facets do not close up to its own volume")
    return total


def hull_measure(cells: np.ndarray, m: int) -> Fraction:
    """Exact measure of the convex hull of a cell union at denominator m."""
    n = cells.shape[1]
    pts = extreme_corners(cells)
    if n == 2:
        return Fraction(hull_area2_2d(pts), 2 * m * m)
    if n == 3:
        return Fraction(hull_volume6_3d(pts), 6 * m ** 3)
    raise ValueError("hulls are checked in 2D and 3D only")


def hull_distance_value(a: np.ndarray, b: np.ndarray, m: int, v) -> Fraction:
    """D(v) = 2*|co(A u (B+v))| - |A| - |B| for a lattice shift v (cells)."""
    n = a.shape[1]
    shifted = b + np.array(v, dtype=np.int64)
    vol = hull_measure(np.concatenate([a, shifted]), m)
    return 2 * vol - Fraction(len(a) + len(b), m ** n)


# ---------------------------------------------------------------------------
# containment and overlap


def cell_corners(cells: np.ndarray) -> np.ndarray:
    """All distinct corners of the cells, in cell units."""
    n = cells.shape[1]
    offs = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    return np.unique((cells[:, None, :] + offs[None]).reshape(-1, n), axis=0)


def first_point_outside(points, denom: int, verts, scale: int):
    """First point (of integer tuples over `denom`, i.e. the point is p/denom)
    outside the convex polygon with integer vertices `verts` over `scale`,
    or None if every point is inside or on the boundary.

    Exact: a point is inside iff it is on the inner side of every edge line,
    with cross products taken in integers on the common lattice.
    """
    if len(verts) < 3:
        raise ValueError("containment test needs a polygon with area")
    vs = [(x * denom, y * denom) for x, y in verts]
    if area2(vs) < 0:
        vs = vs[::-1]
    edges = list(zip(vs, vs[1:] + vs[:1]))
    for p in points:
        q = (p[0] * scale, p[1] * scale)
        if any(_cross(u, w, q) < 0 for u, w in edges):
            return p
    return None


def shifted_overlap(a: np.ndarray, b: np.ndarray, m: int, shift) -> Fraction:
    """|A n (B+s)| for cell unions A, B at denominator m and rational s.

    Write s_i = (k_i + f_i)/m with k_i an integer and 0 <= f_i < 1.  Two unit
    cells whose indices differ by d overlap, along axis i, by 1 - |d - k_i -
    f_i| when that is positive, which is 1 - f_i at d = k_i and f_i at
    d = k_i + 1.  So the overlap is sum over e in {0,1}^n of
    prod_i w_i(e_i) * #(A n (B + k + e)), with w_i(0) = 1 - f_i and
    w_i(1) = f_i.
    """
    n = a.shape[1]
    scaled = [Fraction(s) * m for s in shift]
    k = [math.floor(s) for s in scaled]
    f = [s - ki for s, ki in zip(scaled, k)]
    total = Fraction(0)
    for e in itertools.product((0, 1), repeat=n):
        w = Fraction(1)
        for fi, ei in zip(f, e):
            w *= fi if ei else 1 - fi
        if w:
            total += w * _translate_overlap(a, b + np.array(
                [ki + ei for ki, ei in zip(k, e)], dtype=np.int64))
    return total / m ** n


def _translate_overlap(a: np.ndarray, b: np.ndarray) -> int:
    """Number of cells common to two integer cell arrays."""
    lo = np.minimum(a.min(axis=0), b.min(axis=0))
    ext = np.maximum(a.max(axis=0), b.max(axis=0)) - lo + 1
    stride = np.array([int(np.prod(ext[i + 1:])) for i in range(len(ext))],
                      dtype=np.int64)
    ka = (a - lo) @ stride
    kb = (b - lo) @ stride
    return len(np.intersect1d(ka, kb))
