"""Exact convex hull primitives on an integer lattice.

Areas, volumes, face planes and centroids are integer arithmetic, so
nothing here carries floating-point error: a centroid is integer numerators
over one positive integer denominator.  2D hulls
use the monotone chain; 3D hulls use an incremental algorithm with exact
visibility tests.  Every hull keeps only its extreme points as vertices, in
every dimension, so its vertex list depends on the body, not on the points
given.  `hull` is the one entry point that picks the routine by dimension,
and its d!-scaled volume is an int in every dimension.
"""

from __future__ import annotations

__all__ = [
    "hull", "hull_2d", "polygon_area2", "polygon_centroid", "hull_3d",
    "hull_volume6", "hull_3d_centroid", "face_planes",
]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_2d(points):
    """Convex hull of 2D points, CCW vertex list (collinear points dropped).

    Degenerate inputs return the reduced hull: a single point or a segment.
    """
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all collinear
        return [pts[0], pts[-1]]
    return hull


def polygon_area2(hull):
    """Twice the (positive) area of a CCW integer polygon, exact."""
    if len(hull) < 3:
        return 0
    s = 0
    for i in range(len(hull)):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % len(hull)]
        s += x0 * y1 - x1 * y0
    return s


def polygon_centroid(hull):
    """Centroid X/D of a CCW integer polygon, as (X, D) with D > 0; the
    vertex mean if flat."""
    a2 = polygon_area2(hull)
    if a2 == 0:
        return tuple(sum(p[t] for p in hull) for t in range(2)), len(hull)
    cx = cy = 0
    for i in range(len(hull)):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % len(hull)]
        w = x0 * y1 - x1 * y0
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    return (cx, cy), 3 * a2


# ---------------------------------------------------------------------------
# 3D


def _cross3(u, w):
    return (u[1] * w[2] - u[2] * w[1],
            u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0])


def _sub3(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _plane(verts, face):
    """Outward plane (n0, n1, n2, d) of a face: outside iff n.x > d."""
    a, b, c = (verts[i] for i in face)
    n = _cross3(_sub3(b, a), _sub3(c, a))
    return n[0], n[1], n[2], n[0] * a[0] + n[1] * a[1] + n[2] * a[2]


def _incremental_3d(pts):
    """Incremental hull of sorted distinct points, inserted in that order.

    Returns (vertices, faces) as `hull_3d` does, except that a solid hull
    keeps every point that was a vertex when it was inserted and is still on
    the boundary, extreme or not.
    """
    if len(pts) <= 2:
        return pts, []
    # Seed simplex: first two distinct points, then a non-collinear point,
    # then a non-coplanar point.
    p0, p1 = pts[0], pts[1]
    for p2 in pts[2:]:
        normal = _cross3(_sub3(p1, p0), _sub3(p2, p0))
        if normal != (0, 0, 0):
            break
    else:
        return [pts[0], pts[-1]], []
    # p3 is the first point off the seed plane n.x = d through p0, p1, p2
    a, b, c = normal
    d = a * p0[0] + b * p0[1] + c * p0[2]
    p3 = next((q for q in pts if a * q[0] + b * q[1] + c * q[2] != d), None)
    if p3 is None:
        # Coplanar cloud: the planar hull in two coordinates along which the
        # plane projects one-to-one, mapped back.
        k = next(a for a in range(3) if normal[a])
        lift = {p[:k] + p[k + 1:]: p for p in pts}
        return [lift[q] for q in hull_2d(lift)], []

    verts = [p0, p1, p2, p3]
    if a * p3[0] + b * p3[1] + c * p3[2] > d:
        faces = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3)]
    else:
        faces = [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)]

    # q sees face f iff n.q > d for f's outward plane (n, d)
    planes = [_plane(verts, f) for f in faces]
    index = {v: i for i, v in enumerate(verts)}
    for q in pts:
        if q in index:
            continue
        x, y, z = q
        visible = [fi for fi, (a, b, c, d) in enumerate(planes)
                   if a * x + b * y + c * z > d]
        if not visible:
            continue
        visible_set = set(visible)
        # Horizon: directed edges of visible faces whose reverse edge belongs
        # to a hidden face.
        edge_owner = {}
        for fi in visible:
            i, j, k = faces[fi]
            for e in ((i, j), (j, k), (k, i)):
                edge_owner[e] = fi
        horizon = []
        for (i, j) in edge_owner:
            if (j, i) not in edge_owner:
                horizon.append((i, j))
        hidden = [fi for fi in range(len(faces)) if fi not in visible_set]
        faces = [faces[fi] for fi in hidden]
        planes = [planes[fi] for fi in hidden]
        qi = len(verts)
        verts.append(q)
        index[q] = qi
        for (i, j) in horizon:
            faces.append((i, j, qi))
            planes.append(_plane(verts, (i, j, qi)))

    used = sorted({i for f in faces for i in f})
    remap = {old: new for new, old in enumerate(used)}
    verts_out = [verts[i] for i in used]
    faces_out = [(remap[i], remap[j], remap[k]) for i, j, k in faces]
    return verts_out, faces_out


def _extreme(verts, faces):
    """The vertices whose incident face normals have rank 3."""
    normals = [[] for _ in verts]
    for f, (n, _) in zip(faces, face_planes(verts, faces)):
        for i in f:
            normals[i].append(n)
    kept = []
    for v, ns in zip(verts, normals):
        # the first normal not parallel to ns[0] spans a plane with it; rank
        # 3 needs a normal off that plane
        for b in ns:
            c = _cross3(ns[0], b)
            if c != (0, 0, 0):
                if any(c[0] * x[0] + c[1] * x[1] + c[2] * x[2] for x in ns):
                    kept.append(v)
                break
    return kept


def hull_3d(points):
    """Exact convex hull in 3D, extreme vertices only.

    Returns (vertices, faces) where faces are index triples oriented outward.
    Points inside the hull, inside a facet or on an edge are not vertices,
    and the output depends only on the set of extreme points: they are
    inserted in sorted order by an incremental pass with exact visibility
    tests, rebuilt once from the extreme points when the first pass was given
    any other point.  Degenerate input (affine dimension < 3) returns the
    extreme points of its segment or polygon and no faces.
    """
    pts = sorted(set(map(tuple, points)))
    verts, faces = _incremental_3d(pts)
    if faces:
        kept = _extreme(verts, faces)
        if len(kept) < len(pts):
            verts, faces = _incremental_3d(sorted(kept))
    return verts, faces


def _det3(a, b, c):
    """det[a; b; c] = a . (b x c), the signed volume of the cone 0abc times 6."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def hull_volume6(verts, faces) -> int:
    """Six times the volume enclosed by outward-oriented faces, exact."""
    return abs(sum(_det3(verts[i], verts[j], verts[k]) for i, j, k in faces))


def hull(points):
    """Convex hull of integer points in 1, 2 or 3 dimensions.

    Returns (verts, faces, d! * volume).  verts are the extreme points: the
    two end points in 1D, the CCW polygon of `hull_2d` in 2D and the
    vertices of `hull_3d` in 3D; faces are `hull_3d`'s outward triples,
    empty below 3D.  The scaled volume is an int in every dimension; it is 0
    for degenerate hulls.
    """
    pts = list(points)
    dim = len(pts[0])
    if dim == 1:
        lo = min(p[0] for p in pts)
        hi = max(p[0] for p in pts)
        return [(lo,), (hi,)], [], hi - lo
    if dim == 2:
        verts = hull_2d(pts)
        return verts, [], polygon_area2(verts)
    verts, faces = hull_3d(pts)
    return verts, faces, hull_volume6(verts, faces)


def hull_3d_centroid(verts, faces):
    """Centroid X/D of the enclosed solid, as (X, D) with D > 0; the vertex
    mean if flat."""
    vol6 = cx = cy = cz = 0
    for i, j, k in faces:
        a, b, c = verts[i], verts[j], verts[k]
        det = _det3(a, b, c)
        vol6 += det
        cx += det * (a[0] + b[0] + c[0])
        cy += det * (a[1] + b[1] + c[1])
        cz += det * (a[2] + b[2] + c[2])
    if vol6 == 0:
        return tuple(sum(v[t] for v in verts) for t in range(3)), len(verts)
    return (cx, cy, cz), 4 * vol6


def face_planes(verts, faces):
    """Outward integer plane (n, d) per face: the hull is {x : n . x <= d}."""
    return [((a, b, c), d) for a, b, c, d in (_plane(verts, f) for f in faces)]
