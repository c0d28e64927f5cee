import hashlib
import math
import operator
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from bmstab._hull import hull, hull_3d
from bmstab.convexity import (
    GridFunction, concave_envelope, concavity_fit, convex_hull,
    four_point_residual, hull_excess, lattice_polytope_overlap,
    level_set_convexity_integral, linear_fit, Polytope,
)
from bmstab.scenarios import ScenarioSpec, generate_scenario
from bmstab.stability import cos_pipeline, hull_distance
from bmstab.vset import LatticeSet


def grid_2d(span=3):
    return tuple((i, j) for i in range(-span, span + 1)
                 for j in range(-span, span + 1))


def test_hull_of_convex_rectangle_has_zero_excess():
    rect = LatticeSet(2, 2, frozenset((i, j) for i in range(4) for j in range(2)))
    assert hull_excess(rect) == 0
    assert convex_hull(rect).volume == 2


def test_hull_two_corner_cells_shoelace_oracle():
    two = LatticeSet(2, 1, frozenset([(0, 0), (2, 2)]))
    P = convex_hull(two)
    pts = [(0, 0), (1, 0), (3, 2), (3, 3), (2, 3), (0, 1)]
    twice_area = sum(pts[i][0] * pts[(i + 1) % 6][1]
                     - pts[(i + 1) % 6][0] * pts[i][1] for i in range(6))
    assert P.volume == Fraction(twice_area, 2)
    assert hull_excess(two) == P.volume - 2
    for c in two.corner_points():
        assert P.contains(c)


def test_hull_excess_nonnegative_random():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        cells = frozenset(tuple(rng.randrange(0, 4) for _ in range(n))
                          for _ in range(rng.randrange(1, 10)))
        E = LatticeSet(n, 2, cells)
        assert hull_excess(E) >= 0


def test_degenerate_3d_hull_volume_zero():
    flat = LatticeSet(3, 2, frozenset([(0, 0, 0), (1, 0, 0), (2, 0, 0)]))
    # corners span a slab of thickness one cell: nondegenerate
    assert convex_hull(flat).volume == flat.measure()
    P = Polytope.from_rational_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert P.volume == 0 and P.faces == ()
    with pytest.raises(ValueError):
        Polytope.from_lattice_points([], 4)
    with pytest.raises(ValueError):
        Polytope.from_rational_points([])


def test_polytope_scale_translate():
    P = Polytope.from_rational_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    Q = P.scale_about(P.centroid(), Fraction(3, 2))
    assert Q.volume == Fraction(9, 4)
    R = P.translate((Fraction(1, 3), Fraction(-1, 7)))
    assert R.volume == 1
    assert R.contains((Fraction(1, 3), Fraction(-1, 7)))
    assert R.centroid() == (Fraction(1, 2) + Fraction(1, 3),
                            Fraction(1, 2) - Fraction(1, 7))


def _fraction_on_lattice(points, scale=1):
    """(L, points*L), L the least multiple of scale that holds the rational
    points: the Fraction-tuple formula the polytope maps once went through."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    L = math.lcm(scale, *(x.denominator for p in pts for x in p))
    return L, [tuple(x.numerator * (L // x.denominator) for x in p) for p in pts]


def _fraction_translate(P, v):
    L, (shift,) = _fraction_on_lattice([v], P.scale)
    k = L // P.scale
    return Polytope(P.dim, L, tuple(tuple(c * k + s for c, s in zip(vert, shift))
                                    for vert in P.verts), P.faces, P.volume)


def _fraction_scale_about(P, center, factor):
    f = Fraction(factor)
    c = tuple(Fraction(x) for x in center)
    L, verts = _fraction_on_lattice(
        tuple(ci + f * (xi - ci) for ci, xi in zip(c, vert)) for vert in P.vertices)
    return Polytope(P.dim, L, tuple(verts), P.faces, P.volume * f ** P.dim)


def _fraction_from_rational_points(points):
    L, pts = _fraction_on_lattice(points)
    return Polytope.from_lattice_points(pts, L)


def test_polytope_maps_match_fraction_oracle():
    # the integer translate, scale_about and from_rational_points against
    # the Fraction formulas, on 2D and 3D polytopes with scales up to about
    # 2^42, centres and shifts off the lattice, factors below and above 1
    rng = random.Random(2407)
    factors = (Fraction(1, 3), Fraction(2 ** 40 - 1, 2 ** 40), Fraction(3, 2),
               Fraction(7, 5), 1 + Fraction(1, 2 ** 16), Fraction(5))

    def rational():
        q = rng.choice((1, 3, 14, 2 ** 40, 3 ** 30 + 2))
        return Fraction(rng.randint(-10 * q, 10 * q), q)

    for trial in range(60):
        n = 2 + trial % 2
        scale = rng.choice((1, 6, 2 ** 40 + 3, 3 * 2 ** 41))
        pts = [tuple(rng.randint(-5 * scale, 5 * scale) for _ in range(n))
               for _ in range(rng.randint(n + 1, 12))]
        P = Polytope.from_lattice_points(pts, scale)
        v = tuple(rational() for _ in range(n))
        center = P.centroid() if trial % 3 == 0 else tuple(rational() for _ in range(n))
        factor = rng.choice(factors)
        moved = [tuple(x + y for x, y in zip(p, v)) for p in P.vertices]
        for got, want in (
                (P.translate(v), _fraction_translate(P, v)),
                (P.scale_about(center, factor),
                 _fraction_scale_about(P, center, factor)),
                (Polytope.from_rational_points(moved),
                 _fraction_from_rational_points(moved))):
            assert (got.dim, got.scale, got.verts, got.faces, got.volume) == (
                want.dim, want.scale, want.verts, want.faces, want.volume)


def test_hull_from_column_ends_matches_all_corners():
    # Hulls are built from the corners of each last-axis column's end cells.
    # Every value here is recomputed from all cell corners instead.
    rng = random.Random(113)
    holes = inflated = 0
    for trial in range(15):
        n, m = trial % 3 + 1, trial % 6 + 1
        side = (7, 4, 2)[n - 1]
        cells = [frozenset(c for c in product(range(side), repeat=n)
                           if rng.random() < 0.6) or frozenset([(0,) * n])
                 for _ in range(2)]
        # B on a coarser lattice, except in 3D, where it would widen the window
        dB = m if n == 3 else rng.choice([d for d in range(1, m + 1) if m % d == 0])
        A, B = LatticeSet(n, m, cells[0]), LatticeSet(n, dB, cells[1])
        for E in (A, B):
            assert hull(E.hull_points()) == hull(E.corner_points())
            P = convex_hull(E)
            Q = Polytope.from_lattice_points(E.corner_points(), E.denom)
            assert (P.vertices, P.faces, P.volume, P.centroid()) == (
                Q.vertices, Q.faces, Q.volume, Q.centroid())
            column = {}
            for c in E.cells:
                column.setdefault(c[:-1], []).append(c[-1])
            holes += sum(max(z) - min(z) + 1 > len(z) for z in column.values())

        # Below lattice denominator 8 the search scans its whole window with
        # stride 1, so v* is the lexicographically least minimizer over the
        # bounding boxes' shift window with one cell of slack, and 0.
        hd = hull_distance(A, B)
        B_m = B.refine(m // dB)
        ptsA = hull(A.corner_points())[0]
        ptsB = hull(B_m.corner_points())[0]
        scale = math.factorial(n) * m ** n

        def D(v):
            pts = ptsA + [tuple(map(operator.add, p, v)) for p in ptsB]
            return 2 * Fraction(hull(pts)[2], scale) - A.measure() - B.measure()

        window = set(product(*(range(a[0] - b[1] - 1, a[1] - b[0] + 1) for a, b
                               in zip(A.bounding_box(), B_m.bounding_box()))))
        v_star = min(window | {(0,) * n}, key=lambda v: (D(v), v))
        assert hd["v_star"] == tuple(Fraction(x, m) for x in v_star)
        assert (hd["D_star"], hd["D_at_zero"]) == (D(v_star), D((0,) * n))

        # the inflation schedule, until K holds every cell corner
        KB = convex_hull(LatticeSet(n, dB, frozenset([min(B.cells)])))
        res = cos_pipeline(A, B, convex_hull(A), KB, Fraction(1, 2), Fraction(1, 4))
        corners = [tuple(Fraction(x, m) for x in p) for p in A.corner_points()] + [
            tuple(Fraction(x, dB) + s for x, s in zip(p, res["shift_B"]))
            for p in B.corner_points()]
        root = float(res["zeta_lo"]) ** (1.0 / (2 * n ** 3))
        K0 = res["K0"]
        c = 1.0
        while True:
            factor = 1 + Fraction(math.ceil(c * root * (1 << 16)), 1 << 16)
            K = K0.scale_about(K0.centroid(), factor) if factor != 1 else K0
            if all(K.contains(p) for p in corners):
                break
            c *= 2.0
        assert (res["inflation_c"], res["inflation_factor"]) == (c, factor)
        inflated += c > 1
    assert holes >= 10 and inflated >= 3, (holes, inflated)



def test_hulls_built_once_match_a_second_build():
    # convex_hull and hull_distance's K reuse the hull they built; each must
    # equal the polytope that hulls the same vertices again
    rng = random.Random(577)
    pairs = []
    for n, denom in ((2, 8), (2, 16), (3, 2), (3, 4)):
        for seed in (1, 2):
            pairs.append(generate_scenario(ScenarioSpec(
                family="boundary-bites", n=n, denom=denom, eps=Fraction(1, 4), seed=seed)))
    for n in (1, 2):  # random 3D pairs make the translation search slow
        for _ in range(4):
            pairs.append(tuple(LatticeSet(n, rng.choice([2, 4]), {
                tuple(rng.randrange(-4, 4) for _ in range(n))
                for _ in range(rng.randrange(1, 12))}) for _ in range(2)))
    for A, B in pairs:
        for E in (A, B):
            assert convex_hull(E) == Polytope.from_lattice_points(
                hull(E.hull_points())[0], E.denom)
        hd = hull_distance(A, B)
        m = max(A.denom, B.denom)
        v = [int(x * m) for x in hd["v_star"]]
        ptsA = hull(A.refine(m // A.denom).hull_points())[0]
        ptsB = hull(B.refine(m // B.denom).hull_points())[0]
        union = ptsA + [tuple(map(operator.add, p, v)) for p in ptsB]
        assert hd["K"] == Polytope.from_lattice_points(union, m)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(u, w):
    return (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0])


def _in_simplex(p, S):
    """p in the simplex of 2 to 4 affinely independent rational 3D points S.

    False when S is affinely dependent.  Exact barycentrics: the
    coordinates of p - S[0] in the edge vectors, times a common positive
    denominator.
    """
    q = _sub(p, S[0])
    E = [_sub(s, S[0]) for s in S[1:]]
    if len(E) == 1:
        (u,) = E
        return any(u) and not any(_cross(u, q)) and 0 <= _dot(q, u) <= _dot(u, u)
    if len(E) == 2:
        u, w = E
        nrm = _cross(u, w)
        if not any(nrm) or _dot(q, nrm):
            return False
        a, b = _dot(_cross(q, w), nrm), _dot(_cross(u, q), nrm)
        return a >= 0 and b >= 0 and a + b <= _dot(nrm, nrm)
    u, w, z = E
    det = _dot(u, _cross(w, z))
    if not det:
        return False
    sgn = 1 if det > 0 else -1
    bary = [sgn * _dot(q, _cross(w, z)), sgn * _dot(u, _cross(q, z)),
            sgn * _dot(u, _cross(w, q))]
    return min(bary) >= 0 and sum(bary) <= abs(det)


def _extreme_points(points):
    """Points of the set that lie in no simplex spanned by the others."""
    pts = set(points)
    return {p for p in pts
            if not any(_in_simplex(p, S) for k in (2, 3, 4)
                       for S in combinations(sorted(pts - {p}), k))}


def test_hull_3d_is_extreme_only_and_canonical():
    rng = random.Random(127)

    def corners(cells):
        return {tuple(map(operator.add, c, o))
                for c in cells for o in product((0, 1), repeat=3)}

    coplanar = {(x, y, x + 2 * y - 1) for x, y in
                ((rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(12))}
    collinear = {tuple(3 * k + d for d in (1, -2, 5))
                 for k in rng.sample(range(-5, 6), 6)}
    clouds = [
        corners([(0, 0, 0), (1, 0, 0)]),             # 4 corners on edges
        corners([(0, 0, 0), (1, 1, 0)]),             # 2 corners inside facets
        corners([(0, 0, 0), (1, 0, 0), (0, 0, 1)]),  # an L: edge, facet, inside
        corners([(0, 0, 0)]), coplanar, collinear,
    ] + [{tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(12)}
         for _ in range(3)]
    solid = non_extreme = 0
    for cloud in clouds:
        pts = sorted(cloud)
        verts, faces = hull_3d(pts + pts[:3])
        assert set(verts) == _extreme_points(pts) and len(verts) == len(set(verts))
        solid += bool(faces)
        non_extreme += len(pts) - len(verts)
        for _ in range(3):
            rng.shuffle(pts)
            assert hull_3d(pts) == (verts, faces)
        # scaled by 12, the centroids of pairs and triples are lattice points
        # inside, on facets and on edges of the hull, and those of
        # tetrahedra are strictly inside
        big = [tuple(12 * x for x in p) for p in pts]
        base = hull_3d(big)
        assert set(base[0]) == {tuple(12 * x for x in v) for v in verts}
        extra = [tuple(sum(c) // len(S) for c in zip(*S))
                 for k in (2, 3) for S in combinations(big, k)]
        rng.shuffle(extra)
        assert hull_3d(extra + big) == base
        inner = [tuple(sum(c) // 4 for c in zip(*S))
                 for S in rng.sample(list(combinations(big, 4)), 12)
                 if _dot(_sub(S[1], S[0]), _cross(_sub(S[2], S[0]), _sub(S[3], S[0])))]
        assert hull_3d(inner + big) == base
    assert solid == 7 and non_extreme >= 20, (solid, non_extreme)


def _pad3(p):
    return tuple(map(Fraction, p)) + (Fraction(0),) * (3 - len(p))


def _in_hull(x, points):
    """Carathéodory: x is a point or lies in a simplex of 2 to 4 of them."""
    x, pts = _pad3(x), sorted({_pad3(p) for p in points})
    return x in pts or any(_in_simplex(x, S) for k in (2, 3, 4)
                           for S in combinations(pts, k))


def test_polytope_contains_matches_caratheodory():
    rng = random.Random(131)

    def q():
        return Fraction(rng.randrange(-12, 13), rng.randrange(1, 5))

    def combo(pts, w):
        return tuple(sum(wi * p[i] for wi, p in zip(w, pts)) / sum(w)
                     for i in range(len(pts[0])))

    bodies = []  # (generating points, flat?)
    for _ in range(2):
        bodies.append(([(q(),) for _ in range(4)], False))
        bodies.append(([tuple(q() for _ in range(2)) for _ in range(5)], False))
        bodies.append(([tuple(q() for _ in range(3)) for _ in range(6)], False))
        for n in (1, 2, 3):
            bodies.append(([tuple(q() for _ in range(n))], True))       # point
        for n in (2, 3):
            a, u = [q() for _ in range(n)], [q() for _ in range(n)]
            bodies.append(([tuple(x + k * y for x, y in zip(a, u))
                            for k in (q(), q(), q())], True))             # segment
        a, u, w = ([q() for _ in range(3)] for _ in range(3))
        bodies.append(([tuple(x + s * y + t * z for x, y, z in zip(a, u, w))
                        for s, t in ((q(), q()) for _ in range(5))], True))  # polygon
    tally = {(flat, n, inside): 0 for flat in (False, True) for n in (1, 2, 3)
             for inside in (False, True)}
    for pts, flat in bodies:
        P = Polytope.from_rational_points(pts)
        n = P.dim
        assert (P.volume == 0) == flat
        g = combo(pts, [1] * len(pts))
        tests = []
        for k in (1, 2, 3):
            for S in combinations(pts, k):
                # vertices, edge midpoints and facet centroids, each also
                # moved by 1/1009 of its distance from g outward and inward
                c = combo(S, [1] * k)
                tests += [c] + [tuple(gi + f * (ci - gi) for gi, ci in zip(g, c))
                                for f in (Fraction(1008, 1009), Fraction(1010, 1009))]
        for _ in range(8):
            c = combo(pts, [rng.randrange(1, 9) for _ in pts])
            tests += [c, tuple(x + Fraction(rng.choice((-1, 1)), 997) for x in c)]
        tests += [tuple(q() + Fraction(rng.randrange(-99, 100), 101) for _ in g)
                  for _ in range(16)]
        for x in tests:
            inside = _in_hull(x, pts)
            assert P.contains(x) == inside, (pts, x)
            tally[flat, n, inside] += 1
        for bad in (g + (Fraction(0),), g[:-1]):
            with pytest.raises(ValueError):
                P.contains(bad)
    assert min(tally.values()) >= 10, tally


def test_domain_roundness_closed_forms():
    def roundness(points, h=Fraction(1, 4)):
        psi = GridFunction(len(points[0]), h, points, [0.0] * len(points))
        return concavity_fit(psi, 0.0, 0.0, Fraction(1, 4)).diagnostics["roundness"]

    # a centred square: the half-width and the corner radius
    assert roundness(grid_2d(3)) == {"r_in": 0.75, "r_out": math.hypot(0.75, 0.75)}
    # a domain that misses the origin has no inradius about it
    off = tuple((i, j) for i in range(1, 4) for j in range(-2, 3))
    assert roundness(off) == {"r_in": 0.0, "r_out": math.hypot(0.75, 0.5)}
    # a collinear 2D domain is flat
    assert roundness(tuple((i, 2 * i) for i in range(-2, 3))) == {
        "r_in": 0.0, "r_out": 0.0}
    # a 1D grid: the distances to the nearer and the farther end
    assert roundness(tuple((i,) for i in range(-2, 7))) == {"r_in": 0.5, "r_out": 1.5}
    assert roundness(tuple((i,) for i in range(1, 7))) == {"r_in": 0.0, "r_out": 1.5}


def test_overlap_bracket_2d_exact():
    sq = LatticeSet(2, 2, frozenset((i, j) for i in range(2) for j in range(2)))
    P = Polytope.from_rational_points([(0, 0), (Fraction(1, 2), 0),
                                       (Fraction(1, 2), 1), (0, 1)])
    assert lattice_polytope_overlap(sq, P) == Fraction(1, 2)


def test_overlap_bracket_3d_certified():
    cube = LatticeSet(3, 4, frozenset((i, j, k) for i in range(4)
                                      for j in range(4) for k in range(4)))
    P = Polytope.from_rational_points(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])  # corner simplex, vol 1/6
    assert lattice_polytope_overlap(cube, P) == Fraction(1, 6)
    # K = [-1, -1/2] x [0, 1]^2 and its mirror image carry scale 2, the
    # coarsest that holds their vertices, and each meets the slab of cells
    # at denom 3 next to it in volume 1/6
    for k_xs, e_x in ((range(-4, -2), -2), (range(2, 4), 1)):
        K = convex_hull(LatticeSet(3, 4, frozenset(product(k_xs, range(4), range(4)))))
        E = LatticeSet(3, 3, frozenset(product([e_x], range(3), range(3))))
        assert K.scale == 2
        assert lattice_polytope_overlap(E, K) == Fraction(1, 6)
    # random rational axis boxes: a cell's overlap with a box is the product
    # of its per-axis interval overlaps
    rng = random.Random(89)
    for _ in range(30):
        q = rng.randrange(1, 7)
        box = [sorted(Fraction(v, q) for v in rng.sample(range(-2 * q, 2 * q + 1), 2))
               for _ in range(3)]
        K = Polytope.from_rational_points(list(product(*box)))
        m = rng.randrange(1, 6)
        cells = frozenset(tuple(rng.randrange(-2 * m, 2 * m) for _ in range(3))
                          for _ in range(rng.randrange(1, 40)))
        exact = sum(math.prod(max(Fraction(0), min(b, Fraction(c + 1, m))
                                  - max(a, Fraction(c, m)))
                              for c, (a, b) in zip(cell, box))
                    for cell in cells)
        assert lattice_polytope_overlap(LatticeSet(3, m, cells), K) == exact
    flat = Polytope.from_rational_points(list(product((0, 1), (0, 1), (0,))))
    assert lattice_polytope_overlap(LatticeSet(3, 2, frozenset([(0, 0, 0)])), flat) == 0


def _outward_planes(K):
    """(normal, offset) per facet: K = {x : normal . x <= offset / K.scale}."""
    V = K.verts
    if K.dim == 1:
        return [((-1,), -V[0][0]), ((1,), V[1][0])]
    if K.dim == 2:  # CCW edge a->b: K lies to the left
        return [((b[1] - a[1], a[0] - b[0]), a[0] * b[1] - a[1] * b[0])
                for a, b in zip(V, V[1:] + V[:1])]
    planes = []
    for a, b, c in ([V[i] for i in f] for f in K.faces):
        u, w = [x - y for x, y in zip(b, a)], [x - y for x, y in zip(c, a)]
        nrm = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
               u[0] * w[1] - u[1] * w[0])
        planes.append((nrm, sum(x * y for x, y in zip(nrm, a))))
    return planes


def test_overlap_exact_by_volume_additivity_and_refinement():
    # Oracles that do not use the overlap's own geometry: a box of cells that
    # covers K overlaps it in K.volume, overlaps add over a split of the
    # cells, and refining the cells changes nothing.
    rng = random.Random(97)
    cut = {1: 0, 2: 0, 3: 0}
    cut_disjoint = 0
    for trial in range(30):
        n = trial % 3 + 1
        if trial % 2:
            q = rng.randrange(1, 6)
            K = Polytope.from_rational_points(
                [tuple(Fraction(rng.randrange(-q, q + 1), q) for _ in range(n))
                 for _ in range(rng.randrange(n + 1, 8))])
        else:  # cell-set hulls, whose 3D vertices include coplanar points
            d = rng.randrange(1, 4)
            K = convex_hull(LatticeSet(n, d, frozenset(
                tuple(rng.randrange(-d, d) for _ in range(n))
                for _ in range(rng.randrange(1, 8)))))
        if K.volume == 0:
            continue
        m = rng.randrange(1, 4)
        sides = [range(math.floor(min(v[i] for v in K.vertices) * m) - 1,
                       math.ceil(max(v[i] for v in K.vertices) * m) + 1)
                 for i in range(n)]
        box = LatticeSet(n, m, frozenset(product(*sides)))
        assert lattice_polytope_overlap(box, K) == K.volume
        part = frozenset(c for c in box.cells if rng.random() < 0.5)
        E1, E2 = LatticeSet(n, m, part), LatticeSet(n, m, box.cells - part)
        ov1 = lattice_polytope_overlap(E1, K)
        assert ov1 + lattice_polytope_overlap(E2, K) == K.volume
        assert lattice_polytope_overlap(E1.refine(2), K) == ov1
        # coverage: cells with corners on both sides of K's boundary, and
        # cells outside K that no single facet plane separates from it
        planes = _outward_planes(K)
        beyond = {p: frozenset(i for i, (nrm, off) in enumerate(planes)
                               if K.scale * sum(map(operator.mul, nrm, p)) > m * off)
                  for p in product(*(range(r.start, r.stop + 1) for r in sides))}
        for cell in box.cells:
            masks = [beyond[p] for p in product(*((c, c + 1) for c in cell))]
            if not all(masks):
                cut[n] += any(masks)
            elif not frozenset.intersection(*masks):
                ov = lattice_polytope_overlap(LatticeSet(n, m, frozenset([cell])), K)
                cut_disjoint += ov == 0
    assert min(cut.values()) >= 5 and cut_disjoint >= 5, (cut, cut_disjoint)


def _clip_segment(p, q, excess):
    """The part of segment pq with a.x <= b for every (a, b), as end points;
    excess[x] lists a.x - b over the half-spaces."""
    t0, t1 = Fraction(0), Fraction(1)
    for fp, fq in zip(excess[p], excess[q]):
        if fp > 0 and fq > 0:
            return []
        if fp > 0:
            t0 = max(t0, fp / (fp - fq))
        elif fq > 0:
            t1 = min(t1, fp / (fp - fq))
    if t0 > t1:
        return []
    return [tuple(x + t * (y - x) for x, y in zip(p, q)) for t in (t0, t1)]


def _overlap_oracle(E, K):
    """|C n K| for every cell C of E, each cell clipped against every plane.

    C n K is the hull of the segments between any two vertices of C clipped
    to K and those between any two vertices of K clipped to C.  A flat K
    has volume 0, and so has every part of it.
    """
    if not K.volume:
        return [Fraction(0)] * len(E.cells)
    k_half = [(nrm, Fraction(off, K.scale)) for nrm, off in _outward_planes(K)]
    out = []
    for cell in E.cells:
        box = [(Fraction(c, E.denom), Fraction(c + 1, E.denom)) for c in cell]
        c_half = [h for i, (lo, hi) in enumerate(box)
                  for h in ((tuple(-(j == i) for j in range(E.dim)), -lo),
                            (tuple(int(j == i) for j in range(E.dim)), hi))]
        pts = []
        for xs, half in ((list(product(*box)), k_half), (K.vertices, c_half)):
            excess = {x: [sum(map(operator.mul, a, x)) - b for a, b in half] for x in xs}
            pts += [x for p, q in combinations(xs, 2) for x in _clip_segment(p, q, excess)]
        out.append(Polytope.from_rational_points(pts).volume if pts else Fraction(0))
    return out


_OVERLAP_CASES = ("hull", "shrunk", "disjoint", "flat", "empty", "far", "far-fine",
                  "solid", "touching")


def _overlap_case(case, E):
    """(E, K) for a random cell set E: K its hull, the hull shrunk (cut cells
    and cells outside), the hull moved clear of E, a flat K, or an empty E.
    The far cases move E by 2^40 cells: "far" keeps int64 (coordinates
    relative to the cells' least corner), and "far-fine" shrinks the hull
    by 1 - 2^-40, a lattice so fine that only Python ints hold the products.
    "solid" fills E's bounding box and shrinks E's hull, so runs several
    cells long are cut at both ends; "touching" moves the hull along the
    last axis onto the far facet of E's bounding box, so K meets E only in
    faces.
    """
    if case in ("far", "far-fine"):
        E = E.translate((2 ** 40,) * E.dim)
    K = convex_hull(E)
    if case == "solid":
        E = LatticeSet(E.dim, E.denom, frozenset(
            product(*(range(lo, hi) for lo, hi in E.bounding_box()))))
    if case == "disjoint":
        (lo, hi), *_ = E.bounding_box()
        return E, K.translate((Fraction(hi - lo, E.denom) + Fraction(1, 3),)
                              + (0,) * (E.dim - 1))
    if case == "touching":
        *_, (lo, hi) = E.bounding_box()
        return E, K.translate((0,) * (E.dim - 1) + (Fraction(hi - lo, E.denom),))
    if case == "flat":
        return E, Polytope.from_rational_points(
            [p + (Fraction(1, 2),) for p in product((-1, Fraction(3, 2)), repeat=E.dim - 1)])
    if case == "empty":
        E = LatticeSet(E.dim, E.denom, frozenset())
    if case != "hull":
        K = K.scale_about(K.centroid(), 1 - Fraction(1, 2 ** 40) if case == "far-fine"
                          else Fraction(3, 4))
    return E, K


@pytest.mark.parametrize("case", _OVERLAP_CASES)
@pytest.mark.parametrize("n", [2, 3])
def test_overlap_matches_cell_by_cell_oracle(n, case):
    rng = random.Random(f"{n} {case}")
    partial = 0
    # a filled 3D box is clipped cell by cell by the oracle: a smaller window
    # keeps it to at most 216 cells
    w = 1 if (n, case) == (3, "solid") else 2
    for _ in range(3):
        m = rng.randrange(1, 4)
        E = LatticeSet(n, m, frozenset(
            tuple(rng.randrange(-w * m, w * m) for _ in range(n))
            for _ in range(rng.randrange(2, 30 if n == 2 else 12))))
        E, K = _overlap_case(case, E)
        if case == "far-fine":  # so the int64 bound fails
            assert K.scale * max(abs(x) for nrm, _ in K.planes for x in nrm) > 2 ** 63
        parts = _overlap_oracle(E, K)
        exact = sum(parts, Fraction(0))
        got = lattice_polytope_overlap(E, K)
        assert type(got) is Fraction and got == exact
        partial += sum(0 < x < Fraction(1, m ** n) for x in parts)
        if case == "hull":
            assert exact == E.measure()
        if case in ("disjoint", "flat", "empty", "touching"):
            assert exact == 0
    if case in ("shrunk", "far", "far-fine", "solid"):
        assert partial > 0


def test_envelope_concave_input_reproduced():
    pts = grid_2d(3)
    vals = tuple(-(0.4 * i * i + 0.3 * j * j) + 0.1 * i for i, j in pts)
    f = GridFunction(2, Fraction(1, 4), pts, vals)
    env = concave_envelope(f)
    assert max(abs(a - b) for a, b in zip(env.values, f.values)) <= 1e-12


def test_envelope_vshape_is_chord():
    pts = tuple((i,) for i in range(-4, 5))
    f = GridFunction(1, Fraction(1, 4), pts, tuple(abs(i) * 1.0 for i, in pts))
    env = concave_envelope(f)
    assert all(abs(v - 4.0) <= 1e-12 for v in env.values)


def test_envelope_majorizes_and_concave_midpoints():
    rng = random.Random(67)
    pts = grid_2d(3)
    for _ in range(10):
        vals = tuple(rng.uniform(-1, 1) for _ in pts)
        f = GridFunction(2, Fraction(1, 4), pts, vals)
        env = concave_envelope(f)
        vd = env.as_dict()
        fd = f.as_dict()
        assert all(vd[p] >= fd[p] - 1e-12 for p in pts)
        for p in pts:
            for q in pts:
                mid = ((p[0] + q[0]) // 2, (p[1] + q[1]) // 2)
                if (p[0] + q[0]) % 2 == 0 and (p[1] + q[1]) % 2 == 0:
                    assert vd[mid] >= (vd[p] + vd[q]) / 2 - 1e-9


def test_envelope_minimality_via_contact_points():
    # the envelope touches the data on the lifted hull's vertices, so it
    # cannot be lowered anywhere without giving up the majorant property
    rng = random.Random(137)
    for k in (1, 2):
        pts = tuple((i,) for i in range(-5, 6)) if k == 1 else grid_2d(2)
        vals = tuple(rng.uniform(-1, 1) for _ in pts)
        f = GridFunction(k, Fraction(1, 4), pts, vals)
        env = concave_envelope(f)
        contacts = [p for p, e, v in zip(pts, env.values, f.values)
                    if e <= v + 1e-9]
        assert len(contacts) >= k + 1


def test_envelope_collinear_domain():
    pts = tuple((i, 2 * i) for i in range(5))
    f = GridFunction(2, Fraction(1, 4), pts, (0.0, 1.0, 1.2, 1.0, 0.0))
    env = concave_envelope(f)
    vd = env.as_dict()
    assert vd[(0, 0)] == 0.0 and vd[(4, 8)] == 0.0
    assert vd[(2, 4)] >= 1.2 - 1e-12


def _cross2(u, w):
    return u[0] * w[1] - u[1] * w[0]


def _convex_combinations(points):
    """Per point p, the weight lists [(i, w_i)] of the segments and triangles
    of grid points that contain p, with p itself; 1D points are padded to 2D.
    """
    pts = [tuple(p) + (0,) * (2 - len(p)) for p in points]
    out = []
    for k, p in enumerate(pts):
        combos = [[(k, 1)]]
        for i, j in combinations(range(len(pts)), 2):
            ab, ap = _sub(pts[j], pts[i]), _sub(p, pts[i])
            if _cross2(ab, ap) == 0 and 0 <= _dot(ap, ab) <= _dot(ab, ab):
                lam = Fraction(_dot(ap, ab), _dot(ab, ab))
                combos.append([(i, 1 - lam), (j, lam)])
        for tri in combinations(range(len(pts)), 3):
            a, b, c = (pts[i] for i in tri)
            area = _cross2(_sub(b, a), _sub(c, a))
            lams = [_cross2(_sub(b, p), _sub(c, p)), _cross2(_sub(c, p), _sub(a, p)),
                    _cross2(_sub(a, p), _sub(b, p))]
            if area and all(x * area >= 0 for x in lams):
                combos.append([(i, Fraction(x, area)) for i, x in zip(tri, lams)])
        out.append(combos)
    return out


def _envelope_oracle(combos, values):
    """Exact envelope by Caratheodory: the best convex combination at each p."""
    vals = [Fraction(v) for v in values]
    return [max(sum(w * vals[i] for i, w in c) for c in cs) for cs in combos]


def test_envelope_matches_exact_oracle():
    rng = random.Random(139)
    square = tuple(product(range(4), range(5)))
    cases = [
        (1, tuple((i,) for i in (-7, -4, -3, 0, 1, 2, 5, 6, 9, 13))),
        (2, square),
        (2, tuple(p for p in square if rng.random() < 0.7)),
        (2, tuple((3 * i, 1 - 2 * i) for i in range(7))),  # collinear, slanted
        (2, tuple((2, j) for j in range(-3, 4))),          # collinear, along axis 1
    ]
    for k, pts in cases:
        combos = _convex_combinations(pts)
        for _ in range(3):
            f = GridFunction(k, Fraction(1, 4), pts, [rng.uniform(-1, 1) for _ in pts])
            assert concave_envelope(f).values == tuple(
                map(float, _envelope_oracle(combos, f.values)))
    # affine values with an exact dyadic lift: the envelope is f itself
    for k, pts in ((1, tuple((i,) for i in range(-4, 5))), (2, square)):
        f = GridFunction(k, Fraction(1, 4), pts,
                         [0.5 * p[0] - 0.25 * sum(p[1:]) + 1 for p in pts])
        assert concave_envelope(f).values == f.values
        assert _envelope_oracle(_convex_combinations(pts), f.values) == [
            Fraction(v) for v in f.values]


def test_four_point_linear_zero():
    pts = grid_2d(2)
    lin = GridFunction(2, Fraction(1, 4), pts,
                       tuple(0.5 * i - 0.25 * j + 1 for i, j in pts))
    r = four_point_residual(lin, lin, Fraction(1, 2))
    assert r["res3"] == 0 and r["res4_f"] == 0 and r["res4_g"] == 0


def test_four_point_concave_zero():
    pts = grid_2d(2)
    conc = GridFunction(2, Fraction(1, 4), pts,
                        tuple(-(i * i + j * j) * 0.1 for i, j in pts))
    r = four_point_residual(conc, conc, Fraction(1, 3))
    assert r["res3"] == 0 and r["res4_f"] == 0


def test_four_point_bound_random():
    rng = random.Random(71)
    for _ in range(15):
        pts = tuple((i,) for i in range(rng.randrange(5, 10)))
        f = GridFunction(1, Fraction(1, 8), pts,
                         tuple(rng.uniform(-1, 1) for _ in pts))
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            r = four_point_residual(f, f, t)
            assert r["res4_f_within_bound"] and r["res4_g_within_bound"]


def _four_point_reference(f, g, t):
    """Exhaustive exact (res3, res4_f, res4_g) over every pair of grid points."""
    fd = {p: Fraction(v) for p, v in f.as_dict().items()}
    gd = {p: Fraction(v) for p, v in g.as_dict().items()}

    def combo(y1, y2, w):
        y = tuple(w * a + (1 - w) * b for a, b in zip(y1, y2))
        return tuple(map(int, y)) if all(c.denominator == 1 for c in y) else None

    def res4(vals, w):
        worst = 0
        for y1, y2 in product(f.points, repeat=2):
            a, b = combo(y1, y2, w), combo(y1, y2, 1 - w)
            if a in vals and b in vals:
                worst = max(worst, vals[y1] + vals[y2] - vals[a] - vals[b])
        return worst

    res3 = 0
    for y1, y2 in product(f.points, repeat=2):
        y = combo(y1, y2, t)
        if y in fd:
            res3 = max(res3, t * (fd[y1] - fd[y]) + (1 - t) * (gd[y2] - gd[y]))
    return res3, res4(fd, 1 / (2 - t)), res4(gd, 1 / (1 + t))


def test_four_point_residual_matches_exact_reference():
    rng = random.Random(149)
    domains = [tuple((i,) for i in range(9)),
               tuple((i,) for i in (0, 1, 3, 4, 6, 7, 9, 12)),
               grid_2d(2),
               tuple(p for p in grid_2d(2) if rng.random() < 0.7)]
    for pts in domains:
        for same in (True, False):
            f = GridFunction(len(pts[0]), Fraction(1, 8), pts,
                             [rng.uniform(-1, 1) for _ in pts])
            g = f if same else f.with_values(rng.uniform(-1, 1) for _ in pts)
            for t in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
                res3, r4f, r4g = _four_point_reference(f, g, t)
                r = four_point_residual(f, g, t)
                assert (r["res3"], r["res4_f"], r["res4_g"]) == (
                    float(res3), float(r4f), float(r4g))
                assert (r["bound_f"], r["bound_g"]) == (
                    float(2 / t * res3), float(2 / (1 - t) * res3))
                assert r["res4_f_within_bound"] == (r4f <= 2 / t * res3)
                assert r["res4_g_within_bound"] == (r4g <= 2 / (1 - t) * res3)


def test_grid_function_rejects_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            GridFunction(1, Fraction(1, 4), ((0,), (1,), (2,)), (0.0, bad, 1.0))
        with pytest.raises(ValueError):
            GridFunction(2, Fraction(1, 4), ((0, 0), (1, 0), (0, 1)), (bad, 0.0, 1.0))


def test_grid_function_rejects_non_positive_spacing():
    pts, vals = ((-1,), (0,), (1,)), (-1.0, 0.0, -1.0)
    for h in (0, Fraction(-1, 2), -2):
        with pytest.raises(ValueError, match="spacing"):
            GridFunction(1, h, pts, vals)
    assert GridFunction(1, 2, pts, vals).spacing == 2


def test_step_a_quadratic_identity():
    # |y12'|^2 + |y12''|^2 - |y1|^2 - |y2|^2 = -2 t'(1-t') |y1-y2|^2, exactly
    rng = random.Random(73)
    for _ in range(50):
        tp = Fraction(rng.randrange(1, 8), 8)
        y1 = (Fraction(rng.randrange(-8, 8), 4), Fraction(rng.randrange(-8, 8), 4))
        y2 = (Fraction(rng.randrange(-8, 8), 4), Fraction(rng.randrange(-8, 8), 4))
        y12a = tuple(tp * a + (1 - tp) * b for a, b in zip(y1, y2))
        y12b = tuple((1 - tp) * a + tp * b for a, b in zip(y1, y2))
        sq = lambda y: y[0] * y[0] + y[1] * y[1]
        lhs = sq(y12a) + sq(y12b) - sq(y1) - sq(y2)
        diff = tuple(a - b for a, b in zip(y1, y2))
        assert lhs == -2 * tp * (1 - tp) * sq(diff)


def test_level_set_integral_concave_vs_spiky():
    pts = grid_2d(2)
    conc = GridFunction(2, Fraction(1, 4), pts,
                        tuple(-(i * i + j * j) * 0.1 for i, j in pts))
    in_H, out_H = level_set_convexity_integral(conc)
    assert out_H == 0
    assert in_H >= 0


def test_concavity_fit_sigma_zero_recovers_concave():
    pts = grid_2d(3)
    vals = tuple(-(0.2 * i * i + 0.3 * j * j) for i, j in pts)
    psi = GridFunction(2, Fraction(1, 4), pts, vals)
    fit = concavity_fit(psi, 0.0, 0.0, Fraction(1, 2))
    assert fit.l1_error <= 1e-9
    assert fit.diagnostics["range_ok"]
    assert fit.level_h == max(v + 2 for v in vals)


def test_concavity_fit_refuses_sigma_not_finite_or_negative():
    psi = GridFunction(1, Fraction(1, 4), ((0,), (1,), (2,)), (0.0, 1.0, 0.0))
    for sigma, varsigma in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                            (0.0, -math.inf), (-0.1, 0.0), (0.5, -0.6)):
        with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
            concavity_fit(psi, sigma, varsigma, Fraction(1, 2))
    assert concavity_fit(psi, 0.5, 0.25, Fraction(1, 2)).sigma == 0.5


def test_concavity_fit_contacts_are_exact():
    # affine values touch their envelope everywhere; a dip of 2^-40 at one
    # point, far below any float slack, takes that point off the envelope
    pts = tuple((i, j) for i in range(-2, 3) for j in range(-2, 3))
    vals = [(i - 2 * j) / 8 for i, j in pts]
    fit = concavity_fit(GridFunction(2, Fraction(1, 4), pts, tuple(vals)),
                        0.0, 0.0, Fraction(1, 2))
    assert fit.diagnostics["contact_density"] == 1.0
    assert fit.diagnostics["range_ok"]
    vals[pts.index((0, 0))] -= 2.0 ** -40
    fit = concavity_fit(GridFunction(2, Fraction(1, 4), pts, tuple(vals)),
                        0.0, 0.0, Fraction(1, 2))
    assert fit.diagnostics["contact_density"] == 24 / 25
    assert dict(zip(fit.Phi.points, fit.Phi.values))[(0, 0)] == 2.0
    line = tuple((i,) for i in range(3))
    fit = concavity_fit(GridFunction(1, Fraction(1, 4), line, (0.0, -2.0 ** -40, 0.0)),
                        0.0, 0.0, Fraction(1, 2))
    assert fit.diagnostics["contact_density"] == 2 / 3
    assert fit.Phi.values == (2.0, 2.0, 2.0)


def test_concavity_fit_truncation_removes_spike():
    pts = grid_2d(3)
    vals = [-(0.1 * (i * i + j * j)) for i, j in pts]
    spike_at = pts.index((0, 0))
    vals[spike_at] = 50.0
    psi = GridFunction(2, Fraction(1, 4), pts, tuple(vals))
    fit = concavity_fit(psi, 1e-2, 0.0, Fraction(1, 2))
    # the spike is cut by the level truncation: the fitted value at the spike
    # point stays near the concave bulk, far below the spike
    fitted = dict(zip(fit.Psi.points, fit.Psi.values))[(0, 0)]
    assert fitted < 5.0
    assert fit.level_h < 50.0 / fit.diagnostics["Mhat"] + 2


def test_concavity_fit_l1_decreasing_in_sigma():
    rng = random.Random(79)
    pts = grid_2d(3)
    base = tuple(-(0.2 * i * i + 0.25 * j * j) for i, j in pts)
    errs = []
    for sigma in (1e-1, 1e-2, 1e-3):
        trials = []
        for rep in range(3):
            noisy = tuple(b + sigma * rng.uniform(-1, 1) for b in base)
            psi = GridFunction(2, Fraction(1, 4), pts, noisy)
            trials.append(concavity_fit(psi, sigma, 0.0, Fraction(1, 2)).l1_error)
        errs.append(sum(trials) / len(trials))
    assert errs[0] > errs[1] > errs[2]


def test_linear_fit_exact_line_and_anchoring():
    pts = tuple((i,) for i in range(-8, 9))
    f = GridFunction(1, Fraction(1, 8), pts,
                     tuple(0.7 * i / 8 + 0.3 for i, in pts))
    res = linear_fit(f, Fraction(-1), Fraction(1))
    assert res["sup_dev"] <= 1e-12
    assert res["anchored"]


def test_linear_fit_bounded_noise_stable_under_refinement():
    rng = random.Random(83)
    sups = []
    for m in (32, 128, 512):
        pts = tuple((i,) for i in range(-m, m + 1))
        f = GridFunction(1, Fraction(1, m), pts,
                         tuple(2.0 * i / m - 1.0 + rng.uniform(-1, 1)
                               for i, in pts))
        res = linear_fit(f, Fraction(-1), Fraction(1))
        sups.append(res["sup_dev"])
    # deviation stays bounded by the noise scale, non-growing across sizes
    assert all(s <= 2.0 + 1e-9 for s in sups)


def test_linear_fit_missing_anchor():
    pts = tuple((i,) for i in range(5))
    f = GridFunction(1, Fraction(1, 4), pts, (0.0,) * 5)
    with pytest.raises(ValueError):
        linear_fit(f, Fraction(-1), Fraction(1))


# (n, family, denom, eps); every instance runs with seeds 1 and 2
_GEOMETRY_SPECS = (
    (1, "perturbed-square", 8, Fraction(1, 4)),
    (2, "homothetic-convex", 4, 0),
    (2, "boundary-bites", 6, Fraction(1, 4)),
    (3, "boundary-bites", 2, Fraction(1, 4)),
)

# SHA-256 of the repr of each output, keyed by (function, family, n, seed).
# Recorded from an earlier implementation of the hull and polytope code, so a
# rewrite that changes a vertex, a face order, a lattice scale, a volume, a
# centroid or a float in the last digit fails here.  The 3D overlap entries
# were recorded from the per-cell overlap, before it clipped whole runs.  The
# concave_envelope entries hold the exact envelope rounded once to floats,
# the values that test_envelope_matches_exact_oracle checks against
# Caratheodory.  The homothetic-convex n = 2 convex_hull and translate
# entries were re-recorded when convex_hull began to take its lattice from
# the hull's vertices: the unit square now has scale 1, not 4, with the same
# vertices as Fractions, faces, volume and centroid.
_GEOMETRY_DIGESTS = {
    ("convex_hull", "perturbed-square", 1, 1):
        "b6dc4556a500a541cb0af3bb948ce4d22d9d5455a768d936c10b7e5b1c29c622",
    ("translate", "perturbed-square", 1, 1):
        "e528e1549919bc999542f3c248266e9f3f717726ae6182c3bef0b7df0ff8107c",
    ("scale_about", "perturbed-square", 1, 1):
        "1e7640f6d12865e86068e62eb75e0464982554286b10eca5621edb3e86fdeb79",
    ("overlap", "perturbed-square", 1, 1):
        "ceab53df17bad5d17148d7bcc58ba61573a41ad190edb71e2650ac46ddf1876a",
    ("hull_distance", "perturbed-square", 1, 1):
        "eb50b5a45c0b093f777e05f7286baf4e02a320c4cc54928d80eb5a01d74fe4f0",
    ("cos_pipeline", "perturbed-square", 1, 1):
        "a1755be196cf5eeffea2ab6484b3d633f3716bb2d6518b5899e5379e6b3a868b",
    ("convex_hull", "perturbed-square", 1, 2):
        "32cc4a5abfe47a127795320c8c7450f30b25cb5a5ad61a3d97b276e6c24f4e9e",
    ("translate", "perturbed-square", 1, 2):
        "ec0f915afa753586dd028fa922866f7d41f35df81c5b1bf84ce6977b113fbf25",
    ("scale_about", "perturbed-square", 1, 2):
        "0e048527cc8c04e52013a037e95313364deb2e3faa7155ac909fcfdabc6f087a",
    ("overlap", "perturbed-square", 1, 2):
        "ddc3c16a88e57904204bf984bafea673d92e5eb22bc3b4b02de6499903c44075",
    ("hull_distance", "perturbed-square", 1, 2):
        "8b6a0e445e11188500e0b44b2d29ba6a7d520e6a36c07870584d9ec32818faab",
    ("cos_pipeline", "perturbed-square", 1, 2):
        "fae915b0b8003ca6f20363e0a8365c6ff2d700078e6db0f972a62b393d8fd28f",
    ("convex_hull", "homothetic-convex", 2, 1):
        "c69a6a27a6be7fe080e882a2754aee2c49fa1fe602d776600d08b255de59b139",
    ("translate", "homothetic-convex", 2, 1):
        "d43065eb753314cfd411f3bb2d2f0200fb609c2cb962762afcb33683934f1907",
    ("scale_about", "homothetic-convex", 2, 1):
        "532226b73688e2530ffdba547e47a125936892143b543a791a2f53d36ddc5ce2",
    ("overlap", "homothetic-convex", 2, 1):
        "d4842fed9608d753a09ac0c17ead13f353310a4fc37c00dd99e4425c9e128af1",
    ("hull_distance", "homothetic-convex", 2, 1):
        "2bd1b807f71e636b301e37d13b623486e6f33ff0cc82fef4687465743d0c315c",
    ("cos_pipeline", "homothetic-convex", 2, 1):
        "4d5b92479b5525915aac8825e43b3d018f9e474976895624b66be9b6394de643",
    ("convex_hull", "homothetic-convex", 2, 2):
        "c69a6a27a6be7fe080e882a2754aee2c49fa1fe602d776600d08b255de59b139",
    ("translate", "homothetic-convex", 2, 2):
        "d43065eb753314cfd411f3bb2d2f0200fb609c2cb962762afcb33683934f1907",
    ("scale_about", "homothetic-convex", 2, 2):
        "532226b73688e2530ffdba547e47a125936892143b543a791a2f53d36ddc5ce2",
    ("overlap", "homothetic-convex", 2, 2):
        "d4842fed9608d753a09ac0c17ead13f353310a4fc37c00dd99e4425c9e128af1",
    ("hull_distance", "homothetic-convex", 2, 2):
        "2bd1b807f71e636b301e37d13b623486e6f33ff0cc82fef4687465743d0c315c",
    ("cos_pipeline", "homothetic-convex", 2, 2):
        "4d5b92479b5525915aac8825e43b3d018f9e474976895624b66be9b6394de643",
    ("convex_hull", "boundary-bites", 2, 1):
        "59d97c3e673ab4186308c66ff772b5d44bc8b3adedb508fe9ffd4da1d8fde177",
    ("translate", "boundary-bites", 2, 1):
        "d8c33525e778a524569efd5115c4559cefd3c4a821ce60d06071faa0cdcba0fc",
    ("scale_about", "boundary-bites", 2, 1):
        "2ce0d22292210f1708d70d0b541eddcaf36eef957beac8a42a093c886506aef2",
    ("overlap", "boundary-bites", 2, 1):
        "667c89736c54fe02066ff890b780f749eec0f4ca29b2e4a437e190f3d3965206",
    ("hull_distance", "boundary-bites", 2, 1):
        "03a91c255bfb2d2c943516aeb349bafe85636ec822337eebbabad4d6db951869",
    ("cos_pipeline", "boundary-bites", 2, 1):
        "eafaecf3711b6927b31877ed7f2445f454ec6cec0a8ff940cb5ace3345b0a474",
    ("convex_hull", "boundary-bites", 2, 2):
        "8d386cc3521375681d2850fdfa913cfbeaad059010681e1c4ec10f489b1161de",
    ("translate", "boundary-bites", 2, 2):
        "c41c3f82f82f9f4cae3b5ebb982cef159adf8b72e0b590f6963b7ba090e9e455",
    ("scale_about", "boundary-bites", 2, 2):
        "c13ecb0989bf98280e8619421e00f4482347d79872b074007c42c4d1e11850e9",
    ("overlap", "boundary-bites", 2, 2):
        "667c89736c54fe02066ff890b780f749eec0f4ca29b2e4a437e190f3d3965206",
    ("hull_distance", "boundary-bites", 2, 2):
        "03a91c255bfb2d2c943516aeb349bafe85636ec822337eebbabad4d6db951869",
    ("cos_pipeline", "boundary-bites", 2, 2):
        "c34fdc867be8058e7ae9d7953168d119418703824bd40c2e2a67211c94893e2a",
    ("convex_hull", "boundary-bites", 3, 1):
        "6f0aa14f85ad6d2671a4f46cf91c750899b79f06aaedbcdd4748e013f70048d4",
    ("translate", "boundary-bites", 3, 1):
        "742803c46e5d87621348c276cef14f2d61855556e87643dc15b58533a932cb0c",
    ("scale_about", "boundary-bites", 3, 1):
        "e6cf15e9c2695165f009dbf1c9efe006d026e449a900d85956855b7f60c0fa35",
    ("overlap", "boundary-bites", 3, 1):
        "bfe436ab6349369e4bd1a3928afdb86b934c369e9cd609b7aa2edf96edecd401",
    ("hull_distance", "boundary-bites", 3, 1):
        "0f70326f87a489f215c19153060b0c1009c9340c097c00bf248ae1fad1bc9d94",
    ("cos_pipeline", "boundary-bites", 3, 1):
        "32602f71855e9129563485be9f71d55dde4cf13beb4bd0c84e1b27851eba7ecf",
    ("convex_hull", "boundary-bites", 3, 2):
        "2528161ef8d34b20c9754ee6fd3b3446213c9aebb40ac655d9c2a95aaac36122",
    ("translate", "boundary-bites", 3, 2):
        "4a45ce92a2d66811975bc0817ae39bc5232f585e608d2417b62ecc0adc397b15",
    ("scale_about", "boundary-bites", 3, 2):
        "36e3316204f20fea3e01f7d4bc6f0c343c90f35a893e4d54ed8ab4c0eb1d3411",
    ("overlap", "boundary-bites", 3, 2):
        "bfe436ab6349369e4bd1a3928afdb86b934c369e9cd609b7aa2edf96edecd401",
    ("hull_distance", "boundary-bites", 3, 2):
        "0f70326f87a489f215c19153060b0c1009c9340c097c00bf248ae1fad1bc9d94",
    ("cos_pipeline", "boundary-bites", 3, 2):
        "8921ddf1e594278463998f4e30197afaea29ae92899b0d6b1d8606524cac4c06",
    ("concave_envelope", 2, 1):
        "b5721380067b9cef18c94fc978ab410daf7070e240afee3bf49261bf94ba52b0",
    ("level_set", 1, 1):
        "36a7f49b8ffdfc55d6244aa7b71e3a970a8e83da49b80628412a56bb0898f523",
    ("level_set", 2, 1):
        "545680f5eae96eface8f52433e434abfc48b709bd6e2304b075e087b41e7ed41",
    ("concave_envelope", 2, 2):
        "c762508a1e0885d26d47c756e006884bec9a045ef1adef2474c470b6b9375f4e",
    ("level_set", 1, 2):
        "7a59df3ba0b6db995033aab5d62c989e206af12b80d4549ce56c1f5d8be66355",
    ("level_set", 2, 2):
        "fe5ba4bee9462a3c6086a6f33180565b9abb233d5e7c7b79150d0c817197ec78",
}


def _polytope_key(P):
    return (P.dim, P.scale, P.verts, P.faces, P.volume)


def _geometry_outputs():
    out = {}
    for n, family, denom, eps in _GEOMETRY_SPECS:
        for seed in (1, 2):
            A, B = generate_scenario(ScenarioSpec(
                family=family, n=n, denom=denom, eps=eps, seed=seed))
            KA, KB = convex_hull(A), convex_hull(B)
            v = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 4))[:n]
            key = (family, n, seed)
            out[("convex_hull",) + key] = (
                _polytope_key(KA), KA.centroid(), _polytope_key(KB), KB.centroid())
            out[("translate",) + key] = _polytope_key(KA.translate(v))
            out[("scale_about",) + key] = _polytope_key(
                KA.scale_about(KB.centroid(), Fraction(3, 2)))
            # recorded as the (lo, hi) pair the overlap once returned, lo == hi,
            # so the digests recorded then still hold
            ov = lattice_polytope_overlap(B, KA)
            out[("overlap",) + key] = (ov, ov)
            hd = hull_distance(A, B)
            out[("hull_distance",) + key] = (
                hd["v_star"], hd["D_star"], hd["D_at_zero"], _polytope_key(hd["K"]))
            cos = cos_pipeline(A, B, KA, KB, Fraction(1, 2), Fraction(1, 4))
            out[("cos_pipeline",) + key] = tuple(
                _polytope_key(x) if k in ("K", "K0") else x
                for k, x in sorted(cos.items()))
    rng = random.Random(101)
    for seed in (1, 2):
        pts = grid_2d(3)
        f = GridFunction(2, Fraction(1, 4), pts, tuple(rng.uniform(-1, 1) for _ in pts))
        out[("concave_envelope", 2, seed)] = concave_envelope(f).values
        for k in (1, 2):
            pts = tuple((i,) for i in range(-6, 7)) if k == 1 else grid_2d(3)
            psi = GridFunction(k, Fraction(1, 4), pts,
                               tuple(rng.uniform(-1, 1) for _ in pts))
            out[("level_set", k, seed)] = level_set_convexity_integral(
                psi, [(-0.5, 0.25)])
    return out


def test_geometry_outputs_match_recorded_digests():
    got = {key: hashlib.sha256(repr(value).encode()).hexdigest()
           for key, value in _geometry_outputs().items()}
    assert got == _GEOMETRY_DIGESTS


# SHA-256 of cos_pipeline's output on the counterexample family, keyed by
# (n, denom, L), with K_A = K_B the hull of the ball alone (the set less its
# far cell).  The far cell sits outside K0, so the inflation loop doubles c
# two to five times; the geometry digests above all stop at c = 1.
_INFLATION_DIGESTS = {
    (2, 2, 1):
        "94784913bb3491a7afb5827e090fd8269205f67de625d70e4bfd759dd5f18f5a",
    (2, 2, 2):
        "3ddb579c04ab5d38289e372c97a1a7b9abf6e303750d56ad75090f8d407d12d2",
    (2, 2, 4):
        "c9dbf5432c891e6e54b75619ffd2b7ba7fc9b984ba07276317161f32dc8bfe42",
    (2, 3, 1):
        "5a5ec84b944a78f7f62cebabd3efc81c7301f1fe79661d270c646505b83c41e6",
    (2, 3, 2):
        "cb9f3adda689dbac98071447a71f63a0061b7301ae7c573116f7aca1acdad920",
    (2, 3, 4):
        "b4f552d6cdd8b7eebe03473afabf8f0cd855ab030209db60ad345a7bf2016702",
    (3, 1, 1):
        "4ab622d22bc2509c01331709dafcfd704492563eccdf0cab1e06d3bd2c3f2550",
    (3, 1, 2):
        "692d9a18e581a70466ac05f48d5f7cb79affba69783b05e8fc2ef8bdb7b0c055",
    (3, 1, 4):
        "87bd60137616398d61d3699bc139f620d7229024f126026941d9566fcaec692c",
}


def _inflation_outputs():
    out = {}
    for n, denom in ((2, 2), (2, 3), (3, 1)):
        for L in (1, 2, 4):
            A, B = generate_scenario(ScenarioSpec(
                family="counterexample", n=n, denom=denom, L=L))
            K = convex_hull(LatticeSet(n, A.denom, A.array[:-1]))
            cos = cos_pipeline(A, B, K, K, Fraction(1, 2), Fraction(1, 4))
            assert cos["inflation_c"] >= 4
            out[(n, denom, L)] = tuple(
                _polytope_key(x) if k in ("K", "K0") else x
                for k, x in sorted(cos.items()))
    return out


def test_cos_pipeline_inflation_matches_recorded_digests():
    got = {key: hashlib.sha256(repr(value).encode()).hexdigest()
           for key, value in _inflation_outputs().items()}
    assert got == _INFLATION_DIGESTS
