"""Deterministic scenario families for sweeps and experiments.

All randomness flows through SplitMix64, a fixed 64-bit counter-based
generator (Steele-Lea-Vigna finalizer); identical spec + seed therefore
reproduces bit-identical sets on any platform, which is what makes sweep
outputs byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from ._roots import PI_HI, PI_LO
from .minkowski import IntervalSet
from .vset import LatticeSet

__all__ = ["ScenarioSpec", "SplitMix64", "generate_scenario", "FAMILIES"]

FAMILIES = (
    "homothetic-convex", "perturbed-square", "boundary-bites",
    "random-boxes", "counterexample", "interval-unions",
)

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream: state advances by the golden-gamma, output is the
    murmur-style finalizer.  next_u64/next_below are the only primitives, so
    any implementation of the same two functions reproduces every scenario.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("need n >= 1")
        # rejection sampling keeps the stream unbiased
        lim = (_MASK + 1) - (_MASK + 1) % n
        while True:
            v = self.next_u64()
            if v < lim:
                return v % n


@dataclass(frozen=True)
class ScenarioSpec:
    family: str
    n: int = 2
    denom: int = 8
    t: Fraction = Fraction(1, 2)
    tau: Fraction = Fraction(1, 2)
    eps: Fraction = Fraction(0)
    seed: int = 0
    L: int = 4                      # counterexample separation
    bracket: str = "inner"          # counterexample side: inner | outer
    max_components: int = 3         # interval-unions

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "tau", Fraction(self.tau))
        object.__setattr__(self, "eps", Fraction(self.eps))
        if not (0 < self.t < 1):
            raise ValueError("t must lie in (0,1)")
        if self.eps < 0 or self.eps >= 1:
            raise ValueError("eps must lie in [0,1)")
        if self.denom < 1 or self.n not in (1, 2, 3):
            raise ValueError("bad denom or dimension")


def generate_scenario(spec: ScenarioSpec):
    """Deterministic (A, B) pair for a scenario spec; lattice sets except for
    the interval-unions family, which yields IntervalSets."""
    rng = SplitMix64(spec.seed)
    if spec.family == "homothetic-convex":
        cube = _unit_cube(spec.n, spec.denom)
        return cube, cube
    if spec.family == "perturbed-square":
        A = _perturbed_cube(spec.n, spec.denom, spec.eps, rng)
        B = _perturbed_cube(spec.n, spec.denom, spec.eps, rng)
        return A, B
    if spec.family == "boundary-bites":
        A = _bitten_cube(spec.n, spec.denom, spec.eps, rng)
        B = _bitten_cube(spec.n, spec.denom, spec.eps, rng)
        return A, B
    if spec.family == "random-boxes":
        A = _random_boxes(spec.n, spec.denom, rng)
        B = _random_boxes(spec.n, spec.denom, rng)
        return A, B
    if spec.family == "counterexample":
        E = _counterexample_set(spec.n, spec.denom, spec.L, spec.bracket)
        return E, E
    if spec.family == "interval-unions":
        A = _interval_union(rng, spec.max_components)
        B = _interval_union(rng, spec.max_components)
        return A, B
    raise AssertionError(spec.family)


def _unit_cube(n: int, m: int) -> LatticeSet:
    return LatticeSet(n, m, frozenset(product(range(m), repeat=n)))


def _boundary_cells(cells: frozenset, n: int):
    """Cells with at least one missing axis neighbour, sorted for determinism."""
    out = []
    for c in sorted(cells):
        for a in range(n):
            for d in (-1, 1):
                nb = tuple(c[i] + (d if i == a else 0) for i in range(n))
                if nb not in cells:
                    out.append(c)
                    break
            else:
                continue
            break
    return out


def _outer_neighbours(cells: frozenset, n: int):
    out = set()
    for c in cells:
        for a in range(n):
            for d in (-1, 1):
                nb = tuple(c[i] + (d if i == a else 0) for i in range(n))
                if nb not in cells:
                    out.add(nb)
    return sorted(out)


def _perturbed_cube(n: int, m: int, eps: Fraction, rng: SplitMix64) -> LatticeSet:
    """Unit cube with boundary cells flipped; keeps ||E| - 1| <= eps."""
    cube = set(_unit_cube(n, m).cells)
    budget = int(eps * m ** n / 2)
    if budget == 0:
        return LatticeSet(n, m, frozenset(cube))
    removers = _boundary_cells(frozenset(cube), n)
    adders = _outer_neighbours(frozenset(cube), n)
    k_rem = rng.next_below(budget + 1)
    k_add = rng.next_below(budget + 1)
    for _ in range(k_rem):
        if not removers:
            break
        c = removers.pop(rng.next_below(len(removers)))
        cube.discard(c)
    for _ in range(k_add):
        if not adders:
            break
        c = adders.pop(rng.next_below(len(adders)))
        cube.add(c)
    return LatticeSet(n, m, frozenset(cube))


def _bitten_cube(n: int, m: int, eps: Fraction, rng: SplitMix64) -> LatticeSet:
    """Unit cube with one rectangular notch of measure <= eps/2 in a face.

    The notch volume tracks eps (so the family's deficit grows with it) while
    the removal budget keeps ||E| - 1| <= eps/2.
    """
    cube = set(_unit_cube(n, m).cells)
    target = int(eps * m ** n / 2)
    if target == 0:
        return LatticeSet(n, m, frozenset(cube))
    axis = rng.next_below(n)
    side = rng.next_below(2)
    max_depth = max(m // 4, 1)
    depth = min(1 + rng.next_below(max_depth), target)
    cross = max(1, target // depth)  # cells across the notch face
    spans = []
    if n == 2:
        spans = [max(1, min(cross, m))]
    elif n == 3:
        s = max(1, int(round(cross ** 0.5)))
        s = min(s, m)
        spans = [s, max(1, min(cross // s, m))]
    axis_range = range(depth) if side == 0 else range(m - depth, m)
    other_axes = [a for a in range(n) if a != axis]
    offs = [rng.next_below(m - spans[i] + 1) for i in range(len(other_axes))]
    ranges = [None] * n
    ranges[axis] = axis_range
    for i, a in enumerate(other_axes):
        ranges[a] = range(offs[i], offs[i] + spans[i])
    cube.difference_update(product(*ranges))
    return LatticeSet(n, m, frozenset(cube))


def _random_boxes(n: int, m: int, rng: SplitMix64) -> LatticeSet:
    cells = set()
    for _ in range(1 + rng.next_below(4)):
        corner = [rng.next_below(2 * m) for _ in range(n)]
        size = [1 + rng.next_below(max(m, 2)) for _ in range(n)]
        cells.update(product(*(range(c, c + s) for c, s in zip(corner, size))))
    return LatticeSet(n, m, frozenset(cells))


def _counterexample_set(n: int, m: int, L: int, bracket: str) -> LatticeSet:
    """Unit-volume ball at the origin plus a far cell at 2L along axis 1.

    The ball is delivered as a certified cell bracket, classified on the
    lattice refined 4x over the base denom (the disk-bracket convention);
    for n = 1 the "ball" is the interval [-1/2, 1/2], exact on any even
    lattice, so both bracket sides coincide.
    """
    if bracket not in ("inner", "outer"):
        raise ValueError("bracket must be 'inner' or 'outer'")
    M = 4 * m
    if n == 3 and M > 128:
        raise ValueError(
            "3D ball brackets are capped at base denom 32 "
            f"(classification lattice {M} would scan {(2 * int(0.6 * M) + 4) ** 3} cells)")
    cells = set()
    if n == 1:
        for i in range(-M // 2, (M + 1) // 2):
            cells.add((i,))
        cells.add((2 * L * M,))
        return LatticeSet(1, M, frozenset(cells))
    if n == 2:
        # radius^2 = 1/pi
        r2_lo, r2_hi = 1 / PI_HI, 1 / PI_LO
        power = 1
    else:
        # radius^6 = (3/(4 pi))^2; compare squared distances cubed
        r2_lo, r2_hi = (Fraction(3, 4) / PI_HI) ** 2, (Fraction(3, 4) / PI_LO) ** 2
        power = 3
    num_lo, den_lo = r2_lo.numerator, r2_lo.denominator
    num_hi, den_hi = r2_hi.numerator, r2_hi.denominator
    M2 = M ** (2 * power)
    rad = int(0.6 * M) + 2
    rng_axes = range(-rad, rad)
    for cell in product(rng_axes, repeat=n):
        dmin = dmax = 0
        for k in cell:
            near = 0 if k < 0 <= k + 1 else min(abs(k), abs(k + 1))
            far = max(abs(k), abs(k + 1))
            dmin += near * near
            dmax += far * far
        if bracket == "inner":
            if dmax ** power * den_lo <= num_lo * M2:
                cells.add(cell)
        else:
            if dmin ** power * den_hi <= num_hi * M2:
                cells.add(cell)
    far_cell = (2 * L * M,) + (0,) * (n - 1)
    cells.add(far_cell)
    return LatticeSet(n, M, frozenset(cells))


def _interval_union(rng: SplitMix64, max_components: int) -> IntervalSet:
    """Random interval union with endpoints on (1/16)Z inside [0, 4]."""
    k = 1 + rng.next_below(max_components)
    cuts = sorted(rng.next_below(65) for _ in range(2 * k))
    comps = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        if b > a:
            comps.append((Fraction(a, 16), Fraction(b, 16)))
    if not comps:
        comps = [(Fraction(0), Fraction(1, 16))]
    return IntervalSet.from_intervals(comps)
