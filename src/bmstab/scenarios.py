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

import numpy as np

from ._roots import PI_HI, PI_LO
from .minkowski import IntervalSet
from .vset import LatticeSet, _ball_cells, _check_budget

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
    eps: Fraction = Fraction(0)
    seed: int = 0
    L: int = 4                      # counterexample separation
    bracket: str = "inner"          # counterexample side: inner | outer

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.eps < 0 or self.eps >= 1:
            raise ValueError("eps must lie in [0,1)")
        if self.denom < 1 or self.n not in (1, 2, 3):
            raise ValueError("bad denom or dimension")


def generate_scenario(spec: ScenarioSpec):
    """Deterministic (A, B) pair for a scenario spec; lattice sets except for
    the interval-unions family, which yields IntervalSets."""
    # refuse a family whose mask, face-cell lists or ball lattice would
    # exceed the cell budget before allocating any of them
    m = spec.denom
    side = {"perturbed-square": m + 2, "random-boxes": 2 * m + max(m, 2),
            "counterexample": 4 * m, "interval-unions": 0}.get(spec.family, m)
    _check_budget(side ** spec.n)
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
        A = _interval_union(rng)
        B = _interval_union(rng)
        return A, B
    raise AssertionError(spec.family)


def _unit_cube(n: int, m: int) -> LatticeSet:
    return LatticeSet.from_mask(np.ones((m,) * n, dtype=bool), m)


def _perturbed_cube(n: int, m: int, eps: Fraction, rng: SplitMix64) -> LatticeSet:
    """Unit cube with boundary cells flipped; keeps ||E| - 1| <= eps."""
    budget = int(eps * m ** n / 2)
    if budget == 0:
        return _unit_cube(n, m)
    # the cube's cells on a face, and the cells just outside one face, sorted
    removers = [c for c in product(range(m), repeat=n) if 0 in c or m - 1 in c]
    adders = [c for c in product(range(-1, m + 1), repeat=n)
              if c.count(-1) + c.count(m) == 1]
    k_rem = rng.next_below(budget + 1)
    k_add = rng.next_below(budget + 1)
    grid = np.zeros((m + 2,) * n, dtype=bool)  # cell c at index c + 1
    grid[(slice(1, m + 1),) * n] = True
    for cells, k, value in ((removers, k_rem, False), (adders, k_add, True)):
        for _ in range(min(k, len(cells))):
            c = cells.pop(rng.next_below(len(cells)))
            grid[tuple(x + 1 for x in c)] = value
    return LatticeSet.from_mask(grid, m, -1)


def _bitten_cube(n: int, m: int, eps: Fraction, rng: SplitMix64) -> LatticeSet:
    """Unit cube with one rectangular notch of measure <= eps/2 in a face.

    The notch volume tracks eps (so the family's deficit grows with it) while
    the removal budget keeps ||E| - 1| <= eps/2.
    """
    target = int(eps * m ** n / 2)
    if target == 0:
        return _unit_cube(n, m)
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
    notch = [None] * n
    notch[axis] = slice(0, depth) if side == 0 else slice(m - depth, m)
    other_axes = [a for a in range(n) if a != axis]
    for a, span in zip(other_axes, spans):
        off = rng.next_below(m - span + 1)
        notch[a] = slice(off, off + span)
    cube = np.ones((m,) * n, dtype=bool)
    cube[tuple(notch)] = False
    return LatticeSet.from_mask(cube, m)


def _random_boxes(n: int, m: int, rng: SplitMix64) -> LatticeSet:
    grid = np.zeros((2 * m + max(m, 2),) * n, dtype=bool)
    for _ in range(1 + rng.next_below(4)):
        corner = [rng.next_below(2 * m) for _ in range(n)]
        size = [1 + rng.next_below(max(m, 2)) for _ in range(n)]
        grid[tuple(slice(c, c + s) for c, s in zip(corner, size))] = True
    return LatticeSet.from_mask(grid, m)


def _counterexample_set(n: int, m: int, L: int, bracket: str) -> LatticeSet:
    """Unit-volume ball at the origin plus a far cell at 2L along axis 1.

    The ball is delivered as a certified cell bracket (`_ball_cells`, whose
    integer scan window always holds the whole ball), classified on the
    lattice refined 4x over the base denom (the disk-bracket convention);
    for n = 1 the "ball" is the interval [-1/2, 1/2], exact on any even
    lattice, so both bracket sides coincide.
    """
    if bracket not in ("inner", "outer"):
        raise ValueError("bracket must be 'inner' or 'outer'")
    M = 4 * m
    far = [[2 * L * M] + [0] * (n - 1)]
    if n == 1:
        ball = np.arange(-M // 2, (M + 1) // 2).reshape(-1, 1)
        return LatticeSet(1, M, np.concatenate([ball, far]))
    pi = PI_HI if bracket == "inner" else PI_LO
    if n == 2:  # radius^2 = 1/pi
        bound, power = 1 / pi, 1
    else:  # radius^6 = (3/(4 pi))^2: compare squared distances cubed
        bound, power = (Fraction(3, 4) / pi) ** 2, 3
    ball = _ball_cells(n, M, bound, power, bracket == "outer")
    return LatticeSet(n, M, np.concatenate([ball, far]))


def _interval_union(rng: SplitMix64) -> IntervalSet:
    """Random union of at most 3 intervals with endpoints on (1/16)Z inside [0, 4]."""
    k = 1 + rng.next_below(3)
    cuts = sorted(rng.next_below(65) for _ in range(2 * k))
    comps = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        if b > a:
            comps.append((Fraction(a, 16), Fraction(b, 16)))
    if not comps:
        comps = [(Fraction(0), Fraction(1, 16))]
    return IntervalSet.from_intervals(comps)
