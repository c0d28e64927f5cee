"""Exact lattice representation of compact sets in R^n, n in {1, 2, 3}.

A set is a finite union of closed axis-aligned cubes ("cells") of side 1/m on
the lattice (1/m)Z^n; cell k covers prod_i [k_i/m, (k_i+1)/m].  Boundaries of
adjacent cells overlap in measure zero, so all measure arithmetic is exact
cell counting over the rationals.  Values are immutable and all operations
are pure functions.

A `LatticeSet` stores its cells in one form: the maximal last-axis runs,
one read-only int64 array of (base, first, length) rows in lexicographic
order.  The cell count is stored beside them.  Every way of building a set
makes runs: the constructor sorts its cells once and reads off their runs,
a boolean mask is read row by row, and sums, refinements, translations and
Steiner symmetrization build runs directly.  Measures, bounding boxes,
fibers, slices, hull candidates, the sumset engine, intersections and the
polytope overlap all read the runs, so no library computation lays out a
set's cells.  `LatticeSet.array`, the sorted (k, n)
cell array, and `LatticeSet.cells`, a frozenset of Python-int tuples, are
views laid out from the runs on each read, for tests and the `.vset` text.
Coordinates outside the int64 range are rejected with ValueError, as are
operations whose results would leave it.  Values leave the arrays through
`.tolist()`, so Fractions, hulls and text only ever see Python ints.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._roots import iroot

__all__ = [
    "LatticeSet", "FiberProfile", "measure", "symmetric_difference_measure",
    "fiber_profile", "slice_measure", "superlevel_set",
    "reconcile", "write_vset", "parse_vset",
]

_INT64 = np.iinfo(np.int64)
_CELL_BUDGET = 1 << 24  # entries of a scenario mask or a ball's scan window


def _check_budget(cells: int):
    if cells > _CELL_BUDGET:
        raise ValueError(f"{cells} cells exceed the budget of {_CELL_BUDGET}; reduce denom")


def _box_offsets(steps) -> np.ndarray:
    """The (k, n) int64 offsets of the box prod_i [0, steps_i), sorted."""
    return np.indices(steps, dtype=np.int64).reshape(len(steps), math.prod(steps)).T


_CORNERS = {n: _box_offsets((2,) * n) for n in range(4)}  # a cell's 2^n corners


def _integer(x, what: str) -> int:
    """x as a Python int; ValueError unless x is an integer (int or numpy)."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def _lattice(dim, denom) -> tuple[int, int]:
    """Checked (dim, denom) of a LatticeSet."""
    dim, denom = _integer(dim, "dim"), _integer(denom, "denom")
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if denom < 1:
        raise ValueError(f"denom must be a positive integer, got {denom}")
    return dim, denom


def _check_int64(lo: int, hi: int):
    """ValueError unless the Python ints lo <= hi both fit in int64."""
    if lo < _INT64.min or hi > _INT64.max:
        raise ValueError(f"cell coordinates [{lo}, {hi}] leave the int64 range")


def _run_step(off) -> np.ndarray:
    """The int64 row that translates runs by the integer offsets `off`.

    An offset outside int64 is taken modulo 2^64: the sum wraps back, so
    the caller checks first that every translated cell fits int64.
    """
    return np.array([(o + (1 << 63)) % (1 << 64) - (1 << 63) for o in off] + [0],
                    dtype=np.int64)


def _int64_cells(cells, dim: int) -> np.ndarray:
    """A new (k, dim) int64 array of the given cells, in the given order.

    Accepts an integer array or any iterable of integer dim-tuples; raises
    ValueError on a wrong arity, a non-integer coordinate or one outside
    int64.
    """
    if isinstance(cells, np.ndarray):
        arr = cells
    else:
        cells = list(cells)
        try:
            arr = np.array(cells)
        except ValueError:  # ragged rows
            raise ValueError(f"cells must be {dim}-tuples") from None
        if arr.dtype.kind not in "iu":  # floats, huge ints, anything else
            arr = np.array(cells, dtype=object)
    if arr.size == 0:
        return np.empty((0, dim), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"cells must be {dim}-tuples")
    if arr.dtype.kind == "O":
        values = [_integer(x, "cell coordinate") for x in arr.ravel().tolist()]
        _check_int64(min(values), max(values))
    elif arr.dtype.kind == "u":
        _check_int64(0, int(arr.max()))
    elif arr.dtype.kind != "i":
        raise ValueError(f"cell coordinates must be integers, got {arr.dtype}")
    return np.array(arr, dtype=np.int64)


def _row_breaks(a: np.ndarray) -> np.ndarray:
    """brk[i]: row i of a differs from row i-1; row 0 always starts a run.

    Like every row test and per-axis reduction here, it works one column at
    a time: numpy reduces across the short second axis of a (k, n) array
    many times slower than it makes n passes over strided columns.
    """
    brk = np.zeros(len(a), dtype=bool)
    brk[:1] = True
    for j in range(a.shape[1]):
        brk[1:] |= a[1:, j] != a[:-1, j]
    return brk


def _column_heads(runs: np.ndarray) -> np.ndarray:
    """Indices of the first run of each last-axis column of a runs array."""
    return np.flatnonzero(_row_breaks(runs[:, :-2]))


def _runs_of(c: np.ndarray) -> np.ndarray:
    """The maximal last-axis runs (base, first, length) of a (k, n) int64
    cell array, given in any order and with repeats."""
    if len(c) > 1:
        # later[i]: row i+1 comes after row i (an O(k) test, no sort)
        a, b = c[:-1], c[1:]
        later = b[:, -1] > a[:, -1]
        for j in range(c.shape[1] - 2, -1, -1):
            later = (b[:, j] > a[:, j]) | ((b[:, j] == a[:, j]) & later)
        if not later.all():
            c = c[np.lexsort(c.T[::-1])]
            c = c[np.flatnonzero(_row_breaks(c))]  # each row once
    k, n = c.shape
    # brk[i]: a run starts at row i (brk[k]: the last run ends at row k - 1)
    brk = np.empty(k + 1, dtype=bool)
    brk[0] = brk[k] = True
    inner = brk[1:k]
    np.not_equal(c[1:, -1] - c[:-1, -1], 1, out=inner)
    for j in range(n - 1):
        inner |= c[1:, j] != c[:-1, j]
    at = brk.nonzero()[0]
    runs = np.empty((len(at) - 1, n + 1), dtype=np.int64)
    runs[:, :-1] = c[at[:-1]]
    np.subtract(at[1:], at[:-1], out=runs[:, -1])
    return runs


def _lay_out(first, length, count: int, out=None) -> np.ndarray:
    """first[r], ..., first[r] + length[r] - 1 for each run r in turn; count
    is the sum of length."""
    # cell i, in run r, sits i - offset[r] past first[r]; a wraparound of
    # int64 on the way cancels, as every cell fits int64
    return np.subtract(np.arange(count), np.repeat(np.cumsum(length) - length - first, length),
                       out=out)


def _cells_of(runs: np.ndarray, count: int) -> np.ndarray:
    """The canonical (count, n) cell array of a runs array, read-only."""
    cells = np.empty((count, runs.shape[1] - 1), dtype=np.int64)
    cells[:, :-1] = np.repeat(runs[:, :-2], runs[:, -1], axis=0)
    _lay_out(runs[:, -2], runs[:, -1], count, out=cells[:, -1])
    cells.flags.writeable = False
    return cells


def _common_count(a: np.ndarray, b: np.ndarray) -> int:
    """The number of cells in both of two runs arrays.

    Both lists are merged in (base, first) order.  A run that overlaps a
    run of the other list starting no later is counted against the last run
    of the other list before it, as one list's runs are disjoint.
    """
    r = np.concatenate([a, b])
    order = np.lexsort(r[:, -2::-1].T)  # stable, so a's run first on a tie
    r, in_a = r[order], order < len(a)
    # the other list's last run before run i sits just before the last
    # change of list at or before i
    change = np.ones(len(r), dtype=bool)
    np.not_equal(in_a[1:], in_a[:-1], out=change[1:])
    prev = np.maximum.accumulate(np.where(change, np.arange(len(r)), 0)) - 1
    x, y = r[prev >= 0], r[prev[prev >= 0]]
    end = np.minimum(x[:, -2] + (x[:, -1] - 1), y[:, -2] + (y[:, -1] - 1))
    hit = (end >= x[:, -2]) & (x[:, :-2] == y[:, :-2]).all(axis=1)
    return int((end[hit] - x[hit, -2] + 1).sum())


def _ball_cells(dim: int, M: int, bound: Fraction, power: int, outer: bool) -> np.ndarray:
    """Sorted int64 (k, dim) array of the lattice-1/M cells of a centred ball.

    A cell is kept when its farthest point (outer False) or its nearest
    point (outer True) x has |x|^(2 power) <= bound, so the inner cells lie
    in the ball and the outer cells cover it.  The test is exact: squared
    distances are integers in units of 1/M^2, and their powers fit int64
    for any window within the cell budget.  An integer d has
    (d/M^2)^power <= bound iff d^power <= limit, and with r the integer
    (2 power)-th root of limit every cell that meets the ball lies in
    [-r-1, r] along each axis.
    """
    limit = bound.numerator * M ** (2 * power) // bound.denominator
    r = iroot(limit, 2 * power)
    _check_budget((2 * r + 2) ** dim)
    k = np.arange(-r - 1, r + 1)
    # per axis, the cell's nearest or farthest |x_i|, in units of 1/M
    d = (np.minimum if outer else np.maximum)(abs(k), abs(k + 1))
    dist = d * d
    for _ in range(dim - 1):
        dist = np.add.outer(dist, d * d)
    return np.argwhere(dist ** power <= limit) - r - 1


class LatticeSet:
    """A finite union of lattice cells: dim, denom and the cells as runs.

    `LatticeSet(dim, denom, cells)` takes the cells as an integer array of
    shape (k, dim) or any iterable of integer dim-tuples, in any order and
    with repeats.  `runs` is the set's one stored form: its maximal
    last-axis runs as a read-only (r, dim+1) int64 array, where row
    (y, f, l) holds the cells (y, f), ..., (y, f + l - 1), the rows are
    sorted, and no two runs over one base row y touch.  The last cell of a
    run is f + (l - 1), as f + l may leave int64.  `count` is the number of
    cells.  Equal cell sets on equal lattices are equal and hash equal,
    however they were given.
    """

    __slots__ = ("dim", "denom", "count", "runs")

    def __new__(cls, dim: int, denom: int, cells=()):
        dim, denom = _lattice(dim, denom)
        runs = _runs_of(_int64_cells(cells, dim))
        return cls._new(dim, denom, int(runs[:, -1].sum()), runs)

    @classmethod
    def from_mask(cls, mask, denom: int, origin=0) -> "LatticeSet":
        """The cells i + origin for the true entries i of a boolean array.

        The array's rank is the dimension; origin is an int or one int per
        axis.
        """
        mask = np.asarray(mask, dtype=bool)
        dim, denom = _lattice(mask.ndim, denom)
        try:
            origin = [operator.index(origin)] * dim
        except TypeError:  # one origin per axis
            origin = [_integer(o, "origin") for o in origin]
        if len(origin) != dim:
            raise ValueError("origin arity mismatch")
        # the mask's rows, each followed by a false entry, on one flat line
        # after one more: the line changes at each run's start and one past
        # its end, never across rows, so the changes list starts and ends
        rows, k = math.prod(mask.shape[:-1]), mask.shape[-1] + 1
        line = np.zeros(rows * k + 1, dtype=bool)
        tail = line[1:]
        tail.reshape(rows, k)[:, :-1] = mask.reshape(rows, k - 1)
        edge = (tail != line[:-1]).nonzero()[0]
        start = edge[::2]
        runs = np.empty((len(start), dim + 1), dtype=np.int64)
        # a start's row and its index along the last axis; in 1D the row,
        # always 0, goes to the length column, which is written last
        np.divmod(start, k, out=(runs[:, dim - 2], runs[:, dim - 1]))
        if dim == 3:
            np.divmod(runs[:, 1], mask.shape[1], out=(runs[:, 0], runs[:, 1]))
        if any(origin):  # the far corner; an axis of extent 0 still needs its origin
            far = [o + e - 1 for o, e in zip(origin, mask.shape)]
            _check_int64(min(origin), max(origin + far))
            runs[:, :-1] += origin
        np.subtract(edge[1::2], start, out=runs[:, -1])
        return cls._new(dim, denom, int(np.count_nonzero(mask)), runs)

    @classmethod
    def _from_runs(cls, dim: int, denom: int, base, first, length) -> "LatticeSet":
        """The set of the maximal last-axis runs (base[r], first[r] + i),
        0 <= i < length[r], given in lexicographic order; base is (r, dim-1)."""
        runs = np.empty((len(first), dim + 1), dtype=np.int64)
        runs[:, :-2], runs[:, -2], runs[:, -1] = base, first, length
        return cls._new(dim, denom, int(length.sum()), runs)

    @classmethod
    def _new(cls, dim, denom, count, runs) -> "LatticeSet":
        E = object.__new__(cls)
        runs = np.ascontiguousarray(runs)
        runs.setflags(write=False)
        set_slot = object.__setattr__
        set_slot(E, "dim", dim)
        set_slot(E, "denom", denom)
        set_slot(E, "count", count)
        set_slot(E, "runs", runs)
        return E

    def __setattr__(self, name, value):
        raise AttributeError("LatticeSet is immutable")

    def __reduce__(self):  # pickle and copy carry the runs
        return LatticeSet._new, (self.dim, self.denom, self.count, self.runs)

    @property
    def array(self) -> np.ndarray:
        """The cells as a read-only (k, dim) int64 array, sorted
        lexicographically with no repeated row, laid out from the runs."""
        return _cells_of(self.runs, self.count)

    @property
    def cells(self) -> frozenset:
        """The cells as a frozenset of Python-int tuples."""
        return frozenset(map(tuple, self.array.tolist()))

    def __eq__(self, other):
        if not isinstance(other, LatticeSet):
            return NotImplemented
        return (self.dim == other.dim and self.denom == other.denom
                and self.count == other.count and np.array_equal(self.runs, other.runs))

    def __hash__(self):
        return hash((self.dim, self.denom, self.runs.tobytes()))

    def __repr__(self):
        return (f"LatticeSet(dim={self.dim}, denom={self.denom}, "
                f"cells=<{self.count} cells>)")

    # -- basic queries ------------------------------------------------------

    def measure(self) -> Fraction:
        return Fraction(self.count, self.denom ** self.dim)

    def is_empty(self) -> bool:
        return not self.count

    def bounding_box(self):
        """Per-axis (lo, hi) cell-index ranges, hi exclusive."""
        if self.is_empty():
            raise ValueError("empty set has no bounding box")
        r = self.runs
        if self.dim == 1:  # the runs are sorted along the only axis
            (lo, _), (first, length) = r[0].tolist(), r[-1].tolist()
            return [(lo, first + length)]
        # the runs are sorted, so axis 0 runs from the first run to the last
        first = r[:, -2]
        return [(int(r[0, 0]), int(r[-1, 0]) + 1)] + [
            (int(r[:, a].min()), int(r[:, a].max()) + 1) for a in range(1, self.dim - 1)] + [
            (int(first.min()), int((first + (r[:, -1] - 1)).max()) + 1)]

    def _boxes(self, steps, denom: int) -> "LatticeSet":
        """Cell c becomes the box prod_i [c_i*steps_i, (c_i+1)*steps_i) at denom.

        It works on runs: a maximal last-axis run [f, f + l) over base y
        becomes the run [f*s, (f + l)*s), s = steps[-1], over each base row
        y*steps' + o, o in the box of the base steps steps'.  Those runs are
        maximal too, and one lexsort of their short list by base row and
        first cell puts them in lexicographic order; no cell is laid out.
        """
        r = self.runs
        if self.count:
            for (lo, hi), s in zip(self.bounding_box(), steps):
                _check_int64(lo * s, hi * s - 1)
            count = self.count * math.prod(steps)
            if count > _INT64.max:  # so that no run length or count wraps
                raise ValueError(f"{count} cells leave the int64 range")
        per_run = math.prod(steps[:-1])
        base = (r[:, :-2] * np.array(steps[:-1], dtype=np.int64))[:, None]
        base = (base + _box_offsets(steps[:-1])).reshape(len(r) * per_run, self.dim - 1)
        first = np.repeat(r[:, -2] * steps[-1], per_run)
        length = np.repeat(r[:, -1] * steps[-1], per_run)
        if per_run > 1:
            order = np.lexsort([first] + [base[:, a] for a in range(self.dim - 2, -1, -1)])
            base, first, length = base[order], first[order], length[order]
        return LatticeSet._from_runs(self.dim, denom, base, first, length)

    def refine(self, k: int) -> "LatticeSet":
        """Multiply denom by k; the represented point set (and measure) is unchanged."""
        k = _integer(k, "refinement factor")
        if k < 1:
            raise ValueError("refinement factor must be >= 1")
        if k == 1:
            return self
        return self._boxes((k,) * self.dim, self.denom * k)

    def translate(self, offset) -> "LatticeSet":
        """Translate by integer cell offsets on the current lattice."""
        off = [_integer(o, "offset") for o in offset]
        if len(off) != self.dim:
            raise ValueError("offset arity mismatch")
        if not self.is_empty():
            for (lo, hi), o in zip(self.bounding_box(), off):
                _check_int64(lo + o, hi - 1 + o)
        return LatticeSet._new(self.dim, self.denom, self.count,
                               self.runs + _run_step(off))

    def corner_points(self):
        """All cell corners as integer lattice points (coordinates x denom)."""
        offs = _CORNERS[self.dim].tolist()
        return {tuple(x + o for x, o in zip(c, off))
                for c in self.array.tolist() for off in offs}

    def hull_points(self) -> list:
        """Exact hull candidates: distinct integer points (coordinates x denom)
        whose convex hull is the hull of all cell corners.

        In 1D these are the two end points.  In 2D and 3D every base corner p
        (a corner y+o, o in {0,1}^(n-1), of a last-axis column y) first gets
        the least low end `lo` and the largest high end `hi+1` of the columns
        that touch it; any other corner above p lies between those two.  Then
        a point of the lower envelope (p, low(p)) is dropped when it lies on
        or above the chord of its two neighbours on its line along a base
        axis, and a point of the upper envelope when it lies on or below its
        chord: along the last base axis, and in 3D then along axis 0 on the
        survivors.  This is exact because an extreme point of a hull stays
        extreme in the hull of the points on any plane through it.  The
        arithmetic is int64 when every corner fits in int64 and every axis
        extent is below 2^31, so that each cross product is exact, and on
        Python ints otherwise.
        """
        if self.is_empty():
            return []
        if self.dim == 1:
            (lo, hi), = self.bounding_box()
            return [(lo,), (hi,)]
        r = self.runs
        # brk[i]: a column starts at run i (brk[k]: the last one ends at run
        # k - 1), so each column's first and last run come from one scan
        brk = np.empty(len(r) + 1, dtype=bool)
        brk[0] = brk[-1] = True
        inner = brk[1:-1]
        np.not_equal(r[1:, 0], r[:-1, 0], out=inner)
        for j in range(1, self.dim - 1):
            inner |= r[1:, j] != r[:-1, j]
        at = brk.nonzero()[0]
        head, tail = at[:-1], at[1:] - 1
        base, lo, hi = r[head, :-2], r[head, -2], r[tail, -2] + (r[tail, -1] - 1)
        mins = base.min(axis=0).tolist() + [int(lo.min())]
        maxs = base.max(axis=0).tolist() + [int(hi.max())]
        if max(maxs) == _INT64.max or max(map(operator.sub, maxs, mins)) >= (1 << 31) - 1:
            base, lo, hi = base.astype(object), lo.astype(object), hi.astype(object)
        hi = hi + 1
        # each base corner once, sorted, with the least low and the largest
        # high end of the columns that touch it
        p = (base[None] + _CORNERS[self.dim - 1][:, None]).reshape(-1, self.dim - 1)
        order = np.lexsort(p.T[::-1])
        first = np.flatnonzero(_row_breaks(p[order]))
        p = p[order[first]]
        col = order % len(lo)  # the column of each sorted corner
        low = np.minimum.reduceat(lo[col], first)
        high = np.maximum.reduceat(hi[col], first)
        # the lower envelope (p, low) and the mirrored upper one (p, -high),
        # told apart by a leading tag column, go through the same passes
        k = len(p)
        tagged = np.empty((2 * k, self.dim), dtype=p.dtype)
        tagged[:k, 0], tagged[k:, 0] = 0, 1
        tagged[:k, 1:] = tagged[k:, 1:] = p
        h = np.concatenate([low, -high])
        keep = _chord_keep(tagged, h)
        if self.dim == 3:  # then along base axis 0, on the survivors
            q = tagged[keep][:, [0, 2, 1]]
            order = np.lexsort(q.T[::-1])
            keep = keep[order][_chord_keep(q[order], h[keep[order]])]
        z = np.concatenate([low, high])
        pts = np.column_stack([tagged[keep, 1:], z[keep]])
        return list(map(tuple, pts.tolist()))


def _chord_keep(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Indices of the points (p, z) that one chord pass along p's last
    column keeps; p's rows are distinct and sorted lexicographically.

    A line is a run of rows that differ only in the last column.  A point
    between two neighbours on its line is dropped when it lies on or above
    their chord (a non-positive cross product); the ends of a line stay.
    """
    brk = _row_breaks(p[:, :-1])
    x = p[:, -1]
    dx, dz = x[1:-1] - x[:-2], z[1:-1] - z[:-2]
    cross = dx * (z[2:] - z[:-2]) - dz * (x[2:] - x[:-2])
    drop = np.zeros(len(p), dtype=bool)
    drop[1:-1] = ~brk[1:-1] & ~brk[2:] & (cross <= 0)
    return np.flatnonzero(~drop)


@dataclass(frozen=True)
class FiberProfile:
    """Map from (n-1)-dim base cell indices to exact fiber lengths H^1(E_y)."""
    base_dim: int
    denom: int
    lengths: tuple  # sorted tuple of (index_tuple, Fraction)

    def as_dict(self):
        return dict(self.lengths)


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
    k = E2.count + F2.count - 2 * _common_count(E2.runs, F2.runs)
    return Fraction(k, E2.denom ** E2.dim)


def intersection_measure(E: LatticeSet, F: LatticeSet) -> Fraction:
    E2, F2 = reconcile(E, F)
    return Fraction(_common_count(E2.runs, F2.runs), E2.denom ** E2.dim)


def _columns(E: LatticeSet):
    """(base rows, cell counts) of E's last-axis columns, in base order."""
    if E.dim < 2:
        raise ValueError("fiber and slice profiles need dim >= 2")
    r = E.runs
    head = _column_heads(r)
    return r[head, :-2], np.add.reduceat(r[:, -1], head)


def fiber_profile(E: LatticeSet) -> FiberProfile:
    """Fiber lengths H^1(E_y) over base cells y in the first n-1 coordinates."""
    base, counts = _columns(E)
    lengths = tuple((tuple(y), Fraction(k, E.denom))
                    for y, k in zip(base.tolist(), counts.tolist()))
    return FiberProfile(E.dim - 1, E.denom, lengths)


def _slice_counts(E: LatticeSet):
    """(rows, counts): the last-axis rows that hold a cell, ascending, and
    each one's cell count; the slice through row s has area count/m^(n-1).

    A row's count is the number of runs that start at or below it less the
    number that end below it, and the rows that hold a cell are the union of
    the runs' row ranges, found by the sort-and-sweep of `minkowski._merge`.
    """
    if E.dim < 2:
        raise ValueError("slice measures need dim >= 2")
    r = E.runs
    first, last = np.sort(r[:, -2]), np.sort(r[:, -2] + (r[:, -1] - 1))
    new = np.ones(len(r) + 1, dtype=bool)  # new[i]: a range of rows starts at i
    np.greater(first[1:], last[:-1], out=new[1:-1])
    lo, hi = first[new[:-1]], last[new[1:]]
    rows = _lay_out(lo, hi - lo + 1, int((hi - lo + 1).sum()))
    return rows, np.searchsorted(first, rows, "right") - np.searchsorted(last, rows, "left")


def slice_measure(E: LatticeSet, s_row: int) -> Fraction:
    """H^{n-1} of the slice through the lattice row s_row (last coordinate)."""
    if E.dim < 2:
        raise ValueError("slice_measure needs dim >= 2")
    k = 0
    if _INT64.min <= s_row <= _INT64.max:
        first, length = E.runs[:, -2], E.runs[:, -1]
        k = int(np.count_nonzero((first <= s_row) & (first + (length - 1) >= s_row)))
    return Fraction(k, E.denom ** (E.dim - 1))


def superlevel_set(E: LatticeSet, lam) -> LatticeSet:
    """Base cells whose fiber length strictly exceeds lam, at the same denom."""
    if E.dim < 2:
        raise ValueError("superlevel_set needs dim >= 2")
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    base, counts = _columns(E)
    # an integer count k has k/denom > lam iff k > floor(lam*denom)
    floor = min(math.floor(lam * E.denom), E.count)
    return LatticeSet(E.dim - 1, E.denom, base[counts > floor])


def sup_fiber_length(E: LatticeSet) -> Fraction:
    return Fraction(int(_columns(E)[1].max(initial=0)), E.denom)


def sup_slice_measure(E: LatticeSet) -> Fraction:
    return Fraction(int(_slice_counts(E)[1].max(initial=0)), E.denom ** (E.dim - 1))


# ---------------------------------------------------------------------------
# .vset text format


def write_vset(E: LatticeSet) -> str:
    """Serialize; cells in lexicographic order for a bit-exact round trip."""
    lines = [f"vset {E.dim} {E.denom}", f"cells {E.count}"]
    lines += [" ".join(map(str, c)) for c in E.array.tolist()]
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
        cells.append([int(p) for p in parts])
    E = LatticeSet(dim, denom, cells)
    if E.count != count:
        raise ValueError("duplicate cells in vset payload")
    return E
