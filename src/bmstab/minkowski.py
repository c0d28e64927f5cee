"""Exact Minkowski convex combinations, volume deficits, and the 1D engine.

The lattice-set combination S = t*A + (1-t)*B with rational t = p/q is exact:
after the operands share a denom m, every cell pair contributes the cube of
side 1/m whose fine corner (at denom m*q) is p*i + (q-p)*j.  One engine
computes it fiber by fiber.  A run [a0, a1) of A over base cell y and a run
[b0, b1) of B over base cell z combine into the single fine interval
[p*a0 + (q-p)*b0, p*(a1-1) + (q-p)*(b1-1) + q) over the base corner
p*y + (q-p)*z; it is contiguous because consecutive corner sums differ by p
or q-p, both below the block length q.  The intervals lie on one flat int32
line of S's base rows, each a cell longer than S's last axis so that rows
never touch, and their union is the 1D engine's sort-and-sweep (`_merge`).
Each cube also spans q fine base rows per base axis, so S is the union of
the q^(n-1) copies of that union shifted by j @ line for j in [0, q)^(n-1);
a base corner lies at most shape - q along each base axis, so every copy
stays inside S's box, on the line.  The operands' runs are read from
`LatticeSet.runs`, the one form a set is stored in, and each one's line
positions come from one product of its runs with weights.  Run pairs, and
then the copies, are merged in chunks of at most _PAIR_CHUNK entries into a
running union (one merge on small sets), so memory stays bounded by the
chunk plus the union's runs.
From _COVER_PAIRS run pairs on (the measured break-even), a pair whose
interval lies inside a neighbour pair's is dropped before the merge, a
dominance prefilter in the manner of maxima of vectors (Kung, Luccio &
Preparata, JACM 22, 1975).  Moving A's run by (q-p)*e_k and B's by -p*e_k,
or both the other way, keeps the pair's base corner, so the pair is covered
when p*dfirst_A + (q-p)*dfirst_B <= 0 and p*dlast_A + (q-p)*dlast_B >= 0.
The tie rule: in the -e_k directions the containment must be strict, so
no chain of covers closes on itself, every dropped pair is covered by a kept
one, and S is unchanged.  Runs are grouped into classes by their clipped
neighbour deltas, and the table over A's and B's classes is read in blocks
of at most _PAIR_CHUNK entries.  The surviving pairs are counted exactly,
once per call: when more than half survive, every pair is merged with no
further table work.  Otherwise each operand's runs are sorted by class, so
a row of the table lists its surviving pairs as rectangles of A's runs
against ranges of B's, expanded a chunk at a time.  On criterion 01's 3D
inputs under 4% of the pairs reach the merge.
`deficit` sums the runs' lengths, and `convex_combination` returns S as those
runs, so no cell of S is laid out.  No cell passes through a Python tuple.
Everything is exact integer arithmetic: S's extent is sized in Python ints
first, and a combination whose cells would leave int64 is refused.
Randomized tests compare the engine, at every chunking, against a
pure-Python brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from ._roots import root_bracket
from .vset import _INT64, LatticeSet, _check_int64, _merge, reconcile

__all__ = [
    "convex_combination", "convex_combination_bruteforce", "deficit",
    "DeficitRecord", "IntervalSet", "interval_sumset", "kemperman_batch",
    "kemperman_stability", "write_iset", "parse_iset",
]

_DENOM_GUARD = 1 << 20
# S's box holds at most 2^25 cells, so its flat line, each base row one cell
# longer than S's last axis, has at most 2 * 2^25 = 2^26 < 2^31 positions:
# every key, end and block shift of the engine is an exact int32
_GRID_GUARD = 1 << 25
_PAIR_CHUNK = 1 << 18  # run pairs merged per vectorized step
# run pairs from which covered pairs are dropped before the merge: the
# break-even that tools/bench_layers.py measures lies near 2^16 in 2D and 3D
_COVER_PAIRS = 1 << 16
_COVER_CLIP = 2  # neighbour deltas are told apart up to this many cells
_SUM_CHUNK = 1 << 20  # interval sums swept per vectorized step


def _as_lowest_terms(t) -> Fraction:
    if not isinstance(t, Fraction):
        t = Fraction(t)
    if not 0 < t.numerator < t.denominator:
        raise ValueError(f"t must lie in (0,1), got {t}")
    return t


def convex_combination(A: LatticeSet, B: LatticeSet, t) -> LatticeSet:
    """Exact S = t*A + (1-t)*B at denom m*q (t = p/q in lowest terms).

    t must be rational; a caller holding an irrational weight picks a
    rational approximation first (the combination measure is continuous in
    t, so the approximation error is the caller's to budget).
    """
    t = _as_lowest_terms(t)
    n, denom, lo, shape, s, e = _combination_runs(A, B, t.numerator, t.denominator)
    head = np.array(np.unravel_index(s, shape[:-1] + [shape[-1] + 1])).T + lo
    return LatticeSet._from_runs(n, denom, head[:, :-1], head[:, -1], e - s)


def _combination_runs(A: LatticeSet, B: LatticeSet, p: int, q: int):
    """The engine: (n, denom, lo, shape, starts, ends) of S = t*A + (1-t)*B,
    t = p/q in lowest terms with 0 < p < q.

    S lies in the box [lo, lo + shape) at denom m*q; its maximal last-axis
    runs are [starts[r], ends[r]) on the line that puts cell lo + c at the
    C-order index of c in shape[:-1] + [shape[-1] + 1] (sorted int32 arrays).
    """
    A, B = reconcile(A, B)
    m = A.denom
    if q * m > _DENOM_GUARD:
        raise ValueError(f"fine denom {q * m} exceeds guard {_DENOM_GUARD}")
    n = A.dim
    if A.is_empty() or B.is_empty():
        none = np.empty(0, dtype=np.int32)
        return n, m * q, [0] * n, [1] * n, none, none

    # S's cells span [lo, lo + shape) per axis; sized with Python ints, so
    # coordinates that would leave int64 are refused before any numpy step
    box_a, box_b = A.bounding_box(), B.bounding_box()
    lo, shape = [], []
    for (a0, a1), (b0, b1) in zip(box_a, box_b):
        lo.append(p * a0 + (q - p) * b0)
        shape.append(p * (a1 - 1) + (q - p) * (b1 - 1) + q - lo[-1])
    _check_int64(min(lo), max(l + s - 1 for l, s in zip(lo, shape)))
    if math.prod(shape) > _GRID_GUARD:
        raise ValueError("combination grid too large; reduce denom or set size")
    # each axis' unit step on the line; a run pair's interval starts at the
    # sum of its runs' first positions and ends at their last ones' sum + q
    line = [math.prod(shape[a + 1:-1]) * (shape[-1] + 1) for a in range(n - 1)] + [1]
    sa, ea = _fiber_runs(A, p, box_a, line)
    sb, eb = _fiber_runs(B, q - p, box_b, line)
    ea += q
    kept = None
    if n > 1 and len(sa) * len(sb) >= _COVER_PAIRS:
        kept = _kept_pairs(A, B, box_a, box_b, p, q)
    if kept is None:  # every run pair: blocks of whole rows, or one row's columns
        nb = min(len(sb), _PAIR_CHUNK)
        na = max(1, _PAIR_CHUNK // nb)
        pairs = ((sa[i:i + na, None] + sb[j:j + nb], ea[i:i + na, None] + eb[j:j + nb])
                 for i in range(0, len(sa), na) for j in range(0, len(sb), nb))
    else:  # only the pairs no neighbour pair covers, by positions in class order
        oa, ob, chunks = kept
        sa, ea, sb, eb = sa[oa], ea[oa], sb[ob], eb[ob]
        pairs = ((sa[r] + sb[c], ea[r] + eb[c]) for r, c in chunks)
    s, e = _union(pairs)
    if n > 1:
        s, e = _union(_copies(s, e, q, line))
    return n, m * q, lo, shape, s, e


def _copies(s, e, q, line):
    """The runs [s, e) shifted by j @ line[:-1] for each j in [0, q)^(n-1),
    in chunks of at most _PAIR_CHUNK entries, or of one copy.

    Each base corner spans q fine base rows per base axis, so S is the union
    of these copies of its pair stage.  A corner lies at most shape - q
    along each base axis, so every copy stays inside S's box and on its own
    base rows, and each int32 sum is a position on S's line.
    """
    shift = reduce(np.add.outer, [np.arange(0, q * k, k, dtype=np.int32)
                                  for k in line[:-1]]).ravel()
    per = max(1, _PAIR_CHUNK // len(s))
    for i in range(0, len(shift), per):
        k = shift[i:i + per, None]
        yield s + k, e + k


def _union(chunks):
    """The union of a stream of (starts, ends) interval chunks, merged one
    chunk at a time into the union of the chunks before it."""
    s = None
    for cs, ce in chunks:
        cs, ce = cs.ravel(), ce.ravel()
        if s is not None:
            cs, ce = np.concatenate([s, cs]), np.concatenate([e, ce])
        s, e = _merge(cs, ce)
    return s, e


def _fiber_runs(E: LatticeSet, w: int, box, line):
    """E's maximal last-axis runs as int32 (first, last) line positions: cell
    lo + c of E's box sits at w * (c @ line), and a run of length l ends
    w * (l - 1) past its first cell.

    Both come from one product of E.runs with two weight rows, less the
    offset of lo, taken modulo 2^64 (the runs are read as uint64), and one
    int32 cast.  That is exact: every true position lies in [0, 2^31), by
    `_GRID_GUARD`, so its residue modulo 2^64 is the position itself.
    """
    weights = [w * k for k in line]
    off = w * sum(k * lo for k, (lo, _) in zip(line, box))
    pos = (np.array([weights + [0], weights + [w]], dtype=np.uint64)
           @ E.runs.T.view(np.uint64))
    pos -= np.array([[off % (1 << 64)], [(off + w) % (1 << 64)]], dtype=np.uint64)
    return pos.astype(np.int32)


def _cover_classes(E, box, step):
    """(classes, digits) of E's runs for the cover test.

    For each base axis k and each direction +e_k, -e_k, a run over base row
    y takes as its neighbour the run of row y + step*(+-e_k) whose first
    cell is the last at or before the run's own last cell.  It records the
    neighbour's first cell less its own, f, as the digit f + c, and its last
    cell less its own, l, as the digit c - l (c = _COVER_CLIP), each clipped
    to [0, 2c + 1].  Digit 0 stands for a neighbour end c or more cells
    further out, which clipping only moves inwards, so a cover found from
    the digits holds for the true ends.  Digit 2c + 1, which never covers,
    stands for an end more than c cells further in, and for a row outside
    E's box or with no such run.  A direction's digits make one number
    b * digit_f + digit_l (b = 2c + 2).  Runs with equal numbers in every
    direction share a class: classes[r] is run r's class, and digits[g, j]
    class g's number in direction j = 2k (+e_k) or 2k + 1 (-e_k).
    """
    r = E.runs
    ext = [hi - lo for lo, hi in box]
    first = r[:, -2] - box[-1][0]
    last = first + (r[:, -1] - 1)
    off = (r[:, :-2] - [lo for lo, _ in box[:-1]]).T
    # a run's key is its row's C-order index in E's box times the row's
    # length, plus its first cell: sorted, and below E's box volume
    size = [math.prod(ext[k + 1:]) for k in range(len(off))]
    row = sum(o * s for o, s in zip(off, size))
    key = row + first
    axis = np.repeat(np.arange(len(off)), 2)
    move = np.tile([step, -step], len(off))[:, None]
    there = row + move * np.array(size)[axis, None]
    moved = off[axis] + move
    c = np.searchsorted(key, there + last, side="right") - 1
    ok = (moved >= 0) & (moved < np.array(ext)[axis, None]) & (c >= 0) & (key[c] >= there)
    clip = _COVER_CLIP
    b = 2 * clip + 2
    digit_f = np.where(ok, first[c] - first + clip, b - 1)
    digit_l = np.where(ok, last - last[c] + clip, b - 1)
    digit = np.clip(digit_f, 0, b - 1) * b + np.clip(digit_l, 0, b - 1)
    # a direction's number is below b^2 = 36, and a set has at most two base
    # axes, so the numbers of all directions make one code below 36^4; the
    # classes are numbered in the lexicographic order of their numbers
    place = (b * b) ** np.arange(len(digit) - 1, -1, -1)
    _, rep, code = np.unique(place @ digit, return_index=True, return_inverse=True)
    return code, digit[:, rep].T


def _cover_tables(p, q):
    """(plus, minus): whether a run pair whose runs have the numbers a and
    b in one direction (see `_cover_classes`) is covered by its neighbour
    pair in that direction, at plus[a, b] for +e_k and minus[a, b] for -e_k.

    The neighbour pair in direction +e_k moves A's run by (q-p)*e_k and B's
    by -p*e_k, so it lands on the pair's own output base row; its interval
    starts p*f_A + (q-p)*f_B later and ends p*l_A + (q-p)*l_B later.  In
    the directions -e_k the containment must be strict, so that of two
    equal intervals only one is dropped: then no chain of covers returns to
    its start, each dropped pair is covered by a kept one, and dropping
    them leaves the union unchanged.
    """
    clip = _COVER_CLIP
    d = np.arange(2 * clip + 2)
    never = (d[:, None] == d[-1]) | (d == d[-1])
    start = np.where(never, 1, p * (d[:, None] - clip) + (q - p) * (d - clip))
    end = np.where(never, -1, p * (clip - d[:, None]) + (q - p) * (clip - d))
    # axes (digit_f of A, digit_l of A, digit_f of B, digit_l of B)
    start, end = start[:, None, :, None], end[None, :, None, :]
    plus = (start <= 0) & (end >= 0)
    minus = plus & (start < end)
    return tuple(x.reshape(len(d) ** 2, len(d) ** 2) for x in (plus, minus))


def _covered(ga, gb, tables):
    """covered[a, b]: whether a run pair of A's class a and B's class b has
    a neighbour pair whose fine interval contains its own.  Each table is
    read along the fewer classes first, so no step holds more entries than
    the larger of covered and one table."""
    covered = np.zeros((len(ga), len(gb)), dtype=bool)
    for j in range(ga.shape[1]):
        table = tables[j % 2]
        if len(ga) <= len(gb):
            covered |= np.take(table[ga[:, j]], gb[:, j], axis=1)
        else:
            covered |= table[:, gb[:, j]][ga[:, j]]
    return covered


def _kept_pairs(A, B, box_a, box_b, p, q):
    """The run pairs that no neighbour pair covers, or None when they are
    more than half of all pairs, as sorting every pair then costs less than
    picking them out.

    Otherwise (oa, ob, chunks): A's and B's run indices stably sorted by
    class, so each class is one range of positions, and an iterator over
    the kept pairs as (rows, cols) positions in oa and ob, each chunk at
    most _PAIR_CHUNK pairs.  The class table is read in blocks of at most
    _PAIR_CHUNK entries to count the kept pairs exactly, and once more to
    list them when it spans more than one block.
    """
    ca, ga = _cover_classes(A, box_a, q - p)
    cb, gb = _cover_classes(B, box_b, -p)
    tables = _cover_tables(p, q)
    size_a, size_b = np.bincount(ca), np.bincount(cb)
    kb = min(len(gb), _PAIR_CHUNK)
    ka = max(1, _PAIR_CHUNK // kb)
    blocks = [(i, j) for i in range(0, len(ga), ka) for j in range(0, len(gb), kb)]

    def uncovered(i, j):
        return ~_covered(ga[i:i + ka], gb[j:j + kb], tables)

    kept = 0
    for i, j in blocks:
        u = uncovered(i, j)
        kept += size_a[i:i + ka] @ u @ size_b[j:j + kb]
        if 2 * kept > len(ca) * len(cb):
            return None
    first_a = np.cumsum(size_a) - size_a
    first_b = np.concatenate([[0], np.cumsum(size_b)])

    def chunks():
        for i, j in blocks:
            v = u if len(blocks) == 1 else uncovered(i, j)
            # each maximal range of uncovered B classes in a row of the table
            # is one rectangle: the A class's runs against a range of B's
            row, col = np.nonzero(np.diff(v, axis=1, prepend=False, append=False))
            a, b0, b1 = row[::2] + i, col[::2] + j, col[1::2] + j
            yield from _rectangle_pairs(first_a[a], size_a[a], first_b[b0],
                                        first_b[b1] - first_b[b0])

    return (np.argsort(ca, kind="stable"), np.argsort(cb, kind="stable"),
            chunks())


def _rectangle_pairs(row0, rows, col0, cols):
    """The pairs (row0[k] + x, col0[k] + y), x < rows[k], y < cols[k], of
    nonempty rectangles k, as (rows, cols) arrays of at most _PAIR_CHUNK
    pairs; the pairs are laid end to end, rectangle by rectangle and row by
    row, and each chunk expands only the rows it meets."""
    size = rows * cols
    end = np.cumsum(size)
    begin = end - size
    total = int(size.sum())
    for lo in range(0, total, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, total)
        k = slice(np.searchsorted(end, lo, side="right"),
                  np.searchsorted(end, hi) + 1)
        b, w = begin[k], cols[k]
        # the rows of each rectangle that meet [lo, hi)
        top = np.maximum(lo - b, 0) // w
        count = (np.minimum(hi, end[k]) - b + w - 1) // w - top
        at = np.repeat(np.arange(len(count)), count)
        x = np.arange(len(at)) - np.repeat(np.cumsum(count) - count - top, count)
        start = b[at] + x * w[at]
        span = np.minimum(start + w[at], hi) - np.maximum(start, lo)
        yield (np.repeat(row0[k][at] + x, span),
               np.arange(lo, hi) + np.repeat(col0[k][at] - start, span))


def convex_combination_bruteforce(A: LatticeSet, B: LatticeSet, t) -> LatticeSet:
    """Pure-Python pairwise cube-sum rasterization (test oracle); it reads
    each operand's cells off its runs one by one."""
    t = _as_lowest_terms(t)
    p, q = t.numerator, t.denominator
    A, B = reconcile(A, B)
    n = A.dim
    if A.is_empty() or B.is_empty():
        return LatticeSet(n, A.denom * q)
    offs = list(np.ndindex(*(q,) * n))
    cells_a, cells_b = ([(*y, f + k) for *y, f, l in E.runs.tolist() for k in range(l)]
                        for E in (A, B))
    cells = set()
    for i in cells_a:
        for j in cells_b:
            base = tuple(p * i[a] + (q - p) * j[a] for a in range(n))
            for off in offs:
                cells.add(tuple(base[a] + off[a] for a in range(n)))
    return LatticeSet(n, A.denom * q, frozenset(cells))


# ---------------------------------------------------------------------------
# deficits


@dataclass(frozen=True)
class DeficitRecord:
    t: Fraction
    tau: Fraction
    volA: Fraction
    volB: Fraction
    volS: Fraction
    delta_norm: Fraction
    delta_raw_lo: Fraction
    delta_raw_hi: Fraction

    @property
    def delta_raw(self) -> float:
        return float((self.delta_raw_lo + self.delta_raw_hi) / 2)

    @property
    def delta_raw_err(self) -> float:
        return float((self.delta_raw_hi - self.delta_raw_lo) / 2)

    @property
    def exact(self) -> bool:
        return self.delta_raw_lo == self.delta_raw_hi


def deficit(A: LatticeSet, B: LatticeSet, t) -> DeficitRecord:
    """Both deficit flavors for (A, B, t), S = t*A + (1-t)*B.

    |S| is the total length of the engine's runs; S's cells are not built.
    The three volumes are integer cell counts over D**n, on S's lattice
    D = m*q, and their roots are integer brackets over 2**64 * D
    (`root_bracket`), so every sum below is integer and each field is one
    Fraction, built at the end.

    delta_norm = ||A|-1| + ||B|-1| + ||S|-1| is exact; the root-form gap
    |S|^(1/n) - t|A|^(1/n) - (1-t)|B|^(1/n) comes with a certified rational
    bracket [delta_raw_lo, delta_raw_hi] from 64-bit root brackets.
    """
    t = _as_lowest_terms(t)
    if A.is_empty() or B.is_empty():
        raise ValueError("deficit needs nonempty operands")
    p, q = t.numerator, t.denominator
    n, D, _, _, s, e = _combination_runs(A, B, p, q)
    vol = D ** n
    cA = A.count * (D // A.denom) ** n
    cB = B.count * (D // B.denom) ** n
    cS = int((e - s).sum())
    aA, bB, sS = (root_bracket(c, D, n) for c in (cA, cB, cS))
    scale = (q * D) << 64
    return DeficitRecord(
        t=t, tau=t if 2 * p <= q else 1 - t, volA=A.measure(), volB=B.measure(),
        volS=Fraction(cS, vol),
        delta_norm=Fraction(abs(cA - vol) + abs(cB - vol) + abs(cS - vol), vol),
        delta_raw_lo=Fraction(q * sS[0] - p * aA[1] - (q - p) * bB[1], scale),
        delta_raw_hi=Fraction(q * sS[1] - p * aA[0] - (q - p) * bB[0], scale),
    )


# ---------------------------------------------------------------------------
# exact 1D interval engine


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint closed intervals with rational endpoints."""
    components: tuple

    def __post_init__(self):
        comps = tuple((Fraction(a), Fraction(b)) for a, b in self.components)
        for a, b in comps:
            if a > b:
                raise ValueError(f"interval [{a}, {b}] reversed")
        for (a0, b0), (a1, b1) in zip(comps, comps[1:]):
            if not b0 < a1:
                raise ValueError("components must be sorted and disjoint")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_intervals(cls, pairs) -> "IntervalSet":
        """Normalize arbitrary closed intervals: sort, merge overlap/contact."""
        pairs = sorted((Fraction(a), Fraction(b)) for a, b in pairs if a <= b)
        merged = []
        for a, b in pairs:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return cls(tuple((a, b) for a, b in merged))

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.components), Fraction(0))

    def is_empty(self) -> bool:
        return not self.components

    def hull(self):
        if not self.components:
            raise ValueError("empty interval set has no hull")
        return self.components[0][0], self.components[-1][1]

    def translate(self, v) -> "IntervalSet":
        v = Fraction(v)
        return IntervalSet(tuple((a + v, b + v) for a, b in self.components))


# Interval unions enter the engine as integer endpoint arrays over one common
# denominator: a (..., k, 2) array holds unions of at most k closed intervals,
# and a union with fewer than k repeats its first interval, which leaves it
# unchanged.  Inside, a batch of N unions is a (2, k, N) array of starts and
# ends, one union per column, so every step runs along the long axis.  One
# sort-and-sweep (`vset._merge`) merges every union, here, in the lattice-set
# engine and in the slice counts.
# Sort a union's starts and, separately, its ends: where the (i+1)-th start
# exceeds the i-th end, a new component starts and the gap between them is
# uncovered; every other gap is covered.  (This is the sweep in start order
# with a running max of the ends: where the (i+1)-th start exceeds the ends
# of the i intervals before it, those are the i intervals with the smallest
# ends.)  The union's length is its span less its gaps, and A + B is the
# union of all pairwise interval sums.


def _union_length(iv):
    """The length of each union of a (2, K, N) batch."""
    s, e = np.sort(iv, axis=1)
    return e[-1] - s[0] - np.maximum(s[1:] - e[:-1], 0).sum(axis=0)


def _pair_sums(a, b):
    """Column i holds every interval of a's union i plus every interval of
    b's union i."""
    return (a[:, :, None] + b[:, None, :]).reshape(
        2, a.shape[1] * b.shape[1], a.shape[2])


def _endpoint_arrays(a, b):
    """a and b as int64 arrays when every value the sweep forms fits, else as
    Python-int object arrays; sized with Python ints first.

    Endpoint sums, their differences, and the lengths built from them are at
    most 4 * max|endpoint| in magnitude.
    """
    a, b = np.asarray(a), np.asarray(b)
    for x in (a, b):
        if x.ndim < 3 or x.shape[-1] != 2 or x.shape[-2] == 0:
            raise ValueError("interval unions must be (..., k, 2) endpoint "
                             f"arrays with k >= 1, got shape {x.shape}")
        if x.dtype.kind not in "iu" and not all(
                isinstance(v, (int, np.integer)) for v in x.flat):
            raise ValueError(f"interval endpoints must be integers, got {x.dtype}")
        if (x[..., 0] > x[..., 1]).any():
            raise ValueError("an interval's start exceeds its end")
    bound = max((max(-int(x.min()), int(x.max())) for x in (a, b) if x.size),
                default=0)
    dtype = np.int64 if 4 * bound <= _INT64.max else object
    return a.astype(dtype, copy=False), b.astype(dtype, copy=False)


def _integer_rows(A: IntervalSet, B: IntervalSet):
    """(d, a, b): A and B as one-row endpoint arrays over the lcm d of their
    endpoint denominators."""
    d = math.lcm(*(x.denominator for X in (A, B)
                   for comp in X.components for x in comp))
    a, b = (np.array([[[x.numerator * (d // x.denominator) for x in comp]
                       for comp in X.components]], dtype=object)
            for X in (A, B))
    return (d, *_endpoint_arrays(a, b))


def interval_sumset(A: IntervalSet, B: IntervalSet) -> IntervalSet:
    """Exact A + B as a normalized interval union."""
    if A.is_empty() or B.is_empty():
        raise ValueError("interval_sumset needs nonempty operands")
    d, a, b = _integer_rows(A, B)
    s, e = _merge(*_pair_sums(a.T, b.T)[..., 0])
    return IntervalSet(tuple((Fraction(int(lo), d), Fraction(int(hi), d))
                             for lo, hi in zip(s, e)))


def kemperman_batch(a, b) -> dict:
    """Kemperman's test (see `kemperman_stability`) on arrays of pairs.

    a and b hold interval unions as (..., k, 2) and (..., k', 2) integer
    endpoint arrays over one common denominator; a union with fewer
    components repeats its first.  Their leading axes broadcast as numpy's
    do: (N, k, 2) rows test N pairs (a[i], b[i]), and a[:, None] against
    b[None] tests every pair.  Returns arrays of the broadcast leading shape
    under "delta", "excessA", "excessB" (in units of the denominator),
    "applicable" and "pass".  Each union is measured once, and the pairwise
    sums are swept in chunks of at most _SUM_CHUNK interval sums.
    """
    a, b = _endpoint_arrays(a, b)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    ia, ib = (np.broadcast_to(np.arange(math.prod(x.shape[:-2]))
                              .reshape(x.shape[:-2]), lead).ravel()
              for x in (a, b))
    a, b = (np.ascontiguousarray(x.reshape(-1, *x.shape[-2:]).T) for x in (a, b))
    mA, mB = _union_length(a), _union_length(b)
    exA = (a[1].max(axis=0) - a[0].min(axis=0) - mA)[ia]
    exB = (b[1].max(axis=0) - b[0].min(axis=0) - mB)[ib]
    mA, mB = mA[ia], mB[ib]
    step = max(1, _SUM_CHUNK // (a.shape[1] * b.shape[1]))
    delta = np.concatenate([
        _union_length(_pair_sums(np.take(a, ia[i:i + step], axis=2),
                                 np.take(b, ib[i:i + step], axis=2)))
        for i in range(0, max(len(ia), 1), step)]) - mA - mB
    applicable = delta < np.minimum(mA, mB)
    out = {"delta": delta, "excessA": exA, "excessB": exB,
           "applicable": applicable,
           "pass": applicable & (exA <= delta) & (exB <= delta)}
    return {key: x.reshape(lead) for key, x in out.items()}


def kemperman_stability(A: IntervalSet, B: IntervalSet) -> dict:
    """1D near-equality check: delta = |A+B| - |A| - |B| bounds hull excesses.

    Applicable iff delta < min(|A|, |B|) -- strict, because the underlying
    hypothesis is a strict inequality and equality cases genuinely violate
    the conclusion (e.g. A = [0,2] u [2+g, 4+g] against any B with
    |B| = g <= 2, where the hull excess is g while delta = g as well only
    when the sum's two branches stay disjoint, i.e. g >= |B|).  When
    applicable, the hulls I, J of A, B must satisfy |I \\ A| <= delta and
    |J \\ B| <= delta.  The pair goes through `kemperman_batch` as one row
    over its endpoints' lcm denominator.
    """
    if A.is_empty() or B.is_empty():
        raise ValueError("kemperman_stability needs nonempty operands")
    d, a, b = _integer_rows(A, B)
    v = {key: x[0] for key, x in kemperman_batch(a, b).items()}
    return {
        "applicable": bool(v["applicable"]),
        "delta": Fraction(int(v["delta"]), d),
        "I": A.hull(),
        "J": B.hull(),
        "excessA": Fraction(int(v["excessA"]), d),
        "excessB": Fraction(int(v["excessB"]), d),
        "pass": bool(v["pass"]),
    }


def write_iset(A: IntervalSet) -> str:
    lines = [f"iset {len(A.components)}"]
    for a, b in A.components:
        lines.append(f"{a.numerator}/{a.denominator} {b.numerator}/{b.denominator}")
    return "\n".join(lines) + "\n"


def parse_iset(text: str) -> IntervalSet:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty iset payload")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "iset":
        raise ValueError(f"bad iset header: {lines[0]!r}")
    count = int(head[1])
    if len(lines) - 1 != count:
        raise ValueError(f"expected {count} components, got {len(lines) - 1}")
    comps = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad component line: {ln!r}")
        try:
            comps.append((Fraction(parts[0]), Fraction(parts[1])))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in component line: {ln!r}") from None
    return IntervalSet(tuple(comps))
