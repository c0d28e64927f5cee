"""Exact 1D stability: sumset deficits bound hull excesses.

For interval unions A, B on the line, the deficit
delta = |A+B| - |A| - |B| controls how much of their hulls the sets can
miss, as long as delta < min(|A|, |B|).  Everything below is exact rational
arithmetic; no verdict depends on floating point.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from bmstab.minkowski import (
    IntervalSet, interval_sumset, kemperman_batch, kemperman_stability,
)

## A filled interval against a one-gap interval

A = IntervalSet.from_intervals([(0, 1)])
B = IntervalSet.from_intervals([(0, Fraction(2, 5)), (Fraction(1, 2), 1)])
v = kemperman_stability(A, B)
print("A = [0,1],  B = [0,0.4] u [0.5,1]")
print(f"  |A+B| = {float(interval_sumset(A, B).measure())},"
      f" delta = {float(v['delta'])},"
      f" hull excesses = ({float(v['excessA'])}, {float(v['excessB'])}),"
      f" pass = {v['pass']}")

## Two far components: the hypothesis fails and nothing is claimed

far = IntervalSet.from_intervals([(0, Fraction(1, 10)), (5, Fraction(51, 10))])
v = kemperman_stability(A, far)
print("\nA = [0,1],  B = [0,0.1] u [5,5.1]")
print(f"  delta = {float(v['delta'])} >= min(|A|,|B|) = {float(min(A.measure(), far.measure()))}"
      f"  ->  applicable = {v['applicable']}")

## A small exhaustive sweep over a coarse grid

# Integer endpoints in units of 1/8, every union padded to two components by
# repeating its first; kemperman_batch checks all pairs at once.
grid = 8  # endpoints in (1/8)Z within [0, 1]
sets = []
for k in (1, 2):
    for cuts in combinations(range(1, grid + 1), 2 * k - 1):
        ep = (0,) + cuts
        comps = [(ep[2 * i], ep[2 * i + 1]) for i in range(k)]
        sets.append(comps + comps[:1] * (2 - k))
rows = np.array(sets)
v = kemperman_batch(rows[:, None], rows[None, :])
upper = np.triu(np.ones((len(sets),) * 2, dtype=bool))  # each pair once
applicable = int((v["applicable"] & upper).sum())
passed = int((v["pass"] & upper).sum())
print(f"\nexhaustive sweep on the 1/{grid} grid: {len(sets)} sets,"
      f" {applicable} applicable pairs, {passed} passed"
      f"  ->  {'no violations' if passed == applicable else 'VIOLATION'}")
