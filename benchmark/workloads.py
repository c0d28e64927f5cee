"""The benchmark's four workloads.

Each workload builds a fixed list of calls in `setup` (inputs from
`bmstab.scenarios.generate_scenario`, scenario seeds derived from the
benchmark seed), and `check` grades the outputs of every pass afterwards
with the independent computations in `oracles` and properties the method
must have.  A call may produce several instances (a sweep call produces one
per CSV row); `sizes` gives the count per call.  `pass_seconds` is the
nominal cost of one pass on the reference machine: the run does
round(seconds / pass_seconds) whole passes, so the work depends on the
arguments only, never on a clock.  `calls_per_reference_loop` says how
often the run times its reference loop (calibrate.py) between calls: after
every call, or every 0.6 s of calls where calls are short.

bmstab is always reached through module attributes, so that a traced run's
wrappers see the calls.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import bmstab.cli
import bmstab.convexity
import bmstab.minkowski
import bmstab.scenarios
import bmstab.stability

import oracles

_MASK = (1 << 64) - 1


def derived_seed(seed: int, k: int) -> int:
    """Scenario seed k of a run: a SplitMix64 step of the benchmark seed."""
    z = (seed * 0x9E3779B97F4A7C15 + (k + 1) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 30)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def generate(**spec):
    return bmstab.scenarios.generate_scenario(bmstab.scenarios.ScenarioSpec(**spec))


def _cells(E):
    return oracles.cells_array(E.cells, E.dim)


class Workload:
    pass_seconds: float
    calls_per_reference_loop = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.calls = []          # zero-argument callables, one pass
        self.sizes = []          # instances produced by each call

    def check(self, passes) -> tuple[int, list]:
        """(failed instances, problems) over the outputs of every pass;
        passes[p][i] is call i's output in pass p, or the exception it
        raised.  A raised call fails all its instances; a failed check also
        fails the instance and is reported as a problem."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class SumsetLarge(Workload):
    """Unit-measure ball plus a far cell (criterion 01's family), as inner
    and outer cell brackets, combined at its largest sizes."""

    pass_seconds = 7.5
    CASES = ((2, 128, Fraction(1, 2)), (2, 64, Fraction(1, 3)),
             (3, 8, Fraction(1, 2)))

    def setup(self):
        self.cases = []
        for n, m, t in self.CASES:
            # the pieces tB+(1-t)c and tc+(1-t)B are disjoint for t != 1/2
            target = 1 + t ** n + ((1 - t) ** n if t != Fraction(1, 2) else 0)
            for side in ("inner", "outer"):
                A, B = generate(family="counterexample", n=n, denom=m, L=4,
                                bracket=side, seed=derived_seed(self.seed, 0))
                self.cases.append((side, target))
                self.calls.append(self._call(A, B, t))
                self.sizes.append(1)

    @staticmethod
    def _call(A, B, t):
        return lambda: bmstab.minkowski.convex_combination(A, B, t).measure()

    def check(self, passes):
        failed, problems = 0, []
        for p, outs in enumerate(passes):
            for (side, target), vol in zip(self.cases, outs):
                if isinstance(vol, Exception):
                    failed += 1
                elif (vol > target) if side == "inner" else (vol < target):
                    failed += 1
                    problems.append(f"pass {p}: {side} measure {vol} on the "
                                    f"wrong side of {target}")
        problems += self._reduced_check()
        return failed, problems

    def _reduced_check(self):
        """S equals the pairwise cube sum on a small member of the family."""
        k = derived_seed(self.seed, 1)
        t = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))[k % 3]
        side = ("inner", "outer")[(k >> 8) % 2]
        L = 1 + (k >> 16) % 4
        A, B = generate(family="counterexample", n=2, denom=8, L=L,
                        bracket=side, seed=k)
        S = bmstab.minkowski.convex_combination(A, B, t)
        if not sumset_matches(A, B, t, S):
            return [f"reduced instance (t={t}, {side}, L={L}): S differs "
                    f"from the pairwise cube sum"]
        return []


def sumset_matches(A, B, t, S) -> bool:
    """S = t*A + (1-t)*B, cell for cell, against the pairwise cube sum."""
    want, denom = oracles.pairwise_cube_sum(_cells(A), A.denom,
                                            _cells(B), B.denom, t)
    got = _cells(S)
    return S.denom == denom and got.shape == want.shape and bool((got == want).all())


# ---------------------------------------------------------------------------


class DeficitSmall(Workload):
    """Criterion 02's generator: 1D/2D/3D sets of at most 64 cells."""

    pass_seconds = 1.2
    calls_per_reference_loop = 1500
    COUNT = 3000
    SAMPLE_EVERY = 10
    FAMILIES = ("random-boxes", "perturbed-square", "boundary-bites")
    TS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))

    def setup(self):
        self.inputs = []
        for k in range(self.COUNT):
            n = 1 + k % 3
            A, B = generate(family=self.FAMILIES[(k // 3) % 3], n=n,
                            denom=4 if n < 3 else 2,
                            eps=(Fraction(1, 8), Fraction(1, 4))[k % 2],
                            seed=derived_seed(self.seed, k))
            t = self.TS[k % 4]
            self.inputs.append((A, B, t))
            self.calls.append(self._call(A, B, t))
            self.sizes.append(1)

    @staticmethod
    def _call(A, B, t):
        return lambda: bmstab.minkowski.deficit(A, B, t)

    def check(self, passes):
        failed, problems = 0, []
        for p, outs in enumerate(passes):
            for k, rec in enumerate(outs):
                if isinstance(rec, Exception):
                    failed += 1
                    continue
                bad = []
                # Brunn-Minkowski: the true gap is >= 0 and inside the bracket
                if rec.delta_raw_hi < 0:
                    bad.append(f"delta_raw_hi {rec.delta_raw_hi} < 0")
                if p == 0 and k % self.SAMPLE_EVERY == 0:
                    A, B, t = self.inputs[k]
                    cells, denom = oracles.pairwise_cube_sum(
                        _cells(A), A.denom, _cells(B), B.denom, t)
                    if rec.volS != Fraction(len(cells), denom ** A.dim):
                        bad.append(f"volS {rec.volS} != pairwise cube sum")
                if bad:
                    failed += 1
                    problems.append(f"pass {p} instance {k}: " + "; ".join(bad))
        return failed, problems


# ---------------------------------------------------------------------------


class StabilitySweep(Workload):
    """`bmstab.cli.sweep` on config files: criterion 12's 2D ladder (one
    config per base denominator) and a 3D boundary-bites config."""

    pass_seconds = 6.5
    LADDER = [Fraction(16, 100_000) * Fraction(125, 100) ** k for k in range(30)]
    EPS_3D = (Fraction(1, 4), Fraction(1, 2))

    def setup(self):
        by_denom = {}
        for eps in self.LADDER:
            m = 16
            while int(eps * m * m / 2) < 2:
                m *= 2
            by_denom.setdefault(m, []).append(eps)
        configs = [(2, m, eps_list, [derived_seed(self.seed, i)])
                   for i, (m, eps_list) in enumerate(sorted(by_denom.items()))]
        configs.append((3, 2, list(self.EPS_3D), [derived_seed(self.seed, 100)]))
        self.configs = []
        for i, (n, m, eps_list, seeds) in enumerate(configs):
            path = os.path.join(self.workdir, f"sweep{i}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"family=boundary-bites\nn={n}\nm={m}\nt=1/2\n"
                         f"tau=1/2\neps_list={','.join(map(str, eps_list))}\n"
                         f"seeds={','.join(map(str, seeds))}\n")
            items = [(eps, s) for eps in sorted(eps_list) for s in sorted(seeds)]
            self.configs.append((n, m, items))
            self.calls.append(self._call(path))
            self.sizes.append(len(items))

    @staticmethod
    def _call(path):
        return lambda: bmstab.cli.sweep(path)

    def check(self, passes):
        failed, problems = 0, []
        for i, (n, m, items) in enumerate(self.configs):
            first = passes[0][i]
            if isinstance(first, Exception):
                failed += len(items) * len(passes)
                continue
            bad_rows = self._check_csv(first, n, m, items)
            problems += bad_rows
            failed += len(bad_rows)
            for p in range(1, len(passes)):
                text = passes[p][i]
                if isinstance(text, Exception):
                    failed += len(items)
                elif text != first:
                    failed += len(items)
                    problems.append(f"config {i}: pass {p} CSV differs from pass 0")
                else:
                    failed += len(bad_rows)
        return failed, problems

    def _check_csv(self, text, n, m, items):
        lines = text.splitlines()
        header = bmstab.stability.StabilityReport.CSV_HEADER
        if lines[0] != header or len(lines) != len(items) + 1:
            return [f"CSV shape: {lines[0]!r}, {len(lines) - 1} rows"] * len(items)
        bad = []
        for line, (eps, seed) in zip(lines[1:], items):
            row = dict(zip(header.split(","), line.split(",")))
            err = self._check_row(row, n, m, eps, seed)
            if err:
                bad.append(f"row {row['id']}: {err}")
        return bad

    @staticmethod
    def _check_row(row, n, m, eps, seed):
        if row["id"] != f"boundary-bites-e{float(eps):g}-s{seed}":
            return "row order differs from the config's items"
        if row["verdict"] != "vacuous":
            return f"verdict {row['verdict']}"
        A, B = generate(family="boundary-bites", n=n, denom=m, eps=eps,
                        seed=seed)
        a, b = _cells(A), _cells(B)
        shift = [float(row[k]) * m for k in ("vx", "vy", "vz")[:n]]
        v = [round(x) for x in shift]
        if any(abs(x - r) > 1e-6 for x, r in zip(shift, v)):
            return f"v* {shift} is not a lattice shift"
        d_star = float(row["D_star"])
        d_v = oracles.hull_distance_value(a, b, m, v)
        d_0 = oracles.hull_distance_value(a, b, m, [0] * n)
        if d_star < 0 or d_v < 0:
            return f"D* {d_star} < 0"
        if abs(d_star - d_v) > 1e-9 * abs(d_v) or (d_v == 0) != (d_star == 0):
            return f"D* {d_star} != 2|co(A u (B+v*))| - |A| - |B| = {float(d_v)}"
        if d_v > d_0:
            return f"D* {float(d_v)} > D(0) {float(d_0)}"
        return None


# ---------------------------------------------------------------------------


class CosPipeline2D(Workload):
    """Criterion 11's family: the containing-convex-set pipeline in 2D."""

    pass_seconds = 5.0
    DENOM = 16
    EPS = tuple(Fraction(k, 64) for k in (1, 2, 4, 8, 16, 32))
    HALF = Fraction(1, 2)

    def setup(self):
        self.inputs = []
        for i, eps in enumerate(self.EPS):
            A, B = generate(family="boundary-bites", n=2, denom=self.DENOM,
                            eps=eps, seed=derived_seed(self.seed, i))
            self.inputs.append((A, B))
            self.calls.append(self._call(A, B))
            self.sizes.append(1)

    @classmethod
    def _call(cls, A, B):
        def call():
            conv = bmstab.convexity.convex_hull
            return bmstab.stability.cos_pipeline(A, B, conv(A), conv(B),
                                                 cls.HALF, cls.HALF)
        return call

    def check(self, passes):
        failed, problems = 0, []
        for p, outs in enumerate(passes):
            for k, res in enumerate(outs):
                if isinstance(res, Exception):
                    failed += 1
                    continue
                err = self._check_one(*self.inputs[k], res)
                if err:
                    failed += 1
                    problems.append(f"pass {p} instance {k}: {err}")
        return failed, problems

    @staticmethod
    def _check_one(A, B, res):
        m = A.denom
        a, b = _cells(A), _cells(B)
        K = res["K"]
        if K.dim != 2:
            return f"K has dimension {K.dim}"
        shift = [Fraction(s) for s in res["shift_B"]]
        D = math.lcm(m, *(s.denominator for s in shift))
        k = D // m
        corners = {
            "A": [(x * k, y * k) for x, y in oracles.cell_corners(a).tolist()],
            "B + shift_B": [(x * k + int(shift[0] * D), y * k + int(shift[1] * D))
                            for x, y in oracles.cell_corners(b).tolist()],
        }
        for name, pts in corners.items():
            out = oracles.first_point_outside(pts, D, K.verts, K.scale)
            if out is not None:
                return f"corner {out}/{D} of {name} is outside K"
        volA = Fraction(len(a), m * m)
        volB = Fraction(len(b), m * m)
        zeta = (oracles.hull_measure(a, m) - volA) + (oracles.hull_measure(b, m) - volB)
        if not res["zeta_lo"] == res["zeta_hi"] == zeta:
            return f"zeta [{res['zeta_lo']}, {res['zeta_hi']}] != hull excess {zeta}"
        sym = volA + volB - 2 * oracles.shifted_overlap(a, b, m, shift)
        if res["sym_diff_AB"] != sym:
            return f"sym_diff_AB {res['sym_diff_AB']} != split-shift value {sym}"
        return None


WORKLOADS = {
    "sumset-large": SumsetLarge,
    "deficit-small": DeficitSmall,
    "stability-sweep": StabilitySweep,
    "cos-pipeline-2d": CosPipeline2D,
}
