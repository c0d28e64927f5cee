import hashlib
from fractions import Fraction

import pytest

from bmstab.minkowski import IntervalSet, convex_combination, write_iset
from bmstab.scenarios import ScenarioSpec, SplitMix64, generate_scenario
from bmstab.vset import write_vset


def test_splitmix64_known_stream():
    # published reference outputs for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_regeneration_is_bit_identical():
    spec = ScenarioSpec(family="perturbed-square", n=2, denom=8,
                        eps=Fraction(1, 8), seed=7)
    A1, B1 = generate_scenario(spec)
    A2, B2 = generate_scenario(spec)
    assert write_vset(A1) == write_vset(A2)
    assert write_vset(B1) == write_vset(B2)
    other = generate_scenario(ScenarioSpec(family="perturbed-square", n=2,
                                           denom=8, eps=Fraction(1, 8), seed=8))
    assert other[0] != A1  # different seed, different set (overwhelmingly)


def test_homothetic_family_is_equality_case():
    spec = ScenarioSpec(family="homothetic-convex", n=2, denom=4)
    A, B = generate_scenario(spec)
    assert A == B and A.measure() == 1
    S = convex_combination(A, B, Fraction(1, 2))
    assert S.measure() == 1


def test_perturbed_family_volume_guarantee():
    for seed in range(10):
        spec = ScenarioSpec(family="perturbed-square", n=2, denom=8,
                            eps=Fraction(1, 4), seed=seed)
        A, B = generate_scenario(spec)
        assert abs(A.measure() - 1) <= Fraction(1, 4)
        assert abs(B.measure() - 1) <= Fraction(1, 4)


def test_boundary_bites_delta_grows():
    vols = []
    for eps in (Fraction(1, 32), Fraction(1, 8), Fraction(1, 2)):
        spec = ScenarioSpec(family="boundary-bites", n=2, denom=16,
                            eps=eps, seed=5)
        A, _ = generate_scenario(spec)
        vols.append(A.measure())
        assert abs(A.measure() - 1) <= eps / 2 + Fraction(1, 256)
    assert vols[0] > vols[1] > vols[2]


def test_counterexample_set_structure():
    for n in (1, 2):
        spec = ScenarioSpec(family="counterexample", n=n, denom=16, L=4,
                            bracket="inner")
        A, B = generate_scenario(spec)
        assert A == B
        far = max(c[0] for c in A.cells)
        assert far == 2 * 4 * A.denom  # far cell sits at coordinate 2L
        if n == 1:
            assert A.measure() == 1 + Fraction(1, A.denom)


def test_counterexample_brackets_nest():
    si = ScenarioSpec(family="counterexample", n=2, denom=8, bracket="inner")
    so = ScenarioSpec(family="counterexample", n=2, denom=8, bracket="outer")
    Ai, _ = generate_scenario(si)
    Ao, _ = generate_scenario(so)
    assert Ai.cells <= Ao.cells
    assert Ai.measure() <= 1 + Fraction(1, Ai.denom ** 2) <= Ao.measure()


def test_counterexample_bracket_3d():
    Ai, _ = generate_scenario(ScenarioSpec(family="counterexample", n=3,
                                           denom=3, bracket="inner"))
    Ao, _ = generate_scenario(ScenarioSpec(family="counterexample", n=3,
                                           denom=3, bracket="outer"))
    assert Ai.cells <= Ao.cells
    cell = Fraction(1, Ai.denom ** 3)
    assert Ai.measure() <= 1 + cell <= Ao.measure()
    far = (2 * 4 * Ai.denom, 0, 0)
    assert far in Ai.cells and far in Ao.cells


def test_counterexample_ball_3d_reaches_its_radius():
    # The unit-volume ball has radius (3/(4 pi))^(1/3) = 0.6204, so on the
    # lattice 1/96 the outer bracket's last cell along axis 0 is 59
    # (59/96 = 0.615 < 0.6204 < 60/96); on 1/128 the inner one's is 78
    # (its far side 79/128 = 0.617) and the outer one's is 79.  Both sides
    # are symmetric about -1/2.
    for denom, bracket, last in ((24, "outer", 59), (32, "inner", 78),
                                 (32, "outer", 79)):
        A, _ = generate_scenario(ScenarioSpec(family="counterexample", n=3,
                                              denom=denom, bracket=bracket))
        c = A.array
        axis = c[(c[:, 1] == 0) & (c[:, 2] == 0) & (c[:, 0] < 2 * 4 * A.denom), 0]
        assert (axis.min(), axis.max()) == (-last - 1, last)


def test_interval_union_family_grid():
    spec = ScenarioSpec(family="interval-unions", seed=11)
    A, B = generate_scenario(spec)
    assert isinstance(A, IntervalSet) and isinstance(B, IntervalSet)
    for s in (A, B):
        for a, b in s.components:
            assert (a * 16).denominator == 1 and (b * 16).denominator == 1
            assert 0 <= a <= b <= 4


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(family="no-such-family")
    with pytest.raises(ValueError):
        ScenarioSpec(family="random-boxes", eps=Fraction(3, 2))


_DIGEST_DENOMS = {  # family -> (eps, denom for n = 1, 2, 3)
    "homothetic-convex": (0, (5, 4, 3)),
    "perturbed-square": (Fraction(1, 2), (8, 6, 4)),
    "boundary-bites": (Fraction(1, 2), (8, 6, 4)),
    "random-boxes": (0, (5, 4, 3)),
    "counterexample": (0, (4, 2, 1)),
}

# SHA-256 of write_vset(A) + write_vset(B) (write_iset for interval-unions),
# keyed by (family, bracket, n, seed).  Recorded from an earlier
# implementation of the generators, so any rewrite that changes a set, or the
# order in which the random stream is drawn, fails here.
_SCENARIO_DIGESTS = {
    ("homothetic-convex", "inner", 1, 1):
        "4ff37b04b76a000337b5c3228fd8ab4baf5b908d127889766f5bb431a8727098",
    ("homothetic-convex", "inner", 1, 2):
        "4ff37b04b76a000337b5c3228fd8ab4baf5b908d127889766f5bb431a8727098",
    ("homothetic-convex", "inner", 2, 1):
        "6638cd76fdcfc8f7276c6a6079f244a503840c8eeaba593617eed9d8d4de6607",
    ("homothetic-convex", "inner", 2, 2):
        "6638cd76fdcfc8f7276c6a6079f244a503840c8eeaba593617eed9d8d4de6607",
    ("homothetic-convex", "inner", 3, 1):
        "276831993ba3992e7720a192b06f0a8fae1b80b046a072fa7815c2018c404c3a",
    ("homothetic-convex", "inner", 3, 2):
        "276831993ba3992e7720a192b06f0a8fae1b80b046a072fa7815c2018c404c3a",
    ("perturbed-square", "inner", 1, 1):
        "7526829a3749e2763433a46028db89e1764f150ba24424a50c1499f77f268fe5",
    ("perturbed-square", "inner", 1, 2):
        "ed6831f787e85e26967b59c8a09bc6ee321b79e0ed46cab05155185c1386956b",
    ("perturbed-square", "inner", 2, 1):
        "4337747d9d7d2f2ec0664c3385d1765a80132307c51914eb944d5b67160a2ce2",
    ("perturbed-square", "inner", 2, 2):
        "dac3d916b05b82e7c85be09d1e6e338996dc5fb00c1ce3dbf52bfc6da3c812b0",
    ("perturbed-square", "inner", 3, 1):
        "a02699cfcb6ef6d6c762cd431fe4c022c9829bb89b9bb6636fad317d2b5dd193",
    ("perturbed-square", "inner", 3, 2):
        "6783e7bd5668488ec428f648b72867e17fb1f4912efb3b2ef73f8f78fc36104c",
    ("boundary-bites", "inner", 1, 1):
        "1bb5bf8b3823117e1d1354aea9c927c5be6b75f388bcde2afe6acee63a6dd280",
    ("boundary-bites", "inner", 1, 2):
        "fa7bfc66189e6ae5cfc46580ea35e688e5fdf7a9ea84210bc6903688cc95b49d",
    ("boundary-bites", "inner", 2, 1):
        "f9c632c04555df081fd6411fb05a53d896b0f8c430f77b454fca31501ab07d3b",
    ("boundary-bites", "inner", 2, 2):
        "e2c5c66ee5aea1f8a555ba598deacce30137c980e5468f7b3291c0a89482a7cf",
    ("boundary-bites", "inner", 3, 1):
        "7384e92c5b30d8f77f7d4f94e6f7c27e11da39193ae85949313d87166437946a",
    ("boundary-bites", "inner", 3, 2):
        "06ec2a59e0d888926939a13ec3192e2bd912190151579100082e029fc52bb220",
    ("random-boxes", "inner", 1, 1):
        "3f8821c62cb227ce7ad6b6a2230a0845bb1780159dfaff83c1a5bfd24c525cc2",
    ("random-boxes", "inner", 1, 2):
        "24d4e954be51b8902a0d555f157acf24cc3d21f049f87b2886d2a9ba0776a8c1",
    ("random-boxes", "inner", 2, 1):
        "37a3a6089926c5fda82c6a16710a9f3bce35803a63d57fb56aa90cd50440b597",
    ("random-boxes", "inner", 2, 2):
        "0f5dd43fd32a4a5880a4e96c8eeabcd69eb6e9f1cddc90766fe26fb8fdc87330",
    ("random-boxes", "inner", 3, 1):
        "5c631b80332c3f36faa0411afa9fdac49db9b16394c552a9532fe5966ecc2bd6",
    ("random-boxes", "inner", 3, 2):
        "5ddf6647526f13a979313a13bd10cd32c264b80486539e5288b3c540dcc2107e",
    ("counterexample", "inner", 1, 1):
        "f31449fdc685ea6c10feb4f88ff4de5219fa3fec8a20cbbd9ac8cd5e5505a96f",
    ("counterexample", "inner", 1, 2):
        "f31449fdc685ea6c10feb4f88ff4de5219fa3fec8a20cbbd9ac8cd5e5505a96f",
    ("counterexample", "inner", 2, 1):
        "d36a6b33023941897b0197df967bb48ff1dae4a183de19be47937e3b68722745",
    ("counterexample", "inner", 2, 2):
        "d36a6b33023941897b0197df967bb48ff1dae4a183de19be47937e3b68722745",
    ("counterexample", "inner", 3, 1):
        "92a023e1733ce135daf726c196bb5ac669c9c048a8f4b4c58aaf7b76c5d2f968",
    ("counterexample", "inner", 3, 2):
        "92a023e1733ce135daf726c196bb5ac669c9c048a8f4b4c58aaf7b76c5d2f968",
    ("counterexample", "outer", 1, 1):
        "f31449fdc685ea6c10feb4f88ff4de5219fa3fec8a20cbbd9ac8cd5e5505a96f",
    ("counterexample", "outer", 1, 2):
        "f31449fdc685ea6c10feb4f88ff4de5219fa3fec8a20cbbd9ac8cd5e5505a96f",
    ("counterexample", "outer", 2, 1):
        "2547b8fb0ea5dc9df4811190fad008b60cd07b31a817fa25c68a64485165add4",
    ("counterexample", "outer", 2, 2):
        "2547b8fb0ea5dc9df4811190fad008b60cd07b31a817fa25c68a64485165add4",
    ("counterexample", "outer", 3, 1):
        "5dfd608618b30d9ea962ea1da4e446308f7f0855768b9d2beb6ab3f1b58f0204",
    ("counterexample", "outer", 3, 2):
        "5dfd608618b30d9ea962ea1da4e446308f7f0855768b9d2beb6ab3f1b58f0204",
    ("interval-unions", "inner", 1, 1):
        "0a43780e49d1bd4a19150eca2cb2e55a313524fae2216f89ef0e92c72be9f8e9",
    ("interval-unions", "inner", 1, 2):
        "a57c11e514e12541f1442f32aeea6a284cceec756f1f533f8438bd5632528fd1",
}


def _scenario_digest_cases():
    for family, (eps, denoms) in _DIGEST_DENOMS.items():
        brackets = ("inner", "outer") if family == "counterexample" else ("inner",)
        for bracket in brackets:
            for n, denom in zip((1, 2, 3), denoms):
                for seed in (1, 2):
                    yield (family, bracket, n, seed), ScenarioSpec(
                        family=family, n=n, denom=denom, eps=eps, seed=seed,
                        bracket=bracket)
    for seed in (1, 2):
        yield ("interval-unions", "inner", 1, seed), ScenarioSpec(
            family="interval-unions", seed=seed)


def test_scenarios_match_recorded_digests():
    got = {}
    for key, spec in _scenario_digest_cases():
        A, B = generate_scenario(spec)
        write = write_iset if spec.family == "interval-unions" else write_vset
        got[key] = hashlib.sha256((write(A) + write(B)).encode()).hexdigest()
    assert got == _SCENARIO_DIGESTS
