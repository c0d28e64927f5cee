import hashlib
import random
from fractions import Fraction

import pytest

from bmstab.minkowski import convex_combination
from bmstab.scenarios import ScenarioSpec, generate_scenario
from bmstab.symmetry import natural, schwarz, steiner, sup_slice_ratio_check
from bmstab.vset import LatticeSet, fiber_profile, superlevel_set, write_vset


def random_set(rng, m=2, max_cells=16, span=6):
    k = rng.randrange(1, max_cells)
    cells = frozenset((rng.randrange(0, span), rng.randrange(0, span))
                      for _ in range(k))
    return LatticeSet(2, m, cells)


def test_steiner_centered_square_fixed():
    sq = LatticeSet(2, 2, frozenset((i, j) for i in (-1, 0) for j in (-1, 0)))
    st = steiner(sq).exact
    assert st.denom == 4
    assert st.cells == frozenset((i, j) for i in range(-2, 2) for j in range(-2, 2))


def test_steiner_recenters_fibers():
    off = LatticeSet(2, 2, frozenset([(0, 5), (0, 6), (1, 9)]))
    st = steiner(off).exact
    col0 = sorted(c[1] for c in st.cells if c[0] == 0)
    assert col0 == [-2, -1, 0, 1]
    before = dict(fiber_profile(off).lengths)
    after = dict(fiber_profile(st).lengths)
    assert after[(0,)] == after[(1,)] == before[(0,)]
    assert after[(2,)] == after[(3,)] == before[(1,)]


def test_steiner_preserves_measure_randomized():
    rng = random.Random(13)
    for _ in range(30):
        E = random_set(rng)
        assert steiner(E).exact.measure() == E.measure()


def test_schwarz_unit_square_slab():
    us = LatticeSet(2, 1, frozenset([(0, 0)]))
    sw = schwarz(us).exact
    assert sw.cells == frozenset([(-1, 0), (0, 0), (-1, 1), (0, 1)])
    assert sw.measure() == 1


def test_schwarz_empty_rows_stay_empty():
    E = LatticeSet(2, 2, frozenset([(0, 0), (0, 3)]))
    sw = schwarz(E).exact
    rows = {c[1] for c in sw.cells}
    assert rows == {0, 1, 6, 7}  # doubled indices of the occupied rows only


def test_schwarz_3d_bracket_gap_shrinks():
    cube = LatticeSet(3, 1, frozenset([(0, 0, 0)]))
    gaps = []
    for R in (2, 4, 8):
        body = schwarz(cube, refinement=R)
        lo, hi = body.measure_bounds()
        assert lo <= 1 <= hi
        gaps.append(body.gap())
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= Fraction(6, 8)  # ~ C / refinement with C ~ perimeter * 4/pi


def test_schwarz_and_natural_refuse_a_bad_refinement():
    for E in (LatticeSet(2, 1, [(0, 0)]), LatticeSet(3, 1, [(0, 0, 0)])):
        for refinement in (2.5, 0, -3, "4"):
            for sym in (schwarz, natural):
                with pytest.raises(ValueError, match="refinement"):
                    sym(E, refinement=refinement)


def test_natural_measure_and_monotone_profile():
    rng = random.Random(7)
    for _ in range(30):
        E = random_set(rng)
        nat = natural(E).exact
        assert nat.measure() == E.measure()
        prof = dict(fiber_profile(nat).lengths)
        right = [prof[(y,)] for y in sorted(p[0] for p in prof if p[0] >= 0)]
        assert all(a >= b for a, b in zip(right, right[1:]))
        left = [prof[(y,)] for y in sorted((p[0] for p in prof if p[0] < 0),
                                           reverse=True)]
        assert all(a >= b for a, b in zip(left, left[1:]))


def test_natural_idempotent_fiber_distribution():
    rng = random.Random(19)
    for _ in range(10):
        E = random_set(rng)
        n1 = natural(E).exact
        n2 = natural(n1).exact
        d1 = sorted(l for _, l in fiber_profile(n1).lengths for _ in range(1))
        # compare distribution with weights: refine n1 to n2's denom
        k = n2.denom // n1.denom
        d1 = sorted(l for _, l in fiber_profile(n1.refine(k)).lengths)
        d2 = sorted(l for _, l in fiber_profile(n2).lengths)
        assert d1 == d2


def test_sum_monotone_under_natural():
    rng = random.Random(3)
    t = Fraction(1, 2)
    for _ in range(10):
        E, F = random_set(rng, max_cells=10), random_set(rng, max_cells=10)
        plain = convex_combination(E, F, t).measure()
        nat = convex_combination(natural(E).exact, natural(F).exact, t).measure()
        assert nat <= plain


def test_level_set_measures_preserved():
    rng = random.Random(31)
    for _ in range(10):
        E = random_set(rng)
        nat = natural(E).exact
        lengths = sorted({l for _, l in fiber_profile(E).lengths})
        # sample between attained fiber lengths to avoid ties
        probes = [Fraction(0)] + [(a + b) / 2 for a, b in zip(lengths, lengths[1:])]
        for lam in probes:
            assert superlevel_set(E, lam).measure() == \
                superlevel_set(nat, lam).measure()


def test_sup_slice_ratio_check():
    sq = LatticeSet(2, 4, frozenset((i, j) for i in range(4) for j in range(4)))
    res = sup_slice_ratio_check(sq, sq, Fraction(1, 2), Fraction(0))
    assert res["gamma"] == 1.0 and res["pass"]

    # perturbed pair with measured normalized deficit
    from bmstab.minkowski import deficit
    bitten = LatticeSet(2, 4, frozenset((i, j) for i in range(4) for j in range(4)) - {(3, 3)})
    rec = deficit(sq, bitten, Fraction(1, 2))
    res = sup_slice_ratio_check(sq, bitten, Fraction(1, 2), rec.delta_norm)
    assert res["pass"]
    with pytest.raises(ValueError):
        sup_slice_ratio_check(sq, LatticeSet(2, 4), Fraction(1, 2), Fraction(0))

    # a column against the square: sup-slice ratio 1/4.  At t = 1/2, gamma =
    # 1/2 exactly, so (1 - gamma)^2 = 8*delta/tau at delta = 1/64, and any
    # smaller delta is a proven violation, however close
    col = LatticeSet(2, 4, frozenset((0, j) for j in range(4)))
    for X, Y in ((col, sq), (sq, col)):
        res = sup_slice_ratio_check(X, Y, Fraction(1, 2), Fraction(1, 64))
        assert res["gamma"] == 0.5 and res["pass"]
        assert not sup_slice_ratio_check(X, Y, Fraction(1, 2),
                                         Fraction(1, 64) - Fraction(1, 10**15))["pass"]
    # at t = 1/3, gamma = (1/4)^(2/3) is irrational and comes as a bracket
    gamma = 0.25 ** (2 / 3)
    edge = Fraction((1 - gamma) ** 2) / 24  # delta with 8*delta/tau = (1 - gamma)^2
    for step, ok in ((Fraction(1, 10**9), True), (-Fraction(1, 10**9), False)):
        res = sup_slice_ratio_check(col, sq, Fraction(1, 3), edge + step)
        assert abs(res["gamma"] - gamma) < 1e-15 and res["pass"] == ok


_SYM_CASES = {  # family -> (eps, denom for n = 2, 3)
    "boundary-bites": (Fraction(1, 2), (6, 4)),
    "perturbed-square": (Fraction(1, 2), (6, 4)),
    "random-boxes": (0, (4, 3)),
}

# SHA-256 of write_vset of each output (inner then outer for a bracket),
# keyed by (family, n, seed, kind, refinement), for the first set of each
# scenario.  Recorded from the tuple-set implementation of the
# symmetrizations, so a rewrite that changes any cell fails here.
_SYM_DIGESTS = {
    ("boundary-bites", 2, 1, "steiner", 4):
        "1ff5b87dbcfa1612d92bb499be4369686be00e877d33f2430595ff332b90422b",
    ("boundary-bites", 2, 1, "schwarz", 4):
        "0bd301cd0bb8811357a3e04720fb79c967950e4d143bd7e56804ebe0e6916242",
    ("boundary-bites", 2, 1, "natural", 4):
        "f4950a6e5aebc4db4d75a912c90e7d6e504f29ae44e86e43bbfca51dd6eebf30",
    ("boundary-bites", 2, 2, "steiner", 4):
        "5ff12e1e7114d2e1c9b9450726c0b1668d5ea67d6f9f8f8743296cf9358af8fb",
    ("boundary-bites", 2, 2, "schwarz", 4):
        "9e9ff9cc8969ef5ee3cd516fe34611c958429f36ae47af16976c469853dfb9f0",
    ("boundary-bites", 2, 2, "natural", 4):
        "980bee0572e383c22ec8d46dec47edda3b7d44eb6becc9d039b4d33be19cac26",
    ("boundary-bites", 3, 1, "steiner", 4):
        "02d5268b750a39e44c4ac48e74026e307fd2c681d3ffcc3fc54479aa2e4588ff",
    ("boundary-bites", 3, 1, "schwarz", 4):
        "22230ee341bb29b527f76a325be408b708f112fc4548a2e251ca5ac99b562c3c",
    ("boundary-bites", 3, 1, "natural", 4):
        "b9bde6be0146fada2964838d7d23fe2ee69ca1e04c334bbb05f9ad521a439f07",
    ("boundary-bites", 3, 1, "schwarz", 3):
        "cd7601f93e910a56facd988f38570207bb87409bc570203f0bac2e2d629f90bb",
    ("boundary-bites", 3, 1, "natural", 3):
        "6b06daddaa4100feea2e1f7f64cd7d58dbc5b77fbe4344ef15b46448246664d4",
    ("boundary-bites", 3, 2, "steiner", 4):
        "e203f749a71e67d705a88f915e7720ef53df8273f174eeccc24270bba5304050",
    ("boundary-bites", 3, 2, "schwarz", 4):
        "27ad841963d210381604ea6fc3fc6075b6cbd2ca47490e8ebbe06edc53eaf000",
    ("boundary-bites", 3, 2, "natural", 4):
        "9ab9eff87cc4331097021b36665f57da2039279e8e95005e3c24e6d9f6d27083",
    ("boundary-bites", 3, 2, "schwarz", 3):
        "57338befdc3fd2eb3d37e5ddae538eadec84910d67fa085b0de4d48b97812f56",
    ("boundary-bites", 3, 2, "natural", 3):
        "a3542624d32732630065275bee1af2abcaf8fe98d866d1fbcd10450760a49633",
    ("perturbed-square", 2, 1, "steiner", 4):
        "d5184a36a54284f22d34bb083199a4c65d5bc26e4da6ae1ddd9b88130bc9bc20",
    ("perturbed-square", 2, 1, "schwarz", 4):
        "762efed7648b1a7cb9f30c5a3bddfb7498786f795fbe7777c6b80a7e0577e504",
    ("perturbed-square", 2, 1, "natural", 4):
        "fbe42e0b6854d6b363292e2c7549aac1218f43a459be804125c62ebb5aaf94af",
    ("perturbed-square", 2, 2, "steiner", 4):
        "13c1620e16ef7c92b721147c7f3ed389bec099c1a58b22a3472acb84f3e78f81",
    ("perturbed-square", 2, 2, "schwarz", 4):
        "770715f8e89a5d90e8f88f641cb9a4abcb4f648c7ce996695e01c5632de97130",
    ("perturbed-square", 2, 2, "natural", 4):
        "b399228eee9bae43ede9daaf28978cac40a115fa76c82a469e3250f983a11662",
    ("perturbed-square", 3, 1, "steiner", 4):
        "cbd3e0a497c3f30fca40e1fed841f287116f8ead1ccf7ed9879579c53d2d4f31",
    ("perturbed-square", 3, 1, "schwarz", 4):
        "ddf75bc57c8a81cf1b8d1029bf92373497b312d03595345f74d8d7066fc53f31",
    ("perturbed-square", 3, 1, "natural", 4):
        "3dfaf864ea36eacc35101b7224ca17bd9386c6d4b5ec744b5f02ffb4b02cd0b0",
    ("perturbed-square", 3, 1, "schwarz", 3):
        "9c07c13bd1c0123d609ddfbc7debf49a3c85aa15dabac1251e5209b8aa525428",
    ("perturbed-square", 3, 1, "natural", 3):
        "c15934312c04fe68f461e2122f7ddf2b7f23fdc36aa9c1ee0cdc8289d26c94cf",
    ("perturbed-square", 3, 2, "steiner", 4):
        "7b2928da28cfa143c9208ec6d3d8c22b5c095c287d2d6bea8a1224acdd315ca4",
    ("perturbed-square", 3, 2, "schwarz", 4):
        "817d59851ec55786d8b5a4b22e5f12ad21ed5b86d4992845ee0e0696480e5102",
    ("perturbed-square", 3, 2, "natural", 4):
        "04897a9ad11448db7e307852a9d8cf53ad4992e1eb5ec314ca235c3398454adb",
    ("perturbed-square", 3, 2, "schwarz", 3):
        "e6f2afb2c6f86376aa69beeeacba6969a5e29bcc903b3fc2ccb95e14a78b9e6b",
    ("perturbed-square", 3, 2, "natural", 3):
        "1a89a8d333affc3297ba6b7921bb67c31033f33699b1b07534db23ca7574bbc1",
    ("random-boxes", 2, 1, "steiner", 4):
        "9753f937d94dc63ef5d2e30ca05ae34ea15770c30fc4d6f369c94f7f5662c5e9",
    ("random-boxes", 2, 1, "schwarz", 4):
        "57f68aa667b35959956ec950c82eaffc08eaa384acd32befb0c5d98b54cb4da2",
    ("random-boxes", 2, 1, "natural", 4):
        "b612ee938f0f726653dc7dee48303eb91bbd4be3ef720e06906c58f1c03bdaab",
    ("random-boxes", 2, 2, "steiner", 4):
        "e880616dd01beb353320cba0668b2b9bf31173333201340fdb8058c435caa6a9",
    ("random-boxes", 2, 2, "schwarz", 4):
        "2a0c4ccce17a1faab8639edae8364b795414eabc0f38826b07a60c6a8126762e",
    ("random-boxes", 2, 2, "natural", 4):
        "ec4ce69f592ab937c1c4cf0355e3f3e8f5c058aa3212e008546d7ecfdb3058f6",
    ("random-boxes", 3, 1, "steiner", 4):
        "5470b4320808e3aad36f466099c77794119a3175b1d0046919fc9f81b25dd737",
    ("random-boxes", 3, 1, "schwarz", 4):
        "8737c7409c2998e8d9e3df1bc2bd98de61a7b07a91e62ee95f9c763498790b1f",
    ("random-boxes", 3, 1, "natural", 4):
        "459f429241546a29308221799d60b898183bee9e131a04aaa30dfa713dd5f6d0",
    ("random-boxes", 3, 1, "schwarz", 3):
        "c4359f319e8ad2e1025163349f08288b7ab10d86a1a4ccd201d6004025a87bd3",
    ("random-boxes", 3, 1, "natural", 3):
        "02661919e0bbe3d4e643d50bdbe2bbc2f89dba7a735f365fd66b49f7dee09111",
    ("random-boxes", 3, 2, "steiner", 4):
        "e6c9c9a057834e77237911b1c36e2b4dcce112f99ed0e11275326941da199ff1",
    ("random-boxes", 3, 2, "schwarz", 4):
        "1096e0d54e2bc4b51e2acdcf5f72c8a5824ea59b5532be78437a7d484ac408fc",
    ("random-boxes", 3, 2, "natural", 4):
        "5aee39b81cb08a38e93cdbe77882c0a78d3cb0acca32fcb99012cd5a457325cf",
    ("random-boxes", 3, 2, "schwarz", 3):
        "159f7e2af1beaf4c502a558ba91a0d05793ab40cad13203fb08269c54237c512",
    ("random-boxes", 3, 2, "natural", 3):
        "9b66431e33c53b94ffeed38f5927e3c31d9466b1bb92b6602f6b4530af270d88",
}


def test_symmetrizations_match_recorded_digests():
    got = {}
    for family, (eps, denoms) in _SYM_CASES.items():
        for n, denom in zip((2, 3), denoms):
            for seed in (1, 2):
                E, _ = generate_scenario(ScenarioSpec(
                    family=family, n=n, denom=denom, eps=eps, seed=seed))
                bodies = {("steiner", 4): steiner(E)}
                for R in ((4, 3) if n == 3 else (4,)):
                    bodies["schwarz", R] = schwarz(E, R)
                    bodies["natural", R] = natural(E, R)
                for (kind, R), body in bodies.items():
                    text = "".join(map(write_vset, body.bracket or (body.exact,)))
                    got[family, n, seed, kind, R] = hashlib.sha256(
                        text.encode()).hexdigest()
    assert got == _SYM_DIGESTS
