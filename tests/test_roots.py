import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from bmstab._roots import PI_HI, PI_LO, iroot, nth_root_brackets, root_bracket


def test_iroot_small_cases():
    assert iroot(0, 3) == 0
    assert iroot(1, 5) == 1
    assert iroot(124, 3) == 4
    assert iroot(125, 3) == 5
    assert iroot(2 ** 60 - 1, 2) == 2 ** 30 - 1


@given(st.integers(min_value=0, max_value=10 ** 30), st.integers(min_value=1, max_value=6))
def test_iroot_is_floor_root(x, n):
    r = iroot(x, n)
    assert r ** n <= x < (r + 1) ** n


def test_iroot_is_floor_root_across_the_float_start():
    # the float start serves x below 2^1000 and the bit-length start the
    # rest; both must end at the floor, on random x, perfect powers and
    # their neighbours, for every n up to 60
    rng = random.Random(34)
    for n in range(2, 61):
        xs = []
        for bits in (8, 64, 200, 999, 1000, 1001, 1100, 3000):
            xs += [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(3)]
            r = rng.getrandbits(max(1, bits // n)) | 1 << (max(1, bits // n) - 1)
            xs += [r ** n - 1, r ** n, r ** n + 1]
        xs += [(1 << 1000) - 1, 1 << 1000, (1 << 1000) + 1]
        for x in xs:
            r = iroot(x, n)
            assert r ** n <= x < (r + 1) ** n, (x, n)


def test_exact_powers_are_exact():
    assert nth_root_brackets(Fraction(9, 4), 2) == (Fraction(3, 2), Fraction(3, 2))
    assert nth_root_brackets(Fraction(27, 8), 3) == (Fraction(3, 2), Fraction(3, 2))
    assert nth_root_brackets(Fraction(0), 4) == (0, 0)
    assert nth_root_brackets(Fraction(7), 1) == (7, 7)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000)),
       st.integers(min_value=2, max_value=4))
def test_brackets_contain_root(x, n):
    lo, hi = nth_root_brackets(x, n, bits=48)
    assert lo ** n <= x
    assert hi ** n >= x
    assert hi - lo <= Fraction(1, 2 ** 47)


def test_brackets_vs_mpmath():
    with mp.workprec(120):
        for x in (Fraction(2), Fraction(5, 7), Fraction(123456, 7)):
            for n in (2, 3):
                lo, hi = nth_root_brackets(x, n, bits=80)
                ref = mp.root(mp.mpf(x.numerator) / x.denominator, n)
                assert mp.mpf(lo.numerator) / lo.denominator <= ref
                assert mp.mpf(hi.numerator) / hi.denominator >= ref


def test_pi_brackets():
    with mp.workprec(200):
        pi = mp.pi
        assert mp.mpf(PI_LO.numerator) / PI_LO.denominator < pi
        assert mp.mpf(PI_HI.numerator) / PI_HI.denominator > pi
    assert PI_HI - PI_LO == Fraction(1, 10 ** 29)


def test_negative_rejected():
    with pytest.raises(ValueError):
        nth_root_brackets(Fraction(-1), 2)
    with pytest.raises(ValueError):
        root_bracket(-1, 1, 2)


def _bracket_from_fraction(x, n, bits):
    """The bracket computed on x's lowest terms: exact when numerator and
    denominator are perfect n-th powers, else from iroot(floor(x * 2**(n*bits)))."""
    if n == 1 or x == 0:
        return x, x
    p, q = x.numerator, x.denominator
    rp, rq = iroot(p, n), iroot(q, n)
    if rp ** n == p and rq ** n == q:
        return Fraction(rp, rq), Fraction(rp, rq)
    r = iroot((p << bits * n) // q, n)
    return Fraction(r, 1 << bits), Fraction(r + 2, 1 << bits)


def test_integer_primitive_matches_fraction_bracket():
    rng = random.Random(71)
    for k in range(3000):
        n, bits = rng.randint(1, 5), rng.choice((48, 64))
        if k % 10 == 0:
            x = Fraction(0)
        elif k % 10 < 4:  # perfect n-th powers
            x = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) ** n
        else:
            x = Fraction(rng.randint(1, 10 ** rng.randint(1, 25)),
                         rng.randint(1, 10 ** rng.randint(1, 25)))
        want = _bracket_from_fraction(x, n, bits)
        assert nth_root_brackets(x, n, bits) == want
        # the primitive on x as a count c over D**n, for any D with x*D**n integral
        D = x.denominator * rng.randint(1, 12)
        lo, hi = root_bracket(int(x * D ** n), D, n, bits)
        assert (Fraction(lo, D << bits), Fraction(hi, D << bits)) == want
