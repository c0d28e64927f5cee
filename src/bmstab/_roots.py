"""Certified rational brackets for n-th roots.

All volume comparisons that involve fractional powers go through this module:
the core arithmetic of the package is exact rational, and the only place real
numbers enter is via n-th roots of rational volumes.  Instead of trusting
binary64, every root is returned as an exact rational interval [lo, hi] that
certifiably contains it, so inequalities can be checked soundly.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["iroot", "root_bracket", "nth_root_brackets", "PI_LO", "PI_HI"]

# Rational brackets for pi, from the decimal expansion
# 3.14159265358979323846264338327950... (30 digits shown; last digit of the
# numerator is rounded down for PI_LO and up for PI_HI).
PI_LO = Fraction(314159265358979323846264338327, 10**29)
PI_HI = Fraction(314159265358979323846264338328, 10**29)


def iroot(x: int, n: int) -> int:
    """Floor of the integer n-th root of x >= 0.

    n = 2 is `math.isqrt`.  Otherwise a monotone Newton descent runs from a
    start at or above the root and stops at its floor.  For x below 2^1000,
    where x converts to a float, the start is the float root scaled by
    1 + 2^-40, plus 1: the float root's relative error (the conversion of
    x, the rounding of 1/n, which moves the root by a factor below
    e^(1000 * ln 2 * 2^-53) = 1 + 2^-43, and the power) stays far below
    2^-40, so the start exceeds the root and the descent takes a step or
    two.  Larger x start from a power of two above the root, found from the
    bit length.
    """
    if x < 0:
        raise ValueError("iroot needs x >= 0")
    if n < 1:
        raise ValueError("iroot needs n >= 1")
    if x in (0, 1) or n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    if x.bit_length() <= 1000:
        r = int(x ** (1 / n) * (1 + 2.0 ** -40)) + 1
    else:
        r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    while r ** n > x:
        r -= 1
    return r


def root_bracket(c: int, D: int, n: int, bits: int = 64) -> tuple[int, int]:
    """Numerators (lo, hi) over 2**bits * D of a certified bracket of
    (c / D**n)**(1/n), for integers c >= 0 and D >= 1.

    The bracket is exact, lo == hi, when c is a perfect n-th power, which is
    when c / D**n is the n-th power of a rational.  Otherwise lo and hi are
    r and r + 2 over 2**bits, where r = iroot(floor(c * 2**(n*bits) / D**n), n),
    so the bracket's ends satisfy lo**n <= c / D**n < hi**n as exact integer
    facts, and hi - lo = 2**(1-bits).
    """
    if c < 0:
        raise ValueError("root_bracket needs c >= 0")
    r = iroot(c, n)
    if r ** n == c:
        return r << bits, r << bits
    r = iroot((c << bits * n) // D ** n, n)
    return r * D, (r + 2) * D


def nth_root_brackets(x: Fraction, n: int, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Certified bracket lo <= x**(1/n) <= hi with hi - lo <= 2**(1-bits).

    Exact when x is a perfect n-th power of a rational.  x = a/b is the
    count a * b**(n-1) over b**n, bracketed by `root_bracket`, the integer
    primitive that `minkowski.deficit` calls on its cell counts directly.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("nth_root_brackets needs x >= 0")
    a, b = x.numerator, x.denominator
    lo, hi = root_bracket(a * b ** (n - 1), b, n, bits)
    return Fraction(lo, b << bits), Fraction(hi, b << bits)
