"""Certified rational brackets for n-th roots.

All volume comparisons that involve fractional powers go through this module:
the core arithmetic of the package is exact rational, and the only place real
numbers enter is via n-th roots of rational volumes.  Instead of trusting
binary64, every root is returned as an exact rational interval [lo, hi] that
certifiably contains it, so inequalities can be checked soundly.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["iroot", "nth_root_brackets", "PI_LO", "PI_HI"]

# Rational brackets for pi, from the decimal expansion
# 3.14159265358979323846264338327950... (30 digits shown; last digit of the
# numerator is rounded down for PI_LO and up for PI_HI).
PI_LO = Fraction(314159265358979323846264338327, 10**29)
PI_HI = Fraction(314159265358979323846264338328, 10**29)


def iroot(x: int, n: int) -> int:
    """Floor of the integer n-th root of x >= 0, by Newton iteration."""
    if x < 0:
        raise ValueError("iroot needs x >= 0")
    if n < 1:
        raise ValueError("iroot needs n >= 1")
    if x in (0, 1) or n == 1:
        return x
    # Initial guess from bit length, then monotone Newton descent.
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    while r ** n > x:
        r -= 1
    return r


def _exact_root(x: Fraction, n: int):
    """Return x**(1/n) as a Fraction when x is a perfect n-th power, else None."""
    p, q = x.numerator, x.denominator
    rp, rq = iroot(p, n), iroot(q, n)
    if rp ** n == p and rq ** n == q:
        return Fraction(rp, rq)
    return None


def nth_root_brackets(x: Fraction, n: int, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Certified bracket lo <= x**(1/n) <= hi with hi - lo <= 2**(1-bits).

    Exact when x is a perfect n-th power of a rational.  The bracket is built
    from the integer n-th root of floor(x * 2**(n*bits)), so lo**n <= x and
    hi**n > x are exact integer facts.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("nth_root_brackets needs x >= 0")
    if n == 1:
        return x, x
    if x == 0:
        return Fraction(0), Fraction(0)
    exact = _exact_root(x, n)
    if exact is not None:
        return exact, exact
    scale = 1 << bits
    y = (x.numerator * scale ** n) // x.denominator
    r = iroot(y, n)
    lo = Fraction(r, scale)
    hi = Fraction(r + 2, scale)
    return lo, hi
