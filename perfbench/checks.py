"""Integer-only reference arithmetic for checking benchmark outputs.

These helpers share no code with ``dioapprox``: a value is read as
``(a + b*sqrt(d))/c`` straight from its fields and every decision is a
comparison of integers.  The benchmark uses them, next to ``oracle``,
to check outputs after the timed region.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def parts(x) -> tuple[int, int, int, int]:
    """(a, b, c, d) with x = (a + b*sqrt(d))/c and c > 0."""
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return x.numerator, 0, x.denominator, 1
    return x.a, x.b, x.c, x.d


def sgn(v: int) -> int:
    return (v > 0) - (v < 0)


def sign_surd(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for a non-square d (or b == 0)."""
    sa, sb = sgn(a), sgn(b)
    if sb == 0 or sa == sb:
        return sa if sa else sb
    if sa == 0:
        return sb
    return sa * sgn(a * a - b * b * d)


def cmp_scaled(x, n: int, r) -> int:
    """Sign of n*x - r for rational r."""
    a, b, c, d = parts(x)
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    return sign_surd(n * a * q - p * c, n * b * q, d)


def floor_mul(x, n: int) -> int:
    """floor(n*x)."""
    a, b, c, d = parts(x)
    t = n * b
    if t == 0:
        return (n * a) // c
    r = isqrt(t * t * d)
    return (n * a + (r if t > 0 else -r - 1)) // c


def frac_between(x, n: int, lo, hi) -> bool:
    """lo < frac(n*x) < hi."""
    f = floor_mul(x, n)
    return cmp_scaled(x, n, f + Fraction(lo)) > 0 and cmp_scaled(x, n, f + Fraction(hi)) < 0


def index_of(x, k: int):
    """Least n >= 0 with floor(n*x) = k, or None; x > 0."""
    lo, hi = 0, 1
    while floor_mul(x, hi) < k:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # floor(lo*x) < k <= floor(hi*x)
        mid = (lo + hi) // 2
        if floor_mul(x, mid) < k:
            lo = mid
        else:
            hi = mid
    n = 0 if k <= 0 else hi
    return n if floor_mul(x, n) == k else None


def is_member(x, k: int) -> bool:
    return index_of(x, k) is not None


def approx_side_ok(kind: str, q_limit: int, p: int, q: int) -> bool:
    """The side condition on q of a certificate, and reducedness."""
    if q < 1 or gcd(p, q) != 1:
        return False
    return q <= q_limit if kind == "dirichlet" else q > q_limit


def series_mul(x: list, y: list, width: int) -> list:
    """First `width` coefficients of the product of two power series."""
    return [
        sum(x[i] * y[n - i] for i in range(n + 1) if i < len(x) and n - i < len(y))
        for n in range(width)
    ]


def poly_floor(num: list, den: list) -> list:
    """Floor of num/den in the Laurent model (t positively infinite).

    Coefficient lists are ascending.  The quotient of the division is
    the polynomial part; the remainder over den is infinitesimal, and
    only its sign matters, when the constant term is an integer.
    """
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    rem = list(num)
    for shift in range(len(num) - len(den), -1, -1):
        c = rem[shift + len(den) - 1] / den[-1]
        quot[shift] = c
        for i, dc in enumerate(den):
            rem[shift + i] -= c * dc
    while rem and rem[-1] == 0:
        rem.pop()
    tail = sgn(rem[-1].numerator) * sgn(den[-1].numerator) if rem else 0
    c0 = quot[0]
    base = c0.numerator // c0.denominator
    if c0.denominator == 1 and tail < 0:
        base -= 1
    quot[0] = Fraction(base)
    while len(quot) > 1 and quot[-1] == 0:
        quot.pop()
    return quot
