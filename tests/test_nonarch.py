import inspect
import math
import os
import random
import sys
import time
from fractions import Fraction

import pytest

from dioapprox import nonarch as na
from dioapprox import oracle
from dioapprox.exactnum import parse_exact
from dioapprox.errors import (
    DomainError,
    IndeterminateSignError,
    ParseError,
    PrecisionError,
    ResourceLimitError,
)
from support import counted_gcds, counted_products

T = na.RatFunc.t_power(1)
INV_T = na.RatFunc.t_power(-1)
ONE = na.RatFunc.const(1)


def rf(num_coeffs, den_coeffs=(1,)):
    return na.RatFunc(na.Poly(num_coeffs), na.Poly(den_coeffs))


# --- field operations ----------------------------------------------------

def test_basic_field_identities():
    assert na.mul(T, INV_T) == ONE
    assert na.sub(na.add(T, ONE), ONE) == T
    x = rf((0, 0, 1), (1, 1))  # t^2/(t+1)
    assert na.add(rf((-1, 1)), na.div(ONE, rf((1, 1)))) == x  # t - 1 + 1/(t+1)


def test_inverse_of_t_plus_one_series():
    s = na.to_series(na.div(ONE, rf((1, 1))), 6)
    assert [s.coeff(i) for i in range(0, 6)] == [0, 1, -1, 1, -1, 1]
    back = na.mul(s, rf((1, 1)))
    assert back.coeff(0) == 1
    assert all(back.coeff(i) == 0 for i in range(1, back.prec))


def test_series_precision_propagation():
    a = na.EpsSeries.make(0, [1, 1, 1, 1], False)          # known below eps^4
    b = na.EpsSeries.make(1, [2, 3], False)                # known below eps^3
    total = na.add(a, b)
    assert total.prec == 3
    prod = na.mul(a, b)
    assert prod.lead == 1 and prod.prec == min(4 + 1, 3 + 0)


def _assert_series(s, lead, prec, exact, coeffs):
    assert (s.lead, s.prec, s.exact) == (lead, prec, exact)
    assert list(s.coeffs) == coeffs


def test_series_division_and_errors():
    """Each divisor shape keeps its own window: a one-term exact divisor
    divides coefficientwise, a longer exact one reads as many terms as the
    dividend (DEFAULT_PRECISION over an exact dividend) shifted by its
    lead, and an inexact one no more than it knows."""
    one = na.EpsSeries.make(0, [1], True)
    geom = na.div(one, na.EpsSeries.make(0, [1, -1], True))
    assert [geom.coeff(i) for i in range(5)] == [1, 1, 1, 1, 1]
    with pytest.raises(ZeroDivisionError):
        na.div(ONE, na.RatFunc.const(0))
    with pytest.raises(ZeroDivisionError, match="exact zero series"):
        na.div(one, na.EpsSeries.make(0, [], True))
    with pytest.raises(PrecisionError):
        na.div(one, na.EpsSeries.make(5, [], False))  # nothing known yet
    s = na.sqrt1p_eps(64)
    s_cs = list(s.coeffs)
    # sqrt(1+eps)/(t+1) = eps/sqrt(1+eps): the divisor eps^-1 + 1 is exact
    inv_sqrt = [Fraction(math.comb(2 * k, k), (-4) ** k) for k in range(63)]
    _assert_series(na.div(s, rf((1, 1))), 1, 64, False, inv_sqrt)
    # 1/t, a monomial denominator, expands exactly to eps^1: s shifts by one
    _assert_series(na.div(s, INV_T), -1, 63, False, s_cs)
    _assert_series(na.div(s, na.EpsSeries.make(2, [Fraction(1, 2)], True)),
                   -2, 62, False, [2 * c for c in s_cs])
    _assert_series(na.div(na.EpsSeries.make(1, [3, 6], True), na.EpsSeries.make(-2, [3], True)),
                   3, 5, True, [1, 2])
    # (eps + 2 eps^2)/(eps^2 - eps^3), DEFAULT_PRECISION + 2 terms from eps^-1
    _assert_series(na.div(na.EpsSeries.make(1, [1, 2], True), na.EpsSeries.make(2, [1, -1], True)),
                   -1, na.DEFAULT_PRECISION + 1, False, [1] + [3] * (na.DEFAULT_PRECISION + 1))
    _assert_series(na.div(na.EpsSeries(0, (), True), rf((1, 1))), 0, 0, True, [])


def test_ratfunc_operators_are_the_module_functions():
    x, y = rf((1, 2, 3), (5, 1)), rf((-1, 0, 4), (2, 0, 1))
    assert x + y == na.add(x, y) and x - y == na.sub(x, y)
    assert x * y == na.mul(x, y) and x / y == na.div(x, y)
    assert 2 + x == na.add(2, x) and 2 - x == na.sub(2, x)
    assert 2 * x == na.mul(2, x) and 2 / x == na.div(2, x)
    assert Fraction(1, 3) - x == na.sub(Fraction(1, 3), x)
    s = na.sqrt1p_eps(8)
    assert repr(x * s) == repr(na.mul(x, s)) and repr(x - s) == repr(na.sub(x, s))
    with pytest.raises(ZeroDivisionError):
        x / na.RatFunc.const(0)


def test_poly_gcd_matches_naive():
    rng = random.Random(37)

    def rand_poly(deg):
        return na.Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg + 1)])

    def monic_gcd(a, b):
        """The integer gcd of the primitive parts, made monic."""
        prim = [na._primitive(na._over_lcm(p.coeffs)[0]) if p.coeffs else [] for p in (a, b)]
        g = na._poly_gcd(*prim)
        assert all(type(c) is int for c in g) and (not g or g[-1] > 0)
        return [Fraction(c, g[-1]) for c in g]

    for _ in range(400):
        a, b = rand_poly(rng.randint(-1, 6)), rand_poly(rng.randint(-1, 6))
        if rng.random() < 0.6:
            g = rand_poly(rng.randint(1, 3))
            a, b = a * g, b * g
        want = oracle.poly_gcd_naive(list(a.coeffs), list(b.coeffs))
        assert monic_gcd(a, b) == want
    # a low-degree non-monic divisor far below a sparse dividend
    big, low = na.Poly([1] + [0] * 499 + [1]), na.Poly([-1, 2])
    assert monic_gcd(big, low) == oracle.poly_gcd_naive(list(big.coeffs), list(low.coeffs))


def test_ratfunc_reduction_is_canonical():
    a = rf((0, 0, 1), (0, 1))  # t^2/t reduces to t
    assert a == T
    b = rf((2, 2), (2,))       # (2t+2)/2 = t+1
    assert b == rf((1, 1))
    assert na.RatFunc.const(Fraction(5, 4)).den == na.Poly([4])


def _assert_canonical(x):
    """Integer num and den without a common factor, content included,
    lc(den) > 0, and zero as 0/1."""
    num, den = x.num.coeffs, x.den.coeffs
    assert all(type(c) is int for c in num + den)
    assert den[-1] > 0
    if not num:
        assert den == (1,)
        return
    assert oracle.poly_gcd_naive(list(num), list(den)) == [1]
    assert math.gcd(*num, *den) == 1


def _assert_no_float(x):
    cs = x.num.coeffs + x.den.coeffs if isinstance(x, na.RatFunc) else x.coeffs
    assert all(type(c) in (int, Fraction) for c in cs)


def test_canonical_form_after_parse_and_ops():
    rng = random.Random(71)

    def rand_rf():
        cs = [rng.randint(-12, 12) for _ in range(rng.randint(0, 5))]
        ds = [rng.randint(-12, 12) for _ in range(rng.randint(1, 4))]
        if not any(ds):
            ds = [rng.randint(1, 5)]
        if rng.random() < 0.5:  # rational coefficients
            cs = [Fraction(c, rng.randint(1, 9)) for c in cs]
            ds = [Fraction(d, rng.randint(1, 9)) for d in ds]
        return rf(cs, ds)

    ops = (na.add, na.sub, na.mul, na.div)
    for _ in range(400):
        x, y = rand_rf(), rand_rf()
        for v in (x, y, na.parse_laurent(na.format_laurent(x)), -x):
            _assert_canonical(v)
        assert -x == na.RatFunc(-x.num, x.den)
        for op in ops:
            if op is na.div and y.is_zero():
                continue
            z = op(x, y)
            _assert_canonical(z)
            _assert_no_float(z)
        floor = na.floor_ip(x)  # built without the constructor's reduction
        _assert_canonical(floor)
        _assert_no_float(floor)
        _assert_no_float(na.to_series(x, 8))
        _assert_no_float(na.mul(x, na.sqrt1p_eps(8)))
        if na.is_finite(x):
            assert type(na.std_part(x)) is Fraction
    _assert_canonical(na.sub(T, T))


def test_inverse_of_reduced_ratfunc_swaps_without_a_gcd(monkeypatch):
    """div(1, y) for a reduced y is y's pair swapped, signs fixed so that
    lc(den) > 0: the full constructor's answer, with no gcd taken."""
    rng = random.Random(83)
    ys = [na.RatFunc.const(c) for c in (3, -3, Fraction(-2, 7))] + [rf((1, -2, -4), (3, 5))]
    for _ in range(300):
        cs = [rng.randint(-12, 12) for _ in range(rng.randint(1, 6))]
        ds = [rng.randint(-12, 12) for _ in range(rng.randint(1, 5))]
        if any(cs) and any(ds):
            ys.append(rf(cs, ds))
    wants = [na.RatFunc(y.den, y.num) for y in ys]
    one = na.RatFunc.const(1)
    assert any(y.num.lc() < 0 for y in ys) and any(y.num.deg == y.den.deg == 0 for y in ys)

    def no_gcd(*_):
        raise AssertionError("div(1, y) took a gcd")

    monkeypatch.setattr(na, "_poly_gcd", no_gcd)
    for y, want in zip(ys, wants):
        inv = na.div(one, y)
        assert inv == want
        _assert_canonical(inv)


def test_constants_are_canonical_without_a_gcd(monkeypatch):
    """const(q) of either class is the constructor's answer, num and den
    alike, with no common denominator and no gcd taken."""
    rng = random.Random(89)
    big = 10**200
    ints = [0, 1, -1] + [rng.choice((rng.randint(-99, 99), rng.randint(-big, big))) for _ in range(497)]
    fracs = [Fraction(rng.choice((rng.randint(-99, 99), rng.randint(-big, big))),
                      rng.choice((rng.randint(1, 99), rng.randint(1, big)))) for _ in range(497)]
    fracs = [Fraction(0), Fraction(-1, 3), Fraction(4, 2)] + fracs
    wants = {cls: [cls(na.Poly([q])) for q in qs] for cls, qs in ((na.RatFunc, fracs), (na.IPElem, ints))}

    def no_gcd(*_):
        raise AssertionError("const took a gcd")

    monkeypatch.setattr(na, "_poly_gcd", no_gcd)
    monkeypatch.setattr(na, "_over_lcm", no_gcd)
    for cls, qs in ((na.RatFunc, fracs), (na.IPElem, ints)):
        for q, want in zip(qs, wants[cls]):
            got = cls.const(q)
            assert type(got) is cls and got == want and hash(got) == hash(want)
            assert (got.num, got.den) == (want.num, want.den)
    assert na.RatFunc.const(0).den == na.Poly([1]) and na.IPElem.const(Fraction(4, 2)).constant() == 2
    with pytest.raises(DomainError, match="must be an integer, got 1/2"):
        na.IPElem.const(Fraction(1, 2))
    with pytest.raises(ResourceLimitError, match="COEFF_BITS_LIMIT"):
        na.RatFunc.const(Fraction(1, 2**na.COEFF_BITS_LIMIT))


def test_ratfunc_arithmetic_matches_the_full_reduction():
    """add, sub, mul and div give the pair the constructor makes of the
    unreduced formula, on canonical pairs that share a factor (a
    polynomial or an integer) in every place a Henrici split can cancel."""
    rng = random.Random(97)

    def poly(deg):  # leading coefficient of either sign
        return na.Poly([rng.randint(-5, 5) for _ in range(deg)] + [rng.choice((-5, -3, -2, -1, 1, 2, 4))])

    def ratfunc(shared):
        num, den = poly(rng.randint(0, 2)), poly(rng.choice((0, 0, 1, 2)))  # constants, polynomials
        if rng.random() < 0.15:
            num = na.Poly([])
        elif rng.random() < 0.3:
            num = num * na.Poly([rng.choice((2, 3, 6, -4))])  # integer content
        if rng.random() < 0.7:
            num, den = (num * shared, den) if rng.random() < 0.5 else (num, den * shared)
        return na.RatFunc(num, den)

    cancelled = {op: 0 for op in (na.add, na.sub, na.mul, na.div)}
    for _ in range(20_000):
        shared = poly(rng.randint(0, 1))
        x = ratfunc(shared)
        y = x if rng.random() < 0.05 else ratfunc(shared)
        (a, b), (c, d) = (x.num, x.den), (y.num, y.den)
        cases = [(na.add, a * d + c * b, b * d), (na.sub, a * d - c * b, b * d), (na.mul, a * c, b * d)]
        if not y.is_zero():
            cases.append((na.div, a * d, b * c))
        for op, num, den in cases:
            got, want = op(x, y), na.RatFunc(num, den)
            assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs), (op, x, y)
            _assert_canonical(got)
            cancelled[op] += want.den != den
    assert min(cancelled.values()) > 2_000, cancelled


# --- the integer series kernel against the schoolbook loops ---------------

def _rand_series(rng, max_len):
    """Exact or truncated, leads -3..3, zero coefficients inside."""
    n = rng.randint(1, max_len)
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 30)) for _ in range(n)]
    cs[0] = cs[0] or Fraction(1)
    return na.EpsSeries(rng.randint(-3, 3), tuple(cs), rng.random() < 0.4)


# Windows on a scale b > 1: sqrt1p(eps) (b = 4) and expansions over a g
# with |g0| > 1 (b = |g0|); a random window takes b = 1.
SQRT1P = {p: na.sqrt1p_eps(p) for p in (32, 58, 141, 600)}
OVER_3T_7 = na.to_series(rf((0, 1), (-7, 3)), 141)  # t/(3t - 7)
OVER_CUBIC = na.to_series(rf((1, 0, 1), (3, 5, 0, 2)), 58)  # (t^2 + 1)/(2t^3 + 5t + 3), lead 1


def _shifted(s, lead):
    return na.EpsSeries(lead, s.coeffs, s.exact)


def _scaled_cases(rng):
    """Pairs mixing the scales, both ways round, some with negative leads."""
    s141, s58 = SQRT1P[141], SQRT1P[58]
    rand80 = na.EpsSeries(-2, tuple(_rand_series(rng, 80).coeffs), False)
    pairs = [(s141, OVER_3T_7), (s58, OVER_CUBIC), (OVER_3T_7, OVER_CUBIC),
             (_shifted(s58, -3), _shifted(OVER_3T_7, -1)), (rand80, s58), (rand80, OVER_CUBIC)]
    return pairs + [(y, x) for x, y in pairs]


def test_series_mul_matches_naive():
    rng = random.Random(41)
    cases = [(_rand_series(rng, 12), _rand_series(rng, 12)) for _ in range(300)]
    cases += [(_rand_series(rng, 80), _rand_series(rng, 80)) for _ in range(6)]
    cases += [(s, s) for s in SQRT1P.values()] + _scaled_cases(rng)
    for width in list(range(21)) + [47, 64, 79, 80]:  # squares: one window, and an equal copy
        cs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 30)) for _ in range(width))
        x = na.EpsSeries(rng.randint(-3, 3), cs, width > 0 and rng.random() < 0.4)
        cases += [(x, x), (x, na.EpsSeries(x.lead, tuple(map(Fraction, cs)), x.exact))]
    for x, y in cases:
        z = na.mul(x, y)
        lo = x.lead + y.lead
        if x.exact and y.exact:
            width = len(x.coeffs) + len(y.coeffs) - 1
            assert z.exact
        else:
            width = min(len(x.coeffs) if not x.exact else 10**9,
                        len(y.coeffs) if not y.exact else 10**9)
            assert not z.exact and z.prec == lo + width
        want = oracle.series_product_naive(x.coeffs, y.coeffs, width)
        assert [z.coeff(lo + i) for i in range(width)] == want


def test_series_div_matches_naive():
    rng = random.Random(43)
    cases = [(_rand_series(rng, 12), _rand_series(rng, 12)) for _ in range(300)]
    one = na.EpsSeries.make(0, [1], True)
    cases += [(one, s) for s in SQRT1P.values()] + _scaled_cases(rng)
    for x, y in cases:
        z = na.div(x, y)
        shift = x.lead - y.lead
        if not x.exact and not y.exact:
            assert not z.exact and z.prec == shift + min(len(x.coeffs), len(y.coeffs))
        width = z.prec - shift if not z.exact else len(x.coeffs)
        inv = oracle.series_inverse_naive(y.coeffs, width)
        want = oracle.series_product_naive(x.coeffs, inv, width)
        assert [z.coeff(shift + i) for i in range(width)] == want


def test_to_series_matches_naive():
    rng = random.Random(47)
    cases = []
    for _ in range(200):
        num = na.Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))])
        den = na.Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(2, 5))])
        if num.is_zero() or den.is_zero():
            continue
        cases.append((na.RatFunc(num, den), rng.choice([8, 32, 128, 256])))
    # |g0| > 1, a negative lead, and the monomial denominators c and c*t^k
    cases += [(x, p) for x in (rf((0, 1), (-7, 3)), rf((1, 0, 1), (3, 5, 0, 2)))
              for p in (32, 141, 600)]
    cases += [(rf((1, 0, 0, 1), (-7, 3)), 58), (rf((1, 2), (0, 0, 5)), 8), (rf((3, 0, 1), (2,)), 8)]
    for x, prec in cases:
        s = na.to_series(x, prec)
        lead = x.den.deg - x.num.deg
        f, g = x.num.coeffs[::-1], x.den.coeffs[::-1]
        if not any(g[1:]):  # the denominator is a monomial: an exact Laurent polynomial
            assert s.exact and [s.coeff(lead + i) for i in range(len(f))] == [Fraction(c, g[0]) for c in f]
            continue
        assert not s.exact and s.prec == prec
        want = oracle.series_product_naive(f, oracle.series_inverse_naive(g, prec - lead), prec - lead)
        assert [s.coeff(lead + i) for i in range(prec - lead)] == want


def test_series_rows_are_exact_on_every_scale():
    """c_k = X_k / (D * b^k) for any b, with the least D; b = 1 is the
    window over its least common denominator."""
    rng = random.Random(53)
    windows = [_rand_series(rng, 40).coeffs for _ in range(60)]
    windows += [SQRT1P[58].coeffs, OVER_3T_7.coeffs[:40], OVER_CUBIC.coeffs, (Fraction(0), Fraction(1, 3))]
    for cs in windows:
        for b in (1, 2, 3, 4, 12, 2**40):
            xs, d = na._over_lcm(cs, b)
            assert all(type(v) is int for v in xs)
            assert [Fraction(v, d * b**k) for k, v in enumerate(xs)] == list(cs)
            for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):  # every prime of these denominators
                assert d % q or any((c * (d // q) * b**k).denominator > 1 for k, c in enumerate(cs))
        assert na._over_lcm(cs)[1] == math.lcm(*(c.denominator for c in cs))


def test_series_scale_is_picked_from_the_window():
    """sqrt1p(eps) on scale 4 needs no common denominator and keeps entry k
    near 2k bits; an expansion over 3t - 7 takes scale 3; a window of
    random denominators falls back to 1."""
    s = SQRT1P[600].coeffs
    assert na._scale(s) == 4
    xs, d = na._over_lcm(s, na._scale(s))
    assert d == 1 and max(v.bit_length() for v in xs) <= 1200
    assert na._scale(OVER_3T_7.coeffs) == 3
    rng = random.Random(59)
    assert na._scale([Fraction(rng.randint(1, 9), rng.randint(1, 30)) for _ in range(60)]) == 1


def test_series_square_pairs_its_products():
    """Two separately parsed sqrt1p(eps) make about n^2/4 products, not n^2/2."""
    s, t = (na.parse_laurent("sqrt1p(eps)", 256) for _ in range(2))
    with counted_products() as work:
        z = na.mul(s, t)
    assert work.products <= 256 * 257 // 4 + 256
    assert [z.coeff(i) for i in range(256)] == [1, 1] + [0] * 254


# Divisors whose window is not geometric: random denominators, under 1 or
# under sqrt1p(eps), one large prime on a far coefficient, and an expansion
# over 1 + P*t^k.
P2000, P1000 = 2**1999 + 345, 2**999 + 1239  # primes


def _random_window(rng, width, dmax):
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, dmax)) for _ in range(width)]
    cs[0] = cs[0] or Fraction(1)
    return na.EpsSeries(0, tuple(cs), False)


def _one_plus_over_prime(k, width):  # 1 + eps^k / P2000
    cs = [Fraction(1)] + [Fraction(0)] * (width - 1)
    cs[k] = Fraction(1, P2000)
    return na.EpsSeries(0, tuple(cs), False)


def _found_quotients(width, far):
    rng = random.Random(67)
    pairs = [(_random_window(rng, width, d), _random_window(rng, width, d)) for d in (30, 1000, 10**6)]
    pairs += [(na.EpsSeries.make(0, [1], True), _one_plus_over_prime(k, width)) for k in far]
    pairs.append((na.sqrt1p_eps(width), _random_window(rng, width, 1000)))
    return pairs


def test_series_div_by_divisors_that_are_not_geometric_matches_naive():
    """Or refuse at the first coefficient that passes COEFF_BITS_LIMIT."""
    for x, y in _found_quotients(40, (1, 16, 39)):
        want = oracle.series_product_naive(x.coeffs, oracle.series_inverse_naive(y.coeffs, 40), 40)
        bits = [c.numerator.bit_length() + c.denominator.bit_length() for c in want]
        if max(bits) > na.COEFF_BITS_LIMIT:
            n = next(n for n, b in enumerate(bits) if b > na.COEFF_BITS_LIMIT)
            with pytest.raises(ResourceLimitError, match=f"series coefficient {n} holds {bits[n]} bits"):
                na.div(x, y)
            continue
        z = na.div(x, y)
        assert z.prec == 40 and [z.coeff(i) for i in range(40)] == want
    for k in (16, 39):
        s = na.to_series(rf((1,), [1] + [0] * (k - 1) + [P1000]), 40 + k)
        f, g = [1], [P1000] + [0] * (k - 1) + [1]
        assert [s.coeff(k + i) for i in range(40)] == oracle.series_product_naive(
            f, oracle.series_inverse_naive(g, 40), 40)


def test_series_div_by_divisors_that_are_not_geometric_refuses_where_it_did():
    """At PRECISION_LIMIT each class meets COEFF_BITS_LIMIT at the coefficient,
    and with the message, of the kernel that carried G_0^(k-1) in its weights."""
    refusals = [(279, 4098), (72, 4172), (30, 4164), (192, 5999), (76, 4124)]
    for (x, y), (n, bits) in zip(_found_quotients(na.PRECISION_LIMIT, (64,)), refusals):
        with pytest.raises(ResourceLimitError, match=f"series coefficient {n} holds {bits} bits, past"):
            na.div(x, y)
    over = na.parse_laurent(f"1/({P1000}*t^64 + 1)")
    with pytest.raises(ResourceLimitError, match="series coefficient 256 holds 4997 bits, past"):
        na.mul(na.sqrt1p_eps(na.PRECISION_LIMIT), over)


def test_series_quotient_operands_stay_near_the_coefficient_limit():
    """Dividing random windows, no product meets an operand past the limit:
    the weights carry only the primes each output needs."""
    rng = random.Random(71)
    x, y = (_random_window(rng, na.PRECISION_LIMIT, 1000) for _ in range(2))
    with counted_products() as work, pytest.raises(ResourceLimitError):
        na.div(x, y)
    assert work.max_bits <= na.COEFF_BITS_LIMIT


def test_series_products_refuse_past_the_coefficient_limit():
    """A product of windows of random denominators refuses, as a quotient
    does, at the first coefficient whose reduced size passes the limit,
    before its dot products grow; the square of sqrt1p(eps) stays under it."""
    rng = random.Random(67)
    x, y = (_random_window(rng, na.PRECISION_LIMIT, 10**6) for _ in range(2))
    want = oracle.series_product_naive(x.coeffs[:100], y.coeffs[:100], 100)
    bits = [c.numerator.bit_length() + c.denominator.bit_length() for c in want]
    n = next(n for n, b in enumerate(bits) if b > na.COEFF_BITS_LIMIT)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"series coefficient {n} holds {bits[n]} bits, past"):
        na.mul(x, y)
    assert time.perf_counter() - start < 1
    s = na.mul(na.sqrt1p_eps(na.PRECISION_LIMIT), na.sqrt1p_eps(na.PRECISION_LIMIT))
    assert s.prec == na.PRECISION_LIMIT and list(s.coeffs) == [1, 1] + [0] * (na.PRECISION_LIMIT - 2)


# --- order, magnitude classes, standard part ------------------------------

def test_sign_and_compare():
    assert na.sign_of(T) > 0
    assert na.sign_of(na.sub(INV_T, T)) < 0
    assert na.compare(na.add(T, ONE), T) > 0
    # infinitesimally separated elements still compare exactly
    assert na.compare(na.add(ONE, INV_T), ONE) > 0


def test_magnitude_classes():
    assert na.is_infinitesimal(na.div(ONE, rf((1, 1))))
    assert not na.is_infinitesimal(rf((1,)))
    assert na.is_finite(na.add(na.RatFunc.const(Fraction(3, 2)), INV_T))
    assert not na.is_finite(T)


def test_std_part():
    assert na.std_part(na.add(na.RatFunc.const(Fraction(3, 2)), INV_T)) == Fraction(3, 2)
    assert na.std_part(na.div(ONE, rf((1, 1)))) == 0
    with pytest.raises(DomainError):
        na.std_part(T)


def test_discreteness_of_integer_part():
    # a nonzero element of the integer part is never strictly between 0 and 1
    rng = random.Random(3)
    for _ in range(200):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
        p = na.IPElem(na.Poly(coeffs))
        if p.poly.is_zero():
            continue
        inside = na.compare(p, na.RatFunc.const(0)) > 0 and na.compare(p, ONE) < 0
        assert not inside


def test_order_transitivity_randomized():
    rng = random.Random(9)

    def rand_rf():
        num = na.Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))])
        den = na.Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 3))])
        if den.is_zero():
            den = na.Poly([1])
        return na.RatFunc(num, den)

    values = [rand_rf() for _ in range(25)]
    for x in values:
        for y in values:
            assert na.compare(x, y) == -na.compare(y, x)
    for _ in range(200):
        x, y, z = rng.choice(values), rng.choice(values), rng.choice(values)
        if na.compare(x, y) <= 0 and na.compare(y, z) <= 0:
            assert na.compare(x, z) <= 0


def test_compare_matches_the_sign_of_the_difference():
    rng = random.Random(13)

    def rand_elem():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-3, 3)
        if kind == 1:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        num = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
        if kind == 2:
            return na.IPElem(na.Poly(num + [rng.randint(1, 3)]))
        den = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
        return rf([Fraction(c, rng.randint(1, 4)) for c in num], den if any(den) else [1])

    for _ in range(600):
        x, y = rand_elem(), rand_elem()
        assert na.compare(x, y) == na.sign_of(na.sub(x, y)), (x, y)
        assert na.compare(x, x) == 0


# --- floors ---------------------------------------------------------------

def test_floor_examples():
    assert na.floor_ip(rf((0, 0, 1), (1, 1))) == na.IPElem(na.Poly([-1, 1]))
    assert na.floor_ip(na.add(T, na.RatFunc.const(Fraction(1, 2)))) == na.IPElem(na.Poly([0, 1]))
    assert na.floor_ip(na.sub(T, INV_T)) == na.IPElem(na.Poly([-1, 1]))


def test_floor_bracketing_randomized():
    rng = random.Random(17)
    checked = 0
    for _ in range(500):
        num = na.Poly([Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 7))])
        den = na.Poly([Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 7))])
        if den.is_zero():
            continue
        x = na.RatFunc(num, den)
        f = na.floor_ip(x)
        assert na.compare(f, x) <= 0
        assert na.compare(x, na.add(f, ONE)) < 0
        checked += 1
    assert checked > 450


def test_floor_constant_term_is_integral():
    rng = random.Random(19)
    for _ in range(200):
        num = na.Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))])
        den = na.Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))])
        if den.is_zero():
            continue
        out = na.floor_ip(na.RatFunc(num, den))
        assert out.poly.coeff(0).denominator == 1


def _assert_floor_matches_long_division(num, den):
    x = na.RatFunc(na.Poly(num), na.Poly(den))
    floor, part = oracle.ratfunc_floor_naive(num, den)
    assert list(na.floor_ip(x).poly.coeffs) == floor
    if len(part) <= 1:  # finite: the standard part is the part's constant
        st = na.std_part(x)
        assert type(st) is Fraction and st == (part[0] if part else 0)
    else:
        with pytest.raises(DomainError):
            na.std_part(x)


def test_floor_and_std_part_match_long_division():
    rng = random.Random(73)
    shapes = {-1: 0, 0: 0, 1: 0}
    for _ in range(600):
        rational = rng.random() < 0.5
        dn, dd = rng.randint(0, 6), rng.randint(0, 6)

        def coeffs(deg):
            cs = [rng.randint(-20, 20) for _ in range(deg)] + [rng.choice([-1, 1]) * rng.randint(1, 20)]
            return [Fraction(c, rng.randint(1, 12)) for c in cs] if rational else cs

        _assert_floor_matches_long_division(coeffs(dn), coeffs(dd))
        shapes[(dn > dd) - (dn < dd)] += 1
    assert min(shapes.values()) > 60


def test_floor_of_dense_quotients_with_large_coefficients():
    # degree 16 over degree 16 with 30-digit coefficients: about 3.4k bits
    # in, and a remainder over Fractions would hold about 9.5k
    rng = random.Random(79)
    for dn, dd in ((16, 16), (16, 16), (16, 15), (15, 16), (16, 8)):
        num, den = ([rng.choice([-1, 1]) * rng.randrange(10**29, 10**30) for _ in range(d + 1)]
                    for d in (dn, dd))
        _assert_floor_matches_long_division(num, den)


def test_floor_bracketing_recheck_catches_a_wrong_split(monkeypatch):
    # 1 with a negative tail would floor to 0, and 1 - 0 < 1 fails
    for x, split in ((ONE, ((1,), 1, -1)), (na.add(ONE, INV_T), ((1,), 1, -1)),
                     (na.add(ONE, INV_T), ((2,), 1, 1))):
        monkeypatch.setattr(na, "_split_ratfunc", lambda n, d, split=split: split)
        with pytest.raises(AssertionError, match="bracketing"):
            na.floor_ip(x)
        with pytest.raises(AssertionError, match="bracketing"):  # a RatFunc slope, unreduced
            na.beatty_nonarch(x, na.IPElem.const(1))
    # floor(1/(3/2 - 5/4)) = 4, not the patched 0
    with pytest.raises(AssertionError, match="bracketing"):
        na.linf_experiment(na.RatFunc.const(Fraction(5, 4)), na.RatFunc.const(Fraction(3, 2)))


def test_floor_on_series_tail_rules():
    # t + 1/2 as an exact series
    x = na.EpsSeries.make(-1, [1, Fraction(1, 2)], True)
    assert na.floor_ip(x) == na.IPElem(na.Poly([0, 1]))
    # integral constant with strictly negative known tail
    y = na.EpsSeries.make(-1, [1, 0, -1], True)  # t - eps
    assert na.floor_ip(y) == na.IPElem(na.Poly([-1, 1]))
    # integral constant, all-zero window, inexact tail: undecidable
    z = na.EpsSeries.make(-1, [1, 0, 0, 0], False)
    with pytest.raises(IndeterminateSignError):
        na.floor_ip(z)
    # a non-integral constant fixes the floor whatever the unknown tail
    h = na.EpsSeries.make(0, [Fraction(3, 2), 0, 0], False)
    assert na.floor_ip(h) == na.IPElem(na.Poly([1]))
    # too little precision to even see the constant coefficient
    w = na.EpsSeries(-3, (Fraction(1),), False)
    with pytest.raises(PrecisionError):
        na.floor_ip(w)


# --- the irrational square root --------------------------------------------

def test_sqrt1p_coefficients():
    r = na.sqrt1p_eps(8)
    assert r.coeff(0) == 1
    assert r.coeff(1) == Fraction(1, 2)
    assert r.coeff(2) == Fraction(-1, 8)
    assert r.coeff(3) == Fraction(1, 16)


def test_sqrt1p_squares_to_one_plus_eps():
    for prec in (8, 64):
        r = na.sqrt1p_eps(prec)
        sq = na.mul(r, r)
        assert sq.coeff(0) == 1 and sq.coeff(1) == 1
        assert all(sq.coeff(i) == 0 for i in range(2, sq.prec))
        assert sq.prec == prec


# --- floor sequences in the model -----------------------------------------

def test_beatty_nonarch_examples():
    alpha = rf((1, 1), (0, 1))  # (t+1)/t = 1 + 1/t
    n = na.IPElem(na.Poly([0, 1]))
    assert na.beatty_nonarch(alpha, n) == na.IPElem(na.Poly([1, 1]))
    assert na.beatty_nonarch(na.RatFunc.const(Fraction(3, 2)), na.IPElem(na.Poly([0, 2]))) \
        == na.IPElem(na.Poly([0, 3]))


def test_beatty_nonarch_series_slope():
    # 1 + infinitesimal * sqrt(1+eps): a genuinely irrational slope
    bump = na.mul(na.sqrt1p_eps(16), na.EpsSeries.make(2, [1], True))
    alpha = na.add(na.EpsSeries.make(0, [1], True), bump)
    n = na.IPElem(na.Poly([1, 1]))
    out = na.beatty_nonarch(alpha, n)
    x = na.mul(alpha, n)
    assert na.compare(out, x) <= 0
    assert na.compare(x, na.add(out, ONE)) < 0


def test_beatty_nonarch_index_membership():
    """The index is any field element of the integer part: an IPElem, or a
    RatFunc that is a polynomial with an integer constant term."""
    alpha = rf((1, 1), (0, 1))
    ip = na.IPElem(na.Poly([2, Fraction(1, 3)]))
    as_rf = rf((6, 1), (3,))
    assert ip == as_rf and hash(ip) == hash(as_rf)
    assert na.beatty_nonarch(alpha, ip + 1) == na.beatty_nonarch(alpha, na.IPElem(na.Poly([3, Fraction(1, 3)])))
    for index, message in ((rf((1, 1), (0, 1)), "polynomial with integer constant"),
                           (rf((Fraction(1, 2), 1)), "must be an integer, got 1/2"),
                           (na.sqrt1p_eps(8), "polynomial with integer constant")):
        with pytest.raises(DomainError, match=message):
            na.beatty_nonarch(alpha, index)


def _times(x, y):
    """The product of two coefficient lists, ascending."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def test_beatty_nonarch_floors_the_unreduced_product_as_the_reduced_one():
    """floor(n * alpha) for alpha = a/b and n = c/k, read off (a*c, b*k) as
    it stands, equals the floor of the reduced product and long division
    over the rationals: also when n and b share a factor t + r, and when n
    has a denominator k > 1 that a's content may cancel."""
    rng = random.Random(83)
    shared = over_k = 0

    def ints(deg):
        return [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]

    total = 2400
    for i in range(total):
        k = rng.choice((1, 1, 2, 3, 6))
        a, b, c = ints(rng.randint(0, 3)), ints(rng.randint(0, 2)), ints(rng.randint(0, 2))
        c[0] = k * rng.randint(-3 if len(c) > 1 else 1, 3)  # an integer constant over k, also times t + r
        if rng.random() < 0.3:
            a = [k * v for v in a]
        if i % 3 == 0:  # n = (t + r) * p / k and alpha = x / ((t + r) * q)
            root = [rng.randint(-9, 9), 1]
            b, c = _times(root, b), _times(root, c)
            shared += 1
        alpha = na.RatFunc(na.Poly(a), na.Poly(b))
        n = na.RatFunc(na.Poly(c), na.Poly([k]))
        over_k += n.den.coeffs != (1,)
        got = na.beatty_nonarch(alpha, n)
        assert got == na.floor_ip(na.mul(alpha, n)), (a, b, c, k)
        floor, _ = oracle.ratfunc_floor_naive(_times(a, c), [k * v for v in b])
        assert list(got.poly.coeffs) == floor, (a, b, c, k)
    assert 4 * shared >= total and over_k > total // 10


def test_deck_floors_take_no_gcd():
    """The benchmark deck's beatty_nonarch and linf ops, seed 1, floor
    their products and differences without a polynomial gcd."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    ops = [op for op in workloads.build_nonarch(random.Random("nonarch-model:1"), "")
           if op.fn in ("nonarch.beatty_nonarch", "nonarch.linf_experiment")]
    assert len(ops) == 40
    with counted_gcds() as degrees:
        results = [op.call() for op in ops]
    assert degrees == []
    assert all(op.check(res, {}) is None for op, res in zip(ops, results))


def test_small_slope_membership_construction():
    # slope 1 + eps^3: every low-degree index is hit, via n = floor(k/alpha)
    alpha = na.add(ONE, na.RatFunc(na.Poly([1]), na.Poly([0, 0, 0, 1])))
    rng = random.Random(23)
    for _ in range(40):
        k = na.IPElem(na.Poly([rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9)]))
        if k.sign() <= 0:
            continue
        n = na.floor_ip(na.div(k, alpha))
        hit = na.beatty_nonarch(alpha, n + 1)
        assert hit == k


# --- separation experiment -------------------------------------------------

def test_linf_experiment_rational_slopes():
    rep = na.linf_experiment(na.RatFunc.const(Fraction(5, 4)), na.RatFunc.const(Fraction(3, 2)))
    assert rep.applicable and rep.m == 4
    assert rep.k == 1 and rep.separator == na.IPElem(na.Poly([2]))
    assert rep.lower_neighbor < rep.separator < rep.upper_neighbor


def test_linf_experiment_infinitesimal_gap():
    sigma = na.RatFunc.const(Fraction(3, 2))
    rho = na.add(sigma, INV_T)
    rep = na.linf_experiment(sigma, rho)
    assert not rep.applicable


def test_linf_experiment_nonstandard_slope():
    sigma = na.add(ONE, INV_T)
    rep = na.linf_experiment(sigma, na.RatFunc.const(Fraction(5, 4)))
    assert rep.applicable and rep.m == 4
    assert rep.separator == na.IPElem(na.Poly([4]))
    # the separator really is a sigma-sequence element and skipped by rho
    assert na.beatty_nonarch(sigma, na.IPElem.const(rep.k + 1)) == rep.separator


def test_linf_experiment_domain_checks():
    with pytest.raises(DomainError):
        na.linf_experiment(na.RatFunc.const(Fraction(3, 2)), na.RatFunc.const(Fraction(5, 4)))
    with pytest.raises(DomainError):
        na.linf_experiment(na.RatFunc.const(Fraction(1, 2)), na.RatFunc.const(Fraction(5, 4)))


def _linf_case(s, a, r, b, shape):
    """sigma = s + a*u, rho = r + b*u for one positive infinitesimal u."""
    u = INV_T if shape == "1/t" else na.mul(INV_T, na.sqrt1p_eps(16))
    return tuple(na.add(na.RatFunc.const(x), na.mul(c, u)) if c else na.RatFunc.const(x)
                 for x, c in ((s, a), (r, b)))


def _linf_bound(s, a, r, b):
    """floor(1/(rho - sigma)) with rho - sigma = (r - s) + (b - a)*u."""
    inv = 1 / (r - s)
    m = inv.numerator // inv.denominator
    return m - 1 if inv.denominator == 1 and b > a else m


def _assert_linf_matches_scan(s, a, r, b, shape):
    def in_range(x, c):  # 1 <= x + c*u < 2
        return 1 < x < 2 or x == 1 and c >= 0 or x == 2 and c < 0

    sigma, rho = _linf_case(s, a, r, b, shape)
    if not (in_range(s, a) and in_range(r, b)) or (s, a) >= (r, b):
        with pytest.raises(DomainError):
            na.linf_experiment(sigma, rho)
        return None
    rep = na.linf_experiment(sigma, rho)
    if s == r:
        assert not rep.applicable
        return None
    m = _linf_bound(s, a, r, b)
    want = oracle.linf_scan(s, a, r, b, m)
    got = (rep.k, rep.separator.constant(), rep.lower_neighbor.constant(),
           rep.upper_neighbor.constant())
    assert rep.applicable and rep.m == m and got == want, (s, a, r, b, shape)
    return rep.k


def test_linf_matches_scan_on_random_slopes():
    rng = random.Random(53)
    splits = set()
    for _ in range(400):
        s, r = (Fraction(rng.randint(q, 2 * q), q) for q in (rng.randint(1, 60), rng.randint(1, 60)))
        k = _assert_linf_matches_scan(s, rng.choice((-1, 0, 1)), r, rng.choice((-1, 0, 1)), "1/t")
        splits.add(k)
    assert len(splits) > 10


def test_linf_matches_scan_on_sqrt1p_slopes():
    rng = random.Random(59)
    for _ in range(30):
        s, r = (Fraction(rng.randint(q, 2 * q - 1), q) for q in (rng.randint(1, 12), rng.randint(1, 12)))
        _assert_linf_sqrt1p(s, rng.choice((-1, 0, 1)), r, rng.choice((-1, 0, 1)))
    _assert_linf_sqrt1p(Fraction(1), 1, Fraction(3, 2), 1)
    _assert_linf_sqrt1p(Fraction(7, 6), -1, Fraction(19, 11), -1)


def _assert_linf_sqrt1p(s, a, r, b):
    """With equal parts, rho - sigma = r - s plus a truncated zero tail:
    floor_ip can settle m = floor(1/(r - s)) unless 1/(r - s) is an integer."""
    if a == b and s < r and (1 / (r - s)).denominator == 1:
        with pytest.raises(IndeterminateSignError):
            na.linf_experiment(*_linf_case(s, a, r, b, "sqrt1p"))
    else:
        _assert_linf_matches_scan(s, a, r, b, "sqrt1p")


def test_linf_split_on_an_end_of_the_interval():
    h = Fraction(3, 2)
    # s = 3/2 is in reach only when sigma sits just below it: n = 2
    assert _assert_linf_matches_scan(h, -1, Fraction(8, 5), 0, "1/t") == 1
    assert _assert_linf_matches_scan(h, 0, Fraction(8, 5), 0, "1/t") == 4
    assert _assert_linf_matches_scan(h, 1, Fraction(8, 5), -1, "1/t") == 6
    # r = 3/2 counts when rho >= 3/2
    assert _assert_linf_matches_scan(Fraction(7, 5), 0, h, 0, "1/t") == 1
    assert _assert_linf_matches_scan(Fraction(7, 5), 0, h, -1, "1/t") == 6
    # sigma just above 1: the split at n = m + 1, the far end of the bound
    s = 1 + Fraction(1, 10**6)
    for m in (5, 50, 500):
        assert _assert_linf_matches_scan(s, 0, s + 1 / (m + Fraction(1, 2)), 0, "1/t") == m
    for s, a, r, b in ((1, -1, Fraction(3, 2), 0), (Fraction(3, 2), 0, 2, 0),
                       (Fraction(3, 2), 1, Fraction(3, 2), 0)):
        _assert_linf_matches_scan(Fraction(s), a, Fraction(r), b, "1/t")


def test_linf_on_dense_quotients_takes_no_gcd():
    """sigma = 1 + A/B and rho = 3/2 + C/D, A/B > 0 > C/D of degree d - 1
    over degree d with 7-bit coefficients: the difference is read as the
    unreduced cross pair, and the floors of the slopes are not reduced."""
    rng = random.Random(101)

    def dense(deg, lead):
        return na.Poly([rng.randint(-63, 63) for _ in range(deg)] + [lead * rng.randint(1, 63)])

    s, r = Fraction(1), Fraction(3, 2)
    m = _linf_bound(s, 1, r, -1)
    for d in (40, 64):
        sigma = na.add(ONE, na.RatFunc(dense(d - 1, 1), dense(d, 1)))
        rho = na.add(na.RatFunc.const(r), na.RatFunc(dense(d - 1, -1), dense(d, 1)))
        with counted_gcds() as degrees:
            rep = na.linf_experiment(sigma, rho)
        assert (rep.m, rep.k) == (m, oracle.linf_scan(s, 1, r, -1, m)[0])
        assert degrees == []


def test_linf_makes_four_floor_calls(monkeypatch):
    calls = []
    real = na.beatty_nonarch
    monkeypatch.setattr(na, "beatty_nonarch", lambda a, n: calls.append(n) or real(a, n))
    s = 1 + Fraction(1, 10**6)
    r = s + Fraction(2, 1001)
    rep = na.linf_experiment(na.RatFunc.const(s), na.RatFunc.const(r))
    assert rep.m == 500 and len(calls) == 4
    assert rep.k == oracle.linf_scan(s, 0, r, 0, 500)[0] == 500


# --- one operand rule ------------------------------------------------------

SIGMA, RHO = na.RatFunc.const(Fraction(5, 4)), na.RatFunc.const(Fraction(3, 2))
# every public function of values, each operand slot taking the value v
_SLOTS = {
    "add": (lambda v: na.add(v, T), lambda v: na.add(SQRT1P[32], v)),
    "sub": (lambda v: na.sub(v, SQRT1P[32]), lambda v: na.sub(T, v)),
    "mul": (lambda v: na.mul(v, INV_T), lambda v: na.mul(SQRT1P[32], v)),
    "div": (lambda v: na.div(v, SQRT1P[32]), lambda v: na.div(T, v)),
    "compare": (lambda v: na.compare(v, INV_T), lambda v: na.compare(SQRT1P[32], v)),
    "sign_of": (na.sign_of,),
    "is_finite": (na.is_finite,),
    "is_infinitesimal": (na.is_infinitesimal,),
    "std_part": (na.std_part,),
    "floor_ip": (na.floor_ip,),
    "to_series": (lambda v: na.to_series(v, 16),),
    "format_laurent": (na.format_laurent,),
    "beatty_nonarch": (lambda v: na.beatty_nonarch(v, na.IPElem.const(7)),
                       lambda v: na.beatty_nonarch(rf((1, 1), (0, 1)), v)),
    "linf_experiment": (lambda v: na.linf_experiment(v, RHO), lambda v: na.linf_experiment(SIGMA, v)),
}


def _outcome(call, v):
    try:
        return "value", repr(call(v))
    except Exception as e:
        return "error", type(e), str(e)


def test_every_public_function_reads_operands_through_one_rule():
    """A foreign operand is a DomainError wherever it goes, and an int or a
    Fraction behaves as the RatFunc constant of its value."""
    public = {name for name, f in vars(na).items()
              if inspect.isfunction(f) and f.__module__ == na.__name__ and not name.startswith("_")}
    assert set(_SLOTS) == public - {"parse_laurent", "sqrt1p_eps"}
    foreign = (1.5, "t", None, parse_exact("sqrt(2)"))
    ratios = (0, 1, 3, -2, 7, Fraction(5, 4), Fraction(3, 2), Fraction(-7, 3), Fraction(13, 8))
    for name, slots in _SLOTS.items():
        for call in slots:
            for v in foreign:
                with pytest.raises(DomainError):
                    call(v)
            for v in ratios:
                assert _outcome(call, v) == _outcome(call, na.RatFunc.const(v)), (name, v)
    assert na.format_laurent(3) == "3" and na.format_laurent(Fraction(-3, 4)) == "-3/4"


def test_ratfunc_and_series_backends_agree_on_laurent_polynomials():
    """A Laurent polynomial and its exact series answer every order question
    alike, and a window that shows nothing is refused by each with one text."""
    rng = random.Random(53)
    for _ in range(500):
        num = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
        den = [0] * rng.randint(0, 3) + [rng.choice((1, 2, 3, -5))]
        x = rf(num, den)
        s = na.to_series(x)
        assert s.exact
        for f in (na.sign_of, na.is_finite, na.is_infinitesimal, na.std_part, na.floor_ip):
            assert _outcome(f, x)[:2] == _outcome(f, s)[:2], (f.__name__, x)
            if _outcome(f, x)[0] == "value":
                assert f(x) == f(s), (f.__name__, x)
    for lead in (-2, 0, 1, 3):
        empty = na.EpsSeries.make(lead, [0] * 3, False)
        refusals = set()
        for f in (na.sign_of, na.is_finite, na.is_infinitesimal):
            with pytest.raises(IndeterminateSignError) as err:
                f(empty)
            refusals.add(str(err.value))
        assert len(refusals) == 1, refusals


# --- size guards ------------------------------------------------------------

def test_degree_and_precision_limits():
    assert na.parse_laurent(f"t^{na.DEGREE_LIMIT}") == na.RatFunc.t_power(na.DEGREE_LIMIT)
    with pytest.raises(ResourceLimitError):
        na.parse_laurent(f"1/(t^{na.DEGREE_LIMIT + 1} + 1)")
    assert na.DEGREE_LIMIT >= 32 and na.PRECISION_LIMIT >= 512
    assert na.sqrt1p_eps(na.PRECISION_LIMIT).prec == na.PRECISION_LIMIT
    # the inverse's coefficients (-1)^n C(2n, n)/4^n hold about 2.4k bits each
    # at the limit, under COEFF_BITS_LIMIT
    n = na.PRECISION_LIMIT - 1
    inv = na.div(1, na.sqrt1p_eps(na.PRECISION_LIMIT))
    assert inv.coeff(n) == Fraction((-1) ** n * math.comb(2 * n, n), 4 ** n)
    over = na.PRECISION_LIMIT + 1
    for call in (lambda: na.sqrt1p_eps(over), lambda: na.parse_laurent("t", over),
                 lambda: na.parse_laurent("sqrt1p(eps)", over),
                 lambda: na.to_series(rf((1,), (1, 1)), over)):
        with pytest.raises(ResourceLimitError):
            call()


def test_coefficient_bits_limit():
    # 2^(L-4) has L - 3 bits, its denominator 1, and the denominator 1/1 two:
    # L bits in all
    top = 2 ** (na.COEFF_BITS_LIMIT - 4)
    assert na.RatFunc(na.Poly([top])).num == na.Poly([top])
    with pytest.raises(ResourceLimitError, match="COEFF_BITS_LIMIT"):
        na.RatFunc(na.Poly([2 * top]))
    near = 10 ** (na.COEFF_BITS_LIMIT // 8)  # parsed, a little under the limit
    assert na.parse_laurent(f"({near}*t + 1)/(t + {near})").sign() == 1
    with pytest.raises(ResourceLimitError, match="COEFF_BITS_LIMIT"):  # produced
        na.mul(na.RatFunc(na.Poly([top // 2**20])), na.RatFunc(na.Poly([top // 2**20])))
    # each coefficient of a series quotient is held to the limit, the quotient
    # itself and not only the divisor's inverse: (1 - 7eps/3)^-1 adds about
    # 1.2 bits a term to the 2 of sqrt(1+eps)
    with pytest.raises(ResourceLimitError, match="coefficient 489 holds 4097 bits"):
        na.div(na.sqrt1p_eps(na.PRECISION_LIMIT), rf((-7, 3), (7,)))


def test_floors_are_held_to_the_coefficient_limit():
    """t^64/(N*t + 1) with N = 10^1000 holds about 3.4k bits, but its floor
    would hold 6.9 million: the constant is -1/N^64."""
    big = 10 ** 1000
    for call in (lambda: na.floor_ip(na.parse_laurent(f"t^64/({big}*t + 1)")),
                 lambda: na.beatty_nonarch(na.parse_laurent(f"1/({big}*t + 1)"),
                                           na.IPElem(na.Poly([0] * 64 + [1])))):
        with pytest.raises(ResourceLimitError, match="COEFF_BITS_LIMIT"):
            call()
    # a product or difference past the limit that floors within it answers
    n, m = 2 ** 3000 + 1, 2 ** 3000 + 3
    alpha = na.parse_laurent(f"1/({n}*t + 1)")
    with pytest.raises(ResourceLimitError, match="COEFF_BITS_LIMIT"):
        na.mul(alpha, na.IPElem.const(m))
    assert na.beatty_nonarch(alpha, na.IPElem.const(m)) == na.IPElem.const(0)


# --- parsing / formatting ---------------------------------------------------

def test_parse_examples():
    assert na.parse_laurent("3*t^2 - t + 1") == rf((1, -1, 3))
    assert na.parse_laurent("(t^2)/(t+1)") == rf((0, 0, 1), (1, 1))
    assert na.parse_laurent("5/4") == na.RatFunc.const(Fraction(5, 4))
    assert na.parse_laurent("1/t") == INV_T
    s = na.parse_laurent("sqrt1p(eps)", 8)
    assert isinstance(s, na.EpsSeries) and s.coeff(2) == Fraction(-1, 8)


_ACCEPTED_TEXTS = [
    ("((t + 1))/(((t)))", rf((1, 1), (0, 1))),
    ("-t/2", rf((0, -1), (2,))),
    ("t/-2", rf((0, -1), (2,))),
    ("3t", rf((0, 3))),
    ("3 * t", rf((0, 3))),
    ("3 t^2 - 0*t + 7", rf((7, 0, 3))),
    ("+t", T),
    ("t^0", ONE),
    ("( t )/( 2 )", rf((0, 1), (2,))),
    ("6/4", na.RatFunc.const(Fraction(3, 2))),
    ("(t^2 - 1)/(t)", rf((-1, 0, 1), (0, 1))),
    (" (t^2 - 1) / (t + 1) ", rf((-1, 1))),
    ("t ^ 2", rf((0, 0, 1))),  # whitespace is insignificant everywhere
    ("t^ 2", rf((0, 0, 1))),
    ("(" * 3000 + "t" + ")" * 3000, T),  # deeper than the interpreter's recursion limit
]

_REFUSED_TEXTS = [
    ("t - 1/t", ParseError),  # would otherwise read as (t-1)/t
    ("t +", ParseError),
    ("(t/(t+1)", ParseError),
    ("t/t - 1", ParseError),
    ("(t))", ParseError),
    ("((t)", ParseError),
    ("(t)/(t)/(t)", ParseError),
    ("--t", ParseError),
    ("t t", ParseError),
    ("t^", ParseError),
    ("3*", ParseError),  # a '*' must be followed by 't'
    ("", ParseError),
    ("()", ParseError),
    ("t/0", ParseError),
    ("t/(t - t)", ParseError),
    ("t^65", ResourceLimitError),
    ("1/(t^65 + 1)", ResourceLimitError),
    ("t^65 +", ParseError),  # malformed text is refused as such before its degree
    ("t^" + "9" * 5000, ParseError),  # past the interpreter's int/str digit limit
]


def test_laurent_text_language():
    for text, value in _ACCEPTED_TEXTS:
        assert na.parse_laurent(text) == value, text
    for text, error in _REFUSED_TEXTS:
        with pytest.raises(error):
            na.parse_laurent(text)
    # a coefficient past the digit limit is refused at its own position
    with pytest.raises(ParseError) as err:
        na.parse_laurent("t + " + "9" * 5000)
    assert err.value.pos == 4


def test_parse_reads_the_digits_int_reads():
    """A superscript digit ends a number; it is trailing input, not a number
    too long to read."""
    for text, pos in (("t + 2²", 5), ("3²", 1)):
        with pytest.raises(ParseError, match=f"trailing input at position {pos}"):
            na.parse_laurent(text)
    assert na.parse_laurent("t^٣") == rf((0, 0, 0, 1))


def test_sqrt1p_builtin_reads_token_by_token():
    for text in ("sqrt1p(eps)", "sqrt1p( eps )", " sqrt1p ( eps ) "):
        assert repr(na.parse_laurent(text, 8)) == repr(na.sqrt1p_eps(8)), text
    for text, pos in (("2*sqrt1p(eps)", 2), ("sqrt1p(eps) + 1", 12), ("sqrt1p(eps", 10),
                      ("sqrt1p(t)", 7), ("sqrt1p", 6)):
        with pytest.raises(ParseError) as err:
            na.parse_laurent(text)
        assert err.value.pos == pos, text


def test_parse_error_positions_after_whitespace():
    from dioapprox.exactnum import parse_exact

    for parse, text, pos in ((na.parse_laurent, "3 * t ^ ", 8),
                             (na.parse_laurent, "(t + 1) /  (t", 13),
                             (na.parse_laurent, "2  3", 3), (parse_exact, "2  3", 3),
                             (na.parse_laurent, "t + 1 /  (t)", 0),
                             (na.parse_laurent, "1 /  t + 1", 3),
                             (na.parse_laurent, "1/ (0)", 2)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.pos == pos, text


def test_format_round_trip():
    rng = random.Random(29)
    for _ in range(100):
        num = na.Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
        den = na.Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))])
        if den.is_zero():
            continue
        x = na.RatFunc(num, den)
        if x.num.is_zero():
            continue
        assert na.parse_laurent(na.format_laurent(x)) == x
