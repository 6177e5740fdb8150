import operator
import pickle
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioapprox import approx, beatty, exactnum
from dioapprox.errors import (
    DomainError,
    MixedRadicalError,
    ParseError,
    SquarefreeError,
)
from dioapprox.exactnum import (
    QuadIrr,
    ceil_of,
    compare,
    convergents,
    ensure_exact,
    ext_gcd,
    floor_of,
    format_exact,
    frac_of,
    least_denominator,
    parse_exact,
    quad,
    radical_sign,
    sign_of,
    sqrt_int,
    squarefree_split,
)
from support import PHI, SQRT2, SQRT2_M1, SQUAREFREE_POOL, decompose, interval_sign


# --- extended gcd ------------------------------------------------------

def test_ext_gcd_pinned():
    assert ext_gcd(5, 3) == (1, -1, 2)
    assert ext_gcd(7, 0) == (7, 1, 0)


def test_ext_gcd_bezout_identity():
    g, x, y = ext_gcd(12, 18)
    assert g == 6 and 12 * x + 18 * y == 6


def test_ext_gcd_zero_zero_rejected():
    with pytest.raises(DomainError):
        ext_gcd(0, 0)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_ext_gcd_properties(a, b):
    if a == 0 and b == 0:
        return
    g, x, y = ext_gcd(a, b)
    assert g > 0
    assert a % g == 0 and b % g == 0
    assert a * x + b * y == g


# --- floors and comparisons -------------------------------------------

def test_floor_examples():
    assert floor_of(Fraction(7, 2)) == 3
    assert floor_of(SQRT2) == 1
    assert floor_of(PHI) == 1
    assert floor_of(-SQRT2) == -2
    assert ceil_of(SQRT2) == 2


def test_compare_examples():
    assert compare(SQRT2, Fraction(3, 2)) < 0
    assert compare(PHI, PHI) == 0
    assert compare(1 + SQRT2, Fraction(12, 5)) > 0


def _random_exact(rng):
    if rng.random() < 0.4:
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    value = quad(
        rng.randint(-20, 20),
        rng.choice([-3, -2, -1, 1, 2, 3]),
        rng.randint(1, 8),
        rng.choice(SQUAREFREE_POOL),
    )
    return value


def test_floor_bracketing_randomized():
    rng = random.Random(7)
    for _ in range(400):
        x = _random_exact(rng)
        n = floor_of(x)
        assert compare(n, x) <= 0 < compare(n + 1, x)


WIDE_PRIMES = (1000003, 1000033, 10000019, 33333331, 99999989)


def _random_wide(rng, d=None):
    """An int or Fraction with parts up to 10^40, or a QuadIrr with c up to
    10^30 whose radicand is d, or else drawn from the pools."""
    kind = rng.randrange(3) if d is None else 2
    if kind == 0:
        return rng.randint(-10**40, 10**40)
    if kind == 1:
        return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))
    b = rng.choice((-1, 1)) * rng.randint(1, 10**20)
    d = d or rng.choice(SQUAREFREE_POOL + WIDE_PRIMES)
    a = rng.randint(-10**30, 10**30)
    if rng.random() < 0.3:  # a + b*sqrt(d) near 0, where only the squaring decides
        a = (-1 if b > 0 else 1) * isqrt(b * b * d) + rng.randint(-2, 2)
    return quad(a, b, rng.randint(1, 10**30), d)


def test_compare_total_order_randomized():
    rng = random.Random(11)
    values = [_random_exact(rng) for _ in range(60)]
    for x in values:
        for y in values:
            assert compare(x, y) == -compare(y, x)
    trips = [(rng.choice(values), rng.choice(values), rng.choice(values))
             for _ in range(300)]
    for x, y, z in trips:
        if compare(x, y) <= 0 and compare(y, z) <= 0:
            assert compare(x, z) <= 0
    # Wide values against the rational row u + v*sqrt(d) - w*sqrt(e) that
    # radical_sign decides, and the interval oracle wherever it decides.
    # About one pair in six shares a field; one in ten differs by a tiny
    # rational or not at all.
    decided = signed = 0
    for _ in range(5000):
        x = _random_wide(rng)
        shared = isinstance(x, QuadIrr) and rng.random() < 0.5
        y = _random_wide(rng, x.d if shared else None)
        if rng.random() < 0.1:
            y = x + Fraction(rng.choice((-1, 0, 1)), 10 ** rng.randint(1, 80))
        (u1, v1, d1), (u2, v2, d2) = decompose(x), decompose(y)
        order = compare(x, y)
        assert order == radical_sign(u1 - u2, v1, d1, -v2, d2) == -compare(y, x)
        expected = interval_sign(u1 - u2, v1, d1, -v2, d2)
        if expected is not None:
            decided += 1
            assert order == expected
        expected = interval_sign(u1, v1, d1)
        if expected is not None:
            signed += 1
            assert sign_of(x) == expected
        assert sign_of(x) == compare(x, 0)
    assert decided > 4500 and signed > 4900


@settings(max_examples=150)
@given(
    st.integers(-15, 15),
    st.integers(-5, 5).filter(lambda b: b != 0),
    st.integers(1, 9),
    st.sampled_from(SQUAREFREE_POOL),
)
def test_floor_bracketing_property(a, b, c, d):
    x = quad(a, b, c, d)
    n = floor_of(x)
    assert compare(n, x) <= 0 < compare(n + 1, x)


def _compare_first(x):
    return compare(x, 1)


def _compare_second(x):
    return compare(1, x)


@pytest.mark.parametrize("entry", [_compare_first, _compare_second, sign_of, floor_of,
                                   ceil_of, frac_of])
def test_kernel_entries_parse_strings_and_refuse_floats(entry):
    assert entry("sqrt(2)") == entry(sqrt_int(2))
    with pytest.raises(DomainError):
        entry(1.5)


@pytest.mark.parametrize("entry, text", [
    (lambda x: beatty.dmo_window_search(SQRT2, x, Fraction(1, 5), 100), "1/10"),
    (lambda x: beatty.kronecker_search(SQRT2, sqrt_int(3), (x, 1, 0, 1), 100), "1/10"),
    (lambda x: beatty.pth_root_dmo_witness(2, x, Fraction(1, 5)), "1/10"),
    (lambda x: beatty.agreement_radius(x, 7), "11/10"),
    (lambda x: beatty.claim51_check(x, SQRT2), "3/2"),
    (lambda x: approx.Bound.segre(x, 5), "1/2"),
], ids=["dmo_window_search", "kronecker_search", "pth_root_dmo_witness", "agreement_radius",
        "claim51_check", "segre"])
def test_rational_entries_parse_strings_and_refuse_floats(entry, text):
    """Window ends, rho and tau are read as exact rationals: a string is
    parsed, a float or a decimal string refused, an irrational refused."""
    assert entry(text) == entry(Fraction(text))
    with pytest.raises(DomainError):
        entry(float(Fraction(text)))
    with pytest.raises(ParseError):
        entry(str(float(Fraction(text))))
    with pytest.raises(DomainError, match="must be rational"):
        entry(SQRT2 - 1 if Fraction(text) < 1 else SQRT2 + Fraction(1, 20))


def test_compare_and_sign_of_build_no_fraction(monkeypatch):
    """Orders and signs come from the values' own integers: no Fraction is
    built and radical_sign is never asked."""
    counts = {"Fraction": 0, "radical_sign": 0}
    real_radical_sign = exactnum.radical_sign

    class CountingType(type):
        def __instancecheck__(cls, obj):
            return isinstance(obj, Fraction)

        def __call__(cls, *args):
            counts["Fraction"] += 1
            return Fraction(*args)

    def counting_radical_sign(*args):
        counts["radical_sign"] += 1
        return real_radical_sign(*args)

    values = [-3, 0, 2, Fraction(-7, 3), Fraction(3, 2), SQRT2, -SQRT2, 1 + SQRT2,
              PHI, sqrt_int(3), sqrt_int(1000003) / 1000]
    expected = [[compare(x, y) for y in values] for x in values]
    signs = [sign_of(x) for x in values]
    monkeypatch.setattr(exactnum, "Fraction", CountingType("Fraction", (), {}))
    monkeypatch.setattr(exactnum, "radical_sign", counting_radical_sign)
    assert [[compare(x, y) for y in values] for x in values] == expected
    assert [sign_of(x) for x in values] == signs == [-1, 0, 1, -1, 1, 1, -1, 1, 1, 1, 1]
    assert counts == {"Fraction": 0, "radical_sign": 0}


# --- quadratic irrational canonical form -------------------------------

def test_rational_payloads_collapse():
    assert quad(1, 0, 2, 5) == Fraction(1, 2)
    assert quad(0, 1, 1, 4) == Fraction(2)
    assert quad(3, 2, 1, 9) == Fraction(9)


def test_square_part_extraction():
    v = quad(0, 1, 1, 8)
    assert isinstance(v, QuadIrr) and v.b == 2 and v.d == 2


def test_gcd_and_sign_normalization():
    v = quad(2, 2, 4, 3)
    assert (v.a, v.b, v.c) == (1, 1, 2)
    w = quad(1, 1, -2, 3)
    assert w.c == 2 and w.a == -1 and w.b == -1


def test_quadirr_is_an_immutable_value():
    v = quad(1, 1, 2, 5)
    with pytest.raises(AttributeError):
        v.a = 3
    with pytest.raises(AttributeError):
        del v.d
    assert repr(v) == "QuadIrr(1, 1, 2, 5)" and (v.a, v.b, v.c, v.d) == (1, 1, 2, 5)
    w = QuadIrr(1, 1, 1, 2)
    assert w != (1, 1, 1, 2) and w != Fraction(1) and w != sqrt_int(3)
    assert w == QuadIrr(1, 1, 1, 2) and hash(w) == hash(QuadIrr(1, 1, 1, 2))
    assert len({w, 1 + SQRT2, SQRT2 + 1}) == 1
    assert pickle.loads(pickle.dumps(v)) == v


def test_squarefree_certification_bound():
    p = 10_007  # prime beyond the default trial bound
    big, big2 = 1_000_003, 1_000_033  # primes whose product passes the cube of that bound
    with pytest.raises(SquarefreeError):
        quad(0, 1, 1, big * big2 * 3)
    with pytest.raises(SquarefreeError):
        squarefree_split(10**12 + 39)  # prime
    # below the cube of the bound, at most two large primes remain
    assert squarefree_split(p * p * 3) == (p, 3)
    assert squarefree_split(big * big * 3) == (big, 3)  # a square part is found at any size
    assert squarefree_split(p * 10_009) == (1, p * 10_009)
    assert isinstance(quad(0, 1, 1, 100000007), QuadIrr)
    # but an honest perfect square is still recognized via isqrt
    assert quad(0, 1, 1, p * p) == p


def test_arithmetic_identities():
    assert PHI * PHI == PHI + 1
    assert SQRT2 * SQRT2 == Fraction(2)
    assert 1 / (1 + SQRT2) == SQRT2 - 1
    assert (PHI - 1) * PHI == Fraction(1)
    assert frac_of(SQRT2) == SQRT2_M1


def test_rational_operands_match_the_fraction_route(monkeypatch):
    """QuadIrr op int/Fraction, both orders, against u + v*sqrt(d) worked in
    Fractions; an irrational result builds no Fraction on the way."""
    rng = random.Random(19)

    def rational():
        size = rng.choice((3, 40))
        n = rng.choice((0, rng.randint(-10**size, 10**size)))
        if rng.random() < 0.4:
            return n
        return Fraction(n, rng.randint(1, 10**size))

    def fraction_route(op, x, r):
        u, v, d = decompose(x)
        r = Fraction(r)
        if op == "add":
            return u + r, v
        if op == "sub":
            return u - r, v
        if op == "rsub":
            return r - u, -v
        if op == "mul":
            return u * r, v * r
        if op == "div":
            return u / r, v / r
        norm = u * u - v * v * d
        return r * u / norm, -r * v / norm

    ops = {"add": lambda x, r: x + r, "radd": lambda x, r: r + x, "sub": lambda x, r: x - r,
           "rsub": lambda x, r: r - x, "mul": lambda x, r: x * r, "rmul": lambda x, r: r * x,
           "div": lambda x, r: x / r, "rdiv": lambda x, r: r / x}
    cases = []
    for _ in range(3000):
        size = rng.choice((3, 40))
        x = quad(rng.randint(-10**size, 10**size), rng.choice((-1, 1)) * rng.randint(1, 10**size),
                 rng.randint(1, 10**size), rng.choice(SQUAREFREE_POOL))
        cases.append((rng.choice(sorted(ops)), x, rational()))
    cases += [(op, PHI, r) for op in ops for r in (0, Fraction(0), -1, Fraction(-3, 7))]
    for op, x, r in cases:
        if op == "div" and r == 0:
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                x / r
            continue
        got = ops[op](x, r)
        u, v = fraction_route(op.replace("radd", "add").replace("rmul", "mul"), x, r)
        if v == 0:
            assert type(got) is Fraction and got == u, (op, x, r)
        else:
            assert type(got) is QuadIrr and decompose(got) == (u, v, x.d), (op, x, r)
            assert got.c > 0 and gcd(gcd(got.a, got.b), got.c) == 1

    built = []

    class CountingType(type):
        def __instancecheck__(cls, obj):
            return isinstance(obj, Fraction)

        def __call__(cls, *args):
            built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(exactnum, "Fraction", CountingType("Fraction", (), {}))
    for op in ops:
        for r in (3, -2, Fraction(-7, 3), Fraction(10**40 + 1, 3)):
            ops[op](SQRT2_M1, r)
    assert built == []


def test_mixed_radicands_rejected():
    with pytest.raises(MixedRadicalError):
        SQRT2 * sqrt_int(3)
    with pytest.raises(MixedRadicalError):
        SQRT2 + sqrt_int(3)


def test_arithmetic_defers_on_operands_it_cannot_read():
    """Any operand but an int, Fraction, QuadIrr or string gives
    NotImplemented, so the other type's method is tried, and a float or
    None ends in TypeError; a string is parsed."""

    class Other:
        def __radd__(self, x):
            return "radd"

        def __rtruediv__(self, x):
            return "rtruediv"

    assert SQRT2 + Other() == "radd" and SQRT2 / Other() == "rtruediv"
    for bad in (1.5, None, [1]):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(SQRT2, bad)
            with pytest.raises(TypeError):
                op(bad, SQRT2)
    assert SQRT2 + "1" == "1" + SQRT2 == 1 + SQRT2


def test_cross_radicand_comparison_works():
    assert compare(SQRT2, sqrt_int(3)) < 0
    assert compare(sqrt_int(6), SQRT2) > 0


# --- continued fractions ------------------------------------------------

def _expansion_by_floors(x, terms):
    """Partial quotients and convergents from floor_of and exact inversion."""
    out, p0, q0, p1, q1 = [], 0, 1, 1, 0
    for _ in range(terms):
        a = floor_of(x)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((a, p1, q1))
        if x == a:
            break
        x = 1 / (x - a)
    return out


def test_convergents_match_floor_expansion():
    from itertools import islice

    rng = random.Random(11)
    for _ in range(150):
        d = rng.choice(SQUAREFREE_POOL + (1000003, 99991))
        x = quad(rng.randint(-40, 40), rng.choice([-3, -1, 1, 2]), rng.randint(1, 30), d)
        assert list(islice(convergents(x), 12)) == _expansion_by_floors(x, 12)
    for x in (Fraction(355, 113), Fraction(-7, 3), Fraction(0), Fraction(5), Fraction(1, 10**9)):
        assert list(convergents(x)) == _expansion_by_floors(x, 100)
    assert list(islice(convergents(SQRT2), 4)) == [(1, 1, 1), (2, 3, 2), (2, 7, 5), (2, 17, 12)]
    assert list(islice(convergents(PHI), 5)) == [(1, 1, 1), (1, 2, 1), (1, 3, 2), (1, 5, 3), (1, 8, 5)]


def test_walk_yields_the_complete_quotients():
    # x = [a_0; ..., a_(k-1), x_k] with x_k = (P + sqrt(D))/Q, D = 0 for a rational
    from itertools import islice

    rng = random.Random(23)
    xs = [quad(rng.randint(-40, 40), rng.choice([-3, -1, 1, 2]), rng.randint(1, 30),
               rng.choice(SQUAREFREE_POOL)) for _ in range(60)]
    for x in xs + [Fraction(355, 113), Fraction(-7, 3), Fraction(5)]:
        xk = x
        steps = list(islice(exactnum._walk(x), 10))
        assert [step[:3] for step in steps] == list(islice(convergents(x), 10))
        for a, _, _, P, Q, D in steps:
            assert a == floor_of(xk) and xk == (Fraction(P, Q) if D == 0 else quad(P, 1, Q, D))
            if xk == a:
                break
            xk = 1 / (xk - a)


# --- least denominator --------------------------------------------------

def _least_denominator_by_scan(lo, lo_in, hi, hi_in, limit=10**4):
    for n in range(1, limit):
        j = floor_of(lo * n)
        if not (lo_in and compare(lo * n, j) == 0):
            j += 1
        if compare(j, hi * n) < hi_in:
            return n
    raise AssertionError("no fraction below the scan limit")


FLAGS = ((False, False), (True, False), (False, True), (True, True))


def test_least_denominator_rational_ends_under_each_flag():
    third, half = Fraction(1, 3), Fraction(1, 2)
    assert [least_denominator(third, a, half, b) for a, b in FLAGS] == [5, 3, 2, 2]
    assert [least_denominator(Fraction(5, 8), a, Fraction(2, 3), b) for a, b in FLAGS] == [
        11, 8, 3, 3]


def test_least_denominator_integer_ends():
    h = Fraction(3, 2)
    assert [least_denominator(1, a, h, b) for a, b in FLAGS] == [3, 1, 2, 1]
    assert [least_denominator(h, a, 2, b) for a, b in FLAGS] == [3, 2, 1, 1]
    assert [least_denominator(Fraction(1), a, Fraction(2), b) for a, b in FLAGS] == [2, 1, 1, 1]


def test_least_denominator_matches_scan():
    rng = random.Random(17)
    for _ in range(300):
        lo, hi = sorted(Fraction(rng.randint(0, 60), rng.randint(1, 30)) for _ in range(2))
        if lo == hi:
            continue
        for a, b in FLAGS:
            assert least_denominator(lo, a, hi, b) == _least_denominator_by_scan(lo, a, hi, b)
    irrationals = [SQRT2, PHI, sqrt_int(3), quad(1, 1, 3, 7), sqrt_int(1000003) / 1000]
    for _ in range(200):
        x, y = rng.sample(irrationals, 2)
        lo, hi = x + rng.randint(0, 2), y + Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if compare(lo, hi) >= 0:
            continue
        for a, b in FLAGS:
            assert least_denominator(lo, a, hi, b) == _least_denominator_by_scan(lo, a, hi, b)
    assert least_denominator(SQRT2, False, sqrt_int(3), False) == 2
    for x in (SQRT2, Fraction(3, 2)):
        with pytest.raises(DomainError):
            least_denominator(x, True, x, True)


# --- radical signs ------------------------------------------------------

def test_radical_sign_examples():
    assert radical_sign(0, 1, 2, -1, 2) == 0
    assert radical_sign(-1, 1, 2) == 1
    assert radical_sign(-3, 1, 2, 1, 3) == 1


def test_radical_sign_constructed_zeros():
    # sqrt(8) - 2*sqrt(2) and 3*sqrt(12) - 6*sqrt(3) vanish identically
    assert radical_sign(0, 1, 8, -2, 2) == 0
    assert radical_sign(0, 3, 12, -6, 3) == 0
    assert radical_sign(Fraction(-7, 2), Fraction(7, 2), 1) == 0


def test_radical_sign_against_interval_oracle():
    rng = random.Random(23)
    agreed = 0
    for _ in range(500):
        u = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        w = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        d = rng.choice(SQUAREFREE_POOL)
        e = rng.choice(SQUAREFREE_POOL)
        expected = interval_sign(u, v, d, w, e)
        got = radical_sign(u, v, d, w, e)
        if expected is None:
            # oracle brackets zero at every precision: value must be zero
            assert got == 0
        else:
            agreed += 1
            assert got == expected
    assert agreed > 400  # the oracle decided nearly everything
    # radicands that are not squarefree, perfect squares, or past 10^8,
    # where no square part is extracted before the sign is decided
    pool = (1, 4, 8, 9, 12, 18, 25, 45, 50, 72, 98, 100,
            100000007, 4 * 100000007, 10**12 + 39, (10**4 + 7) ** 2)
    agreed = 0
    for _ in range(500):
        u = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        w = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        d, e = rng.choice(pool), rng.choice(pool + SQUAREFREE_POOL)
        expected = interval_sign(u, v, d, w, e)
        got = radical_sign(u, v, d, w, e)
        if expected is None:
            assert got == 0
        else:
            agreed += 1
            assert got == expected
    assert agreed > 400
    for k, m in ((2, 2), (3, 5), (7, 100000007), (10**4 + 7, 1)):
        assert radical_sign(0, 1, k * k * m, -k, m) == 0
        assert radical_sign(1, 1, k * k * m, -k, m) == 1


def test_hurwitz_squaring_chain():
    # |phi - 34/21| beats 1/(sqrt(5)*21^2); |phi - 21/13| does not.
    def bound_sign(p, q):
        delta = PHI - Fraction(p, q)
        u, v = Fraction(delta.a, delta.c), Fraction(delta.b, delta.c)
        if radical_sign(u, v, 5) < 0:
            u, v = -u, -v
        return radical_sign(-u, -v, 5, Fraction(1, 5 * q * q), 5)

    assert bound_sign(34, 21) > 0
    assert bound_sign(21, 13) < 0


def test_two_radical_squaring_on_large_radicands():
    # d*e passes the squarefree trial bound's square (10^8) in each call
    alpha = sqrt_int(5000011)
    appr = approx.segre(alpha, Fraction(1, 3), 100)
    assert appr.verified and approx.verify(alpha, appr)
    alpha = sqrt_int(20000003)
    appr = approx.hurwitz(alpha, 100)
    assert appr.verified and approx.verify(alpha, appr)
    a, b = sqrt_int(1000003), sqrt_int(3000017)
    res = beatty.separation_witness(a, b)
    assert res.status == beatty.FOUND
    inside, outside = (a, b) if res.container == "alpha" else (b, a)
    assert beatty.member(inside, res.witness) is not None
    assert beatty.member(outside, res.witness) is None


# --- parsing and formatting ---------------------------------------------

def test_parse_grammar():
    assert parse_exact("7/2") == Fraction(7, 2)
    assert parse_exact("-3") == Fraction(-3)
    assert parse_exact("(1+1*sqrt(5))/2") == PHI
    assert parse_exact("sqrt(2)") == SQRT2
    assert parse_exact(" ( -1 + 1*sqrt(2) ) / 1 ") == SQRT2_M1
    assert parse_exact("2+sqrt(2)") == 2 + SQRT2
    assert parse_exact("sqrt(8)-sqrt(2)") == SQRT2


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_exact("3/")
    assert err.value.pos == 2
    with pytest.raises(ParseError):
        parse_exact("(1+1*sqrt(5)/2")
    with pytest.raises(ParseError):
        parse_exact("1/0")
    # past the interpreter's int/str digit limit
    with pytest.raises(ParseError) as err:
        parse_exact("(1+sqrt(2))/" + "9" * 5000)
    assert err.value.pos == 12
    # a superscript digit is trailing input, where int() would refuse it
    with pytest.raises(ParseError, match="trailing input at position 1"):
        parse_exact("2²")
    assert parse_exact("٣/٤") == Fraction(3, 4)  # decimal digits of any script


def test_format_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        x = _random_exact(rng)
        assert parse_exact(format_exact(x)) == x


def test_decimal_string_round_trip_integers():
    for n in (0, 1, -1, 10**40, -(10**40) + 7):
        assert int(str(n)) == n
        assert format_exact(Fraction(n)) == str(n)


def test_squarefree_split_basic():
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(45) == (3, 5)
    with pytest.raises(DomainError):
        squarefree_split(0)


def test_ensure_exact_accepts_strings():
    assert ensure_exact("sqrt(5)") == sqrt_int(5)
    assert ensure_exact(3) == Fraction(3)
    assert sign_of(ensure_exact("-1/2")) < 0
