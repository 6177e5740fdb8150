import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioapprox import approx, beatty
from dioapprox.errors import (
    DomainError,
    MixedRadicalError,
    ParseError,
    SquarefreeError,
    UnsupportedPairingError,
)
from dioapprox.exactnum import (
    QuadIrr,
    RelationForm,
    ceil_of,
    compare,
    convergents,
    ensure_exact,
    ext_gcd,
    floor_of,
    format_exact,
    frac_of,
    linear_relation_solve,
    parse_exact,
    quad,
    radical_sign,
    sign_of,
    sqrt_int,
    squarefree_split,
)
from support import PHI, SQRT2, SQRT2_M1, SQUAREFREE_POOL, interval_sign


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


def test_squarefree_certification_bound():
    p = 10_007  # prime beyond the default trial bound
    with pytest.raises(SquarefreeError):
        quad(0, 1, 1, p * p * 3)
    # but an honest perfect square is still recognized via isqrt
    assert quad(0, 1, 1, p * p) == p


def test_arithmetic_identities():
    assert PHI * PHI == PHI + 1
    assert SQRT2 * SQRT2 == Fraction(2)
    assert 1 / (1 + SQRT2) == SQRT2 - 1
    assert (PHI - 1) * PHI == Fraction(1)
    assert frac_of(SQRT2) == SQRT2_M1


def test_mixed_radicands_rejected():
    with pytest.raises(MixedRadicalError):
        SQRT2 * sqrt_int(3)
    with pytest.raises(MixedRadicalError):
        SQRT2 + sqrt_int(3)


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


# --- relation solving ---------------------------------------------------

def test_relation_disjoint_unit():
    assert linear_relation_solve(2 + SQRT2, SQRT2, RelationForm.DISJOINT_UNIT) == (1, 1, 1)


def test_relation_mixed_sign():
    got = linear_relation_solve(SQRT2, 1 + SQRT2, RelationForm.MIXED_SIGN_INT)
    assert got == (2, -1, 1)


def test_relation_unsolvable_returns_none():
    assert linear_relation_solve(PHI, PHI, RelationForm.DISJOINT_UNIT) is None


def test_relation_rational_route():
    got = linear_relation_solve(Fraction(3), Fraction(3, 2), RelationForm.SUBSET_UNIT)
    assert got == (2, 1, 1)
    a, b, c = got
    assert a * Fraction(1, 3) + b * (1 - Fraction(2, 3)) == c == 1


def test_relation_mixed_pairing_none():
    # one rational, one irrational: the radical part forces b = 0
    assert linear_relation_solve(Fraction(5, 2), SQRT2, RelationForm.DISJOINT_UNIT) is None


def test_relation_cross_radicand_rejected():
    with pytest.raises(UnsupportedPairingError):
        linear_relation_solve(SQRT2, sqrt_int(3), RelationForm.DISJOINT_UNIT)


def test_relation_positive_int_form():
    alpha = quad(2, 1, 2, 2)  # (2 + sqrt(2))/2
    got = linear_relation_solve(alpha, SQRT2, RelationForm.POSITIVE_INT)
    assert got == (1, 2, 2)
    a, b, c = got
    assert compare(a / alpha + b / SQRT2, c) == 0


def test_relation_positive_int_unit_sum_is_none():
    # 1/sqrt(2) + 1/(2 + sqrt(2)) = 1: the primitive relation has c = 1 and
    # every multiple has gcd > 1, so the answer is None without a search up
    # to the bound.
    got = linear_relation_solve(SQRT2, 2 + SQRT2, RelationForm.POSITIVE_INT, bound=10**18)
    assert got is None


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
