import random
from fractions import Fraction

import pytest

from dioapprox import nonarch as na
from dioapprox.errors import (
    DomainError,
    IndeterminateSignError,
    ParseError,
    PrecisionError,
)

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


def test_series_division_and_errors():
    one = na.EpsSeries.make(0, [1], True)
    geom = na.div(one, na.EpsSeries.make(0, [1, -1], True))
    assert [geom.coeff(i) for i in range(5)] == [1, 1, 1, 1, 1]
    with pytest.raises(ZeroDivisionError):
        na.div(ONE, na.RatFunc.const(0))
    with pytest.raises(PrecisionError):
        na.div(one, na.EpsSeries.make(5, [], False))  # nothing known yet


def test_ratfunc_reduction_is_canonical():
    a = rf((0, 0, 1), (0, 1))  # t^2/t reduces to t
    assert a == T
    b = rf((2, 2), (2,))       # (2t+2)/2 = t+1
    assert b == rf((1, 1))


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
        x = p.to_laurent()
        inside = na.compare(x, na.RatFunc.const(0)) > 0 and na.compare(x, ONE) < 0
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
        f = na.floor_ip(x).to_laurent()
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
    x = na.mul(alpha, n.to_laurent())
    assert na.compare(out.to_laurent(), x) <= 0
    assert na.compare(x, na.add(out.to_laurent(), ONE)) < 0


def test_small_slope_membership_construction():
    # slope 1 + eps^3: every low-degree index is hit, via n = floor(k/alpha)
    alpha = na.add(ONE, na.RatFunc(na.Poly([1]), na.Poly([0, 0, 0, 1])))
    rng = random.Random(23)
    for _ in range(40):
        k = na.IPElem(na.Poly([rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9)]))
        if k.sign() <= 0:
            continue
        n = na.floor_ip(na.div(k.to_laurent(), alpha))
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


# --- parsing / formatting ---------------------------------------------------

def test_parse_examples():
    assert na.parse_laurent("3*t^2 - t + 1") == rf((1, -1, 3))
    assert na.parse_laurent("(t^2)/(t+1)") == rf((0, 0, 1), (1, 1))
    assert na.parse_laurent("5/4") == na.RatFunc.const(Fraction(5, 4))
    assert na.parse_laurent("1/t") == INV_T
    s = na.parse_laurent("sqrt1p(eps)", 8)
    assert isinstance(s, na.EpsSeries) and s.coeff(2) == Fraction(-1, 8)


def test_parse_errors():
    with pytest.raises(ParseError):
        na.parse_laurent("t +")
    with pytest.raises(ParseError):
        na.parse_laurent("(t/(t+1)")
    with pytest.raises(ParseError):
        na.parse_laurent("t/0")
    # would otherwise silently read as (t-1)/t
    with pytest.raises(ParseError):
        na.parse_laurent("t - 1/t")
    assert na.parse_laurent("(t^2 - 1)/(t)") == rf((-1, 0, 1), (0, 1))
    # past the interpreter's int/str digit limit
    with pytest.raises(ParseError) as err:
        na.parse_laurent("t + " + "9" * 5000)
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        na.parse_laurent("t^" + "9" * 5000)


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
