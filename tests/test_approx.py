from fractions import Fraction

import pytest

from dioapprox import approx, oracle
from dioapprox.errors import DomainError, RationalInputError
from dioapprox.exactnum import compare, floor_of, frac_of, quad, radical_sign, sqrt_int
from support import PHI, SQRT2, SQRT2_M1, SQRT3


def abs_diff(alpha, p, q):
    diff = alpha - Fraction(p, q)
    return diff if compare(diff, 0) >= 0 else -diff


# --- Dirichlet ----------------------------------------------------------

def test_dirichlet_pinned_examples():
    a = approx.dirichlet(SQRT2_M1, 10)
    assert (a.p, a.q) == (2, 5) and a.verified
    a = approx.dirichlet(SQRT2, 5)
    assert (a.p, a.q) == (7, 5)


def test_dirichlet_degenerate_order_one():
    a = approx.dirichlet(PHI, 1)
    assert a.q == 1
    assert compare(abs_diff(PHI, a.p, a.q), 1) <= 0


def test_dirichlet_contract_and_oracle_membership():
    for alpha in (SQRT2, SQRT3, PHI, SQRT2_M1):
        for cap in (10, 100, 500):
            a = approx.dirichlet(alpha, cap)
            assert 1 <= a.q <= cap
            assert compare(abs_diff(alpha, a.p, a.q), Fraction(1, a.q * cap)) <= 0
            assert (a.p, a.q) in oracle.dirichlet_naive(alpha, cap)


def test_dirichlet_rejects_rationals():
    with pytest.raises(RationalInputError):
        approx.dirichlet(Fraction(3, 2), 10)
    with pytest.raises(DomainError):
        approx.dirichlet(SQRT2, 0)


# --- large denominators ---------------------------------------------------

def scan_square_hits(alpha, lo, hi):
    hits = []
    for k in range(lo + 1, hi + 1):
        p = floor_of(alpha * k)
        for cand in (p, p + 1):
            if compare(abs_diff(alpha, cand, k), Fraction(1, k * k)) < 0:
                from math import gcd
                if gcd(cand, k) == 1:
                    hits.append((cand, k))
    return hits


def test_large_denominator_contract():
    for alpha in (SQRT2, SQRT3, PHI, SQRT2_M1):
        for q_floor in (2, 10):
            a = approx.large_denominator(alpha, q_floor)
            assert a.q > q_floor
            assert compare(abs_diff(alpha, a.p, a.q), Fraction(1, a.q * a.q)) < 0
            assert (a.p, a.q) in scan_square_hits(alpha, q_floor, a.q)


def test_large_denominator_grows():
    q = 1
    seen = []
    for _ in range(10):
        a = approx.large_denominator(SQRT2, q)
        seen.append(a.q)
        q = a.q
    assert all(x < y for x, y in zip(seen, seen[1:]))


# --- Segre / Hurwitz / one-sided -----------------------------------------

def test_segre_tau_zero_is_upper_approximation():
    a = approx.segre(SQRT2, 0, 1)
    diff = Fraction(a.p, a.q) - SQRT2
    assert compare(diff, 0) > 0
    assert compare(diff, Fraction(1, a.q * a.q)) < 0


def test_segre_rational_root_branch():
    # 1 + 4*tau = 9 for tau = 2: the radical collapses to the rational 3
    a = approx.segre(PHI, 2, 1)
    assert a.q > 1
    delta = PHI - Fraction(a.p, a.q)
    assert compare(delta, Fraction(-1, 3 * a.q * a.q)) > 0
    assert compare(delta, Fraction(2, 3 * a.q * a.q)) < 0
    # the walkthrough pair: 8/5 passes, 5/3 fails the lower side
    ok = approx.verify(PHI, approx.Approximation(8, 5, approx.Bound.segre(2, 1), False))
    bad = approx.verify(PHI, approx.Approximation(5, 3, approx.Bound.segre(2, 1), False))
    assert ok and not bad


def test_segre_bound_agrees_with_squared_comparison():
    # independent route: square both sides after a sign analysis
    import random

    rng = random.Random(41)
    for _ in range(120):
        alpha = frac_of(quad(rng.randint(-9, 9), rng.choice([-2, -1, 1, 2]),
                             rng.randint(1, 5), rng.choice((2, 3, 5, 6, 7))))
        if alpha == 0:
            continue
        p, q = rng.randint(0, 6), rng.randint(1, 6)
        tau = Fraction(rng.randint(0, 4), rng.randint(1, 3))
        w = 1 + 4 * tau
        delta = alpha - Fraction(p, q)
        sign = compare(delta, 0)
        dd = delta * delta
        if sign >= 0:
            expected = compare(dd * w * q**4, tau * tau) < 0
        else:
            expected = compare(dd * w * q**4, 1) < 0
        got = approx.verify(
            alpha, approx.Approximation(p, q, approx.Bound.segre(tau, 0), False)
        ) if q > 0 else False
        from math import gcd
        if gcd(p, q) != 1:
            continue
        assert got == (expected and q > 0)


def test_hurwitz_examples():
    a = approx.hurwitz(PHI, 10)
    assert a.q > 10 and a.verified
    assert approx.verify(PHI, a)
    b = approx.hurwitz(SQRT2, 1)
    assert approx.verify(SQRT2, b)


def test_hurwitz_classical_threshold_pair():
    passes = approx.verify(PHI, approx.Approximation(34, 21, approx.Bound.hurwitz(10), False))
    fails = approx.verify(PHI, approx.Approximation(21, 13, approx.Bound.hurwitz(10), False))
    assert passes and not fails


def test_one_sided_contracts():
    a = approx.one_sided(SQRT2, 1, approx.BELOW)
    assert (a.p, a.q) == (7, 5)
    diff = SQRT2 - Fraction(a.p, a.q)
    assert compare(diff, 0) > 0 and compare(diff, Fraction(1, a.q**2)) < 0

    a = approx.one_sided(SQRT2, 1, approx.ABOVE)
    diff = Fraction(a.p, a.q) - SQRT2
    assert compare(diff, 0) > 0 and compare(diff, Fraction(1, a.q**2)) < 0

    a = approx.one_sided(PHI, 3, approx.BELOW)
    assert a.q > 3
    diff = PHI - Fraction(a.p, a.q)
    assert compare(diff, 0) > 0 and compare(diff, Fraction(1, a.q**2)) < 0


def test_one_sided_rejects_bad_side():
    with pytest.raises(DomainError):
        approx.one_sided(SQRT2, 1, "sideways")


def test_segre_round_guard():
    from dioapprox.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        approx.segre(SQRT2, 0, 1, max_rounds=0)


# --- verify -------------------------------------------------------------

def test_verify_examples():
    assert approx.verify(SQRT2, approx.Approximation(7, 5, approx.Bound.dirichlet(5), False))
    # k = 2 violates the k > Q side condition even though |diff| < 1/4
    assert not approx.verify(SQRT2, approx.Approximation(3, 2, approx.Bound.square(2), False))
    assert approx.verify(SQRT2, approx.Approximation(3, 2, approx.Bound.square(1), False))


def test_verify_rejects_unreduced():
    assert not approx.verify(SQRT2, approx.Approximation(2, 4, approx.Bound.dirichlet(5), False))


def test_builders_always_verified():
    for alpha in (SQRT2, PHI):
        for build in (
            lambda a: approx.dirichlet(a, 30),
            lambda a: approx.large_denominator(a, 7),
            lambda a: approx.segre(a, Fraction(1, 2), 3),
            lambda a: approx.hurwitz(a, 4),
            lambda a: approx.one_sided(a, 2, approx.ABOVE),
        ):
            appr = build(alpha)
            assert appr.verified and approx.verify(alpha, appr)


# --- convergent search --------------------------------------------------

def test_asymmetric_builders_clear_q_and_verify():
    import random

    rng = random.Random(53)
    for _ in range(60):
        d = rng.choice((2, 3, 5, 7, 13, 1000003, 10**7 + 19))
        alpha = quad(rng.randint(0, 30), rng.randint(1, 3), rng.choice((1, 7, 10**3)), d)
        q_floor = rng.choice((1, 2, rng.randint(1, 10**6), 10**rng.randint(1, 29)))
        tau = Fraction(rng.randint(0, 100), rng.randint(1, 5))
        for appr in (
            approx.segre(alpha, tau, q_floor),
            approx.hurwitz(alpha, q_floor),
            approx.one_sided(alpha, q_floor, approx.ABOVE),
            approx.one_sided(alpha, q_floor, approx.BELOW),
        ):
            assert appr.q > q_floor
            assert appr.verified and approx.verify(alpha, appr)


def test_convergent_search_finds_the_least_denominator():
    # within 1/q^2 of alpha (large_denominator, and segre for tau <= 4 <
    # 2 + sqrt(5)) every solution is a candidate, so the first one past Q
    # has the least q; a scan over every q confirms it
    def least(alpha, q_floor, bound):
        q = q_floor + 1
        while True:
            base = floor_of(alpha * q)
            for p in (base, base + 1):
                if approx.verify(alpha, approx.Approximation(p, q, bound, False)):
                    return p, q
            q += 1

    for alpha in (SQRT2, SQRT3, PHI, SQRT2_M1, quad(3, 1, 7, 13)):
        for q_floor in (1, 2, 5, 17, 40):
            a = approx.large_denominator(alpha, q_floor)
            assert (a.p, a.q) == least(alpha, q_floor, approx.Bound.square(q_floor))
            for tau in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(4)):
                a = approx.segre(alpha, tau, q_floor)
                assert (a.p, a.q) == least(alpha, q_floor, approx.Bound.segre(tau, q_floor))
