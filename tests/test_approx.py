from fractions import Fraction
from itertools import takewhile

import pytest

from dioapprox import approx, oracle
from dioapprox.errors import DomainError, RationalInputError
from dioapprox.exactnum import compare, convergents, floor_of, frac_of, quad, radical_sign, sqrt_int
from support import PHI, SQRT2, SQRT2_M1, SQRT3


def abs_diff(alpha, p, q):
    diff = alpha - Fraction(p, q)
    return diff if compare(diff, 0) >= 0 else -diff


# --- Dirichlet ----------------------------------------------------------

def test_dirichlet_pinned_examples():
    a = approx.dirichlet(SQRT2_M1, 10)
    assert (a.p, a.q) == (2, 5) and a.verified
    a = approx.dirichlet(SQRT2, 5)
    assert (a.p, a.q) == (7, 5) and a.value() == Fraction(7, 5)


def test_builders_recheck_the_candidate(monkeypatch):
    # 1/7 claimed inside the window of sqrt(2) past Q = 5
    monkeypatch.setattr(approx, "_candidates", lambda alpha, bound, intermediates: iter([(1, 7, True)]))
    with pytest.raises(AssertionError, match="failed its own bound"):
        approx.large_denominator(SQRT2, 5)


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
        # the answer is the last convergent with q <= Q, for Q up to 10^40
        conv = [(p, q) for _, p, q in takewhile(lambda c: c[2] <= 10**41, convergents(alpha))]
        caps = [10**k for k in range(41)] + [q + j for _, q in conv[1:] for j in (-1, 0, 1) if q + j]
        for cap in caps:
            a = approx.dirichlet(alpha, cap)
            assert (a.p, a.q) == [c for c in conv if c[1] <= cap][-1], (alpha, cap)
            assert compare(abs_diff(alpha, a.p, a.q), Fraction(1, a.q * cap)) <= 0


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


def test_segre_rejects_negative_tau():
    with pytest.raises(DomainError, match="tau must be >= 0, got -1/8$"):
        approx.Bound.segre(Fraction(-1, 8), 1)
    # segre checks alpha, then tau, then Q
    with pytest.raises(RationalInputError):
        approx.segre(Fraction(3, 2), -1, 0)
    with pytest.raises(DomainError, match="tau must be >= 0, got -1$"):
        approx.segre(SQRT2, -1, 0)


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
    # independent route for every bound past Q: square both sides of
    # -lo/(sqrt(w) q^2) < alpha - p/q < hi/(sqrt(w) q^2) after a sign analysis
    import random
    from math import gcd

    rng = random.Random(41)
    zero_diffs = 0
    for _ in range(400):
        p, q = rng.randint(0, 6), rng.randint(1, 6)
        if gcd(p, q) != 1:
            continue
        if rng.random() < 0.4:  # rational alpha, at or near p/q, often on an end
            alpha = Fraction(p, q) + Fraction(rng.randint(-2, 2), rng.randint(1, 3) * q * q)
        else:
            alpha = frac_of(quad(rng.randint(-9, 9), rng.choice([-2, -1, 1, 2]),
                                 rng.randint(1, 5), rng.choice((2, 3, 5, 6, 7))))
        tau = Fraction(rng.randint(0, 4), rng.randint(1, 3))
        rows = ((approx.Bound.square(0), 1, 1, 1),
                (approx.Bound.hurwitz(0), 1, 1, 5),
                (approx.Bound.segre(tau, 0), 1, tau, 1 + 4 * tau),
                (approx.Bound.one_sided(approx.ABOVE, 0), 1, 0, 1),
                (approx.Bound.one_sided(approx.BELOW, 0), 0, 1, 1))
        delta = alpha - Fraction(p, q)
        sign = compare(delta, 0)
        zero_diffs += sign == 0
        for bound, lo, hi, w in rows:
            if sign == 0:
                expected = lo > 0 and hi > 0
            else:
                end = hi if sign > 0 else lo
                expected = compare(delta * delta * w * q**4, end * end) < 0
            got = approx.verify(alpha, approx.Approximation(p, q, bound, False))
            assert got == expected, (alpha, p, q, bound)
    assert zero_diffs >= 10


def test_hurwitz_examples():
    a = approx.hurwitz(PHI, 10)
    assert a.q > 10 and a.verified
    assert approx.verify(PHI, a)
    b = approx.hurwitz(SQRT2, 1)
    assert approx.verify(SQRT2, b)


def test_hurwitz_is_segre_at_tau_one_within_three_convergents(monkeypatch):
    verified = []
    real = approx.verify
    monkeypatch.setattr(approx, "verify",
                        lambda alpha, appr: verified.append(appr.bound.kind) or real(alpha, appr))
    places = []
    # sqrt(2)/5 = [0; 3, 1, 1, 6, ...]: 1/3 and 1/4 fail, so Q = 1 needs the third convergent
    for alpha, q_floor in ((PHI, 10), (SQRT2, 1), (SQRT3, 10**6), (quad(0, 1, 5, 2), 1)):
        verified.clear()
        a = approx.hurwitz(alpha, q_floor)
        assert verified == ["hurwitz"]  # one verify per answer, whatever it took to find
        past = [(p, q) for _, p, q in takewhile(lambda c: c[2] <= a.q, convergents(alpha))
                if q > q_floor]
        assert (a.p, a.q) == past[-1] and len(past) <= 3  # Borel
        places.append(len(past))
        s = approx.segre(alpha, 1, q_floor)
        assert (a.p, a.q) == (s.p, s.q)
    assert places[-1] == 3
    with pytest.raises(DomainError, match="Q must be >= 1, got 0"):
        approx.hurwitz(SQRT2, 0)
    with pytest.raises(RationalInputError):
        approx.hurwitz(Fraction(3, 2), 5)


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
    for q_floor in (1, 0):  # the side is checked before Q
        with pytest.raises(DomainError, match="side must be"):
            approx.one_sided(SQRT2, q_floor, "sideways")


def test_segre_round_guard(monkeypatch):
    from dioapprox.errors import ResourceLimitError

    monkeypatch.setattr(approx, "DEFAULT_MAX_ROUNDS", 0)
    with pytest.raises(ResourceLimitError):
        approx.segre(SQRT2, 0, 1)


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
    # has the least q; within 1/(2q^2) (hurwitz) every solution is a
    # convergent (Legendre); a scan over every q confirms it
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
            a = approx.hurwitz(alpha, q_floor)
            assert (a.p, a.q) == least(alpha, q_floor, approx.Bound.hurwitz(q_floor))
            for tau in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(4)):
                a = approx.segre(alpha, tau, q_floor)
                assert (a.p, a.q) == least(alpha, q_floor, approx.Bound.segre(tau, q_floor))


def test_builders_match_the_verify_per_candidate_loop(monkeypatch):
    # each builder against the reference loop that runs verify on every
    # candidate past Q: the same (p, q), or the same ResourceLimitError,
    # with exactly one verify call per answer
    import random
    from math import isqrt

    from dioapprox.errors import ResourceLimitError
    from dioapprox.exactnum import is_rational, sign_of
    from support import fatou_grace_candidates, first_verified

    calls = []
    real = approx.verify
    monkeypatch.setattr(approx, "verify", lambda alpha, appr: calls.append(1) or real(alpha, appr))

    def outcome(build):
        calls.clear()
        try:
            a = build()
        except ResourceLimitError as exc:
            return str(exc), len(calls)
        return (a.p, a.q, a.bound), len(calls)

    def check(alpha, q_floor, tau, rounds):
        B, conv = approx.Bound, lambda: ((p, q) for _, p, q in convergents(alpha))
        monkeypatch.setattr(approx, "DEFAULT_MAX_ROUNDS", rounds)
        pairs = [
            (lambda: approx.large_denominator(alpha, q_floor),
             lambda: first_verified(alpha, fatou_grace_candidates(alpha), 3, B.square(q_floor))),
            (lambda: approx.segre(alpha, tau, q_floor),
             lambda: first_verified(alpha, fatou_grace_candidates(alpha), rounds,
                                    B.segre(tau, q_floor))),
            (lambda: approx.hurwitz(alpha, q_floor),
             lambda: first_verified(alpha, conv(), 3, B.hurwitz(q_floor))),
        ] + [(lambda s=side: approx.one_sided(alpha, q_floor, s),
              lambda s=side: first_verified(alpha, conv(), 2, B.one_sided(s, q_floor)))
             for side in (approx.ABOVE, approx.BELOW)]
        results = []
        for build, reference in pairs:
            (got, verified), (expected, tried) = outcome(build), outcome(reference)
            assert got == expected, (alpha, q_floor, tau, rounds)
            assert verified == (0 if isinstance(got, str) else 1)
            results.append((got, tried))
        return results

    # (34 - 9*sqrt(5))/2 at Q = 1, tau = 0: the loop verifies six candidates
    assert check(quad(34, -9, 2, 5), 1, Fraction(0), 64)[1][1] == 6

    rng = random.Random(20)
    negative_b = limits = 0
    while negative_b < 150:
        d = rng.choice((rng.randint(2, 99), rng.randint(2, 10**4), rng.randint(2, 10**8)))
        b, c = rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)
        a = rng.randint(-30, 30) if b > 0 else isqrt(b * b * d) + rng.randint(1, 30)
        alpha = quad(a, b, c, d)
        if is_rational(alpha) or sign_of(alpha) <= 0:
            continue
        negative_b += b < 0
        q_floor = rng.choice((1, rng.randint(1, 1000), 10 ** rng.randint(1, 60),
                              rng.randint(1, 10**60)))
        tau = rng.choice(tuple(map(Fraction, (0, "1/3", 1, 2, "9/2", 7))))
        rounds = rng.choice((64, 64, 0, 1, 2, 3))
        limits += sum(isinstance(got, str) for got, _ in check(alpha, q_floor, tau, rounds))
    assert limits >= 10


def test_verify_refuses_an_unknown_bound_kind():
    appr = approx.Approximation(7, 5, approx.Bound("nope", 3), verified=False)
    with pytest.raises(DomainError, match="unknown bound kind"):
        approx.verify(SQRT2, appr)
