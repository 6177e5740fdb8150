"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is checked by exact arithmetic at the stated scale;
run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import random
import time
from fractions import Fraction
from math import gcd

from dioapprox import approx, beatty, farey, nonarch, oracle
from dioapprox.exactnum import compare, floor_of, frac_of, quad, radical_sign
from support import PHI, PHI_SQ, SQRT2, SQRT2_M1, SQRT3

ALPHAS = (SQRT2, SQRT3, PHI, SQRT2_M1)


def _report(num, label, started):
    print(f"ACCEPTANCE {num:02d} ({label}): PASS [{time.time() - started:.1f}s]")


def test_c01_farey_invariants_to_300():
    started = time.time()
    for order in range(1, 301):
        pairs = [(f.h, f.k) for f in farey.sequence(order)]
        for (a, b), (c, d) in zip(pairs, pairs[1:]):
            assert b * c - a * d == 1
            assert b + d > order
            assert order == 1 or b != d
        assert pairs == oracle.farey_naive(order)
    elapsed = time.time() - started
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _report(1, "Farey neighbor identities + naive equality, N<=300", started)


def test_c02_neighbor_round_trips_to_120():
    started = time.time()
    for order in range(1, 121):
        terms = list(farey.sequence(order))
        for i, f in enumerate(terms):
            if 0 < i:
                assert farey.predecessor(f) == terms[i - 1]
            if i < len(terms) - 1:
                assert farey.successor(f) == terms[i + 1]
            if 0 < i < len(terms) - 1:
                assert farey.successor(farey.predecessor(f)) == f
                assert farey.predecessor(farey.successor(f)) == f
    _report(2, "successor/predecessor round-trips, N<=120", started)


def test_c03_phi_embedding_and_greatest_search():
    started = time.time()
    for order in range(1, 101):
        values = [farey.phi_embed(f) for f in farey.sequence(order)]
        assert all(x < y for x, y in zip(values, values[1:]))
    rng = random.Random(101)
    for _ in range(1000):
        order = rng.randint(1, 100)
        m = rng.randint(1, order * order)
        best = None
        for f in farey.sequence(order):
            if farey.phi_embed(f) < m:
                best = f
        assert farey.greatest_below(order, m) == best
    _report(3, "phi embedding monotone N<=100; greatest-element search x1000", started)


def test_c04_dirichlet_contract():
    started = time.time()
    for alpha in ALPHAS:
        for cap in (10, 100, 1000, 100_000):
            a = approx.dirichlet(alpha, cap)
            assert 1 <= a.q <= cap and gcd(a.p, a.q) == 1
            diff = alpha - Fraction(a.p, a.q)
            mag = diff if compare(diff, 0) >= 0 else -diff
            assert compare(mag, Fraction(1, a.q * cap)) <= 0
            if cap <= 1000:
                assert (a.p, a.q) in oracle.dirichlet_naive(alpha, cap)
    elapsed = time.time() - started
    assert elapsed < 10, f"took {elapsed:.1f}s"
    _report(4, "Dirichlet bound exact, Q up to 1e5, oracle membership", started)


def test_c05_large_denominator_contract_and_growth():
    started = time.time()
    for alpha in ALPHAS:
        for q_floor in (10, 1000):
            a = approx.large_denominator(alpha, q_floor)
            assert a.q > q_floor and gcd(a.p, a.q) == 1
            diff = alpha - Fraction(a.p, a.q)
            mag = diff if compare(diff, 0) >= 0 else -diff
            assert compare(mag, Fraction(1, a.q * a.q)) < 0
        denominators = []
        q = 1
        for _ in range(10):
            a = approx.large_denominator(alpha, q)
            denominators.append(a.q)
            q = a.q
        assert all(x < y for x, y in zip(denominators, denominators[1:]))
    _report(5, "large-denominator bound + strictly growing q over 10 rounds", started)


def test_c06_hurwitz_and_segre():
    started = time.time()
    a = approx.hurwitz(PHI, 10)
    assert a.q > 10 and approx.verify(PHI, a)
    # classical threshold pair for the golden ratio, by exact squaring
    good = approx.Approximation(34, 21, approx.Bound.hurwitz(10), False)
    bad = approx.Approximation(21, 13, approx.Bound.hurwitz(10), False)
    assert approx.verify(PHI, good)
    assert not approx.verify(PHI, bad)
    s = approx.segre(PHI, 2, 1)
    assert s.q > 1 and approx.verify(PHI, s)
    delta = PHI - Fraction(s.p, s.q)  # 1+4*tau = 9, exact rational bounds
    assert compare(delta, Fraction(-1, 3 * s.q * s.q)) > 0
    assert compare(delta, Fraction(2, 3 * s.q * s.q)) < 0
    _report(6, "Hurwitz 34/21 vs 21/13 split; Segre tau=2 rational root", started)


def test_c07_partitions_and_counting_identity():
    started = time.time()
    bound = 10_000
    for alpha, beta_ in ((PHI, PHI_SQ), (SQRT2, 2 + SQRT2)):
        assert beatty.partition_check(alpha, beta_, bound).ok
        wa = beatty.window(alpha, bound).member_set()
        wb = beatty.window(beta_, bound).member_set()
        na = oracle.beatty_naive(alpha, bound)
        nb = oracle.beatty_naive(beta_, bound)
        assert wa == na and wb == nb
        for h in range(0, bound + 1):
            assert beatty.mu(alpha, h) + beatty.mu(beta_, h) == h
    _report(7, "Beatty partitions on [1,1e4] + counting identity", started)


def test_c08_worked_example_regression():
    started = time.time()
    rho, beta_ = Fraction(3, 2), SQRT2
    m = floor_of((beta_ - 1) * (rho - 1) / (rho - beta_))
    assert m == 2
    t = (m + 1) * rho / (rho - 1)
    assert t == 9
    assert floor_of(7 * SQRT2) == 9
    assert 6 * rho == 9
    rep = beatty.claim51_check(rho, beta_)
    assert rep.status == beatty.HOLDS
    assert rep.separator == 10
    _report(8, "worked separation example: m=2, t=9, separator 10", started)


def test_c09_ap_decomposition():
    started = time.time()
    for p, q in ((7, 3), (3, 2), (5, 2)):
        rep = beatty.ap_decomposition(p, q, 1000)
        assert rep.ok, rep
        members = beatty.window(Fraction(p, q), 1000).member_set()
        residues = {pr.residue for pr in rep.progressions}
        assert members == {k for k in range(1001) if k % p in residues}
        assert all(k % p != p - 1 for k in members)
    _report(9, "arithmetic-progression decomposition for 7/3, 3/2, 5/2", started)


def test_c10_certificate_and_implication_suite():
    started = time.time()
    cert = beatty.certificate_search(beatty.CertKind.DISJOINT, 2 + SQRT2, SQRT2)
    assert (cert.a, cert.b) == (1, 1)
    assert beatty.verify_implication(
        beatty.CertKind.DISJOINT, 2 + SQRT2, SQRT2, cert, 1000
    ).ok
    cert = beatty.certificate_search(
        beatty.CertKind.FACT_F_PRIME, Fraction(3), Fraction(3, 2)
    )
    assert (cert.a, cert.b) == (2, 1)
    assert beatty.verify_implication(
        beatty.CertKind.FACT_F_PRIME, Fraction(3), Fraction(3, 2), cert, 1000
    ).ok
    cert = beatty.certificate_search(beatty.CertKind.FACT_C, SQRT2, 1 + SQRT2)
    assert (cert.a, cert.b, cert.c) == (2, -1, 1)
    assert beatty.verify_implication(
        beatty.CertKind.FACT_C, SQRT2, 1 + SQRT2, cert, 1000
    ).ok
    _report(10, "certificates (1,1), (2,1), (2,-1,1) and window implications", started)


def test_c11_nonarch_model():
    started = time.time()
    rng = random.Random(211)
    checked = 0
    while checked < 500:
        num = nonarch.Poly([rng.randint(-20, 20) for _ in range(rng.randint(1, 7))])
        den = nonarch.Poly([rng.randint(-20, 20) for _ in range(rng.randint(1, 7))])
        if den.is_zero():
            continue
        x = nonarch.RatFunc(num, den)
        f = nonarch.floor_ip(x)
        one = nonarch.RatFunc.const(1)
        assert nonarch.compare(f, x) <= 0
        assert nonarch.compare(x, nonarch.add(f, one)) < 0
        checked += 1
    root = nonarch.sqrt1p_eps(64)
    sq = nonarch.mul(root, root)
    assert sq.coeff(0) == 1 and sq.coeff(1) == 1
    assert all(sq.coeff(i) == 0 for i in range(2, 64))
    rep = nonarch.linf_experiment(
        nonarch.RatFunc.const(Fraction(5, 4)), nonarch.RatFunc.const(Fraction(3, 2))
    )
    assert rep.applicable and rep.m == 4
    assert rep.lower_neighbor < rep.separator < rep.upper_neighbor
    sigma = nonarch.RatFunc.const(Fraction(5, 4))
    assert nonarch.beatty_nonarch(sigma, nonarch.IPElem.const(rep.k + 1)) == rep.separator
    _report(11, "model floors x500, sqrt(1+eps)^2 to 64, separation m=4", started)


def test_c12_dmo_searches():
    started = time.time()
    assert beatty.dmo_window_search(SQRT2, Fraction(9, 10), Fraction(19, 20), 100) == 24
    rng = random.Random(212)
    pool = (SQRT2, SQRT3, PHI, 1 + SQRT2, PHI_SQ, quad(1, 1, 2, 3))
    for _ in range(50):
        alpha = rng.choice(pool)
        m = rng.randint(2, 6)
        k = rng.randrange(m)
        via_residue = beatty.residue_search(alpha, m, k, 400)
        via_window = beatty.dmo_window_search(
            alpha, Fraction(k, m), Fraction(k + 1, m), 400
        )
        assert via_residue == via_window
        assert via_window == oracle.frac_scan([(alpha, Fraction(k, m), Fraction(k + 1, m))], 400)
        if via_residue is not None:
            assert floor_of(alpha * m * via_residue) % m == k
            f = frac_of(alpha * via_residue)
            assert compare(f, Fraction(k, m)) > 0
            assert compare(f, Fraction(k + 1, m)) < 0
    _report(12, "fractional-part search hits 24; residue/window agreement x50", started)
