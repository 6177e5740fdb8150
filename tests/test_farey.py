import random
from fractions import Fraction

import pytest

from dioapprox import farey, oracle
from dioapprox.errors import DomainError, NotFoundError, RationalInputError
from dioapprox.exactnum import quad
from support import PHI_M1, SQRT2_M1, SQUAREFREE_POOL


def as_pairs(order):
    return [(f.h, f.k) for f in farey.sequence(order)]


def test_sequence_small_orders():
    assert as_pairs(1) == [(0, 1), (1, 1)]
    assert as_pairs(5) == [
        (0, 1), (1, 5), (1, 4), (1, 3), (2, 5), (1, 2),
        (3, 5), (2, 3), (3, 4), (4, 5), (1, 1),
    ]


def test_sequence_count_via_totient():
    def totient(n):
        count = 0
        for k in range(1, n + 1):
            from math import gcd
            count += gcd(k, n) == 1
        return count

    assert len(as_pairs(7)) == 1 + sum(totient(k) for k in range(1, 8)) == 19


def test_sequence_rejects_bad_order():
    with pytest.raises(DomainError):
        list(farey.sequence(0))


def test_sequence_matches_naive_oracle():
    for order in range(1, 61):
        assert as_pairs(order) == oracle.farey_naive(order)


def test_neighbor_identities():
    for order in range(2, 61):
        terms = as_pairs(order)
        for (a, b), (c, d) in zip(terms, terms[1:]):
            assert b * c - a * d == 1
            assert b + d > order
            assert b != d


def test_successor_examples():
    assert farey.successor(farey.farey_fraction(1, 3, 5)) == farey.farey_fraction(2, 5, 5)
    assert farey.successor(farey.farey_fraction(0, 1, 9)) == farey.farey_fraction(1, 9, 9)
    assert farey.successor(farey.farey_fraction(2, 5, 5)) == farey.farey_fraction(1, 2, 5)


def test_predecessor_examples():
    assert farey.predecessor(farey.farey_fraction(1, 2, 5)) == farey.farey_fraction(2, 5, 5)
    assert farey.predecessor(farey.farey_fraction(1, 1, 9)) == farey.farey_fraction(8, 9, 9)
    assert farey.predecessor(farey.farey_fraction(1, 4, 5)) == farey.farey_fraction(1, 5, 5)


def test_neighbor_endpoints_rejected():
    with pytest.raises(DomainError):
        farey.successor(farey.farey_fraction(1, 1, 4))
    with pytest.raises(DomainError):
        farey.predecessor(farey.farey_fraction(0, 1, 4))


def test_round_trip_matches_enumeration():
    for order in range(1, 41):
        terms = list(farey.sequence(order))
        for i, f in enumerate(terms):
            if i > 0:
                assert farey.predecessor(f) == terms[i - 1]
            if i < len(terms) - 1:
                assert farey.successor(f) == terms[i + 1]
            if 0 < i < len(terms) - 1:
                assert farey.successor(farey.predecessor(f)) == f
                assert farey.predecessor(farey.successor(f)) == f


def test_mediant_examples():
    f5 = lambda h, k: farey.farey_fraction(h, k, 5)
    med = farey.mediant(f5(1, 3), f5(2, 5))
    assert (med.num, med.den, med.value) == (3, 8, Fraction(3, 8))
    med = farey.mediant(farey.farey_fraction(0, 1, 1), farey.farey_fraction(1, 1, 1))
    assert med.value == Fraction(1, 2)
    med = farey.mediant(farey.farey_fraction(2, 5, 7), farey.farey_fraction(3, 7, 7))
    assert (med.num, med.den) == (5, 12)


def test_mediant_strictly_between():
    rng = random.Random(5)
    for _ in range(100):
        order = rng.randint(2, 30)
        terms = list(farey.sequence(order))
        i = rng.randrange(len(terms) - 1)
        med = farey.mediant(terms[i], terms[i + 1])
        assert terms[i].value() < med.value < terms[i + 1].value()


def test_phi_embed_examples():
    assert farey.phi_embed(farey.farey_fraction(2, 5, 5)) == 10
    assert farey.phi_embed(farey.farey_fraction(0, 1, 5)) == 0
    assert farey.phi_embed(farey.farey_fraction(1, 3, 5)) == 8


def test_phi_embed_strictly_increasing():
    for order in range(1, 51):
        values = [farey.phi_embed(f) for f in farey.sequence(order)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_greatest_below_examples():
    assert farey.greatest_below(5, 9) == farey.farey_fraction(1, 3, 5)
    assert farey.greatest_below(5, 1) == farey.farey_fraction(0, 1, 5)
    assert farey.greatest_below(5, 25) == farey.farey_fraction(4, 5, 5)


def test_greatest_below_nonstrict_flag():
    # phi(2/5) = 10 exactly: excluded by the strict search, kept otherwise
    assert farey.greatest_below(5, 10) == farey.farey_fraction(1, 3, 5)
    assert farey.greatest_below(5, 10, strict=False) == farey.farey_fraction(2, 5, 5)


def test_greatest_below_degenerate():
    with pytest.raises(NotFoundError):
        farey.greatest_below(5, 0)
    with pytest.raises(DomainError):
        farey.greatest_below(5, 26)


def test_greatest_below_matches_linear_scan():
    rng = random.Random(17)
    for _ in range(300):
        order = rng.randint(1, 40)
        m = rng.randint(1, order * order)
        expected = None
        for f in farey.sequence(order):
            if farey.phi_embed(f) < m:
                expected = f
        assert farey.greatest_below(order, m) == expected


def test_bracket_examples():
    br = farey.bracket(SQRT2_M1, 5)
    assert (br.lo.h, br.lo.k, br.hi.h, br.hi.k) == (2, 5, 1, 2)
    br = farey.bracket(SQRT2_M1, 10)
    assert (br.lo.h, br.lo.k, br.hi.h, br.hi.k) == (2, 5, 3, 7)
    br = farey.bracket(PHI_M1, 3)
    assert (br.lo.h, br.lo.k, br.hi.h, br.hi.k) == (1, 2, 2, 3)


def test_bracket_rejects_rationals_and_bad_ranges():
    with pytest.raises(RationalInputError):
        farey.bracket(Fraction(1, 2), 5)
    with pytest.raises(DomainError):
        farey.bracket(quad(1, 1, 1, 2), 5)  # 1 + sqrt(2) > 1


def test_bracket_is_consecutive_pair():
    rng = random.Random(29)
    for _ in range(120):
        d = rng.choice(SQUAREFREE_POOL)
        # a fractional part of a random quadratic irrational
        from dioapprox.exactnum import floor_of, frac_of

        x = quad(rng.randint(-9, 9), rng.choice([-2, -1, 1, 2]), rng.randint(1, 6), d)
        alpha = frac_of(x)
        if alpha == 0:
            continue
        order = rng.randint(1, 60)
        br = farey.bracket(alpha, order)
        assert br.lo.value() < alpha < br.hi.value()
        assert br.lo.k * br.hi.h - br.lo.h * br.hi.k == 1
        # consecutiveness against enumeration
        terms = list(farey.sequence(order))
        idx = terms.index(br.lo)
        assert terms[idx + 1] == br.hi


# --- differential: continued-fraction core against the mediant walk ---------

def _pairs(br):
    return (br.lo.h, br.lo.k), (br.hi.h, br.hi.k)


def test_bracket_matches_mediant_walk():
    from dioapprox.exactnum import frac_of

    rng = random.Random(43)
    bounded = [PHI_M1, SQRT2_M1] + [frac_of(quad(1, 1, 2, d)) for d in (13, 21, 29)]
    for alpha in bounded:
        for order in [1, 2, 10, 10**3, 10**10, 10**50, 10**150, 10**300] + [
                rng.randint(1, 10**6) for _ in range(4)]:
            assert _pairs(farey.bracket(alpha, order)) == oracle.farey_walk(alpha, order)
    for d, j in ((2, 1), (3, 2), (7, 3), (2, 4)):
        alpha = quad(0, 1, 10**j, d)  # sqrt(d)/10^j: one large partial quotient
        for order in (1, 10**j // 2, 2 * 10**j, rng.randint(1, 2 * 10**j)):
            assert _pairs(farey.bracket(alpha, order)) == oracle.farey_walk(alpha, order)
    for d in (1000003, 10**7 + 19, 99999989):
        alpha = frac_of(quad(0, 1, 1, d))
        for order in (10, 1000, rng.randint(1, 10_000)):
            assert _pairs(farey.bracket(alpha, order)) == oracle.farey_walk(alpha, order)


def test_greatest_below_matches_mediant_walk():
    rng = random.Random(47)
    cases = [(order, m) for order in (1, 2, 3, 10, 5000) for m in (1, 2, order * order)]
    for _ in range(60):
        order = rng.randint(1, 300)
        cases.append((order, rng.randint(1, order * order)))
    for order, m in cases:
        square = order * order
        if m > square:
            continue
        for strict in (True, False):
            cutoff = m if strict else m + 1
            want = (1, 1) if cutoff > square else oracle.farey_walk(
                Fraction(cutoff, square), order)[0]
            got = farey.greatest_below(order, m, strict=strict)
            assert (got.h, got.k) == want, (order, m, strict)


def test_bracket_and_greatest_below_at_scale():
    # past the mediant walk's reach: check the invariants directly
    order = 10**6
    alpha = quad(0, 1, 10**5, 2)
    br = farey.bracket(alpha, order)  # FareyBracket checks k*h' - h*k' = 1
    assert br.lo.value() < alpha < br.hi.value()
    assert max(br.lo.k, br.hi.k) <= order < br.lo.k + br.hi.k
    order = 10**12
    f = farey.greatest_below(order, 2)
    assert farey.phi_embed(f) < 2 <= farey.phi_embed(farey.successor(f))
    assert f == farey.farey_fraction(0, 1, order)
