import time
from fractions import Fraction
from math import gcd

import pytest

from dioapprox import oracle
from dioapprox.errors import DomainError, ResourceLimitError
from dioapprox.exactnum import quad
from support import PHI, SQRT2, SQRT2_M1, PHI_M1


def test_farey_naive_small():
    assert oracle.farey_naive(1) == [(0, 1), (1, 1)]
    assert oracle.farey_naive(5) == [
        (0, 1), (1, 5), (1, 4), (1, 3), (2, 5), (1, 2),
        (3, 5), (2, 3), (3, 4), (4, 5), (1, 1),
    ]


def test_farey_naive_count_is_totient_sum():
    n = 300
    count = 1 + sum(
        sum(1 for h in range(1, k + 1) if gcd(h, k) == 1) for k in range(1, n + 1)
    )
    assert len(oracle.farey_naive(n)) == count


def test_dirichlet_naive_examples():
    assert (2, 5) in oracle.dirichlet_naive(SQRT2_M1, 10)
    assert (2, 3) in oracle.dirichlet_naive(PHI_M1, 3)
    hits = oracle.dirichlet_naive(SQRT2_M1, 1)
    assert (0, 1) in hits or (1, 1) in hits


def test_beatty_naive_examples():
    assert oracle.beatty_naive(PHI, 12) == {0, 1, 3, 4, 6, 8, 9, 11, 12}
    assert oracle.beatty_naive(Fraction(1), 5) == {0, 1, 2, 3, 4, 5}
    assert oracle.beatty_naive(Fraction(7, 3), 20) == {0, 2, 4, 7, 9, 11, 14, 16, 18}


def test_frac_scan_examples():
    assert oracle.frac_scan([(SQRT2, Fraction(9, 10), Fraction(19, 20))], 100) == 24
    assert oracle.frac_scan([(SQRT2, Fraction(9, 10), Fraction(19, 20))], 23) is None
    assert oracle.frac_scan([(PHI, 0, 1)], 0) is None
    # frac(n*phi) and frac(n*(phi - 1)) are equal, so disjoint strips never meet
    assert oracle.frac_scan([(PHI, 0, Fraction(1, 2)), (PHI_M1, Fraction(1, 2), 1)], 500) is None
    assert oracle.frac_scan([(PHI, 0, Fraction(1, 2)), (SQRT2, Fraction(1, 2), 1)], 50) == 2


def test_guards_are_hard_errors():
    with pytest.raises(DomainError):
        oracle.farey_naive(1001)
    with pytest.raises(DomainError):
        oracle.dirichlet_naive(PHI, 1001)
    with pytest.raises(DomainError):
        oracle.beatty_naive(PHI, 100_001)
    with pytest.raises(DomainError):
        oracle.frac_scan([(PHI, 0, 1)], oracle.FRAC_GUARD + 1)
    with pytest.raises(DomainError):
        oracle.series_product_naive([1], [1], 1001)
    with pytest.raises(DomainError):
        oracle.series_inverse_naive([1], 1001)
    with pytest.raises(DomainError):  # no constant term to invert
        oracle.series_inverse_naive([0, 1], 3)
    with pytest.raises(DomainError):
        oracle.poly_gcd_naive([1] * 1001, [1])
    with pytest.raises(DomainError):
        oracle.linf_scan(1, 0, 2, 0, 100_001)
    with pytest.raises(DomainError):
        oracle.ratfunc_floor_naive([1] * 1001, [1])
    with pytest.raises(DomainError):
        oracle.relation_naive("disjoint", PHI, PHI, oracle.RELATION_GUARD + 1)
    with pytest.raises(DomainError):  # floor(1/(big - small)) = 10^5
        oracle.separation_by_cases(Fraction(3), Fraction(3 * 10**5 + 1, 10**5))


def test_separation_by_cases_examples():
    # both >= 2: m = floor(1/(3 - 5/2)) = 2 and x = floor(3 * 5/2)
    assert oracle.separation_by_cases(Fraction(3), Fraction(5, 2)) == (7, "beta")
    assert oracle.separation_by_cases(Fraction(3, 2), Fraction(3)) == (1, "alpha")
    assert oracle.separation_by_cases(Fraction(3, 2), SQRT2) is None  # Claim 5.1: t = 9
    with pytest.raises(DomainError):
        oracle.separation_by_cases(PHI, PHI)


def test_naive_series_and_gcd_examples():
    assert oracle.series_product_naive([1, 1], [1, -1], 4) == [1, 0, -1, 0]
    assert oracle.series_inverse_naive([1, -1], 4) == [1, 1, 1, 1]
    assert oracle.poly_gcd_naive([-1, 0, 1], [2, 2]) == [1, 1]  # gcd(t^2 - 1, 2t + 2)
    assert oracle.poly_gcd_naive([0], []) == []
    # t^2/(t + 1) = t - 1 + 1/(t + 1); (2t - 1)/2 = t - 1/2 exactly
    assert oracle.ratfunc_floor_naive([0, 0, 1], [1, 1]) == ([-1, 1], [-1, 1])
    assert oracle.ratfunc_floor_naive([-1, 2], [2]) == ([-1, 1], [Fraction(-1, 2), 1])
    # 1 - 1/t lies below 1; the zero part of 1/(t + 1) has an empty list
    assert oracle.ratfunc_floor_naive([-1, 1], [0, 1]) == ([], [1])
    assert oracle.ratfunc_floor_naive([1], [1, 1]) == ([], [])
    with pytest.raises(DomainError):
        oracle.ratfunc_floor_naive([1], [0])
    # 5/4 and 3/2: floors agree at k = 1 and split at 2 (2 < 3)
    assert oracle.linf_scan(Fraction(5, 4), 0, Fraction(3, 2), 0, 4) == (1, 2, 1, 3)


def test_farey_walk_examples_and_guard():
    assert oracle.farey_walk(SQRT2_M1, 5) == ((2, 5), (1, 2))
    assert oracle.farey_walk(PHI_M1, 3) == ((1, 2), (2, 3))
    assert oracle.farey_walk(Fraction(2, 5), 5) == ((1, 3), (2, 5))  # lo < x <= hi
    assert oracle.farey_walk(Fraction(1), 4) == ((3, 4), (1, 1))
    for bad in (Fraction(0), Fraction(3, 2)):
        with pytest.raises(DomainError):
            oracle.farey_walk(bad, 5)
    with pytest.raises(DomainError):
        oracle.farey_walk(Fraction(1, 10**6), 10**6)  # ~10^6 steps


def test_beatty_naive_refuses_a_long_index_loop():
    """The scan is refused before it starts when it would pass the index a
    slope of 1 reaches at the largest cap; every slope >= 1 is admitted."""
    started = time.perf_counter()
    for alpha in (Fraction(1, 10**6), quad(0, 1, 10**12, 2), Fraction(99_999, 100_000)):
        with pytest.raises(ResourceLimitError):
            oracle.beatty_naive(alpha, oracle.BEATTY_GUARD)
    with pytest.raises(ResourceLimitError):
        oracle.beatty_naive(quad(0, 1, 10**12, 2), 3)  # about 2.8*10^12 indices
    assert time.perf_counter() - started < 1
    assert oracle.beatty_naive(Fraction(1, 2), 3) == {0, 1, 2, 3}
    assert len(oracle.beatty_naive(Fraction(1), oracle.BEATTY_GUARD)) == oracle.BEATTY_GUARD + 1
