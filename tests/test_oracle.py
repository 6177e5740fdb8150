from fractions import Fraction
from math import gcd

import pytest

from dioapprox import oracle
from dioapprox.errors import DomainError
from support import PHI, SQRT2_M1, PHI_M1


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


def test_guards_are_hard_errors():
    with pytest.raises(DomainError):
        oracle.farey_naive(1001)
    with pytest.raises(DomainError):
        oracle.dirichlet_naive(PHI, 1001)
    with pytest.raises(DomainError):
        oracle.beatty_naive(PHI, 100_001)


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
