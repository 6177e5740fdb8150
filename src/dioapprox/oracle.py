"""Brute-force reference implementations.

These deliberately share no algorithmic machinery with the optimized
modules: enumeration is definition-chasing, sorting uses exact integer
keys, and hard guards keep them honest at small scale only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError
from .exactnum import ExactReal, compare, ensure_exact, floor_of

__all__ = ["beatty_naive", "dirichlet_naive", "farey_naive", "farey_walk"]

FAREY_GUARD = 1000
DIRICHLET_GUARD = 1000
BEATTY_GUARD = 100_000
WALK_GUARD = 50_000


def farey_naive(order: int) -> list[tuple[int, int]]:
    """Every reduced h/k with k <= order, sorted by exact value."""
    if not 1 <= order <= FAREY_GUARD:
        raise DomainError(f"farey_naive guard: need 1 <= N <= {FAREY_GUARD}")
    scale = lcm(*range(1, order + 1)) if order > 1 else 1
    pairs = []
    for k in range(1, order + 1):
        unit = scale // k
        for h in range(0, k + 1):
            if gcd(h, k) == 1:
                pairs.append((h * unit, h, k))
    pairs.sort()
    return [(h, k) for _, h, k in pairs]


def farey_walk(target: ExactReal, order: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Consecutive order-N terms lo < target <= hi, for 0 < target <= 1.

    Stern-Brocot mediant descent, one exact comparison per step, so the
    steps number the sum of the partial quotients up to N.
    """
    target = ensure_exact(target)
    if order < 1 or compare(target, 0) <= 0 or compare(target, 1) > 0:
        raise DomainError("farey_walk needs N >= 1 and 0 < target <= 1")
    lh, lk, hh, hk = 0, 1, 1, 1
    for _ in range(WALK_GUARD):
        mn, md = lh + hh, lk + hk
        if md > order:
            return (lh, lk), (hh, hk)
        if compare(Fraction(mn, md), target) < 0:
            lh, lk = mn, md
        else:
            hh, hk = mn, md
    raise DomainError(f"farey_walk guard: more than {WALK_GUARD} mediant steps")


def dirichlet_naive(alpha: ExactReal, q_cap: int) -> list[tuple[int, int]]:
    """All reduced (p, q), q <= cap, with |alpha - p/q| <= 1/(q*cap).

    Only the two integers nearest q*alpha can qualify, so the scan is
    exhaustive despite touching just two candidates per denominator.
    """
    if not 1 <= q_cap <= DIRICHLET_GUARD:
        raise DomainError(f"dirichlet_naive guard: need 1 <= Q <= {DIRICHLET_GUARD}")
    alpha = ensure_exact(alpha)
    hits = []
    for q in range(1, q_cap + 1):
        base = floor_of(alpha * q)
        for p in (base, base + 1):
            if gcd(p, q) != 1:
                continue
            diff = alpha - Fraction(p, q)
            mag = diff if compare(diff, 0) >= 0 else -diff
            if compare(mag, Fraction(1, q * q_cap)) <= 0:
                hits.append((p, q))
    return hits


def beatty_naive(alpha: ExactReal, cap: int) -> set[int]:
    """Members of the floor sequence of alpha that do not exceed cap."""
    if not 0 <= cap <= BEATTY_GUARD:
        raise DomainError(f"beatty_naive guard: need 0 <= M <= {BEATTY_GUARD}")
    alpha = ensure_exact(alpha)
    if compare(alpha, 0) <= 0:
        raise DomainError("beatty_naive needs alpha > 0")
    members = set()
    n = 0
    while True:
        v = floor_of(alpha * n)
        if v > cap:
            return members
        members.add(v)
        n += 1
