"""Brute-force reference implementations.

These deliberately share no algorithmic machinery with the optimized
modules: enumeration is definition-chasing, sorting uses exact integer
keys, and hard guards keep them honest at small scale only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import DomainError, ResourceLimitError
from .exactnum import ExactReal, ceil_of, compare, ensure_exact, floor_of, is_rational

__all__ = [
    "beatty_naive",
    "dirichlet_naive",
    "farey_naive",
    "farey_walk",
    "frac_scan",
    "linf_scan",
    "poly_gcd_naive",
    "ratfunc_floor_naive",
    "relation_naive",
    "separation_by_cases",
    "series_inverse_naive",
    "series_product_naive",
]

FAREY_GUARD = 1000
DIRICHLET_GUARD = 1000
BEATTY_GUARD = 100_000
FRAC_GUARD = 100_000
WALK_GUARD = 50_000
LINF_GUARD = 100_000
SERIES_GUARD = 1000
SEPARATION_GUARD = 10_000
RELATION_GUARD = 20


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
    """Members of the floor sequence of alpha that do not exceed cap.  The
    scan takes one exact floor for each n up to ceil((cap + 1)/alpha), the
    first index past cap; it is refused (ResourceLimitError) before it
    starts when that index passes the one a slope of 1 reaches at
    cap = BEATTY_GUARD."""
    if not 0 <= cap <= BEATTY_GUARD:
        raise DomainError(f"beatty_naive guard: need 0 <= M <= {BEATTY_GUARD}")
    alpha = ensure_exact(alpha)
    if compare(alpha, 0) <= 0:
        raise DomainError("beatty_naive needs alpha > 0")
    last = ceil_of((cap + 1) / alpha)
    if last > BEATTY_GUARD + 1:
        raise ResourceLimitError(
            f"beatty_naive guard: reaching {cap} takes {last} indices, past {BEATTY_GUARD + 1}"
        )
    members = set()
    n = 0
    while True:
        v = floor_of(alpha * n)
        if v > cap:
            return members
        members.add(v)
        n += 1


def frac_scan(windows, limit: int) -> Optional[int]:
    """Least n in 1..limit with lo < frac(n*slope) < hi for every
    (slope, lo, hi) in windows, or None: each fractional part is
    n*slope - floor(n*slope), compared exactly at every index."""
    if not 0 <= limit <= FRAC_GUARD:
        raise DomainError(f"frac_scan guard: need 0 <= limit <= {FRAC_GUARD}")
    for n in range(1, limit + 1):
        fracs = ((s * n - floor_of(s * n), lo, hi) for s, lo, hi in windows)
        if all(compare(f, lo) > 0 and compare(f, hi) < 0 for f, lo, hi in fracs):
            return n
    return None


def series_product_naive(a: list, b: list, width: int) -> list[Fraction]:
    """The first ``width`` coefficients of the product of two coefficient
    lists: schoolbook, one Fraction addition per term."""
    if max(width, len(a), len(b)) > SERIES_GUARD:
        raise DomainError(f"series_product_naive guard: at most {SERIES_GUARD} terms")
    out = [Fraction(0)] * width
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < width:
                out[i + j] += Fraction(x) * Fraction(y)
    return out


def series_inverse_naive(a: list, width: int) -> list[Fraction]:
    """The first ``width`` coefficients of 1/a for a[0] != 0, by the
    recurrence sum(a[k] * inv[n - k], 0 <= k <= n) = (n == 0)."""
    if not a or a[0] == 0:
        raise DomainError("series_inverse_naive needs a nonzero constant term")
    if max(width, len(a)) > SERIES_GUARD:
        raise DomainError(f"series_inverse_naive guard: at most {SERIES_GUARD} terms")
    inv: list[Fraction] = []
    for n in range(width):
        acc = Fraction(1 if n == 0 else 0)
        for k in range(1, min(n, len(a) - 1) + 1):
            acc -= Fraction(a[k]) * inv[n - k]
        inv.append(acc / Fraction(a[0]))
    return inv


def linf_scan(s, s_sign: int, r, r_sign: int, m: int):
    """First k in 1..m with floor(k*sigma) = floor(k*rho) and
    floor((k+1)*sigma) < floor((k+1)*rho), for sigma = s + d and
    rho = r + e with rational s, r and infinitesimals of signs s_sign,
    r_sign.  Returns (k, floor((k+1)*sigma), floor(k*rho),
    floor((k+1)*rho)), or None when the floors never split so.
    """
    if not 0 <= m <= LINF_GUARD:
        raise DomainError(f"linf_scan guard: need 0 <= m <= {LINF_GUARD}")

    def fl(n, x, sign):
        x = n * Fraction(x)
        down = x.numerator // x.denominator
        return down - 1 if x.denominator == 1 and sign < 0 else down

    for k in range(1, m + 1):
        if fl(k, s, s_sign) == fl(k, r, r_sign):
            lo, hi = fl(k + 1, s, s_sign), fl(k + 1, r, r_sign)
            if lo < hi:
                return k, lo, fl(k, r, r_sign), hi
    return None


def _strip(p: list) -> list[Fraction]:
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_gcd_naive(a: list, b: list) -> list[Fraction]:
    """Monic gcd of two coefficient lists (ascending powers) by Euclid
    over the rationals; [] when both are zero."""
    a, b = _strip(a), _strip(b)
    if max(len(a), len(b)) > SERIES_GUARD:
        raise DomainError(f"poly_gcd_naive guard: at most {SERIES_GUARD} coefficients")
    while b:
        while len(a) >= len(b):
            factor, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            a = _strip(a)
            if not a:
                break
        a, b = b, a
    return [c / a[-1] for c in a] if a else []


def ratfunc_floor_naive(num: list, den: list) -> tuple[list[Fraction], list[Fraction]]:
    """The floor of num/den in the Laurent model (t positively infinite)
    and the polynomial part it comes from, by long division over the
    rationals: num = part * den + rem.  The tail rem/den is
    infinitesimal, so it lowers the floor below the part only when the
    part's constant is an integer and the tail is negative.  Lists
    ascend in powers of t, without trailing zeros."""
    num, den = _strip(num), _strip(den)
    if not den:
        raise DomainError("ratfunc_floor_naive needs a nonzero denominator")
    if max(len(num), len(den)) > SERIES_GUARD:
        raise DomainError(f"ratfunc_floor_naive guard: at most {SERIES_GUARD} coefficients")
    part = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    rem = list(num)
    for shift in range(len(num) - len(den), -1, -1):
        part[shift] = rem[shift + len(den) - 1] / den[-1]
        for i, c in enumerate(den):
            rem[shift + i] -= part[shift] * c
    rem = _strip(rem)
    negative_tail = bool(rem) and (rem[-1] < 0) != (den[-1] < 0)
    c0 = part[0]
    base = c0.numerator // c0.denominator - (c0.denominator == 1 and negative_tail)
    return _strip([base] + part[1:]), _strip(part)


def relation_naive(kind, alpha, beta, box: int):
    """The least (a, b, c) with |a|, |b|, |c| <= box that certifies `kind`
    for slopes alpha, beta, or None: least |b|, then least |a|, then the
    largest c.  Each relation is written out as Bang states it, and every
    (a, b) in the box is tried against the two integers c next to
    floor(a*X) + floor(b*Y), each by one exact comparison, which also
    holds across two quadratic fields.
    """
    if not 0 <= box <= RELATION_GUARD:
        raise DomainError(f"relation_naive guard: need 0 <= box <= {RELATION_GUARD}")
    u, v = 1 / ensure_exact(alpha), 1 / ensure_exact(beta)

    def unit(a, b, c):
        return a >= 1 and b >= 1 and c == 1

    (x, y), holds = {  # the slots X, Y of a*X + b*Y = c, and the condition on (a, b, c)
        "partition": ((u, v), lambda a, b, c: a == b == c == 1),
        "disjoint": ((u, v), unit),
        "cover": ((1 - u, 1 - v), unit),
        "subset": ((u, 1 - v), unit),
        "fact_f_prime": ((u, 1 - v), unit),
        "fact_c": ((u, v), lambda a, b, c: a * b < 0 and c != 0),
        "fact_d": ((u, v), lambda a, b, c: a >= 1 and b >= 1 and c >= 2 and gcd(gcd(a, b), c) == 1),
    }[getattr(kind, "value", kind)]
    hits = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            ax, by = a * x, b * y
            low = floor_of(ax) + floor_of(by)  # a*X + b*Y lies in [low, low + 2)
            for c in (low, low + 1):
                if abs(c) <= box and compare(ax, c - by) == 0 and holds(a, b, c):
                    hits.append((a, b, c))
    return min(hits, key=lambda h: (abs(h[1]), abs(h[0]), -h[2]), default=None)


def _floor_inv_gap(big: ExactReal, small: ExactReal) -> int:
    """floor(1/(big - small)) for big > small: the largest m with
    m*big <= m*small + 1, one exact compare per candidate."""
    m = 0
    while compare((m + 1) * big, (m + 1) * small + 1) <= 0:
        m += 1
        if m > SEPARATION_GUARD:
            raise DomainError(f"separation guard: 1/(big - small) > {SEPARATION_GUARD}")
    return m


def separation_by_cases(alpha, beta):
    """The paper's constructions of an integer x in exactly one of the
    floor sequences of distinct alpha, beta > 1: (x, the name of the
    input whose sequence holds x), or None where none applies.

    With m = floor(1/(big - small)), x = floor((m+1)*small) for small >= 2
    and x = 1 for small < 2 <= big.  Two slopes in (1, 2) of one kind pass
    to their conjugates x/(x - 1); for two rationals that witness may
    fail, giving None.  A rational rho and an irrational beta in (1, 2)
    use m = floor((rho-1)(beta-1)/|rho-beta|): below beta, x is
    floor((m+1)*beta/(beta-1)); above it, floor(t) for
    t = (m+1)*rho/(rho-1), and None when t is an integer (Claim 5.1).
    """
    alpha, beta = ensure_exact(alpha), ensure_exact(beta)
    order = compare(alpha, beta)
    if compare(alpha, 1) <= 0 or compare(beta, 1) <= 0 or order == 0:
        raise DomainError("separation_by_cases needs distinct alpha, beta > 1")
    (small, name), big = ((beta, "beta"), alpha) if order > 0 else ((alpha, "alpha"), beta)
    if compare(small, 2) >= 0:
        return floor_of((_floor_inv_gap(big, small) + 1) * small), name
    if compare(big, 2) >= 0:
        return 1, name
    gam = big / (big - 1)  # the conjugate of big, below that of small
    if is_rational(small) == is_rational(big):
        x = floor_of((_floor_inv_gap(small / (small - 1), gam) + 1) * gam)
        if is_rational(small) and x not in beatty_naive(small, x) - beatty_naive(big, x):
            return None
        return x, name
    m = floor_of((small - 1) * (big - 1) / (big - small))
    if is_rational(small):
        return floor_of((m + 1) * gam), name
    t = (m + 1) * gam
    return None if t.denominator == 1 else (floor_of(t), name)
