"""Farey series of order N: ordered enumeration, neighbor computation via
Bezout shifts, mediants, the floor embedding into [0, N^2], greatest-element
search and exact bracketing by consecutive terms, from convergents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple

from .errors import DomainError, NotFoundError, RationalInputError
from .exactnum import ExactReal, convergents, ensure_exact, floor_of, is_rational

__all__ = [
    "FareyBracket",
    "FareyFraction",
    "MediantResult",
    "bracket",
    "farey_fraction",
    "greatest_below",
    "mediant",
    "phi_embed",
    "predecessor",
    "sequence",
    "successor",
]


class FareyFraction:
    """Reduced fraction h/k in [0, 1] viewed as a member of the order-N series.

    Construction through :func:`farey_fraction` validates the invariants;
    the bare constructor is the fast path used by the enumerator.
    """

    __slots__ = ("h", "k", "order")

    def __init__(self, h: int, k: int, order: int):
        self.h = h
        self.k = k
        self.order = order

    def value(self) -> Fraction:
        return Fraction(self.h, self.k)

    def __eq__(self, other):
        return (
            isinstance(other, FareyFraction)
            and self.h == other.h
            and self.k == other.k
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.h, self.k, self.order))

    def __lt__(self, other: "FareyFraction"):
        return self.h * other.k < other.h * self.k

    def __repr__(self):
        return f"FareyFraction({self.h}/{self.k}, order={self.order})"

    def __str__(self):
        return f"{self.h}/{self.k}"


def farey_fraction(h: int, k: int, order: int) -> FareyFraction:
    """Validated constructor: 0 <= h <= k <= order, k >= 1, gcd(h, k) = 1."""
    if order < 1:
        raise DomainError(f"series order must be >= 1, got {order}")
    if k < 1 or h < 0 or h > k or k > order:
        raise DomainError(f"{h}/{k} is not a member of the order-{order} series")
    if gcd(h, k) != 1:
        raise DomainError(f"{h}/{k} is not reduced")
    return FareyFraction(h, k, order)


def sequence(order: int) -> Iterator[FareyFraction]:
    """All terms of the order-N series in increasing order, 0/1 first.

    Uses the next-term recurrence driven by the neighbor identity
    k*h' - h*k' = 1, so each step is O(1) integer work.
    """
    if order < 1:
        raise DomainError(f"series order must be >= 1, got {order}")
    a, b, c, d = 0, 1, 1, order
    yield FareyFraction(0, 1, order)
    while c <= order:
        yield FareyFraction(c, d, order)
        step = (order + b) // d
        a, b, c, d = c, d, step * c - a, step * d - b


def successor(f: FareyFraction) -> FareyFraction:
    """Immediate right neighbor of f in its series.

    Solves k*x - h*y = 1 and shifts the solution so the denominator lands
    in (N-k, N]; the shifted pair is exactly the successor.
    """
    if f.h == f.k:
        raise DomainError("1/1 has no successor")
    from .exactnum import ext_gcd

    _, u, v = ext_gcd(f.k, f.h)
    x0, y0 = u, -v  # k*x0 - h*y0 = 1
    r = (f.order - y0) // f.k
    return farey_fraction(x0 + r * f.h, y0 + r * f.k, f.order)


def predecessor(f: FareyFraction) -> FareyFraction:
    """Immediate left neighbor: mirror construction with h*y - k*x = 1."""
    if f.h == 0:
        raise DomainError("0/1 has no predecessor")
    from .exactnum import ext_gcd

    _, u, v = ext_gcd(f.h, f.k)
    y0, x0 = u, -v  # h*y0 - k*x0 = 1
    r = (f.order - y0) // f.k
    return farey_fraction(x0 + r * f.h, y0 + r * f.k, f.order)


class MediantResult(NamedTuple):
    num: int
    den: int
    value: Fraction


def mediant(f: FareyFraction, g: FareyFraction) -> MediantResult:
    """(h+h')/(k+k'), reported both raw and reduced.  Requires f < g."""
    if not f < g:
        raise DomainError("mediant arguments must satisfy f < g")
    num, den = f.h + g.h, f.k + g.k
    return MediantResult(num, den, Fraction(num, den))


def phi_embed(f: FareyFraction) -> int:
    """floor(N^2 * h/k): strictly increasing along the order-N series."""
    return (f.order * f.order * f.h) // f.k


def _neighbors(terms, order: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The order-N terms (lo, hi) around a target that is not a term, from
    its convergents: the last p_k/q_k with q_k <= N, and the semiconvergent
    (p_{k-1} + t*p_k)/(q_{k-1} + t*q_k) with t = floor((N - q_{k-1})/q_k)
    on the other side.  Even k puts the convergent below."""
    h0, k0, h1, k1 = 0, 1, 1, 0
    below = False
    for _, h, k in terms:
        if k > order:
            break
        h0, k0, h1, k1 = h1, k1, h, k
        below = not below
    t = (order - k0) // k1
    semi = (h0 + t * h1, k0 + t * k1)
    return ((h1, k1), semi) if below else (semi, (h1, k1))


def greatest_below(order: int, m: int, *, strict: bool = True) -> FareyFraction:
    """Greatest series member whose phi-embedding is < m (or <= m when
    strict=False): the series term just below the rational bound m/N^2."""
    if order < 1:
        raise DomainError(f"series order must be >= 1, got {order}")
    cutoff = m if strict else m + 1
    if cutoff < 1:
        raise NotFoundError(f"no series member embeds below {m}")
    if m > order * order:
        raise DomainError(f"m must be at most N^2 = {order * order}, got {m}")
    target = Fraction(cutoff, order * order)
    if target > 1:
        return farey_fraction(1, 1, order)
    if target.denominator <= order:
        return predecessor(farey_fraction(target.numerator, target.denominator, order))
    h, k = _neighbors(convergents(target), order)[0]
    return farey_fraction(h, k, order)


@dataclass(frozen=True)
class FareyBracket:
    """Consecutive pair lo < hi of an order-N series enclosing a target."""

    lo: FareyFraction
    hi: FareyFraction

    def __post_init__(self):
        if self.lo.order != self.hi.order:
            raise DomainError("bracket endpoints from different orders")
        if self.lo.k * self.hi.h - self.lo.h * self.hi.k != 1:
            raise DomainError(
                f"{self.lo}..{self.hi} are not neighbors in the order-"
                f"{self.lo.order} series"
            )


def bracket(alpha: ExactReal, order: int) -> FareyBracket:
    """Consecutive series terms lo < alpha < hi for irrational alpha in (0,1).

    The last convergent with denominator <= N and one semiconvergent,
    in O(log N) integer steps.  Rationals are rejected since they can
    collide with a series term.
    """
    alpha = ensure_exact(alpha)
    if is_rational(alpha):
        raise RationalInputError("bracket needs an irrational target")
    if order < 1:
        raise DomainError(f"series order must be >= 1, got {order}")
    if floor_of(alpha) != 0:
        raise DomainError("bracket target must lie strictly between 0 and 1")
    (lh, lk), (hh, hk) = _neighbors(convergents(alpha), order)
    return FareyBracket(FareyFraction(lh, lk, order), FareyFraction(hh, hk, order))
