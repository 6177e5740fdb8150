"""Farey series of order N: ordered enumeration, mediants, the floor embedding
into [0, N^2], and, from the last convergents within N, the neighbors of a
term, greatest-element search and exact bracketing by consecutive terms.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple

from .errors import DomainError, NotFoundError, RationalInputError
from .exactnum import ExactReal, _last_convergents, ensure_exact, floor_of, is_rational

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
    """Immediate right neighbor of f in its series (_neighbors)."""
    if f.h == f.k:
        raise DomainError("1/1 has no successor")
    h, k = _neighbors((f.h, 0, f.k, 1), f.order)[1]
    return farey_fraction(h, k, f.order)


def predecessor(f: FareyFraction) -> FareyFraction:
    """Immediate left neighbor of f in its series (_neighbors)."""
    if f.h == 0:
        raise DomainError("0/1 has no predecessor")
    h, k = _neighbors((f.h, 0, f.k, 1), f.order)[0]
    return farey_fraction(h, k, f.order)


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


def _neighbors(x, order: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The order-N terms (lo, hi) next to x in [0, 1] (a value or a row,
    _walk), from the last convergents p_(k-1)/q_(k-1), p_k/q_k of x with
    q_k <= N (_last_convergents).  On the side of p_(k-1) lies the
    semiconvergent (p_(k-1) + t*p_k)/(q_(k-1) + t*q_k), t = floor((N -
    q_(k-1))/q_k).  On the other lies p_k when x is not a term, and
    (s*p_k - p_(k-1))/(s*q_k - q_(k-1)), s = floor((N + q_(k-1))/q_k),
    when x = p_k/q_k is one.  p_(k-1) lies above x for even k, that is
    when p_k*q_(k-1) - p_(k-1)*q_k = (-1)^(k-1) is -1."""
    h0, k0, h1, k1, past = _last_convergents(x, order)
    t, s = (order - k0) // k1, (order + k0) // k1
    semi = (h0 + t * h1, k0 + t * k1)
    near = (s * h1 - h0, s * k1 - k0) if past[1] <= order else (h1, k1)
    return (semi, near) if h1 * k0 > h0 * k1 else (near, semi)


def greatest_below(order: int, m: int, *, strict: bool = True) -> FareyFraction:
    """Greatest series member whose phi-embedding is < m (or <= m when
    strict=False): the series term just below the rational bound m/N^2."""
    if order < 1:
        raise DomainError(f"series order must be >= 1, got {order}")
    cutoff = m if strict else m + 1
    if cutoff < 1:
        raise NotFoundError(f"no series member embeds below {m}")
    square = order * order
    if m > square:
        raise DomainError(f"m must be at most N^2 = {square}, got {m}")
    if cutoff > square:
        return farey_fraction(1, 1, order)
    h, k = _neighbors((cutoff, 0, square, 1), order)[0]
    return farey_fraction(h, k, order)


class FareyBracket(namedtuple("FareyBracket", "lo hi")):
    """Consecutive pair lo < hi of an order-N series enclosing a target."""

    __slots__ = ()

    def __new__(cls, lo: FareyFraction, hi: FareyFraction):
        if lo.order != hi.order:
            raise DomainError("bracket endpoints from different orders")
        if lo.k * hi.h - lo.h * hi.k != 1 or lo.k + hi.k <= lo.order:
            raise DomainError(f"{lo}..{hi} are not neighbors in the order-{lo.order} series")
        return super().__new__(cls, lo, hi)


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
    (lh, lk), (hh, hk) = _neighbors(alpha, order)
    return FareyBracket(FareyFraction(lh, lk, order), FareyFraction(hh, hk, order))
