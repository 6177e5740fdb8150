"""Constructive rational approximation with exact certificate checking.

Every builder returns an :class:`Approximation` whose claimed inequality
has already been re-verified by exact arithmetic; :func:`verify` re-runs
that check on demand for any certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterator, NamedTuple, Optional

from . import farey
from .errors import DomainError, RationalInputError, ResourceLimitError
from .exactnum import (
    ExactReal,
    compare,
    convergents,
    decompose,
    ensure_exact,
    floor_of,
    is_rational,
    radical_sign,
    sign_of,
)

__all__ = [
    "ABOVE",
    "BELOW",
    "Approximation",
    "Bound",
    "dirichlet",
    "hurwitz",
    "large_denominator",
    "one_sided",
    "segre",
    "verify",
]

ABOVE = "above"
BELOW = "below"

#: Candidates past Q that segre and hurwitz try before giving up.
DEFAULT_MAX_ROUNDS = 64


class Bound(NamedTuple):
    """Which inequality an approximation certifies, with its parameters.

    kind          inequality                                   side condition
    dirichlet     |alpha - p/q| <= 1/(q*Q)                     1 <= q <= Q
    square        |alpha - p/q| <  1/q^2                       q > Q
    segre         -1/(sqrt(1+4t) q^2) < alpha - p/q
                                      < t/(sqrt(1+4t) q^2)     q > Q
    hurwitz       |alpha - p/q| < 1/(sqrt(5) q^2)              q > Q
    one_sided     0 < p/q - alpha < 1/q^2   (above)            q > Q
                  0 < alpha - p/q < 1/q^2   (below)
    """

    kind: str
    q_limit: int
    tau: Optional[Fraction] = None
    side: Optional[str] = None

    @classmethod
    def dirichlet(cls, q_cap: int) -> "Bound":
        return cls("dirichlet", q_cap)

    @classmethod
    def square(cls, q_floor: int) -> "Bound":
        return cls("square", q_floor)

    @classmethod
    def segre(cls, tau, q_floor: int) -> "Bound":
        return cls("segre", q_floor, tau=Fraction(tau))

    @classmethod
    def hurwitz(cls, q_floor: int) -> "Bound":
        return cls("hurwitz", q_floor)

    @classmethod
    def one_sided(cls, side: str, q_floor: int) -> "Bound":
        if side not in (ABOVE, BELOW):
            raise DomainError(f"side must be {ABOVE!r} or {BELOW!r}")
        return cls("one_sided", q_floor, side=side)

    def describe(self, q: int) -> str:
        if self.kind == "dirichlet":
            return f"1/{q * self.q_limit}"
        if self.kind in ("square", "one_sided"):
            return f"1/{q * q}"
        if self.kind == "hurwitz":
            return f"1/(sqrt(5)*{q * q})"
        w = 1 + 4 * self.tau
        return f"(-1/(sqrt({w})*{q * q}), {self.tau}/(sqrt({w})*{q * q}))"


class Approximation(NamedTuple):
    p: int
    q: int
    bound: Bound
    verified: bool

    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def _require_positive_irrational(alpha: ExactReal) -> ExactReal:
    alpha = ensure_exact(alpha)
    if is_rational(alpha):
        raise RationalInputError("approximation targets must be irrational")
    if sign_of(alpha) <= 0:
        raise DomainError("approximation targets must be positive")
    return alpha


def _abs_diff(alpha: ExactReal, p: int, q: int) -> ExactReal:
    diff = alpha - Fraction(p, q)
    return diff if compare(diff, 0) >= 0 else -diff


def _segre_bound_holds(alpha: ExactReal, p: int, q: int, tau: Fraction) -> bool:
    """Exact check of -1/(sqrt(w) q^2) < alpha - p/q < tau/(sqrt(w) q^2),
    with w = 1 + 4*tau, via two-radical sign determination."""
    w = 1 + 4 * tau
    wn, wd = w.numerator, w.denominator
    u, v, d = decompose(alpha - Fraction(p, q))
    # alpha - p/q + 1/(sqrt(w) q^2) > 0
    lower = radical_sign(u, v, d, Fraction(1, q * q * wn), wn * wd)
    if lower <= 0:
        return False
    # tau/(sqrt(w) q^2) - (alpha - p/q) > 0
    upper = radical_sign(-u, -v, d, Fraction(tau, q * q * wn), wn * wd)
    return upper > 0


def verify(alpha: ExactReal, appr: Approximation) -> bool:
    """Re-check an approximation certificate from scratch, exactly."""
    alpha = ensure_exact(alpha)
    p, q, bound = appr.p, appr.q, appr.bound
    if q < 1 or gcd(p, q) != 1:
        return False
    if bound.kind == "dirichlet":
        if q > bound.q_limit:
            return False
        return compare(_abs_diff(alpha, p, q), Fraction(1, q * bound.q_limit)) <= 0
    if q <= bound.q_limit:
        return False
    if bound.kind == "square":
        return compare(_abs_diff(alpha, p, q), Fraction(1, q * q)) < 0
    if bound.kind == "hurwitz":
        u, v, d = decompose(alpha - Fraction(p, q))
        mag_u, mag_v = (u, v) if radical_sign(u, v, d) >= 0 else (-u, -v)
        return radical_sign(-mag_u, -mag_v, d, Fraction(1, 5 * q * q), 5) > 0
    if bound.kind == "segre":
        return _segre_bound_holds(alpha, p, q, bound.tau)
    if bound.kind == "one_sided":
        diff = (
            Fraction(p, q) - alpha if bound.side == ABOVE else alpha - Fraction(p, q)
        )
        return compare(diff, 0) > 0 and compare(diff, Fraction(1, q * q)) < 0
    raise DomainError(f"unknown bound kind {bound.kind!r}")


def _finish(alpha: ExactReal, p: int, q: int, bound: Bound) -> Approximation:
    appr = Approximation(p, q, bound, verified=True)
    if not verify(alpha, appr):
        raise AssertionError(
            f"internal error: candidate {p}/{q} failed its own bound {bound}"
        )
    return appr


def dirichlet(alpha: ExactReal, q_cap: int) -> Approximation:
    """p/q with 1 <= q <= Q, gcd(p, q) = 1 and |alpha - p/q| <= 1/(q*Q).

    The fractional part is bracketed by consecutive order-Q series terms;
    whichever endpoint sits on alpha's side of their mediant satisfies
    the bound, because the mediant's denominator exceeds Q.
    """
    alpha = _require_positive_irrational(alpha)
    if q_cap < 1:
        raise DomainError(f"Q must be >= 1, got {q_cap}")
    whole = floor_of(alpha)
    beta = alpha - whole
    br = farey.bracket(beta, q_cap)
    med = farey.mediant(br.lo, br.hi)
    pick = br.lo if compare(beta, med.value) < 0 else br.hi
    return _finish(alpha, pick.h + whole * pick.k, pick.k, Bound.dirichlet(q_cap))


def _candidates(alpha: ExactReal) -> Iterator[tuple[int, int]]:
    """Each convergent of alpha and the intermediate fractions next to
    it, (p_{k-1} + p_k)/(q_{k-1} + q_k) and (p_{k+1} - p_k)/(q_{k+1} - q_k),
    in increasing q.  By Fatou-Grace every p/q with |alpha - p/q| < 1/q^2
    is among them."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    for a, p, q in convergents(alpha):
        for t in sorted({1, a - 1}):
            if 1 <= t < a:
                yield p0 + t * p1, q0 + t * q1
        yield p, q
        p0, q0, p1, q1 = p1, q1, p, q


def _first(alpha, q_floor, candidates, holds, budget, bound) -> Approximation:
    """The first of ``candidates`` with q > Q that ``holds``, trying at most
    ``budget`` of those, re-verified against ``bound``."""
    for p, q in islice(((p, q) for p, q in candidates if q > q_floor), budget):
        if holds(p, q):
            return _finish(alpha, p, q, bound)
    raise ResourceLimitError(
        f"no candidate passed the bound within {budget} candidates past Q = {q_floor}"
    )


def large_denominator(alpha: ExactReal, q_floor: int) -> Approximation:
    """p/q with q > Q and |alpha - p/q| < 1/q^2, all checked exactly.

    The first candidate past Q that passes.  Every convergent does, and
    at most two intermediate fractions precede the next one, so at most
    three are tried.
    """
    alpha = _require_positive_irrational(alpha)
    if q_floor < 1:
        raise DomainError(f"Q must be >= 1, got {q_floor}")
    return _first(
        alpha, q_floor, _candidates(alpha),
        lambda p, q: compare(_abs_diff(alpha, p, q), Fraction(1, q * q)) < 0,
        3, Bound.square(q_floor),
    )


def segre(alpha: ExactReal, tau, q_floor: int) -> Approximation:
    """Asymmetric approximation: q > Q with
    -1/(sqrt(1+4t) q^2) < alpha - p/q < t/(sqrt(1+4t) q^2).

    The first candidate past Q that passes.  For t <= 2 + sqrt(5) the
    region lies within 1/q^2 of alpha, so Segre's theorem puts infinitely
    many solutions among the candidates; for larger t every convergent
    below alpha passes.  DEFAULT_MAX_ROUNDS caps the candidates tried past Q.
    """
    alpha = _require_positive_irrational(alpha)
    tau = Fraction(tau)
    if tau < 0:
        raise DomainError(f"tau must be >= 0, got {tau}")
    if q_floor < 1:
        raise DomainError(f"Q must be >= 1, got {q_floor}")
    return _first(
        alpha, q_floor, _candidates(alpha),
        lambda p, q: _segre_bound_holds(alpha, p, q, tau),
        DEFAULT_MAX_ROUNDS, Bound.segre(tau, q_floor),
    )


def hurwitz(alpha: ExactReal, q_floor: int) -> Approximation:
    """p/q with q > Q and |alpha - p/q| < 1/(sqrt(5) q^2): the tau = 1 case
    of segre, verified once against the Hurwitz bound."""
    alpha = _require_positive_irrational(alpha)
    if q_floor < 1:
        raise DomainError(f"Q must be >= 1, got {q_floor}")
    return _first(
        alpha, q_floor, _candidates(alpha),
        lambda p, q: _segre_bound_holds(alpha, p, q, Fraction(1)),
        DEFAULT_MAX_ROUNDS, Bound.hurwitz(q_floor),
    )


def one_sided(alpha: ExactReal, q_floor: int, side: str) -> Approximation:
    """Approximation from one side only: tau = 0, mirrored for 'below'.

    'above': 0 < p/q - alpha < 1/q^2, from the first convergent past Q
    that lies above alpha (odd index).  Every such convergent passes:
    0 < p/q - alpha < 1/(q*q') < 1/q^2, with q' the next denominator.
    'below' takes the same convergent of ceil(alpha) - alpha, then
    reflects it back.
    """
    alpha = _require_positive_irrational(alpha)
    if side not in (ABOVE, BELOW):
        raise DomainError(f"side must be {ABOVE!r} or {BELOW!r}")
    if q_floor < 1:
        raise DomainError(f"Q must be >= 1, got {q_floor}")
    top = floor_of(alpha) + 1
    target = alpha if side == ABOVE else top - alpha
    p, q = next((p, q) for _, p, q in islice(convergents(target), 1, None, 2) if q > q_floor)
    return _finish(alpha, p if side == ABOVE else top * q - p, q, Bound.one_sided(side, q_floor))
