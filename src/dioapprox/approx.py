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

from .errors import DomainError, RationalInputError, ResourceLimitError
from .exactnum import (
    ExactReal,
    _last_convergents,
    _row,
    _sign_one,
    _walk,
    compare,
    ensure_exact,
    ensure_rational,
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

#: Candidates past Q that segre tries before giving up.
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
        tau = ensure_rational(tau, "tau")
        if tau < 0:
            raise DomainError(f"tau must be >= 0, got {tau}")
        return cls("segre", q_floor, tau=tau)

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

    def window(self) -> tuple:
        """(lo, hi, w) of a bound that needs q > Q: it holds when
        alpha - p/q lies strictly inside (-lo, hi)/(sqrt(w) q^2)."""
        if self.kind == "square":
            return 1, 1, 1
        if self.kind == "hurwitz":
            return 1, 1, 5
        if self.kind == "segre":
            return 1, self.tau, 1 + 4 * self.tau
        if self.kind == "one_sided":
            return (1, 0, 1) if self.side == ABOVE else (0, 1, 1)
        raise DomainError(f"unknown bound kind {self.kind!r}")


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


def verify(alpha: ExactReal, appr: Approximation) -> bool:
    """Re-check an approximation certificate from scratch, exactly."""
    alpha = ensure_exact(alpha)
    p, q, bound = appr.p, appr.q, appr.bound
    if q < 1 or gcd(p, q) != 1:
        return False
    if bound.kind == "dirichlet":  # alpha within 1/(q*Q) of p/q: in [p*Q - 1, p*Q + 1]/(q*Q)
        Q = bound.q_limit
        return (q <= Q and compare(alpha, Fraction(p * Q - 1, q * Q)) >= 0
                and compare(alpha, Fraction(p * Q + 1, q * Q)) <= 0)
    if q <= bound.q_limit:
        return False
    lo, hi, w = bound.window()
    # 1/(sqrt(w) q^2) = s*sqrt(e), with w = wn/wd, s = 1/(q^2 wn) and e = wn*wd
    wn, wd = w.numerator, w.denominator
    s, e = Fraction(1, q * q * wn), wn * wd
    # alpha - p/q = u + v*sqrt(d) for alpha's row (a, b, c, d)
    a, b, c, d = _row(alpha)
    u, v = Fraction(a * q - p * c, c * q), Fraction(b, c)
    # alpha - p/q + lo*s*sqrt(e) > 0, then hi*s*sqrt(e) - (alpha - p/q) > 0
    return radical_sign(u, v, d, lo * s, e) > 0 and radical_sign(-u, -v, d, hi * s, e) > 0


def _finish(alpha: ExactReal, p: int, q: int, bound: Bound) -> Approximation:
    appr = Approximation(p, q, bound, verified=True)
    if not verify(alpha, appr):
        raise AssertionError(
            f"internal error: candidate {p}/{q} failed its own bound {bound}"
        )
    return appr


def dirichlet(alpha: ExactReal, q_cap: int) -> Approximation:
    """p/q with 1 <= q <= Q, gcd(p, q) = 1 and |alpha - p/q| <= 1/(q*Q).

    The last convergent p_k/q_k with q_k <= Q (_last_convergents), alpha's
    order-Q Farey neighbor on its side: the next denominator exceeds Q, so
    |alpha - p_k/q_k| < 1/(q_k q_(k+1)) < 1/(q_k Q) (Hardy & Wright, ch. X).
    """
    alpha = _require_positive_irrational(alpha)
    if q_cap < 1:
        raise DomainError(f"Q must be >= 1, got {q_cap}")
    _, _, p, q, _ = _last_convergents(alpha, q_cap)
    return _finish(alpha, p, q, Bound.dirichlet(q_cap))


def _candidates(alpha: ExactReal, bound: Bound,
                intermediates: bool) -> Iterator[tuple[int, int, bool]]:
    """Each candidate p/q past Q, in increasing q, with whether it lies
    inside ``bound``'s window, decided without a Fraction.

    At step k the candidates are r = (p_(k-2) + t*p_(k-1))/m with
    m = q_(k-2) + t*q_(k-1): the convergent (t = a_k) and, with
    ``intermediates``, the intermediate fractions t = 1 and t = a_k - 1.
    From the complete quotient alpha_k,
    m^2 (alpha - r) = (-1)^k (alpha_k - t) m / (alpha_k q_(k-1) + q_(k-2))
    exactly (Hardy & Wright, ch. X), which is never 0 and lies on the side
    k's parity gives.  So the window needs one end c, hi for even k and
    lo for odd k: c^2 (alpha_k q_(k-1) + q_(k-2))^2 > w m^2 (alpha_k - t)^2.
    With alpha_k = (P + sqrt(D))/Q, c = cn/cd and w = wn/wd, times
    Q^2 cd^2 wd that is cn^2 wd (X1 + q_(k-1) sqrt(D))^2 >
    wn cd^2 m^2 (X2 + sqrt(D))^2, where X1 = P q_(k-1) + Q q_(k-2) and
    X2 = P - t Q: one sign on integers (c = 0 never passes).
    """
    lo, hi, w = bound.window()
    wn, wd = w.numerator, w.denominator
    for k, (a, p, q, p1, q1, P, Q, D) in enumerate(_walk(alpha)):
        if q > bound.q_limit:  # the convergent, the last of step k's candidates, is past Q
            p0, q0 = p - a * p1, q - a * q1  # p_(k-2), q_(k-2)
            c = lo if k & 1 else hi
            cn, cd = c.numerator, c.denominator
            L, X1 = cn * cn * wd, P * q1 + Q * q0
            L0, L1 = L * (X1 * X1 + q1 * q1 * D), L * X1 * q1
            ts = (a,) if not intermediates or a < 2 else (1, a) if a == 2 else (1, a - 1, a)
            for t in ts:
                m = q0 + t * q1
                if m > bound.q_limit:
                    R, X2 = wn * cd * cd * m * m, P - t * Q
                    inside = _sign_one(L0 - R * (X2 * X2 + D), 2 * (L1 - R * X2), D) > 0
                    yield p0 + t * p1, m, inside


def _first(alpha: ExactReal, bound: Bound, budget: int, intermediates: bool) -> Approximation:
    """The first of at most ``budget`` candidates past Q that lies inside
    ``bound``'s window, re-checked once by ``verify``."""
    for p, q, inside in islice(_candidates(alpha, bound, intermediates), budget):
        if inside:
            return _finish(alpha, p, q, bound)
    raise ResourceLimitError(
        f"no candidate passed the bound within {budget} candidates past Q = {bound.q_limit}"
    )


def large_denominator(alpha: ExactReal, q_floor: int) -> Approximation:
    """p/q with q > Q and |alpha - p/q| < 1/q^2, all checked exactly.

    The first candidate past Q that passes the window test on the
    complete quotient (see _candidates), and verify re-checks only that
    one.  Every convergent passes, and at most two intermediate fractions
    precede the next one, so at most three are tried.
    """
    alpha = _require_positive_irrational(alpha)
    if q_floor < 1:
        raise DomainError(f"Q must be >= 1, got {q_floor}")
    return _first(alpha, Bound.square(q_floor), 3, True)


def segre(alpha: ExactReal, tau, q_floor: int) -> Approximation:
    """Asymmetric approximation: q > Q with
    -1/(sqrt(1+4t) q^2) < alpha - p/q < t/(sqrt(1+4t) q^2).

    The first candidate past Q that passes the window test on the
    complete quotient (see _candidates), and verify re-checks only that
    one.  For t <= 2 + sqrt(5) the region lies within 1/q^2 of alpha, so
    Segre's theorem puts infinitely many solutions among the candidates;
    for larger t every convergent below alpha passes.  DEFAULT_MAX_ROUNDS
    caps the candidates tried past Q.
    """
    alpha = _require_positive_irrational(alpha)
    bound = Bound.segre(tau, q_floor)
    if q_floor < 1:
        raise DomainError(f"Q must be >= 1, got {q_floor}")
    return _first(alpha, bound, DEFAULT_MAX_ROUNDS, True)


def hurwitz(alpha: ExactReal, q_floor: int) -> Approximation:
    """p/q with q > Q and |alpha - p/q| < 1/(sqrt(5) q^2).

    The first convergent past Q that passes the window test on the
    complete quotient (see _candidates), and verify re-checks only that
    one.  Only convergents lie within 1/(2q^2) of alpha (Legendre; Hardy &
    Wright, Th. 184), and of any three consecutive convergents one passes
    (Borel; Th. 195), so at most three are tried.
    """
    alpha = _require_positive_irrational(alpha)
    if q_floor < 1:
        raise DomainError(f"Q must be >= 1, got {q_floor}")
    return _first(alpha, Bound.hurwitz(q_floor), 3, False)


def one_sided(alpha: ExactReal, q_floor: int, side: str) -> Approximation:
    """Approximation from one side only: 0 < p/q - alpha < 1/q^2 ('above')
    or 0 < alpha - p/q < 1/q^2 ('below').

    The first convergent past Q on the requested side, by the window
    test on the complete quotient (see _candidates); verify re-checks only
    that one.  Convergents alternate sides, and each lies within
    1/(q*q') <= 1/q^2 of alpha, with q' the next denominator, so at most
    two are tried.
    """
    alpha = _require_positive_irrational(alpha)
    bound = Bound.one_sided(side, q_floor)
    if q_floor < 1:
        raise DomainError(f"Q must be >= 1, got {q_floor}")
    return _first(alpha, bound, 2, False)
