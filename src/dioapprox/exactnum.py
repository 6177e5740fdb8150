"""Exact number kernel.

Values are either rationals (``fractions.Fraction``) or quadratic
irrationals ``(a + b*sqrt(d))/c`` kept in a canonical form.  Every
operation, floor and comparison is decided by integer arithmetic alone;
no floating point appears on any code path.

The canonical form of a quadratic irrational is: ``c > 0``, ``d >= 2``
squarefree, ``b != 0`` and ``gcd(a, b, c) = 1``.  Constructions whose
value is actually rational (``b = 0`` or ``d`` a perfect square) come
out as ``Fraction``, so the type of a value always matches its
rationality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Union

from .errors import (
    DomainError,
    MixedRadicalError,
    ParseError,
    SquarefreeError,
    UnsupportedPairingError,
)

__all__ = [
    "ExactReal",
    "QuadIrr",
    "RelationForm",
    "ceil_of",
    "compare",
    "convergents",
    "decompose",
    "ensure_exact",
    "ext_gcd",
    "floor_of",
    "format_exact",
    "frac_of",
    "is_rational",
    "linear_relation_solve",
    "parse_exact",
    "quad",
    "radical_sign",
    "sign_of",
    "sqrt_int",
    "squarefree_split",
]

#: Trial-division limit used when certifying squarefree radicands.  A
#: radicand that is still larger than the square of this bound after
#: square extraction is rejected rather than silently trusted.
SQUAREFREE_TRIAL_BOUND = 10_000

NEG, ZERO, POS = -1, 0, 1
LT, EQ, GT = -1, 0, 1


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid.  Returns (g, x, y) with a*x + b*y = g = gcd(a,b) > 0."""
    if a == 0 and b == 0:
        raise DomainError("ext_gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def squarefree_split(d: int, bound: int = SQUAREFREE_TRIAL_BOUND) -> tuple[int, int]:
    """Write sqrt(d) = s*sqrt(m) with m squarefree; return (s, m).

    Trial division only goes up to ``bound``; if the remaining factor is
    too large to certify squarefree the construction is refused.
    """
    if d <= 0:
        raise DomainError(f"radicand must be positive, got {d}")
    s = 1
    p = 2
    while p * p <= d and p <= bound:
        sq = p * p
        while d % sq == 0:
            d //= sq
            s *= p
        p += 1 if p == 2 else 2
    r = isqrt(d)
    if r * r == d:
        return s * r, 1
    if d > bound * bound:
        raise SquarefreeError(
            f"cannot certify squarefree part of {d} with trial bound {bound}"
        )
    return s, d


@dataclass(frozen=True)
class QuadIrr:
    """Quadratic irrational (a + b*sqrt(d)) / c in canonical form.

    Use :func:`quad` to build one; the raw constructor does not
    normalize.  Instances are immutable values and mix freely with int
    and Fraction in arithmetic and comparisons.
    """

    a: int
    b: int
    c: int
    d: int

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QuadIrr):
            if other.d != self.d:
                raise MixedRadicalError(
                    f"cannot add sqrt({self.d}) and sqrt({other.d}) values exactly"
                )
            return _norm(
                self.a * other.c + other.a * self.c,
                self.b * other.c + other.b * self.c,
                self.c * other.c,
                self.d,
            )
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return _norm(
                self.a * other.denominator + other.numerator * self.c,
                self.b * other.denominator,
                self.c * other.denominator,
                self.d,
            )
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadIrr(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QuadIrr)):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self).__add__(Fraction(other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QuadIrr):
            if other.d != self.d:
                raise MixedRadicalError(
                    f"cannot multiply sqrt({self.d}) and sqrt({other.d}) values exactly"
                )
            return _norm(
                self.a * other.a + self.b * other.b * self.d,
                self.a * other.b + self.b * other.a,
                self.c * other.c,
                self.d,
            )
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return _norm(
                self.a * other.numerator,
                self.b * other.numerator,
                self.c * other.denominator,
                self.d,
            )
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QuadIrr":
        return _norm(
            self.c * self.a,
            -self.c * self.b,
            self.a * self.a - self.b * self.b * self.d,
            self.d,
        )

    def __truediv__(self, other):
        if isinstance(other, QuadIrr):
            return self.__mul__(other.inverse())
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self.__mul__(1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse().__mul__(Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result: ExactReal = Fraction(1)
        for _ in range(n):
            result = result * self if isinstance(result, QuadIrr) else self * result
        return result

    def __abs__(self):
        return self if sign_of(self) >= 0 else -self

    def conjugate(self) -> "QuadIrr":
        return QuadIrr(self.a, -self.b, self.c, self.d)

    # -- ordering ------------------------------------------------------

    def __lt__(self, other):
        return compare(self, other) < 0

    def __le__(self, other):
        return compare(self, other) <= 0

    def __gt__(self, other):
        return compare(self, other) > 0

    def __ge__(self, other):
        return compare(self, other) >= 0

    def __repr__(self):
        return f"QuadIrr({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        return format_exact(self)


ExactReal = Union[Fraction, QuadIrr]


def _norm(a: int, b: int, c: int, d: int) -> ExactReal:
    """Canonicalize (a + b*sqrt(d))/c; d is assumed squarefree already."""
    if c == 0:
        raise ZeroDivisionError("zero denominator in quadratic irrational")
    if c < 0:
        a, b, c = -a, -b, -c
    if b == 0:
        return Fraction(a, c)
    g = gcd(gcd(abs(a), abs(b)), c)
    if g > 1:
        a, b, c = a // g, b // g, c // g
    return QuadIrr(a, b, c, d)


def quad(a: int, b: int, c: int, d: int, *, trial_bound: int = SQUAREFREE_TRIAL_BOUND) -> ExactReal:
    """Build (a + b*sqrt(d))/c exactly.

    The radicand has its square part extracted (``quad(0, 1, 1, 8)`` is
    ``(0 + 2*sqrt(2))/1``); values that turn out rational are returned
    as ``Fraction``.
    """
    if b == 0:
        return Fraction(a, c)
    s, m = squarefree_split(d, trial_bound)
    b = b * s
    if m == 1:
        return Fraction(a + b, c)
    return _norm(a, b, c, m)


def sqrt_int(d: int) -> ExactReal:
    """Exact square root of a positive integer."""
    return quad(0, 1, 1, d)


def ensure_exact(x) -> ExactReal:
    """Coerce int / Fraction / QuadIrr / str into an ExactReal."""
    if isinstance(x, QuadIrr):
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        return parse_exact(x)
    raise DomainError(f"cannot interpret {x!r} as an exact number")


def is_rational(x: ExactReal) -> bool:
    return not isinstance(x, QuadIrr)


def decompose(x) -> tuple[Fraction, Fraction, int]:
    """Write x as u + v*sqrt(d) with rational u, v.  Rationals get d = 1."""
    if isinstance(x, QuadIrr):
        return Fraction(x.a, x.c), Fraction(x.b, x.c), x.d
    return Fraction(x), Fraction(0), 1


# -- exact sign determination -----------------------------------------


def _sign_one(u: Fraction, v: Fraction, d: int) -> int:
    """Sign of u + v*sqrt(d) for any positive integer d."""
    if v == 0:
        return _sgn(u)
    if u == 0:
        return _sgn(v)
    su, sv = _sgn(u), _sgn(v)
    if su == sv:
        return su
    t = u * u - v * v * d
    if t == 0:
        return 0
    return su * _sgn(t)


def _sign_two(u: Fraction, v: Fraction, d: int, w: Fraction, e: int) -> int:
    """Sign of u + v*sqrt(d) + w*sqrt(e), both radicals live (d != e, both
    >= 2, not necessarily squarefree).

    Isolate the radical pair, square once to compare against the
    rational part, and resolve the remaining single radical exactly.
    """
    if _sgn(v) == _sgn(w):
        s_rad = _sgn(v)
    else:
        t = v * v * d - w * w * e
        s_rad = _sgn(v) if t > 0 else (_sgn(w) if t < 0 else 0)
    if u == 0:
        return s_rad
    if s_rad == 0:
        return _sgn(u)
    if _sgn(u) == s_rad:
        return s_rad
    # Opposite signs: compare |v*sqrt(d) + w*sqrt(e)| with |u| by squaring,
    # with sqrt(d*e) = g*sqrt((d/g)*(e/g)) to keep the radicand small.
    g = gcd(d, e)
    sigma = _sign_one(v * v * d + w * w * e - u * u, 2 * v * w * g, (d // g) * (e // g))
    if sigma > 0:
        return s_rad
    if sigma < 0:
        return _sgn(u)
    return 0


def radical_sign(u, v=0, d=1, w=0, e=1) -> int:
    """Exact sign of u + v*sqrt(d) + w*sqrt(e); returns -1, 0 or +1.

    u, v, w may be ints or Fractions; d and e any positive integers.
    Squaring decides every sign, so no radicand is factored.
    """
    u, v, w = Fraction(u), Fraction(v), Fraction(w)
    if d < 1 or e < 1:
        raise DomainError("radicands must be positive integers")
    if d == 1:
        u, v = u + v, Fraction(0)
    if e == 1:
        u, w = u + w, Fraction(0)
    if v == 0 and w != 0:
        v, d, w, e = w, e, Fraction(0), 1
    if w != 0 and d == e:
        v, w, e = v + w, Fraction(0), 1
        if v == 0:
            d = 1
    if v == 0:
        return _sgn(u)
    if w == 0:
        return _sign_one(u, v, d)
    return _sign_two(u, v, d, w, e)


def compare(x, y) -> int:
    """Total order on exact reals: -1, 0 or +1.  Works across radicands."""
    if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
        return _sgn(Fraction(x) - Fraction(y))
    u1, v1, d1 = decompose(ensure_exact(x))
    u2, v2, d2 = decompose(ensure_exact(y))
    return radical_sign(u1 - u2, v1, d1, -v2, d2)


def sign_of(x) -> int:
    return compare(x, 0)


def floor_of(x) -> int:
    """Exact floor: the unique integer n with n <= x < n + 1."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    t = x.b * x.b * x.d
    r = isqrt(t)
    # b*sqrt(d) is irrational (d squarefree >= 2), so r*r < t strictly.
    broot = r if x.b > 0 else -r - 1
    return (x.a + broot) // x.c


def ceil_of(x) -> int:
    if isinstance(x, QuadIrr):
        return floor_of(x) + 1
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def frac_of(x) -> ExactReal:
    """Fractional part x - floor(x), in [0, 1)."""
    x = ensure_exact(x)
    return x - floor_of(x)


def convergents(x) -> Iterator[tuple[int, int, int]]:
    """Partial quotients and convergents of x: yields (a_k, p_k, q_k) for
    k = 0, 1, ..., with p_k/q_k = [a_0; a_1, ..., a_k].

    A rational runs Euclid and stops at its last quotient; a quadratic
    irrational never stops.  It is rewritten as (P + sqrt(D))/Q with
    Q | D - P^2, and the complete quotients follow the integer PQa
    recurrence P' = a*Q - P, Q' = (D - P'^2)/Q, with isqrt(D) taken once.
    """
    x = ensure_exact(x)
    p0, q0, p1, q1 = 0, 1, 1, 0  # p_{k-2}, q_{k-2}, p_{k-1}, q_{k-1}
    if isinstance(x, QuadIrr):
        a, c = (x.a, x.c) if x.b > 0 else (-x.a, -x.c)
        D, P, Q = x.b * x.b * x.d * c * c, a * abs(c), c * abs(c)
        r = isqrt(D)
        while True:
            # sqrt(D) is irrational, so floor((P + sqrt(D))/Q) = floor((P + r + [Q < 0])/Q)
            quo = (P + r + (Q < 0)) // Q
            p0, q0, p1, q1 = p1, q1, quo * p1 + p0, quo * q1 + q0
            yield quo, p1, q1
            P = quo * Q - P
            Q = (D - P * P) // Q
    num, den = x.numerator, x.denominator
    while den:
        quo, rem = divmod(num, den)
        p0, q0, p1, q1 = p1, q1, quo * p1 + p0, quo * q1 + q0
        yield quo, p1, q1
        num, den = den, rem


# -- linear relation certificates --------------------------------------


class RelationForm(Enum):
    """Linear forms in 1/alpha and 1/beta whose integer solutions act as
    set-relation certificates for floor sequences."""

    DISJOINT_UNIT = "a/alpha + b/beta = 1; a, b >= 1"
    COVER_UNIT = "a(1 - 1/alpha) + b(1 - 1/beta) = 1; a, b >= 1"
    SUBSET_UNIT = "a/alpha + b(1 - 1/beta) = 1; a, b >= 1"
    SUPSET_UNIT = "a(1 - 1/alpha) + b/beta = 1; a, b >= 1"
    MIXED_SIGN_INT = "a/alpha + b/beta = c; a*b < 0, c != 0"
    POSITIVE_INT = "a/alpha + b/beta = c; a, b, c >= 1, gcd(a,b,c) = 1, c > 1"


_UNIT_FORMS = (
    RelationForm.DISJOINT_UNIT,
    RelationForm.COVER_UNIT,
    RelationForm.SUBSET_UNIT,
    RelationForm.SUPSET_UNIT,
)


def _slot_values(alpha: ExactReal, beta: ExactReal, form: RelationForm):
    inv_a = 1 / alpha
    inv_b = 1 / beta
    if form in (RelationForm.DISJOINT_UNIT, RelationForm.MIXED_SIGN_INT,
                RelationForm.POSITIVE_INT):
        return inv_a, inv_b
    if form is RelationForm.COVER_UNIT:
        return 1 - inv_a, 1 - inv_b
    if form is RelationForm.SUBSET_UNIT:
        return inv_a, 1 - inv_b
    if form is RelationForm.SUPSET_UNIT:
        return 1 - inv_a, inv_b
    raise DomainError(f"unknown relation form {form}")


def _int_range_for(slope: int, intercept: int, lo: int, hi: int):
    """Integer t range with lo <= slope*t + intercept <= hi (slope != 0)."""
    if slope > 0:
        tmin = -((intercept - lo) // slope)          # ceil((lo - intercept)/slope)
        tmax = (hi - intercept) // slope
    else:
        tmin = -((intercept - hi) // slope)
        tmax = (lo - intercept) // slope
    return tmin, tmax


def _solve_unit_rational(x: Fraction, y: Fraction, bound: int):
    """Integer a, b >= 1 with a*x + b*y = 1, both at most bound.

    Among the solutions the one with the smallest b (then smallest a)
    is returned; None when none exist.
    """
    den = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    A = int(x * den)
    B = int(y * den)
    C = den
    if A == 0 and B == 0:
        return None
    if A == 0:
        if B == 0 or C % B or not (1 <= C // B <= bound):
            return None
        return (1, C // B, 1)
    if B == 0:
        if C % A or not (1 <= C // A <= bound):
            return None
        return (C // A, 1, 1)
    g, x0, y0 = ext_gcd(A, B)
    if C % g:
        return None
    a0 = x0 * (C // g)
    b0 = y0 * (C // g)
    sa, sb = B // g, -(A // g)
    ta_min, ta_max = _int_range_for(sa, a0, 1, bound)
    tb_min, tb_max = _int_range_for(sb, b0, 1, bound)
    tmin, tmax = max(ta_min, tb_min), min(ta_max, tb_max)
    if tmin > tmax:
        return None
    # smallest b: b is monotone in t, pick the endpoint that minimizes it
    t = tmax if sb < 0 else tmin
    return (a0 + sa * t, b0 + sb * t, 1)


def _solve_unit_quad(p: Fraction, q: Fraction, r: Fraction, s: Fraction, bound: int):
    """Integer a, b >= 1 with a(p + q*sqrt(d)) + b(r + s*sqrt(d)) = 1."""
    det = p * s - r * q
    if det == 0:
        return None
    a = s / det
    b = -q / det
    if a.denominator != 1 or b.denominator != 1:
        return None
    a, b = int(a), int(b)
    if not (1 <= a <= bound and 1 <= b <= bound):
        return None
    return (a, b, 1)


def _primitive_direction(q: Fraction, s: Fraction) -> tuple[int, int]:
    """Smallest integer (a, b) != 0 with a*q + b*s = 0, a > 0."""
    P = s.numerator * q.denominator
    R = q.numerator * s.denominator
    g = gcd(abs(P), abs(R))
    a1, b1 = P // g, -(R // g)
    if a1 < 0:
        a1, b1 = -a1, -b1
    return a1, b1


def _solve_scaled_quad(p: Fraction, q: Fraction, r: Fraction, s: Fraction,
                       form: RelationForm, bound: int):
    """FACT-C / FACT-D style solves: radical parts cancel, c is free."""
    a1, b1 = _primitive_direction(q, s)
    c1 = a1 * p + b1 * r
    if form is RelationForm.MIXED_SIGN_INT:
        if a1 * b1 >= 0 or c1 == 0:
            return None
        j = c1.denominator
        a, b, c = j * a1, j * b1, int(j * c1)
        if c < 0:
            a, b, c = -a, -b, -c
        if max(abs(a), abs(b), abs(c)) > bound:
            return None
        return (a, b, c)
    # POSITIVE_INT.  (a1, b1) is coprime, so at any multiple k of the
    # smallest integral scaling gcd(a, b, c) = k: only k = 1 can qualify.
    if b1 <= 0 or c1 <= 0:
        return None
    j = c1.denominator
    a, b, c = j * a1, j * b1, c1.numerator
    if c > 1 and max(a, b, c) <= bound:
        return (a, b, c)
    return None


def linear_relation_solve(alpha, beta, form: RelationForm, bound: int = 10**6):
    """Exact integer certificate (a, b, c) for the requested linear form,
    or None when no such integers exist.

    Supported pairings: both rational, or both quadratic irrationals over
    the same radicand (other irrational pairings raise).  For mixed
    rational/irrational input the radical part of the relation forces a
    zero coefficient, so unit forms return None.
    """
    alpha, beta = ensure_exact(alpha), ensure_exact(beta)
    if sign_of(alpha) <= 0 or sign_of(beta) <= 0:
        raise DomainError("relation solving requires positive alpha, beta")
    X, Y = _slot_values(alpha, beta, form)
    p, q, d1 = decompose(X)
    r, s, d2 = decompose(Y)
    if q != 0 and s != 0 and d1 != d2:
        raise UnsupportedPairingError(
            f"cannot solve exactly across sqrt({d1}) and sqrt({d2})"
        )
    if form in _UNIT_FORMS:
        if q == 0 and s == 0:
            return _solve_unit_rational(p, r, bound)
        if q == 0 or s == 0:
            # mixed pairing: the radical equation forces a zero coefficient
            return None
        return _solve_unit_quad(p, q, r, s, bound)
    if form in (RelationForm.MIXED_SIGN_INT, RelationForm.POSITIVE_INT):
        if q == 0 or s == 0:
            raise UnsupportedPairingError(
                "integer-combination forms need two irrational inputs"
            )
        return _solve_scaled_quad(p, q, r, s, form, bound)
    raise DomainError(f"unknown relation form {form}")


# -- textual I/O --------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.text, self.pos)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected digits", self.text, start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # longer than the interpreter's int/str digit limit
            raise ParseError("too many digits", self.text, start) from None

    def word(self, w: str) -> bool:
        self.skip_ws()
        if self.text.startswith(w, self.pos):
            self.pos += len(w)
            return True
        return False

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_term(sc: _Scanner) -> ExactReal:
    if sc.word("sqrt"):
        sc.expect("(")
        d = sc.uint()
        sc.expect(")")
        return quad(0, 1, 1, d)
    n = sc.uint()
    if sc.take("*"):
        if not sc.word("sqrt"):
            raise ParseError("expected sqrt(...) after '*'", sc.text, sc.pos)
        sc.expect("(")
        d = sc.uint()
        sc.expect(")")
        return quad(0, n, 1, d)
    return Fraction(n)


def _parse_sum(sc: _Scanner) -> tuple[ExactReal, bool]:
    """Parse a +/- chain of terms; also report whether it was one bare int."""
    sign = 1
    if sc.take("-"):
        sign = -1
    else:
        sc.take("+")
    first = _parse_term(sc)
    total: ExactReal = first * sign
    lone_int = isinstance(first, Fraction) and sign == 1
    while True:
        if sc.take("+"):
            total = total + _parse_term(sc)
        elif sc.take("-"):
            total = total - _parse_term(sc)
        else:
            return total, lone_int
        lone_int = False


def parse_exact(text: str) -> ExactReal:
    """Parse ``p``, ``p/q``, ``(a+b*sqrt(d))/c`` or bare radical sums.

    Whitespace-insensitive; errors carry the offending position.
    """
    sc = _Scanner(text)
    outer_sign = 1
    if sc.take("-"):
        outer_sign = -1
    else:
        sc.take("+")
    if sc.take("("):
        value, _ = _parse_sum(sc)
        sc.expect(")")
        den = sc.uint() if sc.take("/") else 1
    else:
        value, lone_int = _parse_sum(sc)
        if sc.peek() == "/":
            if not lone_int:
                raise ParseError(
                    "a denominator needs a parenthesized numerator", sc.text, sc.pos
                )
            sc.take("/")
            den = sc.uint()
        else:
            den = 1
    if not sc.done():
        raise ParseError("trailing input", sc.text, sc.pos)
    if den == 0:
        raise ParseError("zero denominator", sc.text, sc.pos)
    result = value * outer_sign
    if den != 1:
        result = result / den
    return result


def format_exact(x) -> str:
    """Canonical decimal-string serialization; parse_exact inverts it."""
    if isinstance(x, QuadIrr):
        sign = "+" if x.b >= 0 else "-"
        return f"({x.a}{sign}{abs(x.b)}*sqrt({x.d}))/{x.c}"
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
