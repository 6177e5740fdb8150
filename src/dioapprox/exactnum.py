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

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Union

from .errors import (
    DomainError,
    MixedRadicalError,
    ParseError,
    SquarefreeError,
)

__all__ = [
    "ExactReal",
    "QuadIrr",
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
    "least_denominator",
    "parse_exact",
    "quad",
    "radical_sign",
    "sign_of",
    "sqrt_int",
    "squarefree_split",
]

#: Trial-division limit used when certifying squarefree radicands.  A
#: radicand whose part free of primes up to this bound is a non-square
#: of at least its cube is rejected rather than silently trusted.
SQUAREFREE_TRIAL_BOUND = 10_000


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


def squarefree_split(d: int) -> tuple[int, int]:
    """Write sqrt(d) = s*sqrt(m) with m squarefree; return (s, m).

    Trial division only goes up to SQUAREFREE_TRIAL_BOUND; if the remaining
    factor is too large to certify squarefree the construction is refused.
    """
    if d <= 0:
        raise DomainError(f"radicand must be positive, got {d}")
    s = 1
    p = 2
    while p * p <= d and p <= SQUAREFREE_TRIAL_BOUND:
        sq = p * p
        while d % sq == 0:
            d //= sq
            s *= p
        p += 1 if p == 2 else 2
    if d > SQUAREFREE_TRIAL_BOUND**2:
        r = d  # squares are gone: strip the small primes, leaving ones above the bound
        for p in range(2, SQUAREFREE_TRIAL_BOUND + 1):
            if r % p == 0:
                r //= p
        root = isqrt(r)
        if root * root == r:
            return s * root, d // r
        if r >= SQUAREFREE_TRIAL_BOUND**3:  # below it, r has at most two prime factors
            raise SquarefreeError(
                f"cannot certify squarefree part of {d} with trial bound {SQUAREFREE_TRIAL_BOUND}"
            )
    return s, d


_setattr = object.__setattr__  # how QuadIrr.__init__ writes past its read-only guard


class QuadIrr:
    """Quadratic irrational (a + b*sqrt(d)) / c in canonical form.

    Use :func:`quad` to build one; the raw constructor does not
    normalize.  Instances are immutable values and mix freely with int
    and Fraction in arithmetic and comparisons.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        _setattr(self, "a", a)
        _setattr(self, "b", b)
        _setattr(self, "c", c)
        _setattr(self, "d", d)

    def __setattr__(self, name, *_):
        raise AttributeError(f"QuadIrr is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not QuadIrr:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __reduce__(self):  # pickle past the read-only guard
        return QuadIrr, (self.a, self.b, self.c, self.d)

    # -- arithmetic ----------------------------------------------------

    # An int or Fraction operand n/m enters by its own numerator and
    # denominator (an int has m = 1), with no Fraction built.

    def __add__(self, other):
        if other.__class__ is QuadIrr:
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
        if isinstance(other, _RATIONAL):
            n, m = other.numerator, other.denominator
            return _norm(self.a * m + n * self.c, self.b * m, self.c * m, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadIrr(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        if other.__class__ is QuadIrr:
            return self.__add__(-other)
        if isinstance(other, _RATIONAL):
            n, m = other.numerator, other.denominator
            return _norm(self.a * m - n * self.c, self.b * m, self.c * m, self.d)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RATIONAL):
            n, m = other.numerator, other.denominator
            return _norm(n * self.c - self.a * m, -self.b * m, self.c * m, self.d)
        return NotImplemented

    def __mul__(self, other):
        if other.__class__ is QuadIrr:
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
        if isinstance(other, _RATIONAL):
            n = other.numerator
            return _norm(self.a * n, self.b * n, self.c * other.denominator, self.d)
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
        if other.__class__ is QuadIrr:
            return self.__mul__(other.inverse())
        if isinstance(other, _RATIONAL):
            n, m = other.numerator, other.denominator
            if n == 0:
                raise ZeroDivisionError("division by zero")
            return _norm(self.a * m, self.b * m, self.c * n, self.d)
        return NotImplemented

    def __rtruediv__(self, other):
        # n/m over (a + b*sqrt(d))/c is n*c*(a - b*sqrt(d)) / (m*(a^2 - b^2*d))
        if isinstance(other, _RATIONAL):
            n, m = other.numerator, other.denominator
            return _norm(n * self.c * self.a, -n * self.c * self.b,
                         m * (self.a * self.a - self.b * self.b * self.d), self.d)
        return NotImplemented

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
_RATIONAL = (int, Fraction)
# What the kernel takes as is; ensure_exact coerces the rest.  QuadIrr comes
# first: only an exact type match skips Fraction's ABC instance check.
_EXACT = (QuadIrr, int, Fraction)


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


def quad(a: int, b: int, c: int, d: int) -> ExactReal:
    """Build (a + b*sqrt(d))/c exactly.

    The radicand has its square part extracted (``quad(0, 1, 1, 8)`` is
    ``(0 + 2*sqrt(2))/1``); values that turn out rational are returned
    as ``Fraction``.
    """
    if b == 0:
        return Fraction(a, c)
    s, m = squarefree_split(d)
    b = b * s
    if m == 1:
        return Fraction(a + b, c)
    return _norm(a, b, c, m)


def sqrt_int(d: int) -> ExactReal:
    """Exact square root of a positive integer."""
    return quad(0, 1, 1, d)


def ensure_exact(x) -> ExactReal:
    """Coerce int / Fraction / QuadIrr / str into an ExactReal."""
    if x.__class__ is QuadIrr or x.__class__ is Fraction:
        return x
    if isinstance(x, _RATIONAL):
        return Fraction(x)
    if isinstance(x, str):
        return parse_exact(x)
    raise DomainError(f"cannot interpret {x!r} as an exact number")


def is_rational(x: ExactReal) -> bool:
    return x.__class__ is not QuadIrr


def decompose(x) -> tuple[Fraction, Fraction, int]:
    """Write x as u + v*sqrt(d) with rational u, v.  Rationals get d = 1."""
    if isinstance(x, QuadIrr):
        return Fraction(x.a, x.c), Fraction(x.b, x.c), x.d
    return Fraction(x), Fraction(0), 1


# -- exact sign determination -----------------------------------------


def _sign_one(u, v, d: int) -> int:
    """Sign of u + v*sqrt(d) for any positive integer d; u and v are
    ints or Fractions."""
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


def _sign_two(u, v, d: int, w, e: int) -> int:
    """Sign of u + v*sqrt(d) + w*sqrt(e), both radicals live (d != e, both
    >= 2, not necessarily squarefree); u, v and w are ints or Fractions.

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
    """Total order on exact reals: -1, 0 or +1.  Works across radicands.

    Decided on the values' own integers, with no Fraction built: both
    sides go over c1*c2 > 0 (a rational n/m has b = 0, c = m), leaving
    the integer row (a1*c2 - a2*c1) + b1*c2*sqrt(d1) - b2*c1*sqrt(d2).
    Canonical radicands are squarefree, so d1 = d2 exactly when the two
    values share a field, and the row is then one radical; _sign_two
    decides any other pair.
    """
    if not isinstance(x, _EXACT):
        x = ensure_exact(x)
    if not isinstance(y, _EXACT):
        y = ensure_exact(y)
    if x.__class__ is QuadIrr:
        if y.__class__ is QuadIrr:
            u = x.a * y.c - y.a * x.c
            if x.d == y.d:
                return _sign_one(u, x.b * y.c - y.b * x.c, x.d)
            return _sign_two(u, x.b * y.c, x.d, -y.b * x.c, y.d)
        return _sign_one(x.a * y.denominator - y.numerator * x.c, x.b * y.denominator, x.d)
    if y.__class__ is QuadIrr:
        return -_sign_one(y.a * x.denominator - x.numerator * y.c, y.b * x.denominator, y.d)
    return _sgn(x.numerator * y.denominator - y.numerator * x.denominator)


def sign_of(x) -> int:
    if not isinstance(x, _EXACT):
        x = ensure_exact(x)
    if x.__class__ is QuadIrr:
        return _sign_one(x.a, x.b, x.d)  # c > 0
    return _sgn(x.numerator)


def floor_of(x) -> int:
    """Exact floor: the unique integer n with n <= x < n + 1."""
    if x.__class__ is not QuadIrr:
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            return x.numerator // x.denominator
        return floor_of(ensure_exact(x))
    t = x.b * x.b * x.d
    r = isqrt(t)
    # b*sqrt(d) is irrational (d squarefree >= 2), so r*r < t strictly.
    broot = r if x.b > 0 else -r - 1
    return (x.a + broot) // x.c


def ceil_of(x) -> int:
    if not isinstance(x, _EXACT):
        x = ensure_exact(x)
    if x.__class__ is QuadIrr:
        return floor_of(x) + 1
    return -((-x.numerator) // x.denominator)


def frac_of(x) -> ExactReal:
    """Fractional part x - floor(x), in [0, 1)."""
    x = ensure_exact(x)
    return x - floor_of(x)


def _walk(x) -> Iterator[tuple[int, int, int, int, int, int]]:
    """The continued-fraction walk of x: yields (a_k, p_k, q_k, P, Q, D)
    for k = 0, 1, ..., where x_k = (P + sqrt(D))/Q is the k-th complete
    quotient (x = [a_0; ..., a_(k-1), x_k]), a_k = floor(x_k) and
    p_k/q_k = [a_0; a_1, ..., a_k].

    A rational runs Euclid, has D = 0 and stops at its last quotient; a
    quadratic irrational never stops.  It is rewritten as (P + sqrt(D))/Q
    with Q | D - P^2, and the complete quotients follow the integer PQa
    recurrence P' = a*Q - P, Q' = (D - P'^2)/Q, with isqrt(D) taken once.
    """
    x = ensure_exact(x)
    p0, q0, p1, q1 = 0, 1, 1, 0  # p_{k-2}, q_{k-2}, p_{k-1}, q_{k-1}
    if x.__class__ is QuadIrr:
        a, c = (x.a, x.c) if x.b > 0 else (-x.a, -x.c)
        D, P, Q = x.b * x.b * x.d * c * c, a * abs(c), c * abs(c)
        r = isqrt(D)
        while True:
            # sqrt(D) is irrational, so floor((P + sqrt(D))/Q) = floor((P + r + [Q < 0])/Q)
            quo = (P + r + (Q < 0)) // Q
            p0, q0, p1, q1 = p1, q1, quo * p1 + p0, quo * q1 + q0
            yield quo, p1, q1, P, Q, D
            P = quo * Q - P
            Q = (D - P * P) // Q
    num, den = x.numerator, x.denominator
    while den:
        quo, rem = divmod(num, den)
        p0, q0, p1, q1 = p1, q1, quo * p1 + p0, quo * q1 + q0
        yield quo, p1, q1, num, den, 0
        num, den = den, rem


def convergents(x) -> Iterator[tuple[int, int, int]]:
    """Partial quotients and convergents of x: yields (a_k, p_k, q_k) for
    k = 0, 1, ..., with p_k/q_k = [a_0; a_1, ..., a_k].  A rational's
    stop at its last quotient; see _walk."""
    for a, p, q, _, _, _ in _walk(x):
        yield a, p, q


def least_denominator(lo, lo_in: bool, hi, hi_in: bool) -> int:
    """Least n >= 1 such that some j/n lies between lo < hi, each end
    included when its flag is set; the caller orders distinct ends.

    Continued-fraction descent (Khinchin, ch. I): if the least integer c
    in reach of lo is outside, the interval sits in (f, f + 1] for
    f = floor(lo), and x -> 1/(x - f) maps it, ends swapped, onto an
    interval whose least numerator is the least denominator here.  Each
    end maps on its own, so a step needs floor_of and one integer-vs-end
    compare, never a two-radical sign.  (q, q_prev) is the denominator
    row of the maps so far; hi = None stands for +infinity.
    """
    lo, hi = ensure_exact(lo), ensure_exact(hi)
    if lo == hi:  # canonical forms: equal irrational ends would never part
        raise DomainError("least_denominator needs lo < hi")
    q, q_prev = 0, 1
    while True:
        f = floor_of(lo)
        c = f if lo_in and lo == f else f + 1
        if hi is None or compare(c, hi) < 0:  # at c == hi, an included hi maps to 1, included
            return q * c + q_prev
        lo, hi = 1 / (hi - f), None if lo == f else 1 / (lo - f)
        lo_in, hi_in = hi_in, lo_in
        q, q_prev = q * f + q_prev, q


# -- textual I/O --------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        """The next character that is not whitespace, moving up to it; ''
        at the end."""
        text, pos = self.text, self.pos
        ch = text[pos:pos + 1]
        while ch.isspace():
            pos += 1
            ch = text[pos:pos + 1]
        self.pos = pos
        return ch

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def sign(self) -> int:
        """Take a '+' (1) or a '-' (-1); 0 when neither comes next."""
        ch = self.peek()
        if ch == "+" or ch == "-":
            self.pos += 1
            return 1 if ch == "+" else -1
        return 0

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.text, self.pos)

    def uint(self) -> int:
        self.peek()
        text, start = self.text, self.pos
        end = start
        while text[end:end + 1].isdigit():
            end += 1
        if end == start:
            raise ParseError("expected digits", text, start)
        self.pos = end
        try:
            return int(text[start:end])
        except ValueError:  # longer than the interpreter's int/str digit limit
            raise ParseError("too many digits", text, start) from None

    def word(self, w: str) -> bool:
        self.peek()
        if self.text.startswith(w, self.pos):
            self.pos += len(w)
            return True
        return False

    def done(self) -> bool:
        return not self.peek()


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
    sign = sc.sign() or 1
    first = _parse_term(sc)
    total: ExactReal = first * sign
    lone_int = isinstance(first, Fraction) and sign == 1
    while sign := sc.sign():
        term = _parse_term(sc)
        total = total + term if sign > 0 else total - term
        lone_int = False
    return total, lone_int


def parse_exact(text: str) -> ExactReal:
    """Parse ``p``, ``p/q``, ``(a+b*sqrt(d))/c`` or bare radical sums.

    Whitespace-insensitive; errors carry the offending position.
    """
    sc = _Scanner(text)
    outer_sign = sc.sign() or 1
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
