"""Exact number kernel.

Values are either rationals (``fractions.Fraction``) or quadratic
irrationals ``(a + b*sqrt(d))/c`` kept in a canonical form.  Every
operation, floor and comparison is decided by integer arithmetic alone;
no floating point appears on any code path.

The canonical form of a quadratic irrational is: ``c > 0``, ``d >= 2``
not a square, ``b != 0`` and ``gcd(a, b, c) = 1``.  Constructions whose
value is actually rational (``b = 0`` or ``d`` a perfect square) come
out as ``Fraction``, so the type of a value always matches its
rationality.  A radicand is kept as written and never factored:
``sqrt(d)`` and ``sqrt(e)`` share a field exactly when ``d*e`` is a
perfect square (``_over``), and arithmetic reads both operands over the
smaller radicand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Union

from .errors import DomainError, MixedRadicalError, ParseError

__all__ = [
    "ExactReal",
    "QuadIrr",
    "ceil_of",
    "compare",
    "convergents",
    "ensure_exact",
    "ensure_rational",
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
]


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


# The row formulas: two rows (a1, b1, c1) and (a2, b2, c2) over one
# radicand d in, a canonical value out (_norm).


def _sum(a1, b1, c1, a2, b2, c2, d) -> ExactReal:
    return _norm(a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2, d)


def _difference(a1, b1, c1, a2, b2, c2, d) -> ExactReal:
    return _norm(a1 * c2 - a2 * c1, b1 * c2 - b2 * c1, c1 * c2, d)


def _product(a1, b1, c1, a2, b2, c2, d) -> ExactReal:
    return _norm(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, c1 * c2, d)


def _quotient(a1, b1, c1, a2, b2, c2, d) -> ExactReal:
    """Times the conjugate a2 - b2*sqrt(d) over and under: the norm
    a2^2 - b2^2*d is 0 only for a zero divisor."""
    return _norm(c2 * (a1 * a2 - b1 * b2 * d), c2 * (b1 * a2 - a1 * b2),
                 c1 * (a2 * a2 - b2 * b2 * d), d)


def _arith(formula, verb: str, reflected: bool = False):
    """A QuadIrr arithmetic method: formula on this value's row and the
    other operand's, both read over the smaller radicand (_row), so
    x + y and y + x print alike; a reflected method swaps the rows.  Any
    operand but an int, Fraction, QuadIrr or string (a float too) gives
    NotImplemented, so Python tries the other operand's method and raises
    TypeError if that fails as well."""

    def method(self, other, reflected=reflected):
        if not isinstance(other, _OPERAND):
            return NotImplemented
        if other.__class__ is QuadIrr and other.d < self.d:
            return method(other, self, not reflected)
        a, b, c, d = _row(other, self.d, verb)
        if reflected:
            return formula(a, b, c, self.a, self.b, self.c, d)
        return formula(self.a, self.b, self.c, a, b, c, d)

    return method


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

    def __eq__(self, other):  # across radicands (sqrt(P^2*Q), P*sqrt(Q)) compare decides
        if other.__class__ is not QuadIrr:
            return NotImplemented
        if self.d == other.d:
            return self.a == other.a and self.b == other.b and self.c == other.c
        return compare(self, other) == 0

    def __hash__(self):  # a/c, b^2*d/c^2 and the sign of b fix the value, whatever d is
        a, b, c = self.a, self.b, self.c
        return hash((Fraction(a, c), Fraction(b * b * self.d, c * c), b > 0))

    def __reduce__(self):  # pickle past the read-only guard
        return QuadIrr, (self.a, self.b, self.c, self.d)

    # -- arithmetic: one row formula each (_arith) ---------------------

    __add__ = __radd__ = _arith(_sum, "add")
    __sub__ = _arith(_difference, "add")
    __rsub__ = _arith(_difference, "add", reflected=True)
    __mul__ = __rmul__ = _arith(_product, "multiply")
    __truediv__ = _arith(_quotient, "multiply")
    __rtruediv__ = _arith(_quotient, "multiply", reflected=True)

    def __neg__(self):
        return QuadIrr(-self.a, -self.b, self.c, self.d)

    def inverse(self) -> "QuadIrr":
        return _reciprocal(self)

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
_OPERAND = (QuadIrr, int, Fraction, str)  # what _arith hands to _row


def _row(x, d: int = 1, verb: str = "") -> tuple[int, int, int, int]:
    """x as integers (a, b, c, e) meaning (a + b*sqrt(e))/c with c > 0.

    A QuadIrr gives its fields; an int or Fraction n/m gives (n, 0, m, d),
    over the radicand d of the value it meets (1: the rationals).  A string
    is parsed and a float refused, as ensure_exact does.  A QuadIrr over
    another radicand than a given d >= 2 is read over d (_over), and
    raises MixedRadicalError, here only, when the two share no field.
    QuadIrr is tested by exact type first: only that skips Fraction's ABC
    instance check.
    """
    if x.__class__ is QuadIrr:
        row = x.a, x.b, x.c, x.d
        if d > 1 and x.d != d and (row := _over(row, d)) is None:
            raise MixedRadicalError(f"cannot {verb} sqrt({d}) and sqrt({x.d}) values exactly")
        return row
    if isinstance(x, _RATIONAL):
        return x.numerator, 0, x.denominator, d
    return _row(ensure_exact(x), d, verb)


def _over(row: tuple, d: int) -> tuple | None:
    """The row (a, b, c, e) read over the radicand d, or None across two
    fields: sqrt(d) and sqrt(e) share one exactly when d*e is a perfect
    square r^2 (Cohen, sec. 5.1), and then sqrt(e) = (r/d)*sqrt(d)."""
    a, b, c, e = row
    if e == d or not b:
        return a, b, c, d
    r = isqrt(d * e)
    return None if r * r != d * e else (a * d, b * r, c * d, d)


def _reciprocal(x) -> ExactReal:
    return _quotient(1, 0, 1, *_row(x))


def _norm(a: int, b: int, c: int, d: int) -> ExactReal:
    """Canonicalize (a + b*sqrt(d))/c; d is a non-square radicand already."""
    if c == 0:
        raise ZeroDivisionError("division by zero")
    if c < 0:
        a, b, c = -a, -b, -c
    if b == 0:
        return Fraction(a, c)
    g = gcd(gcd(abs(a), abs(b)), c)
    if g > 1:
        a, b, c = a // g, b // g, c // g
    return QuadIrr(a, b, c, d)


def quad(a: int, b: int, c: int, d: int) -> ExactReal:
    """Build (a + b*sqrt(d))/c exactly from four ints, the radicand d > 0
    kept as written.

    ``quad(0, 1, 1, 8)`` is ``QuadIrr(0, 1, 1, 8)``: it equals, hashes and
    compares as ``2*sqrt(2)``, since a QuadIrr's equality reads its value.
    A value that is rational (b = 0 or d a perfect square) comes out as a
    ``Fraction``.  Any argument but an int (a float too) is a DomainError.
    """
    try:
        if d <= 0:
            raise DomainError(f"radicand must be positive, got {d}")
        if b == 0:
            return Fraction(a, c)
        r = isqrt(d)
        return Fraction(a + b * r, c) if r * r == d else _norm(a, b, c, d)
    except TypeError:  # only a non-int argument gets here
        raise DomainError(f"quad takes four ints, got {(a, b, c, d)!r}") from None


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


def ensure_rational(x, name: str) -> Fraction:
    """ensure_exact for an argument that must be rational."""
    x = ensure_exact(x)
    if x.__class__ is QuadIrr:
        raise DomainError(f"{name} must be rational, got {x}")
    return x


def is_rational(x: ExactReal) -> bool:
    return x.__class__ is not QuadIrr


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
    return su * _sgn(u * u - v * v * d)


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
    # Opposite signs: the radical pair wins exactly when its square passes
    # u^2, with sqrt(d*e) = g*sqrt((d/g)*(e/g)) to keep the radicand small.
    g = gcd(d, e)
    return s_rad * _sign_one(v * v * d + w * w * e - u * u, 2 * v * w * g, (d // g) * (e // g))


def radical_sign(u, v=0, d=1, w=0, e=1) -> int:
    """Exact sign of u + v*sqrt(d) + w*sqrt(e); returns -1, 0 or +1.

    u, v, w are ints or Fractions (anything else, a float too, is a
    DomainError); d and e any positive integers.  Squaring decides every
    sign, so no radicand is factored.
    """
    if not (isinstance(u, _RATIONAL) and isinstance(v, _RATIONAL) and isinstance(w, _RATIONAL)):
        raise DomainError(f"radical_sign takes ints and Fractions, got {u!r}, {v!r}, {w!r}")
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
    if w == 0:  # after the swap, v = 0 leaves w = 0 too
        return _sign_one(u, v, d)
    return _sign_two(u, v, d, w, e)


def compare(x, y) -> int:
    """Total order on exact reals: -1, 0 or +1.  Works across radicands.

    Decided on the values' own rows (_row), with no Fraction built: both
    sides go over c1*c2 > 0, leaving the integer row
    (a1*c2 - a2*c1) + b1*c2*sqrt(d1) - b2*c1*sqrt(d2).  The row is one
    radical when d1 = d2 or either side is rational (b = 0); _sign_two
    decides any other pair, whether or not the two share a field.
    """
    a1, b1, c1, d1 = _row(x)
    a2, b2, c2, d2 = _row(y)
    u, v, w = a1 * c2 - a2 * c1, b1 * c2, b2 * c1
    if d1 == d2 or not (v and w):
        return _sign_one(u, v - w, d1 if v else d2)
    return _sign_two(u, v, d1, -w, d2)


def sign_of(x) -> int:
    a, b, _, d = _row(x)
    return _sign_one(a, b, d)  # c > 0


def floor_of(x) -> int:
    """Exact floor: the unique integer n with n <= x < n + 1."""
    a, b, c, d = _row(x)
    return _floor_row(a, b, c, d)


def _floor_row(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d))/c) for c > 0.  Unless b = 0, b*sqrt(d) is
    irrational (d >= 2 is not a square), so r = isqrt(b*b*d) has
    r*r < b*b*d."""
    r = isqrt(b * b * d)
    return (a + (r if b >= 0 else -r - 1)) // c


def ceil_of(x) -> int:
    return _ceil_row(*_row(x))


def _ceil_row(a: int, b: int, c: int, d: int) -> int:
    """ceil((a + b*sqrt(d))/c) for c > 0: -floor(-x), -x having the row
    (-a, -b, c, d)."""
    r = isqrt(b * b * d)
    return -((-a + (r if b <= 0 else -r - 1)) // c)


def frac_of(x) -> ExactReal:
    """Fractional part x - floor(x), in [0, 1)."""
    x = ensure_exact(x)
    return x - floor_of(x)


def _state(x) -> tuple[int, int, int, int]:
    """x as integers (P, Q, D, r) meaning (P + sqrt(D))/Q, with Q | D - P^2
    and r = isqrt(D); a rational is P/Q with Q > 0 and D = r = 0.  From
    the row (a, b, c, d), D = b^2*d*c^2 and (P, Q) = (a*c, c*c), negated
    when b < 0.  x is a value or a row tuple, which need not be reduced."""
    a, b, c, d = x if x.__class__ is tuple else _row(x)
    if not b:
        return a, c, 0, 0
    s = c if b > 0 else -c
    D = b * b * d * c * c
    return a * s, c * s, D, isqrt(D)


def _walk(x) -> Iterator[tuple[int, int, int, int, int, int, int, int]]:
    """The continued-fraction walk of x (a value or a row, _state): yields
    (a_k, p_k, q_k, p_(k-1), q_(k-1), P, Q, D) for k = 0, 1, ..., where
    x_k = (P + sqrt(D))/Q is the k-th complete quotient
    (x = [a_0; ..., a_(k-1), x_k]), a_k = floor(x_k),
    p_k/q_k = [a_0; a_1, ..., a_k] and p_(-1)/q_(-1) = 1/0.

    A rational runs Euclid, has D = 0 and stops at its last quotient; a
    quadratic irrational never stops.  Its complete quotients (_state)
    follow the integer PQa recurrence P' = a*Q - P, Q' = (D - P'^2)/Q,
    with isqrt(D) taken once.
    """
    P, Q, D, r = _state(x)
    p0, q0, p1, q1 = 0, 1, 1, 0  # p_{k-2}, q_{k-2}, p_{k-1}, q_{k-1}
    if D:
        while True:
            # sqrt(D) is irrational, so floor((P + sqrt(D))/Q) = floor((P + r + [Q < 0])/Q)
            quo = (P + r + (Q < 0)) // Q
            p0, q0, p1, q1 = p1, q1, quo * p1 + p0, quo * q1 + q0
            yield quo, p1, q1, p0, q0, P, Q, D
            P = quo * Q - P
            Q = (D - P * P) // Q
    while Q:  # Euclid on P/Q
        quo, rem = divmod(P, Q)
        p0, q0, p1, q1 = p1, q1, quo * p1 + p0, quo * q1 + q0
        yield quo, p1, q1, p0, q0, P, Q, 0
        P, Q = Q, rem


def _first_hit(a: int, b: int, m: int, l: int, r: int) -> int | None:
    """Least x >= 0 with (a*x + b) mod m in the arc [l, r] of Z/mZ, or
    None when there is none (possible only when gcd(a, m) > 1); m >= 1
    and 0 <= l, r < m, an arc with l > r wrapping past m - 1 to 0.

    The arc has w = (r - l) mod m + 1 residues, so rotated by -l it is
    [0, w - 1]: x = 0 when (b - l) mod m is below w, and otherwise the
    question is a*x mod m in a plain [L, R] with 0 < L <= R < m.  That
    question is one Euclid step on (a, m) (Ostrowski numeration in
    integer form; V. T. Sos 1958, the three-distance theorem):
    - a = 0 never leaves 0 < L: None.
    - The least x with a*x >= L is ceil(L/a), and it answers when
      a*ceil(L/a) <= R; every smaller x has a*x mod m = a*x < L.
    - Otherwise no multiple of a lies in [L, R], so [L, R] sits inside
      one gap (j*a, (j+1)*a).  a*x mod m = a*x - m*y lies in [L, R]
      exactly when a multiple of a lies in [L + m*y, R + m*y], that is
      when (m mod a)*y mod a lies in [(-R) mod a, (-L) mod a], a plain
      interval inside [1, a - 1].  The least x for a given y is
      ceil((L + m*y)/a), which grows with y, so the least y answers: the
      same question on (m mod a, a).
    The descent keeps its levels on a list, not the call stack, and
    each level takes one divmod.  The levels are the Euclid steps of
    (a, m), at most log_phi(m) + 2 by Lame's theorem, however large x.
    """
    a %= m
    w = (r - l) % m + 1
    b = (b - l) % m
    if b < w:
        return 0
    L, R = m - b, m - b + w - 1
    levels = []
    while True:
        if not a:
            return None
        k, s = divmod(-L, a)  # a*ceil(L/a) = L + s, ceil(L/a) = -k
        if s <= R - L:
            break
        levels.append((a, m, L))
        a, m, L, R = m % a, a, -R % a, s
    x = -k
    for a, m, L in reversed(levels):
        x = -(-(L + m * x) // a)
    return x


def convergents(x) -> Iterator[tuple[int, int, int]]:
    """Partial quotients and convergents of x: yields (a_k, p_k, q_k) for
    k = 0, 1, ..., with p_k/q_k = [a_0; a_1, ..., a_k].  A rational's
    stop at its last quotient; see _walk."""
    for step in _walk(x):
        yield step[:3]


def _last_convergents(x, n: int) -> tuple[int, int, int, int, tuple[int, int]]:
    """(p_(k-1), q_(k-1), p_k, q_k, past) for the last convergent p_k/q_k of
    x (a value or a row, _walk) with q_k <= n, n >= 0 (p_(-1)/q_(-1) = 1/0
    answers n = 0).  past = (p, q) is p_(k+1)/q_(k+1), the first convergent
    past n, or x = p_k/q_k itself when x is a rational whose walk ends
    within n, so q <= n exactly when x = p_k/q_k.  p_(k-1) is
    p_(k+1) - a_(k+1)*p_k.

    So floor(j*x) = j*p // q for 0 <= j <= n, which the Beatty windows and
    searches read: unless x = p/q outright, 0 < j < q and
    |j*x - j*p/q| <= j/(q*q') < 1/q, with q' the denominator after q,
    while j*p/q lies 1/q or more from every integer.
    """
    for step in _walk(x):
        if step[2] > n:
            a, p, q, p1, q1 = step[:5]
            return p - a * p1, q - a * q1, p1, q1, (p, q)
    _, p, q, p1, q1 = step[:5]
    return p1, q1, p, q, (p, q)


def least_denominator(lo, lo_in: bool, hi, hi_in: bool) -> int:
    """Least n >= 1 such that some j/n lies between lo < hi, each end
    included when its flag is set.

    Continued-fraction descent (Khinchin, ch. I): if the least integer c
    in reach of lo is outside, the interval sits in (f, f + 1] for
    f = floor(lo), and x -> 1/(x - f) maps it, ends swapped, onto an
    interval whose least numerator is the least denominator here.  Each
    end maps on its own as _walk's integer state (P, Q, D, r) (_state):
    floor as _walk takes it, x - f is P - f*Q, 1/x is (-P, (D - P^2)/Q)
    (a rational swaps P and Q), and c < hi is one integer sign, so a step
    builds no value, takes no gcd and needs no two-radical sign.
    (q, q_prev) is the denominator row of the maps so far; hi = None
    stands for +infinity.
    """
    lo, hi = ensure_exact(lo), ensure_exact(hi)
    if compare(lo, hi) >= 0:  # equal irrational ends would never part
        raise DomainError("least_denominator needs lo < hi")
    lo, hi = _state(lo), _state(hi)
    q, q_prev = 0, 1
    while True:
        P, Q, D, r = lo
        f = (P + r + (Q < 0)) // Q
        at_f = not D and P == f * Q  # lo == f
        c = f if lo_in and at_f else f + 1
        if hi is None:
            return q * c + q_prev
        P, Q, D, _ = hi
        # c < hi: (P - c*Q)*Q + Q*sqrt(D) > 0; at c == hi, an included hi maps to 1, included
        if _sign_one((P - c * Q) * Q, Q if D else 0, D) > 0:
            return q * c + q_prev
        lo, hi = _flip(hi, f), None if at_f else _flip(lo, f)
        lo_in, hi_in = hi_in, lo_in
        q, q_prev = q * f + q_prev, q


def _flip(state: tuple, f: int) -> tuple[int, int, int, int]:
    """The state of 1/(x - f) for x > f."""
    P, Q, D, r = state
    P -= f * Q
    return (-P, (D - P * P) // Q, D, r) if D else (Q, P, 0, 0)


# -- textual I/O --------------------------------------------------------


class _Scanner:
    """Tokens of a text.  Whitespace is skipped once, after each token, so
    pos always rests on a character that is not whitespace, or at the end."""

    def __init__(self, text: str):
        self.text = text
        self._move(0)

    def _move(self, pos: int) -> None:
        text = self.text
        while text[pos:pos + 1].isspace():
            pos += 1
        self.pos = pos

    def peek(self) -> str:
        """The next character; '' at the end."""
        return self.text[self.pos:self.pos + 1]

    def take(self, ch: str) -> bool:
        if self.text[self.pos:self.pos + 1] == ch:
            self._move(self.pos + 1)
            return True
        return False

    def sign(self) -> int:
        """Take a '+' (1) or a '-' (-1); 0 when neither comes next."""
        ch = self.text[self.pos:self.pos + 1]
        if ch == "+" or ch == "-":
            self._move(self.pos + 1)
            return 1 if ch == "+" else -1
        return 0

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.text, self.pos)

    def uint(self) -> int:
        text, start = self.text, self.pos
        end = start
        while text[end:end + 1].isdecimal():  # the digits int() reads
            end += 1
        if end == start:
            raise ParseError("expected digits", text, start)
        try:
            n = int(text[start:end])
        except ValueError:  # longer than the interpreter's int/str digit limit
            raise ParseError("too many digits", text, start) from None
        self._move(end)
        return n

    def word(self, w: str) -> bool:
        if self.text.startswith(w, self.pos):
            self._move(self.pos + len(w))
            return True
        return False

    def done(self) -> bool:
        return self.pos == len(self.text)


def _parse_term(sc: _Scanner) -> ExactReal:
    n = 1  # n, sqrt(d) or n*sqrt(d)
    if not sc.word("sqrt"):
        n = sc.uint()
        if not sc.take("*"):
            return Fraction(n)
        if not sc.word("sqrt"):
            raise ParseError("expected sqrt(...) after '*'", sc.text, sc.pos)
    sc.expect("(")
    d = sc.uint()
    sc.expect(")")
    return quad(0, n, 1, d)


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
    a, b, c, d = _row(x)
    if b:
        sign = "+" if b > 0 else "-"
        return f"({a}{sign}{abs(b)}*sqrt({d}))/{c}"
    if c == 1:
        return str(a)
    return f"{a}/{c}"
