"""A concrete non-Archimedean ordered field with a floor.

The field is the rational functions / Laurent series in eps = 1/t over
the rationals, ordered by making t positively infinite: the sign of an
element is the sign of its lowest-order eps coefficient.  The integer
part consists of polynomials in t whose constant coefficient is an
integer; between 0 and 1 it contains nothing, and every element of the
field has a unique floor in it.

Two backends carry elements: RatFunc (exact quotients of polynomials)
and EpsSeries (eager truncations with tracked precision).  Rational
functions are exact everywhere; series operations propagate the window
of known coefficients and refuse to answer sign questions the window
cannot settle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat, zip_longest
from math import gcd, lcm
from operator import mul as _imul
from typing import Iterable, NamedTuple, Optional, Union

from .errors import (
    DomainError,
    IndeterminateSignError,
    ParseError,
    PrecisionError,
    ResourceLimitError,
)
from .exactnum import _Scanner, least_denominator

__all__ = [
    "COEFF_BITS_LIMIT",
    "DEFAULT_PRECISION",
    "DEGREE_LIMIT",
    "EpsSeries",
    "IPElem",
    "LaurentElem",
    "LinfReport",
    "PRECISION_LIMIT",
    "Poly",
    "RatFunc",
    "add",
    "beatty_nonarch",
    "compare",
    "div",
    "floor_ip",
    "format_laurent",
    "is_finite",
    "is_infinitesimal",
    "linf_experiment",
    "mul",
    "parse_laurent",
    "sign_of",
    "sqrt1p_eps",
    "std_part",
    "sub",
    "to_series",
]

DEFAULT_PRECISION = 64
# Input size guards: at these bounds linf on 1 + A/B and 3/2 + C/D, with
# A/B and C/D dense of degree DEGREE_LIMIT - 1 over DEGREE_LIMIT and 7-bit
# coefficients, takes about 1.5 ms on a 2-core machine, and the unreduced
# difference holds about 3.7k bits.  At PRECISION_LIMIT a series quotient by a window
# of random denominators meets COEFF_BITS_LIMIT within 40 ms, the square of
# sqrt1p(eps) takes about 25 ms and its inverse about 50 ms; a product of
# two windows of random denominators up to 10^6 meets it within 0.2 s, and
# one of denominators up to 1,000 answers in about 0.4 s.
DEGREE_LIMIT = 64  # largest exponent of t the parser accepts
COEFF_BITS_LIMIT = 4096  # most bits a RatFunc's integer coefficients may hold, plus one each
PRECISION_LIMIT = 600  # largest series precision that may be requested


def _check_precision(prec: int) -> None:
    if prec > PRECISION_LIMIT:
        raise ResourceLimitError(
            f"precision {prec} exceeds PRECISION_LIMIT = {PRECISION_LIMIT}"
        )


def _held(bits: int, what: str, at: Optional[int] = None) -> None:
    """Refuse a value of ``bits`` bits past COEFF_BITS_LIMIT.  ``what`` names
    it, with '{}' where a series coefficient's index ``at`` goes."""
    if bits > COEFF_BITS_LIMIT:
        raise ResourceLimitError(f"{what.format(at)} holds {bits} bits, past COEFF_BITS_LIMIT = {COEFF_BITS_LIMIT}")


class Poly:
    """Polynomial in t over the rationals; coefficients ascending, each an
    int when integral and a Fraction otherwise."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if type(c) is int else _rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Union[int, Fraction]:
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Union[int, Fraction]:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(_padd(self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(_padd(self.coeffs, [-c for c in other.coeffs]))

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(_pmul(self.coeffs, other.coeffs))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __str__(self):
        return _poly_str(self)


def _rational(c) -> Union[int, Fraction]:
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _lc_sign(cs) -> int:  # of the last (leading) coefficient; 0 for none
    return (cs[-1] > 0) - (cs[-1] < 0) if cs else 0


def _poly(cs) -> Poly:
    """A Poly of integer coefficients, ascending and without trailing
    zeros, taken as they are."""
    p = object.__new__(Poly)
    p.coeffs = tuple(cs)
    return p


def _padd(x, y) -> list:
    out = [a + b for a, b in zip_longest(x, y, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _pmul(x, y) -> list:
    out = [0] * (len(x) + len(y) - 1) if x and y else []
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b
    return out


def _pquo(x, g) -> list[int]:
    """x / g for integer polynomials where g divides x in Z[t]."""
    if len(g) == 1:
        return list(x) if g[0] == 1 else [c // g[0] for c in x]
    q, _, s = _pdivmod(x, g)
    return [c // s for c in q]


def _zgcd(x, y) -> list[int]:
    """The gcd in Z[t] of two nonzero integer polynomials, lc > 0: the
    gcd of their contents times that of their primitive parts (Gauss's
    lemma).  A constant operand takes no polynomial gcd."""
    c = gcd(*x, *y)
    if len(x) == 1 or len(y) == 1:
        return [c]
    g = _poly_gcd(_primitive(x), _primitive(y))
    return g if c == 1 else [c * v for v in g]


def _primitive(cs: list[int]) -> list[int]:
    """Integer coefficients without their content, leading one positive."""
    g = gcd(*cs) if cs[-1] > 0 else -gcd(*cs)
    return [c // g for c in cs]


def _poly_gcd(x: list[int], y: list[int]) -> list[int]:
    """Primitive gcd of two primitive integer polynomials, by the primitive
    remainder sequence: pseudo-division keeps the coefficients integral
    and dividing out the content keeps them small, where Euclid over the
    rationals lets them swell.  Scalar factors do not change a gcd, so a
    step may drop them."""
    if len(x) < len(y):
        x, y = y, x
    while len(y) > 1:
        r = _pdivmod(x, y)[1]
        if not r:
            return y
        x, y = y, _primitive(r)
    return [1] if y else x


def _pdivmod(x, y: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s*x = q*y + r, deg r < deg y and s = lc(y)^e for
    some e >= 0, all in integers; r has no trailing zeros.

    Only the len(y) coefficients in reach of the next step are kept
    scaled; each lower one is scaled once, as it comes into reach, and a
    step whose leading coefficient is already zero scales nothing.  Each
    quotient coefficient is brought to the final s at the end, by the
    factors of lc(y) the later steps took."""
    ly, dy = y[-1], len(y) - 1
    k0 = len(x) - dy  # x[k0:] lie above the first step's window
    win, scale, tops = list(x[max(k0, 0):]), 1, []
    for k in range(k0 - 1, -1, -1):
        win.insert(0, x[k] * scale)
        top = win.pop()
        if top:
            win = [ly * w - top * c for w, c in zip(win, y)]
            scale *= ly
        tops.append(top)
    while win and not win[-1]:
        win.pop()
    q, later = [], 1
    for top in reversed(tops):  # q_0 first, which no later step scaled
        q.append(top * later)
        if top:
            later *= ly
    return q, win, scale


def _join_terms(var: str, terms) -> str:
    """Signed terms as '3*t^2 - t + 1', from (exponent, coefficient) pairs
    in print order; zero coefficients drop, and no term at all reads '0'."""
    parts = []
    for i, c in terms:
        if c:
            mag = abs(c)
            power = ("" if i == 0 else var if i == 1
                     else f"{var}^{i}" if i > 0 else f"{var}^({i})")
            body = f"{mag}*{power}" if power and mag != 1 else power or str(mag)
            parts.append(f"{'-' if c < 0 else '+'} {body}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _poly_str(p: Poly) -> str:
    return _join_terms("t", ((i, p.coeffs[i]) for i in range(p.deg, -1, -1)))


class _FieldOps:
    """Field operators through the module-level dispatchers."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)


class RatFunc(_FieldOps):
    """Quotient of polynomials in t; the exact backend.

    Canonical: num and den have integer coefficients and no common
    factor, content included, lc(den) > 0, and zero is 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly([1])):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        n, d = num.coeffs, den.coeffs
        if not all(type(c) is int for c in n + d):  # over one common denominator
            (n, dn), (d, dd) = _over_lcm(n), _over_lcm(d)
            n, d = [c * dd for c in n], [c * dn for c in d]
        _held(sum(c.bit_length() + 1 for c in n + d), "a rational function")  # the denominator 1 has one bit
        if not n:
            d = (1,)
        else:
            g = _zgcd(n, d)
            if d[-1] < 0:
                g = [-c for c in g]
            n, d = _pquo(n, g), _pquo(d, g)
        self.num, self.den = _poly(n), _poly(d)

    @classmethod
    def const(cls, q) -> "RatFunc":
        """The constant q as the pair n/d, canonical as it stands: a
        Fraction's terms are coprime and its denominator positive, so no gcd
        is taken."""
        if type(q) is not int and type(q) is not Fraction:
            q = Fraction(q)
        n, d = q.numerator, q.denominator
        _held(n.bit_length() + d.bit_length() + 2, "a rational function")
        return cls._canonical((n,) if n else (), (d,))

    @classmethod
    def t_power(cls, k: int) -> "RatFunc":
        if k >= 0:
            return cls(Poly([0] * k + [1]))
        return cls(Poly([1]), Poly([0] * (-k) + [1]))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @classmethod
    def _canonical(cls, num, den) -> "RatFunc":
        """Integer coefficient sequences already in canonical form, taken as
        they are."""
        x = object.__new__(cls)
        x.num, x.den = _poly(num), _poly(den)
        return x

    def __neg__(self):
        return RatFunc._canonical([-c for c in self.num.coeffs], self.den.coeffs)  # keeps the form

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def sign(self) -> int:
        return _lc_sign(self.num.coeffs)  # lc(den) > 0

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        return format_laurent(self)


class EpsSeries(_FieldOps):
    """Truncated eps-power series: coefficients for eps^i, lead <= i < prec.

    ``exact`` means every coefficient outside the stored window is zero,
    i.e. the element is really a Laurent polynomial.  Otherwise nothing
    is known from ``prec`` on, and sign/floor questions that depend on
    the unknown tail raise instead of guessing.
    """

    __slots__ = ("lead", "coeffs", "exact")

    def __init__(self, lead: int, coeffs: tuple, exact: bool):
        self.lead = lead
        self.coeffs = coeffs
        self.exact = exact

    @classmethod
    def make(cls, lead: int, coeffs: Iterable, exact: bool) -> "EpsSeries":
        """Leading zeros move into the lead, and an exact series drops its
        trailing ones; a Fraction is taken as it is, anything else wrapped."""
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        start = next((i for i, c in enumerate(cs) if c), len(cs))
        if exact:
            while cs and not cs[-1]:
                cs.pop()
            if not cs:
                return cls(0, (), True)
        return cls(lead + start, tuple(cs[start:]), exact)

    @property
    def prec(self) -> int:
        return self.lead + len(self.coeffs)

    def coeff(self, i: int) -> Fraction:
        if i < self.lead:
            return Fraction(0)
        if i < self.prec:
            return self.coeffs[i - self.lead]
        if self.exact:
            return Fraction(0)
        raise PrecisionError(f"coefficient of eps^{i} is beyond precision {self.prec}")

    def is_exact_zero(self) -> bool:
        return self.exact and not self.coeffs

    def sign(self) -> int:
        _order(self)  # refuses a window that shows no coefficient
        return _lc_sign(self.coeffs[:1])

    def __repr__(self):
        return f"EpsSeries(lead={self.lead}, coeffs={self.coeffs}, exact={self.exact})"

    def __str__(self):
        return format_laurent(self)

    def __neg__(self):
        return EpsSeries(self.lead, tuple(-c for c in self.coeffs), self.exact)


LaurentElem = Union[RatFunc, EpsSeries]


def _element(x) -> LaurentElem:
    """The one operand rule of every public function: a RatFunc (an IPElem
    too) or an EpsSeries as it stands, an int or a Fraction as its
    constant, and DomainError for anything else."""
    if isinstance(x, (RatFunc, EpsSeries)):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc.const(x)
    raise DomainError(f"a Laurent-model operand is a RatFunc, an EpsSeries, an int or a Fraction, not {type(x).__name__}")


def _order(x) -> Optional[int]:
    """The lowest power of eps in x, None for zero.  IndeterminateSignError
    for a series whose window shows no coefficient and whose tail is not
    flagged exactly zero."""
    x = _element(x)
    if isinstance(x, RatFunc):
        return x.den.deg - x.num.deg if x.num.coeffs else None
    if x.coeffs:
        return x.lead
    if x.exact:
        return None
    raise IndeterminateSignError(f"all coefficients below eps^{x.prec} vanish and the tail is not flagged exactly zero")


def to_series(x, prec: int = DEFAULT_PRECISION) -> EpsSeries:
    """Expand into eps powers.  Exact when the denominator is a monomial."""
    _check_precision(prec)
    x = _element(x)
    if isinstance(x, EpsSeries):
        return x
    # f(t) = eps^(-deg f) * fr(eps) with reversed coefficients
    fr, gr = x.num.coeffs[::-1], x.den.coeffs[::-1]
    lead = len(gr) - len(fr)
    if not any(gr[1:]):  # a monomial denominator c*t^k: exact Laurent polynomial
        return EpsSeries.make(lead, [Fraction(c, gr[0]) for c in fr], True)
    width = prec - lead
    if width <= 0:
        raise PrecisionError(
            f"requested precision {prec} cannot hold a series starting at {lead}"
        )
    return EpsSeries.make(lead, _series_quotient(fr, gr, width), False)


def _coerce(x, y) -> tuple[LaurentElem, LaurentElem]:
    x, y = _element(x), _element(y)
    xs, ys = isinstance(x, EpsSeries), isinstance(y, EpsSeries)
    if xs and not ys:
        return x, to_series(y, x.prec if not x.exact else DEFAULT_PRECISION)
    if ys and not xs:
        return to_series(x, y.prec if not y.exact else DEFAULT_PRECISION), y
    return x, y


def _series_add(x: EpsSeries, y: EpsSeries) -> EpsSeries:
    if x.is_exact_zero():
        return y
    if y.is_exact_zero():
        return x
    exact = x.exact and y.exact  # then every order is known, and both windows fit
    hi = max(x.prec, y.prec) if exact else min(s.prec for s in (x, y) if not s.exact)
    lo = min(x.lead, y.lead)
    return EpsSeries.make(lo, [x.coeff(i) + y.coeff(i) for i in range(lo, hi)], exact)


def _over_lcm(coeffs, b: int = 1) -> tuple[list[int], int]:
    """The row of a window on scale b: integers X_k and the least D with
    c_k = X_k / (D * b^k), exact for any b >= 1.  b = 1 puts the window
    over its least common denominator."""
    dens = [c.denominator for c in coeffs]
    if b == 1:  # rational RatFunc input and series floors: no powers, no gcds
        den = lcm(*dens)
        return [c.numerator * (den // q) for c, q in zip(coeffs, dens)], den
    powers = list(accumulate(repeat(b, len(dens) - 1), _imul, initial=1))
    den = lcm(*[q // gcd(q, p) for q, p in zip(dens, powers)])
    return [c.numerator * (den * p // q) for c, q, p in zip(coeffs, dens, powers)], den


def _scale(coeffs) -> int:
    """A b with den(c_k) | den(c_0) * b^k through the window, raised as each
    denominator asks: 4 for sqrt1p(eps), g0 for an expansion over g.  1 once
    b^(n-1) would pass the square of the largest denominator (random
    denominators), where one common denominator makes the smaller row."""
    if (n := len(coeffs)) < 2:
        return 1
    q0, cap = coeffs[0].denominator, 2 * max(c.denominator.bit_length() for c in coeffs)
    b, p = 1, q0  # p = q0 * b^k
    for k in range(1, n):
        p *= b
        if p % (q := coeffs[k].denominator):
            b *= q // gcd(q, p)
            if b.bit_length() * (n - 1) > cap:
                return 1
            p = q0 * b ** k
    return b


def _series_mul(x: EpsSeries, y: EpsSeries) -> EpsSeries:
    if x.is_exact_zero() or y.is_exact_zero():
        return EpsSeries(0, (), True)
    exact = x.exact and y.exact
    if exact:
        hi = x.prec + y.prec  # enough room for the full product
    else:  # an inexact factor is unknown from its prec on, shifted by the other's lead
        hi = min(s.prec + t.lead for s, t in ((x, y), (y, x)) if not s.exact)
    lo = x.lead + y.lead
    width = hi - lo
    xs, ys = x.coeffs[:width], y.coeffs[:width]
    square = xs == ys  # the same window or an equal one: one row serves both factors
    b = _scale(xs) if square else lcm(_scale(xs), _scale(ys))
    a, den = _over_lcm(xs, b)
    c, dc = (a, den) if square else _over_lcm(ys, b)
    c = c[::-1]
    na, nc = len(a), len(c)
    den *= dc  # D_x * D_y * b^k
    out = []
    for k in range(width):
        i0 = max(0, k - nc + 1)  # a[i] meets c[k - i]
        if square:  # each pair i < k - i once, doubled, and the middle square
            acc = 2 * sum(map(_imul, a[i0:(k + 1) // 2], c[nc - 1 - k + i0:]))
            if not k % 2:
                acc += a[k // 2] ** 2
        else:
            acc = sum(map(_imul, a[i0:min(k + 1, na)], c[nc - 1 - k + i0:]))
        out.append(q := Fraction(acc, den))
        if acc.bit_length() + den.bit_length() > COEFF_BITS_LIMIT:  # reduced, it may pass
            _held(q.numerator.bit_length() + q.denominator.bit_length(), "series coefficient {}", k)
        den *= b
    return EpsSeries.make(lo, out, exact)


def _series_quotient(f, g, width: int) -> list[Fraction]:
    """The first ``width`` coefficients of f/g for coefficient lists with
    g[0] != 0.

    Runs on rows over one scale b, F_k / (D_f * b^k) and G_k / (D_g * b^k)
    with G's content moved into D_f.  G_0 = r * s, where r keeps the primes
    of G_0 that G_1 lacks: output n of 1/g holds those to the power n + 1,
    so the powers of r carry them with no rescale.  Coefficient n is
    D_g * O_n / (D_f * L * r^(n+1) * b^n) with
    O_n = (F_n * L * r^n - sum(G_k * r^(k-1) * O_(n-k), k >= 1)) / s,
    and the running integer L takes on only what s leaves undivided: when
    it grows, the O the sum still reads are rescaled.  For sqrt1p(eps) and
    an expansion over g with gcd(g_0, g_1) = 1, s = 1: L stays 1 and
    nothing divides.
    ResourceLimitError once a coefficient's numerator and denominator hold
    more than COEFF_BITS_LIMIT bits.
    """
    f, g = f[:width], g[:max(width, 1)]  # g[0] is read even for width 0
    b = lcm(_scale(f), _scale(g))
    (fr, df), (gr, dg) = _over_lcm(f, b), _over_lcm(g, b)
    content = gcd(*gr)
    gr, df = [v // content for v in gr], df * content
    r, shared = gr[0], gcd(*gr[:2])  # with no G_1 all of G_0 is shared
    while shared > 1:
        r //= shared
        shared = gcd(r, shared)
    s, lcd = gr[0] // r, 1  # s > 0, and L
    h, nums, out = [], [], []  # h[-k] = G_k * r^(k-1), grown as n reaches k
    power, den = 1, df * r  # r^n and D_f * L * r^(n+1) * b^n
    for n in range(width):
        top = (fr[n] * power * lcd if n < len(fr) else 0) - sum(map(_imul, h, nums[n - len(h):]))
        if s > 1:
            if (grow := s // gcd(top, s)) > 1:
                lcd, den, top = lcd * grow, den * grow, top * grow
                reach = len(nums) - len(h)  # the O the sum reads from here on
                nums[reach:] = [v * grow for v in nums[reach:]]
            top //= s
        nums.append(top)
        out.append(c := Fraction(dg * top, den))
        _held(c.numerator.bit_length() + c.denominator.bit_length(), "series coefficient {}", n)
        if n + 1 < len(gr):
            h.insert(0, gr[n + 1] * power)
        power *= r
        den *= r * b
    return out


def _reduced(num: list[int], den: list[int]) -> RatFunc:
    """The result of a field operation on canonical pairs' coefficients,
    canonical as built by Henrici's splits (Knuth, TAOCP vol. 2, 4.5.1),
    which take gcds of the reduced factors only; held to the limit."""
    _held(sum(c.bit_length() + 1 for c in num + den), "a rational function")
    return RatFunc._canonical(num, den)


def _ratfunc_add(a, b, c, d) -> RatFunc:
    """a/b + c/d.  With g = gcd(b, d) = 1 the sum over b*d is reduced;
    otherwise t/(b/g * d/g) is, but for gcd(t, g)."""
    g = _zgcd(b, d)
    if g == [1]:
        return _reduced(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))
    b1 = _pquo(b, g)
    t = _padd(_pmul(a, _pquo(d, g)), _pmul(c, b1))
    if not t:
        return RatFunc._canonical((), (1,))
    h = _zgcd(t, g)
    return _reduced(_pquo(t, h), _pmul(b1, _pquo(d, h)))


def _ratfunc_mul(a, b, c, d) -> RatFunc:
    """a/b * c/d, for lc(d) of either sign: only gcd(a, d) and gcd(c, b)
    can cancel."""
    if not a or not c:
        return RatFunc._canonical((), (1,))
    g, h = _zgcd(a, d), _zgcd(c, b)
    if d[-1] < 0:
        g = [-v for v in g]
    return _reduced(_pmul(_pquo(a, g), _pquo(c, h)), _pmul(_pquo(b, h), _pquo(d, g)))


def add(x, y) -> LaurentElem:
    x, y = _coerce(x, y)
    if isinstance(x, RatFunc):
        return _ratfunc_add(x.num.coeffs, x.den.coeffs, y.num.coeffs, y.den.coeffs)
    return _series_add(x, y)


def sub(x, y) -> LaurentElem:
    return add(x, -_element(y))


def mul(x, y) -> LaurentElem:
    x, y = _coerce(x, y)
    if isinstance(x, RatFunc):
        return _ratfunc_mul(x.num.coeffs, x.den.coeffs, y.num.coeffs, y.den.coeffs)
    return _series_mul(x, y)


def div(x, y) -> LaurentElem:
    x, y = _coerce(x, y)
    if isinstance(x, RatFunc):
        if y.is_zero():
            raise ZeroDivisionError("division by zero")
        return _ratfunc_mul(x.num.coeffs, x.den.coeffs, y.den.coeffs, y.num.coeffs)
    if not y.coeffs:
        if y.exact:
            raise ZeroDivisionError("division by exact zero series")
        raise PrecisionError("cannot invert: no nonzero coefficient within the known window")
    if x.is_exact_zero():
        return EpsSeries(0, (), True)
    lead, n = x.lead - y.lead, len(x.coeffs)
    if y.exact and len(y.coeffs) == 1:
        return EpsSeries.make(lead, [c / y.coeffs[0] for c in x.coeffs], x.exact)
    # an exact divisor reads as many terms as the dividend, shifted by its
    # lead (DEFAULT_PRECISION of them over an exact dividend); an inexact
    # one no more than it knows
    if y.exact:
        width = max(DEFAULT_PRECISION + y.lead, 1) if x.exact else min(n, max(n + y.lead, 1))
    else:
        width = len(y.coeffs) if x.exact else min(n, len(y.coeffs))
    return EpsSeries.make(lead, _series_quotient(x.coeffs, y.coeffs, width), False)


def sign_of(x) -> int:
    return _element(x).sign()


def _cross(x: RatFunc, y: RatFunc) -> list[int]:
    """The numerator of x - y over den(x) * den(y), unreduced: as both
    lc(den) > 0, its leading coefficient has the difference's sign."""
    return _padd(_pmul(x.num.coeffs, y.den.coeffs), [-c for c in _pmul(y.num.coeffs, x.den.coeffs)])


def compare(x, y) -> int:
    x, y = _coerce(x, y)
    if isinstance(x, RatFunc):
        return _lc_sign(_cross(x, y))
    return sub(x, y).sign()


def _split_ratfunc(n, d) -> tuple[list[int], int, int]:
    """n/d = polynomial part + infinitesimal tail, for integer coefficients
    with lc(d) > 0, reduced or not: the part as integers q over s > 0, and
    the tail's sign.

    s*n = q*d + r, so the part is q/s, and the tail r/(s*d) has the sign
    of lc(r) because lc(d) > 0.  A constant d leaves no tail."""
    if len(d) == 1:
        return n, d[0], 0
    q, r, s = _pdivmod(n, d)
    return q, s, _lc_sign(r)


def is_infinitesimal(x) -> bool:
    """Smaller in magnitude than every positive rational?"""
    return (v := _order(x)) is None or v >= 1


def is_finite(x) -> bool:
    return (v := _order(x)) is None or v >= 0


def std_part(x) -> Fraction:
    """The rational a finite element differs from by an infinitesimal."""
    x = _element(x)
    if not is_finite(x):
        raise DomainError("standard part of an infinite element")
    if isinstance(x, EpsSeries):
        return x.coeff(0)
    q, s, _ = _split_ratfunc(x.num.coeffs, x.den.coeffs)
    return Fraction(q[0] if q else 0, s)


def _integer_constant(c0) -> None:
    if c0.denominator != 1:
        raise DomainError(f"constant coefficient must be an integer, got {c0}")


class IPElem(RatFunc):
    """Element of the integer part: a RatFunc that is a polynomial in t
    with an integer constant.  Its arithmetic is the field's, so sums and
    products come back as RatFunc."""

    __slots__ = ()

    def __init__(self, poly: Poly):
        _integer_constant(poly.coeff(0))
        super().__init__(poly)

    @classmethod
    def const(cls, q) -> "IPElem":
        _integer_constant(Fraction(q))
        return super().const(q)

    @property
    def poly(self) -> Poly:
        return Poly(Fraction(c, self.den.coeffs[0]) for c in self.num.coeffs)

    def constant(self) -> int:
        return self.num.coeff(0) // self.den.coeffs[0]

    def is_standard(self) -> bool:
        return self.num.deg <= 0

    def __lt__(self, other):
        return compare(self, other) < 0

    def __repr__(self):
        return f"IPElem({self.poly!r})"

    def __str__(self):
        return str(self.poly)


def _floor_of_split(q, s: int, tail_sign: int) -> IPElem:
    """The floor of q/s plus a tail of the given sign, q integers and
    s > 0: the constant rounded down, one lower when it is an integer and
    the tail negative, and the rest over their least common denominator
    m = s/h.  Canonical already, as that leaves no content.  Held to the
    limit coefficient by coefficient, as a series is: each p_i/m."""
    q0, h = (q[0] if q else 0), gcd(s, *q[1:])
    m = s // h
    num = [(q0 // s - (tail_sign < 0 and q0 % s == 0)) * m] + [c // h for c in q[1:]]
    while num and not num[-1]:
        num.pop()
    _held(max(map(int.bit_length, num), default=0) + m.bit_length(), "a floor coefficient")
    return IPElem._canonical(num, (m,))


def _floor_pair(n, d) -> IPElem:
    """The floor of n/d for integer coefficients with lc(d) > 0, reduced or
    not: pseudo-division gives any such pair the same polynomial part.
    The bracketing is re-checked on the pair given."""
    result = _floor_of_split(*_split_ratfunc(n, d))
    # confirm 0 <= n/d - result < 1 exactly: with result = p/m for a
    # constant m > 0, n/d - result = gap/(m*d), and lc(m*d) > 0
    (m,) = result.den.coeffs
    gap = _padd([m * c for c in n], [-c for c in _pmul(result.num.coeffs, d)])
    if _lc_sign(gap) < 0 or _lc_sign(_padd(gap, [-m * c for c in d])) >= 0:
        raise AssertionError(f"floor bracketing failed for ({_poly_str(_poly(n))})/({_poly_str(_poly(d))})")
    return result


def floor_ip(x) -> IPElem:
    """The unique integer-part element a with a <= x < a + 1.

    Exact for rational functions.  For series the tail sign matters only
    when the constant term is an integer; it is read off the known
    positive-index coefficients and refused when they are all zero
    without the exact flag.
    """
    x = _element(x)
    if isinstance(x, EpsSeries):
        if not x.exact and x.prec <= 0:
            raise PrecisionError(
                f"floor needs coefficients through eps^0; precision is {x.prec}"
            )
        # eps^i for i <= 0 is t^(-i): ascending t powers
        q, s = _over_lcm([x.coeff(-k) for k in range(max(-x.lead, 0) + 1)])
        tail = next((c for i, c in enumerate(x.coeffs, x.lead) if i >= 1 and c), 0)
        tail_sign = (tail > 0) - (tail < 0)
        if tail_sign == 0 and not x.exact and x.coeff(0).denominator == 1:
            raise IndeterminateSignError(
                "tail sign unknown: computed coefficients are all zero and "
                "the series is not flagged exactly zero beyond them"
            )
        return _floor_of_split(q, s, tail_sign)
    return _floor_pair(x.num.coeffs, x.den.coeffs)


def sqrt1p_eps(prec: int = DEFAULT_PRECISION) -> EpsSeries:
    """The square root of 1 + eps as a binomial series.

    Its square reproduces 1 + eps through every requested coefficient,
    and it lies outside the rational functions, giving the model a
    genuinely irrational element.
    """
    _check_precision(prec)
    if prec < 1:
        raise DomainError("need at least one coefficient")
    cs = [Fraction(1)]
    for k in range(1, prec):
        cs.append(cs[-1] * (Fraction(3, 2) - k) / k)
    return EpsSeries.make(0, cs, False)


def beatty_nonarch(alpha: LaurentElem, n: RatFunc) -> IPElem:
    """floor(n * alpha) in the model; n ranges over the integer part: an
    IPElem, or a RatFunc that is a polynomial with an integer constant."""
    n = _element(n)
    if not isinstance(n, RatFunc) or n.den.deg > 0:
        raise DomainError("the index must be a polynomial with integer constant")
    _integer_constant(Fraction(n.num.coeff(0), n.den.coeffs[0]))
    alpha = _element(alpha)
    if alpha.sign() <= 0:
        raise DomainError("alpha must be positive")
    if n.sign() < 0:
        raise DomainError("index must be >= 0")
    if isinstance(alpha, EpsSeries):
        return floor_ip(mul(alpha, n))
    # a/b * c/k floors as it stands, unreduced
    return _floor_pair(_pmul(alpha.num.coeffs, n.num.coeffs), _pmul(alpha.den.coeffs, n.den.coeffs))


class LinfReport(NamedTuple):
    applicable: bool
    reason: Optional[str] = None
    m: Optional[int] = None
    k: Optional[int] = None
    separator: Optional[IPElem] = None
    lower_neighbor: Optional[IPElem] = None
    upper_neighbor: Optional[IPElem] = None


def linf_experiment(sigma: LaurentElem, rho: LaurentElem) -> LinfReport:
    """Constructive separation of two slopes in [1, 2) whose difference
    is not infinitesimal.

    m = floor(1/(rho - sigma)) is then a standard integer, and the floors
    first split at some n <= m + 1.  With sigma = s + d and rho = r + e
    (s, r rational, d, e infinitesimal), floor(n*sigma) < floor(n*rho)
    exactly when some j/n lies in (s, r), s included when d < 0 and r
    when e >= 0; so n is that interval's least denominator, k = n - 1,
    and floor((k+1)*sigma) lands strictly between consecutive elements of
    the rho-sequence, separating the two.  Four floors re-check it.
    """
    for name, x in (("sigma", sigma), ("rho", rho)):
        if compare(x, RatFunc.const(1)) < 0 or compare(x, RatFunc.const(2)) >= 0:
            raise DomainError(f"{name} must lie in [1, 2)")
    x, y = _coerce(rho, sigma)
    if isinstance(x, RatFunc):  # rho - sigma as the unreduced pair num/den
        num, den = _cross(x, y), _pmul(x.den.coeffs, y.den.coeffs)
        sign, small = _lc_sign(num), len(num) < len(den)  # a common factor keeps the degree gap
    else:
        diff = sub(x, y)
        sign, small = diff.sign(), is_infinitesimal(diff)
    if sign <= 0:
        raise DomainError("need sigma < rho")
    if small:
        return LinfReport(False, reason="rho - sigma is infinitesimal")
    m_elem = _floor_pair(den, num) if isinstance(x, RatFunc) else floor_ip(div(RatFunc.const(1), diff))
    if not m_elem.is_standard():
        raise AssertionError("non-infinitesimal difference gave an infinite bound")
    m = m_elem.constant()
    s, r = std_part(sigma), std_part(rho)
    n = least_denominator(s, compare(sigma, RatFunc.const(s)) < 0,
                          r, compare(rho, RatFunc.const(r)) >= 0)
    k = n - 1
    if k > m:
        raise AssertionError(f"no split found although floor((m+1)sigma) < floor((m+1)rho), m={m}")
    prev_s = beatty_nonarch(sigma, IPElem.const(k))
    prev_r = beatty_nonarch(rho, IPElem.const(k))
    sep = beatty_nonarch(sigma, IPElem.const(n))
    next_r = beatty_nonarch(rho, IPElem.const(n))
    if prev_s != prev_r or sep == next_r:
        raise AssertionError(f"the floors do not split at k={k}")
    if not (prev_r < sep and sep < next_r):
        raise AssertionError("separator did not fall between neighbors")
    return LinfReport(True, m=m, k=k, separator=sep,
                      lower_neighbor=prev_r, upper_neighbor=next_r)


# -- textual syntax ------------------------------------------------------


def _parse_poly(sc: _Scanner) -> tuple[dict[int, int], int]:
    """A signed sum of terms 'c', 'c*t^k', 'c t^k' and 't^k', each '^k'
    optional, e.g. '3*t^2 - t + 1': its coefficients by power, and the
    number of terms."""
    coeffs: dict[int, int] = {}
    terms, sign = 0, sc.sign() or 1
    while True:
        coef = 1 if sc.peek() == "t" else sc.uint()
        power = 0
        if sc.take("*"):
            sc.expect("t")
            power = 1
        elif sc.take("t"):
            power = 1
        if power and sc.take("^"):
            power = sc.uint()
        coeffs[power] = coeffs.get(power, 0) + sign * coef
        terms += 1
        if not (sign := sc.sign()):
            return coeffs, terms


def _parse_side(sc: _Scanner) -> tuple[dict[int, int], int]:
    """'( side )' or a polynomial; a parenthesized side counts as one term."""
    depth = 0
    while sc.take("("):
        depth += 1
    coeffs, terms = _parse_poly(sc)
    for _ in range(depth):
        sc.expect(")")
    return coeffs, 1 if depth else terms


def _poly_of(coeffs: dict[int, int]) -> Poly:
    deg = max(coeffs)
    if deg > DEGREE_LIMIT:
        raise ResourceLimitError(f"exponent {deg} exceeds DEGREE_LIMIT = {DEGREE_LIMIT}")
    return Poly([coeffs.get(k, 0) for k in range(deg + 1)])


def parse_laurent(text: str, prec: int = DEFAULT_PRECISION) -> LaurentElem:
    """Parse 'poly', 'side/side' or the builtin 'sqrt1p(eps)', where a side
    is a polynomial or a parenthesized side; a side of '/' with several
    terms must be parenthesized, so 't - 1/t' does not silently read as
    '(t-1)/t'.  Whitespace is insignificant.

    ResourceLimitError past PRECISION_LIMIT, or past DEGREE_LIMIT once
    the text has parsed; ParseError for malformed text."""
    _check_precision(prec)
    sc = _Scanner(text)
    if sc.word("sqrt1p"):
        sc.expect("(")
        if not sc.word("eps"):
            raise ParseError("expected 'eps'", text, sc.pos)
        sc.expect(")")
        if not sc.done():
            raise ParseError("trailing input", text, sc.pos)
        return sqrt1p_eps(prec)
    num, terms = _parse_side(sc)
    den, at = {0: 1}, sc.pos + 1  # just past a '/', if one comes next
    if sc.take("/"):
        if terms > 1:
            raise ParseError("ambiguous numerator of '/': parenthesize it", text, 0)
        den, terms = _parse_side(sc)
        if terms > 1:
            raise ParseError("ambiguous denominator of '/': parenthesize it", text, at)
    if not sc.done():
        raise ParseError("trailing input", text, sc.pos)
    num, den = _poly_of(num), _poly_of(den)
    if den.is_zero():
        raise ParseError("zero denominator", text, at)
    return RatFunc(num, den)


def format_laurent(x: LaurentElem) -> str:
    """Exact textual form: polynomial, quotient, or truncated series.

    A rational function prints with integer coefficients (a rational
    constant as ``p/q``), so parse_laurent reads it back; a truncated
    series has no such inverse.
    """
    x = _element(x)
    if isinstance(x, RatFunc):
        num, den = x.num, x.den
        if den.deg == 0 and num.deg <= 0:
            return str(Fraction(num.coeff(0), den.lc()))
        if den == Poly([1]):
            return _poly_str(num)
        return f"({_poly_str(num)})/({_poly_str(den)})"
    terms = _join_terms("eps", enumerate(x.coeffs, x.lead))
    return terms if x.exact else f"{terms} + O(eps^{x.prec})"
