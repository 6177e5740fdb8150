"""Shared constants and independent oracles for the test suite.

The interval oracle evaluates radical expressions with rational bounds
of increasing precision; it is deliberately separate from the library's
sign machinery so the two can check each other.
"""

from contextlib import contextmanager
from fractions import Fraction
import tracemalloc

from dioapprox import exactnum, nonarch
from dioapprox.exactnum import QuadIrr, quad, sqrt_int

SQRT2 = sqrt_int(2)
SQRT3 = sqrt_int(3)
SQRT2_M1 = quad(-1, 1, 1, 2)        # sqrt(2) - 1
PHI = quad(1, 1, 2, 5)              # (1 + sqrt(5)) / 2
PHI_SQ = quad(3, 1, 2, 5)           # phi^2 = (3 + sqrt(5)) / 2
PHI_M1 = quad(-1, 1, 2, 5)          # phi - 1

SQUAREFREE_POOL = (2, 3, 5, 6, 7, 10, 11, 13, 15, 17)


def decompose(x) -> tuple[Fraction, Fraction, int]:
    """Write x as u + v*sqrt(d) with rational u, v.  Rationals get d = 1."""
    if isinstance(x, QuadIrr):
        return Fraction(x.a, x.c), Fraction(x.b, x.c), x.d
    return Fraction(x), Fraction(0), 1


def sqrt_bounds(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo <= 2^-prec."""
    from math import isqrt

    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << prec
    n = x.numerator * scale * scale
    d = x.denominator
    # sqrt(n/d) = sqrt(n*d)/d
    root = isqrt(n * d)
    lo = Fraction(root, d * scale)
    hi = Fraction(root + 1, d * scale)
    return lo, hi


def interval_sign(u, v=0, d=1, w=0, e=1, max_prec: int = 256):
    """Sign of u + v*sqrt(d) + w*sqrt(e) by interval refinement.

    Returns -1/+1 once an enclosure excludes zero, or None when every
    refinement up to max_prec still brackets zero (i.e. the value is
    either zero or too close to call -- the caller decides).
    """
    u, v, w = Fraction(u), Fraction(v), Fraction(w)
    prec = 8
    while prec <= max_prec:
        lo, hi = u, u
        for coef, rad in ((v, d), (w, e)):
            if coef == 0:
                continue
            slo, shi = sqrt_bounds(Fraction(rad), prec)
            if coef > 0:
                lo += coef * slo
                hi += coef * shi
            else:
                lo += coef * shi
                hi += coef * slo
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2
    return None


def fatou_grace_candidates(alpha):
    """Each convergent of alpha and the intermediate fractions next to
    it, (p_{k-1} + p_k)/(q_{k-1} + q_k) and (p_{k+1} - p_k)/(q_{k+1} - q_k),
    in increasing q.  By Fatou-Grace every p/q with |alpha - p/q| < 1/q^2
    is among them."""
    from dioapprox.exactnum import convergents

    p0, q0, p1, q1 = 0, 1, 1, 0
    for a, p, q in convergents(alpha):
        for t in sorted({1, a - 1}):
            if 1 <= t < a:
                yield p0 + t * p1, q0 + t * q1
        yield p, q
        p0, q0, p1, q1 = p1, q1, p, q


def first_verified(alpha, candidates, budget, bound):
    """Reference builder: the first of ``candidates`` with q > Q that
    ``approx.verify`` passes against ``bound``, trying at most ``budget``
    of those, each through a full ``verify``."""
    from itertools import islice

    from dioapprox import approx
    from dioapprox.errors import ResourceLimitError

    for p, q in islice(((p, q) for p, q in candidates if q > bound.q_limit), budget):
        appr = approx.Approximation(p, q, bound, verified=True)
        if approx.verify(alpha, appr):
            return appr
    raise ResourceLimitError(
        f"no candidate passed the bound within {budget} candidates past Q = {bound.q_limit}"
    )


class Work:
    """Products counted by ``counted_products`` and the bit length of the
    largest operand any of them met."""

    products = 0
    max_bits = 0


@contextmanager
def counted_products():
    """Count every product the series kernel makes through nonarch._imul:
    its dot products and the powers of a row's scale."""
    work, imul = Work(), nonarch._imul

    def counted(x, y):
        work.products += 1
        work.max_bits = max(work.max_bits, x.bit_length(), y.bit_length())
        return x * y

    nonarch._imul = counted
    try:
        yield work
    finally:
        nonarch._imul = imul


@contextmanager
def counted_gcds():
    """Record the degrees of the two operands of every polynomial gcd the
    rational functions take through nonarch._poly_gcd, as pairs."""
    degrees, poly_gcd = [], nonarch._poly_gcd

    def counted(x, y):
        degrees.append((len(x) - 1, len(y) - 1))
        return poly_gcd(x, y)

    nonarch._poly_gcd = counted
    try:
        yield degrees
    finally:
        nonarch._poly_gcd = poly_gcd


def lame_bound(m: int) -> float:
    """log_phi(m) + 2: Euclid on (a, m), a < m, takes at most log_phi(m)
    division steps (Lame)."""
    return m.bit_length() * 1.4405 + 2  # 1/log2(phi) < 1.4405


@contextmanager
def counted_levels():
    """Count the levels of exactnum._first_hit's descent: each level takes
    one divmod, so a counting divmod in the module's globals, which the
    name lookup tries before the builtins, sees every one.  The kernel's
    only other divmod is _walk's Euclid on a rational."""
    levels = []

    def counted(x, y):
        levels.append(y)
        return divmod(x, y)

    exactnum.divmod = counted
    try:
        yield levels
    finally:
        del exactnum.divmod


def peak_traced(call):
    """call()'s result, or the exception it raised, and the peak in bytes
    of the memory tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        try:
            outcome = call()
        except Exception as exc:
            outcome = exc
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
