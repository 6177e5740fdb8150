"""Floor sequences ("Beatty sequences") over finite windows.

Membership and windows come with witnesses; partition / inclusion /
intersection claims are checked against windows; certificate searches
produce integer linear relations that are re-verified exactly before
being returned.  Infinite-set claims are probed on finite windows with
explicit limits and exhaustion reports, never silently truncated.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import gcd, lcm
from operator import floordiv, mul
from typing import Callable, NamedTuple, Optional

from .errors import (
    DomainError,
    InvalidCertificateError,
    RationalInputError,
    ResourceLimitError,
    UnsupportedPairingError,
)
from .exactnum import (
    ExactReal,
    _ceil_row,
    _first_hit,
    _floor_row,
    _last_convergents,
    _over,
    _row,
    _sign_one,
    compare,
    ensure_exact,
    ensure_rational,
    floor_of,
    is_rational,
    least_denominator,
    sign_of,
)

__all__ = [
    "ApDecompositionReport",
    "ArithProgression",
    "BeattyWindow",
    "CertKind",
    "Certificate",
    "Claim51Report",
    "CommonScan",
    "ImplicationReport",
    "PartitionReport",
    "SeparationResult",
    "agreement_radius",
    "ap_decomposition",
    "beatty_term",
    "certificate_search",
    "claim51_check",
    "common_elements",
    "dmo_window_search",
    "kronecker_search",
    "member",
    "mu",
    "partition_check",
    "pth_root_dmo_witness",
    "residue_search",
    "separation_witness",
    "verify_certificate",
    "verify_implication",
    "window",
]

DEFAULT_SCAN_LIMIT = 100_000
WINDOW_LIMIT = 10**6  # most members a window may hold
WORD_LIMIT = 10**7  # most integers a word (bits of an int) may span
POWER_BITS_LIMIT = 3_000  # most bits of a power pth_root_dmo_witness may take


def _positive(alpha) -> ExactReal:
    alpha = ensure_exact(alpha)
    if sign_of(alpha) <= 0:
        raise DomainError("alpha must be positive")
    return alpha


def beatty_term(alpha, n: int) -> int:
    """floor(n * alpha), the n-th sequence element."""
    alpha = _positive(alpha)
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    return floor_of(alpha * n)


def member(alpha, k: int) -> Optional[int]:
    """Witness n with floor(n*alpha) = k, or None.

    The least n with n*alpha >= k is ceil(k/alpha); k is a member
    exactly when that n keeps n*alpha below k + 1.  Both read alpha's
    row (a, b, c, d): n*alpha < k + 1 is (k+1)*c - n*a - n*b*sqrt(d) > 0.
    """
    alpha = _positive(alpha)
    if k < 0:
        raise DomainError(f"membership is about k >= 0, got {k}")
    if k == 0:
        return 0
    a, b, c, d = row = _row(alpha)
    n = _ceil_over(k, row)
    return n if _sign_one((k + 1) * c - n * a, -n * b, d) > 0 else None


def _ceil_over(k: int, row: tuple) -> int:
    """ceil(k/alpha) for alpha > 0 of row (a, b, c, d): k/alpha is
    k*c*(a - b*sqrt(d))/(a^2 - b^2*d), over a norm of either sign."""
    a, b, c, d = row
    norm = a * a - b * b * d
    kc = k * c if norm > 0 else -k * c
    return _ceil_row(kc * a, -kc * b, abs(norm), d)


# _REPUNITS[m - 1] is the sum of 2^(i*m) for i < 4096 // m, m <= 30 (one digit
# of an int): a block of m bits times it is that many copies of the block, and
# shifting it right by j*m drops j of them
_REPUNITS = tuple(((1 << 4096 // m * m) - 1) // ((1 << m) - 1) for m in range(1, 31))


def _word(p: int, q: int, n: int) -> int:
    """The indicator of {floor(j*p/q) : j >= 0} on [0, n), for coprime p,
    q >= 1, as an int: bit k is 1 exactly when k is a term (every k when
    p < q).  ResourceLimitError for a word spanning more than WORD_LIMIT
    integers, before any is built.

    For p >= q this is the standard word of p/q, built from its continued
    fraction t0, t1, ... by U_-1 = 0, U_0 = 1 0^(t0-1), U_k = U_(k-1)^t_k
    U_(k-2) for odd k and U_(k-2) U_(k-1)^t_k for even k >= 2; the last U
    is one period, of length p (Lothaire, Algebraic Combinatorics on Words,
    ch. 2).  A word u of length m followed by v is u | v << m, so each
    word's length is kept beside it, and every word is cut to n bits.  A
    block of one digit (30 bits) takes up to 4096 bits of copies in one
    multiplication by a repunit (_REPUNITS); past that, copies double, and
    the last whole blocks of an exact power U^t are read off the top.  A
    power that reaches n bits is doubled past n and cut.  Once U_(k-2) is
    full length each further word is U_(k-1) (odd k) or U_(k-2) (even k):
    O(n) bit operations, O(log p) steps.
    """
    if n > WORD_LIMIT:
        raise ResourceLimitError(f"a word spanning {n} integers exceeds WORD_LIMIT = {WORD_LIMIT}")
    mask = (1 << n) - 1
    if p < q or n == 0:
        return mask
    t, (a, b) = p // q, (q, p % q)
    prev, plen, cur, clen = 0, 1, 1, min(t, n)
    odd = True
    while b and plen < n:
        t, (a, b) = a // b, (b, a % b)
        body, blen = cur, clen
        if t > 1:  # cur^t, or cur repeated past n when that reaches n
            if clen <= 30:
                k = min(t, -(-n // clen), 4096 // clen)
                body, blen = body * (_REPUNITS[clen - 1] >> (4096 // clen - k) * clen), k * clen
            if t * clen >= n:
                while blen < n:
                    body |= body << blen
                    blen *= 2
            elif blen < t * clen:
                total = t * clen
                while 2 * blen <= total:
                    body |= body << blen
                    blen *= 2
                if blen < total:  # the last whole blocks, read off the top
                    body |= body >> 2 * blen - total << blen
                    blen = total
        prev, plen, cur, clen = cur, clen, body | prev << blen if odd else prev | body << plen, blen + plen
        if clen > n:
            cur, clen = cur & mask, n
        odd = not odd
    if b:
        return cur if odd else prev
    if clen <= 30:  # cur is one period: repeat it past n
        k = min(-(-n // clen), 4096 // clen)
        cur, clen = cur * (_REPUNITS[clen - 1] >> (4096 // clen - k) * clen), k * clen
    while clen < n:
        cur |= cur << clen
        clen *= 2
    return cur & mask


def _lowest(x: int) -> Optional[int]:
    """Index of the lowest set bit of x, or None for x = 0; of the lowest
    zero bit of y for x = ~y, y >= 0."""
    return (x & -x).bit_length() - 1 if x else None


def _bits(word: int) -> bytes:
    """The word as ASCII 0/1, byte k for bit k, up to its highest set bit."""
    return bin(word)[:1:-1].encode()


_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


class BeattyWindow:
    """The members of a floor sequence that lie in [0, bound], as a word:
    bit k of the int `word` is 1 exactly when k is a member.  Immutable;
    ratio is p/q with floor(n*alpha) = n*p // q at every index used."""

    def __init__(self, alpha: ExactReal, bound: int, word: int, ratio: tuple):
        vars(self).update(alpha=alpha, bound=bound, word=word, ratio=ratio)

    def __setattr__(self, name, *_):
        raise AttributeError(f"BeattyWindow is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def members(self) -> tuple[int, ...]:
        """The set bits of the word, refused past WINDOW_LIMIT before any is
        listed: the floors below bound + 1 of p/q, distinct for p >= q, are
        min(bound + 1, ceil((bound + 1)*q/p)).  At a slope below 5 (a member
        in every 5 integers or more) the word is read once as ASCII 0/1
        (_bits) and walked a byte per integer; a sparser window lists its
        members j*p // q for j < size straight off the ratio, in C, with no
        pass over the word."""
        p, q = self.ratio
        size = min(self.bound + 1, -(-(self.bound + 1) * q // p))
        if size > WINDOW_LIMIT:
            raise ResourceLimitError(f"a window of {size} members exceeds WINDOW_LIMIT = {WINDOW_LIMIT}")
        if p < 5 * q:
            return tuple(compress(range(self.bound + 1), _bits(self.word).translate(_ZERO_ONE)))
        return tuple(map(floordiv, map(mul, range(size), repeat(p)), repeat(q)))

    def witness(self, k: int) -> int:
        """The least index of member k: ceil(k*q/p)."""
        p, q = self.ratio
        return -(-k * q // p)

    @cached_property
    def witnesses(self) -> dict[int, int]:
        """The least index of each member."""
        return {k: self.witness(k) for k in self.members}

    def member_set(self) -> set[int]:
        return set(self.members)


def window(alpha, bound: int) -> BeattyWindow:
    """Complete membership word on [0, bound], read off the convergent exact
    up to the last index whose term is <= bound (_word refuses a word
    spanning more than WORD_LIMIT integers; .members refuses past
    WINDOW_LIMIT members)."""
    alpha = _positive(alpha)
    if bound < 0:
        raise DomainError(f"window bound must be >= 0, got {bound}")
    row = _row(alpha)
    p, q = _last_convergents(row, _ceil_over(bound + 1, row) - 1)[4]  # mu(alpha, bound)
    return BeattyWindow(alpha, bound, _word(p, q, bound + 1), (p, q))


def mu(alpha, h: int) -> int:
    """How many n >= 1 satisfy floor(n*alpha) <= h: ceil((h+1)/alpha) - 1."""
    alpha = _positive(alpha)
    if h < 0:
        raise DomainError(f"mu needs h >= 0, got {h}")
    return _ceil_over(h + 1, _row(alpha)) - 1


class PartitionReport(NamedTuple):
    ok: bool
    checked_to: int
    first_shared: Optional[int] = None
    first_uncovered: Optional[int] = None
    shared_witnesses: Optional[tuple[int, int]] = None


def partition_check(alpha, beta, bound: int) -> PartitionReport:
    """Do the two windows tile [1, bound] with no overlap?

    Index 0 belongs to both sequences by definition, so the check runs
    over [1, bound] and reports the first violation of either kind.
    """
    alpha, beta = _positive(alpha), _positive(beta)
    if compare(alpha, 1) <= 0 or compare(beta, 1) <= 0:
        raise DomainError("partition checking needs alpha, beta > 1")
    wa, wb = window(alpha, bound), window(beta, bound)
    first_shared = _lowest(wa.word & wb.word & ~1)
    first_uncovered = _first_uncovered(wa.word, wb.word, bound)
    shared_witnesses = (None if first_shared is None
                        else (wa.witness(first_shared), wb.witness(first_shared)))
    ok = first_shared is None and first_uncovered is None
    return PartitionReport(ok, bound, first_shared, first_uncovered, shared_witnesses)


def _first_uncovered(a: int, b: int, bound: int) -> Optional[int]:
    """Least k in [1, bound] in neither of the words a and b, or None: the
    lowest zero bit of a | b | 1."""
    k = _lowest(~(a | b | 1))
    return k if k <= bound else None


class ArithProgression(namedtuple("ArithProgression", "modulus residue")):
    """m*t + k for t = 0, 1, 2, ...  with 0 <= k < m."""

    __slots__ = ()

    def __new__(cls, modulus: int, residue: int):
        if modulus < 1 or not 0 <= residue < modulus:
            raise DomainError(f"bad progression ({modulus}, {residue})")
        return super().__new__(cls, modulus, residue)

    def covers(self, x: int) -> bool:
        return x >= 0 and x % self.modulus == self.residue


class ApDecompositionReport(NamedTuple):
    progressions: tuple[ArithProgression, ...]
    ok: bool
    checked_to: int
    mismatch: Optional[int] = None


def ap_decomposition(p: int, q: int, bound: int) -> ApDecompositionReport:
    """Decompose the floor sequence of p/q > 1 into q progressions mod p.

    The residues are floor(p*r/q) for r = 0..q-1; the union is verified
    against the window.  Residue p-1 never occurs: p*r/q <= p - p/q < p - 1
    for reduced p/q > 1, so every residue is at most p-2.  The q residues,
    one period's members, are refused past WINDOW_LIMIT before any is built.
    """
    if q < 1 or p < 1:
        raise DomainError("need positive integers p, q")
    g = gcd(p, q)
    p, q = p // g, q // g
    if p <= q:
        raise DomainError(f"need p/q > 1, got {p}/{q}")
    if q > WINDOW_LIMIT:
        raise ResourceLimitError(f"{q} progressions exceed WINDOW_LIMIT = {WINDOW_LIMIT}")
    word = window(Fraction(p, q), bound).word  # refuses a bad or oversized window first
    progs = tuple(ArithProgression(p, (p * r) // q) for r in range(q))
    period = bytearray(b"0" * min(p, bound + 1))  # ASCII 0/1, residue k at byte k
    for pr in progs:
        if pr.residue <= bound:
            period[pr.residue] = ord("1")
    predicted, size = int(period[::-1], 2), len(period)
    while size <= bound:  # one period int, doubled past the bound
        predicted |= predicted << size
        size *= 2
    mismatch = _lowest(word ^ (predicted & ((1 << bound + 1) - 1)))
    return ApDecompositionReport(progs, mismatch is None, bound, mismatch)


# -- separation ---------------------------------------------------------

FOUND = "found"
UNSUPPORTED = "unsupported"  # no longer returned; perfbench's separation check reads the name


class SeparationResult(namedtuple("SeparationResult", "status witness container trace")):
    """container names the input whose sequence holds the witness."""

    __slots__ = ()

    def __new__(cls, status: str, witness: Optional[int], container: Optional[str],
                trace: Optional[dict] = None):
        return super().__new__(cls, status, witness, container, {} if trace is None else trace)


def separation_witness(alpha, beta) -> SeparationResult:
    """The least k lying in exactly one of the two sequences, verified by
    member() on both sides.

    For 1 < small < big, let n be the least index with
    floor(n*small) < floor(n*big): the least denominator of a fraction in
    (small, big] (Th. Bang, 1957).  Every earlier term agrees, and the
    next big-term exceeds k = floor(n*small), so k is in the small
    slope's sequence only, and no smaller integer is in just one.
    """
    alpha, beta = _positive(alpha), _positive(beta)
    if compare(alpha, 1) <= 0 or compare(beta, 1) <= 0:
        raise DomainError("separation needs alpha, beta > 1")
    order = compare(alpha, beta)
    if order == 0:
        raise DomainError("alpha and beta must be distinct")
    small, big, small_name = (beta, alpha, "beta") if order > 0 else (alpha, beta, "alpha")
    n = least_denominator(small, False, big, True)
    x = floor_of(small * n)
    if member(small, x) is None or member(big, x) is not None:
        raise AssertionError(f"separation witness {x} failed its membership re-check")
    return SeparationResult(FOUND, x, small_name, {"method": "least-split", "n": n})


# -- certificates -------------------------------------------------------


class CertKind(str, Enum):
    DISJOINT = "disjoint"
    COVER = "cover"
    SUBSET = "subset"
    PARTITION = "partition"
    FACT_C = "fact_c"
    FACT_D = "fact_d"
    FACT_F_PRIME = "fact_f_prime"


class Certificate(NamedTuple):
    kind: CertKind
    a: int
    b: int
    c: int


def _unit(a: int, b: int, c: int) -> bool:
    return a > 0 and b > 0 and c == 1


class _Rule(NamedTuple):
    """A kind's relation a*X + b*Y = c: X is 1 - 1/alpha when co_alpha is
    set and 1/alpha otherwise (Y likewise for beta), the two slopes are
    both rational or both irrational, and side holds of (a, b, c)."""

    co_alpha: bool
    co_beta: bool
    rational: bool
    side: Callable[[int, int, int], bool]


_RULES = {
    CertKind.DISJOINT: _Rule(False, False, False, _unit),
    CertKind.COVER: _Rule(True, True, False, _unit),
    CertKind.SUBSET: _Rule(False, True, False, _unit),
    CertKind.PARTITION: _Rule(False, False, False, lambda a, b, c: a == b == c == 1),
    CertKind.FACT_C: _Rule(False, False, False, lambda a, b, c: a * b < 0 and c != 0),
    CertKind.FACT_D: _Rule(False, False, False,
                           lambda a, b, c: a > 0 and b > 0 and c > 1 and gcd(a, b, c) == 1),
    CertKind.FACT_F_PRIME: _Rule(False, True, True, _unit),
}


def _slots(rule: _Rule, alpha: ExactReal, beta: ExactReal) -> tuple[tuple, Optional[tuple]]:
    """The kind's X and Y as rows (a, b, c, d), meaning (a + b*sqrt(d))/c
    with c != 0, Y read over X's radicand (_over); Y is None across two
    fields.  For a slope s = (a + b*sqrt(d))/c of norm n = a^2 - b^2*d,
    1/s = (c*a - c*b*sqrt(d))/n and 1 - 1/s = (n - c*a + c*b*sqrt(d))/n."""
    def slot(slope, co):
        a, b, c, d = _row(slope)
        n = a * a - b * b * d  # not 0: the slope is positive
        return (n - c * a, c * b, n, d) if co else (c * a, -c * b, n, d)
    x = slot(alpha, rule.co_alpha)
    return x, _over(slot(beta, rule.co_beta), x[3])


def _check_pairing(kind: CertKind, alpha: ExactReal, beta: ExactReal):
    rational = is_rational(alpha)
    if rational != is_rational(beta):
        raise UnsupportedPairingError(
            "mixed rational/irrational pairs have no exact certificate search"
        )
    if rational != _RULES[kind].rational:
        need = "require two irrational slopes" if rational else "are about rational slopes"
        raise UnsupportedPairingError(f"{kind.value} certificates {need}")


def _primitive_relation(x: tuple, y: tuple) -> Optional[tuple[int, int, int]]:
    """The integer relation A*x + B*y = C with C >= 0 and gcd(A, B, C) = 1
    of two irrational rows (_slots); every other is a multiple.  None
    across two fields (y is None): there 1, sqrt(d) and sqrt(e) are
    independent over the rationals, so only A = B = C = 0 relates them.

    In one field the radical parts cancel, A*b1/c1 + B*b2/c2 = 0, so (A, B)
    is a multiple of the coprime pair along (b2*c1, -b1*c2), and the
    reduced denominator of A*a1/c1 + B*a2/c2 scales it to integers.
    """
    if y is None:
        return None
    (a1, b1, c1, _), (a2, b2, c2, _) = x, y
    g = gcd(b2 * c1, b1 * c2)
    A, B = b2 * c1 // g, -b1 * c2 // g
    num, den = A * a1 * c2 + B * a2 * c1, c1 * c2  # C = num/den
    g = gcd(num, den)
    j = den // g if num >= 0 else -den // g
    return j * A, j * B, abs(num) // g


def _solve_unit_rational(x: tuple, y: tuple):
    """Integer a, b >= 1 with a*x + b*y = 1 for two rational rows (_slots,
    positive denominators), the one with the least b; None when none
    exist.  Slots of slopes above 1 lie in (0, 1), so a < 1/x and b < 1/y:
    the positive solutions are finite, and a falls as b grows."""
    (nx, _, mx, _), (ny, _, my, _) = x, y
    den = lcm(mx, my)
    A, B = nx * (den // mx), ny * (den // my)  # a*A + b*B = den
    g = gcd(A, B)
    if den % g:
        return None
    A, B, den = A // g, B // g, den // g
    b = den * pow(B, -1, A) % A or A  # b*B = den mod A, coprime A and B
    a = (den - b * B) // A
    return (a, b, 1) if a >= 1 else None


def certificate_search(kind: CertKind, alpha, beta):
    """The integer relation certifying `kind`, or None when none exists.

    Every integer relation of two irrational slots is a multiple of the
    primitive one.  A unit kind needs its C = 1 and fact_d its gcd 1, and
    fact_c holds for a multiple exactly when it holds for the primitive
    relation, the least; so that relation is the only candidate.  Two
    rational slots take the least-b positive solution of a*X + b*Y = 1.
    The defining relation of any returned certificate is re-verified
    exactly before it is handed back.  Two irrational slopes from
    different fields have no relation, so no certificate.
    """
    alpha, beta = _positive(alpha), _positive(beta)
    if compare(alpha, 1) <= 0 or compare(beta, 1) <= 0:
        raise DomainError("certificates are about slopes > 1")
    kind = CertKind(kind)
    _check_pairing(kind, alpha, beta)
    rule = _RULES[kind]
    x, y = _slots(rule, alpha, beta)
    found = _solve_unit_rational(x, y) if rule.rational else _primitive_relation(x, y)
    if found is None or not rule.side(*found):
        return None
    cert = Certificate(kind, *found)
    if not verify_certificate(cert, alpha, beta):
        raise AssertionError(f"solver produced a non-verifying certificate {cert}")
    return cert


def verify_certificate(cert: Certificate, alpha, beta) -> bool:
    """Does the certificate's defining relation hold exactly, with its
    sign/coprimality side conditions?  Over c1*c2, a*X + b*Y - c is the
    row (a*a1*c2 + b*a2*c1 - c*c1*c2) + (a*b1*c2 + b*b2*c1)*sqrt(d) in
    one field (_slots), zero when both parts are.  Across two fields only
    a = b = 0 makes the radical parts vanish, and no side condition allows it."""
    alpha, beta = _positive(alpha), _positive(beta)
    rule = _RULES[cert.kind]
    (a1, b1, c1, _), y = _slots(rule, alpha, beta)
    if y is None:
        return False
    a2, b2, c2, _ = y
    a, b, c = cert.a, cert.b, cert.c
    return (rule.side(a, b, c) and a * a1 * c2 + b * a2 * c1 == c * c1 * c2
            and a * b1 * c2 + b * b2 * c1 == 0)


class ImplicationReport(NamedTuple):
    ok: bool
    kind: CertKind
    checked_to: int
    violation: Optional[str] = None


def verify_implication(kind, alpha, beta, cert: Certificate, bound: int) -> ImplicationReport:
    """Check the set relation a certificate implies, over [0, bound].

    fact_c and fact_d stop at the first shared member (common_elements).
    A FAIL here never means the mathematics is wrong; it flags an
    implementation bug, which is exactly why the check exists.
    """
    kind = CertKind(kind)
    alpha, beta = _positive(alpha), _positive(beta)
    _check_pairing(kind, alpha, beta)
    if not verify_certificate(cert, alpha, beta):
        raise InvalidCertificateError(
            f"certificate {cert} does not hold for the given pair"
        )
    if kind in (CertKind.FACT_C, CertKind.FACT_D):
        shared = common_elements(alpha, beta, 0, 1, limit=bound).found
        violation = None if shared else f"no common element in [1, {bound}]"
        return ImplicationReport(violation is None, kind, bound, violation)
    a, b = window(alpha, bound).word, window(beta, bound).word
    first_shared = _lowest(a & b & ~1)
    violation = None
    if kind in (CertKind.DISJOINT, CertKind.PARTITION) and first_shared is not None:
        violation = f"{first_shared} is in both sequences"
    if violation is None and kind in (CertKind.COVER, CertKind.PARTITION):
        missing = _first_uncovered(a, b, bound)
        if missing is not None:
            violation = f"{missing} is in neither sequence"
    if violation is None and kind in (CertKind.SUBSET, CertKind.FACT_F_PRIME):
        only_a = _lowest(a & ~b)
        if only_a is not None:
            violation = f"{only_a} is in the first sequence only"
    return ImplicationReport(violation is None, kind, bound, violation)


# -- intersection and density probes -----------------------------------


class CommonScan(NamedTuple):
    found: tuple[int, ...]
    exhausted: bool
    scanned_to: int


def common_elements(alpha, beta, start: int, count: int,
                    *, limit: int = DEFAULT_SCAN_LIMIT) -> CommonScan:
    """First `count` shared values above `start`: the set bits of A & B for
    the two words (_word), built at about 2*start + 256 integers and doubled
    up to limit + 1, so spanning under 3*(limit + 1) integers per word in
    all; A & B is read as ASCII 0/1 (_bits) once per round.  An unfilled
    result at `limit` carries exhausted=True; a round whose words pass
    WORD_LIMIT is refused before they are built (_word), after the same
    rounds at every limit past it.  scanned_to is the least term of either
    sequence above the last value found, or at index 1 when count is 0.
    """
    alpha, beta = _positive(alpha), _positive(beta)
    if count < 0 or start < 0:
        raise DomainError("need start >= 0 and count >= 0")
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    ratios = [_last_convergents(x, mu(x, limit) + 1)[4] for x in (alpha, beta)]
    found = []
    n = min(2 * start + 256, limit + 1)
    while len(found) < count:
        a, b = (_word(p, q, n) for p, q in ratios)
        shared = _bits(a & b)
        k = found[-1] if found else start
        while len(found) < count and (k := shared.find(b"1", k + 1)) > 0:
            found.append(k)
        if len(found) < count:
            if n == limit + 1:
                return CommonScan(tuple(found), True, limit)
            n = min(2 * n, limit + 1)
    after = [(-(-(found[-1] + 1) * q // p) if found else 1) * p // q for p, q in ratios]
    return CommonScan(tuple(found), False, min(after))


def _first_in_windows(windows, limit: int) -> Optional[int]:
    """Least n <= limit with low/D < frac(n*alpha) < high/D for every
    (row, D, low, high), alpha irrational of row (a, b, c, d), re-checked
    exactly, or None.

    D*frac(n*alpha) is never an integer, so the test is
    low <= floor(n*D*alpha) mod D < high.  With p/q the convergent of
    D*alpha past the limit (_last_convergents, on the row (a*D, b*D, c, d)),
    that floor is n*p // q, and it lies in [low, high) exactly when
    n*p mod q*D lies in [low*q, high*q - 1].  The narrowest window steps
    from one hit n0 to the next, n0 + 1 + x for the least x of
    _first_hit (O(log(q*D)) levels); the others are tested at each hit
    in integers.  The answer is re-checked in every window by the floor
    of the row (a*D*n, b*D*n, c, d).
    """
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if len(windows) > 1:  # the narrowest first: it has the fewest hits to step through
        windows = sorted(windows, key=lambda w: Fraction(w[3] - w[2], w[1]))
    tests = []
    for (a, b, c, d), D, low, high in windows:
        row = a * D, b * D, c, d
        p, q = _last_convergents(row, limit)[4]
        tests.append((p, q * D, low * q, high * q - 1, row, D, low, high))
    (p, M, L, R, *_), *others = tests
    n = 0
    while True:
        x = _first_hit(p, p * (n + 1), M, L, R)
        if x is None or (n := n + 1 + x) > limit:
            return None
        if all(L2 <= n * p2 % M2 <= R2 for p2, M2, L2, R2, *_ in others):
            break
    for *_, (a, b, c, d), D, low, high in tests:
        if not low <= _floor_row(a * n, b * n, c, d) % D < high:
            raise AssertionError(f"index {n} failed its fractional-part re-check")
    return n


def _scaled(lo: Fraction, hi: Fraction, fault: str) -> tuple[int, int, int]:
    """(D, lo*D, hi*D) for D the common denominator of lo and hi, in
    integers; DomainError(fault) unless 0 <= lo < hi <= 1."""
    D = lcm(lo.denominator, hi.denominator)
    low, high = lo.numerator * (D // lo.denominator), hi.numerator * (D // hi.denominator)
    if not 0 <= low < high <= D:
        raise DomainError(fault)
    return D, low, high


def dmo_window_search(alpha, lo, hi, limit: int) -> Optional[int]:
    """Least n <= limit with lo < frac(n*alpha) < hi (_first_in_windows)."""
    alpha = _positive(alpha)
    lo, hi = ensure_rational(lo, "lo"), ensure_rational(hi, "hi")
    sides = _scaled(lo, hi, "need 0 <= lo < hi <= 1")
    if is_rational(alpha):
        raise RationalInputError("fractional-part searches need irrational alpha")
    return _first_in_windows([(_row(alpha), *sides)], limit)


def residue_search(alpha, modulus: int, residue: int, limit: int) -> Optional[int]:
    """Least n <= limit with floor(n*m*alpha) = residue (mod m): as that floor
    mod m is floor(m*frac(n*alpha)), the window (residue/m, (residue+1)/m)."""
    alpha = _positive(alpha)
    if is_rational(alpha):
        raise RationalInputError("residue searches need irrational alpha")
    if not 0 <= residue < modulus:
        raise DomainError("need 0 <= residue < modulus")
    return _first_in_windows([(_row(alpha), modulus, residue, residue + 1)], limit)


def _int_nth_root(x: int, n: int) -> int:
    """Largest u >= 0 with u**n <= x, for x >= 1."""
    hi = 1 << (x.bit_length() // n + 1)
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo


def pth_root_dmo_witness(p: int, lo, hi) -> tuple[int, int]:
    """Integers (M, n) with lo < M**(1/p) - n < hi, verified by p-th powers.

    Scans n upward; the interval ((n+lo)^p, (n+hi)^p) is guaranteed to
    contain an integer once n exceeds the (p-1)-th root of t/p for the
    mesh denominator t, so termination is certain; ResourceLimitError
    when that bound is past DEFAULT_SCAN_LIMIT and no n up to it works, or
    at the first n whose powers could pass POWER_BITS_LIMIT bits, untaken.
    """
    if p < 2:
        raise DomainError("root degree must be >= 2")
    lo, hi = ensure_rational(lo, "lo"), ensure_rational(hi, "hi")
    if not (0 <= lo < hi < 1):
        raise DomainError("need 0 <= lo < hi < 1")
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    for n in range(1, DEFAULT_SCAN_LIMIT + 1):
        bits = p * ((n + 1) * max(b, d)).bit_length()  # bounds b^p, d^p, (n*b + a)^p, (n*d + c)^p
        if bits > POWER_BITS_LIMIT:
            raise ResourceLimitError(f"{bits}-bit powers at n = {n} exceed POWER_BITS_LIMIT = {POWER_BITS_LIMIT}")
        if n == 1:  # lcm(b, d) < 2^bits, so the root's powers stay under bits bits too
            bp, dp = b**p, d**p
            n_stop = _int_nth_root(lcm(b, d) // p + 1, p - 1) + 2
        if n > n_stop:
            break
        m = (n * b + a) ** p // bp + 1  # the least integer above (n + lo)^p
        if m * dp < (n * d + c) ** p:
            return m, n
    if n_stop > DEFAULT_SCAN_LIMIT:
        raise ResourceLimitError(
            f"no witness up to DEFAULT_SCAN_LIMIT = {DEFAULT_SCAN_LIMIT}; "
            f"one is proven only below {n_stop}"
        )
    raise AssertionError("no witness below the guaranteed-termination bound")


def kronecker_search(alpha, beta, rect, limit: int) -> Optional[int]:
    """Least n <= limit with frac(n*alpha) in (l1, r1) and frac(n*beta)
    in (l2, r2) (_first_in_windows): one step per hit of the narrower
    window up to the answer."""
    alpha, beta = _positive(alpha), _positive(beta)
    if is_rational(alpha) or is_rational(beta):
        raise RationalInputError("fractional-part searches need irrationals")
    l1, r1, l2, r2 = (ensure_rational(x, "a rectangle side") for x in rect)
    fault = "rectangle sides must satisfy 0 <= l < r <= 1"
    return _first_in_windows([(_row(alpha), *_scaled(l1, r1, fault)),
                              (_row(beta), *_scaled(l2, r2, fault))], limit)


def agreement_radius(rho, m: int) -> Fraction:
    """Perturbation radius below which windows cannot change under m.

    For rational rho = p/q, round m up to the least multiple m' of q and
    return 1/m'^2: any alpha with 0 < alpha - rho < 1/m'^2 produces the
    same window below m.
    """
    rho = ensure_rational(rho, "rho")
    if rho <= 1:
        raise DomainError("agreement radius is about rational slopes > 1")
    if m < 1:
        raise DomainError("need m >= 1")
    q = rho.denominator
    mprime = m if m % q == 0 else (m // q + 1) * q
    return Fraction(1, mprime * mprime)


HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"


class Claim51Report(namedtuple("Claim51Report", "status m t k separator details")):
    __slots__ = ()

    def __new__(cls, status: str, m: Optional[int] = None, t: Optional[int] = None,
                k: Optional[int] = None, separator: Optional[int] = None,
                details: Optional[dict] = None):
        return super().__new__(cls, status, m, t, k, separator, {} if details is None else details)


def claim51_check(rho, beta) -> Claim51Report:
    """Empirical probe of the paper's Claim 5.1 separation construction.

    Applicable when beta is irrational, 1 < beta < rho < 2 and
    t = (m+1)*rho/(rho-1) is an integer for m = floor((beta-1)(rho-1)/(rho-beta)).
    The probe then evaluates whether t + 1 = floor((k+1)*rho) separates
    the two sequences, with k = (m+1)/(rho-1).  That is the construction's
    witness, not the least one separation_witness returns.  Nothing is
    assumed: every membership is re-derived and the report says what
    happened.
    """
    rho = ensure_rational(rho, "rho")
    beta = ensure_exact(beta)
    if is_rational(beta):
        return Claim51Report(NOT_APPLICABLE, details={"reason": "beta is rational"})
    if not (1 < rho < 2) or compare(beta, 1) <= 0 or compare(beta, rho) >= 0:
        return Claim51Report(
            NOT_APPLICABLE, details={"reason": "need 1 < beta < rho < 2"}
        )
    m = floor_of((beta - 1) * (rho - 1) / (rho - beta))
    t_exact = (m + 1) * rho / (rho - 1)
    if t_exact.denominator != 1:
        return Claim51Report(
            NOT_APPLICABLE, m=m,
            details={"reason": "(m+1)*rho/(rho-1) is not an integer"},
        )
    t = int(t_exact)
    k = t - (m + 1)  # equals (m+1)/(rho-1), integral whenever t is
    x = t + 1
    floor_next = floor_of(rho * (k + 1))
    in_rho = member(rho, x)
    in_beta = member(beta, x)
    ok = floor_next == x and in_rho is not None and in_beta is None
    details = {
        "floor_(k+1)rho": floor_next,
        "member_rho": in_rho,
        "member_beta": in_beta,
    }
    return Claim51Report(HOLDS if ok else FAILS, m, t, k, x if ok else None, details)
