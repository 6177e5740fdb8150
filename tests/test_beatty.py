import random
import sys
import time
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from dioapprox import beatty, oracle
from dioapprox.errors import (
    DomainError,
    InvalidCertificateError,
    RationalInputError,
    ResourceLimitError,
    UnsupportedPairingError,
)
from dioapprox.exactnum import compare, floor_of, frac_of, quad, sqrt_int
from support import (PHI, PHI_SQ, SQRT2, SQRT3, SQUAREFREE_POOL, counted_levels, lame_bound,
                     peak_traced)


def test_term_examples():
    assert beatty.beatty_term(SQRT2, 5) == 7
    assert beatty.beatty_term(PHI, 0) == 0
    assert beatty.beatty_term(Fraction(3, 2), 7) == 10
    with pytest.raises(DomainError, match="index must be >= 0"):
        beatty.beatty_term(SQRT2, -1)


def test_member_examples():
    assert beatty.member(SQRT2, 9) == 7
    assert beatty.member(SQRT2, 3) is None
    # every k is hit when the slope is at most 1
    witness = beatty.member(Fraction(1, 2), 5)
    assert witness in (10, 11)
    assert floor_of(Fraction(1, 2) * witness) == 5


def test_member_agrees_with_enumeration():
    rng = random.Random(2)
    for alpha in (SQRT2, PHI, Fraction(7, 3), Fraction(4, 5)):
        members = oracle.beatty_naive(alpha, 200)
        for k in range(0, 201):
            witness = beatty.member(alpha, k)
            assert (witness is not None) == (k in members)
            if witness is not None:
                assert floor_of(alpha * witness) == k


def _seeded_slope(rng, kind):
    """A slope above 1/4: rational, over a small radicand, or over a
    radicand past 10^12 (P^2*Q keeps its square part); some lie below 1."""
    if kind == 0:
        return Fraction(rng.randint(1, 400), rng.randint(1, 120))
    if kind == 1:
        x = quad(rng.randint(-9, 40), rng.choice([-1, 1, 2, 3]), rng.randint(1, 25),
                 rng.choice(SQUAREFREE_POOL))
    else:
        d = rng.choice([10**12 + 39, 1_000_003**2 * 1_000_033])
        s = isqrt(d)
        x = quad(rng.randint(-5, 5) * s, rng.choice([-1, 1]), rng.randint(1, 8) * s, d)
    return x if compare(x, Fraction(1, 4)) > 0 else rng.randint(1, 3) - x


def test_member_and_mu_match_the_oracle_on_seeded_slopes():
    rng = random.Random(37)
    for i in range(2000):
        alpha = _seeded_slope(rng, i % 3)
        cap = rng.randint(0, 120)
        members = oracle.beatty_naive(alpha, cap)
        for k in {rng.randint(0, cap), rng.randint(0, cap), cap}:
            witness = beatty.member(alpha, k)
            assert (witness is not None) == (k in members), (alpha, k)
            if witness is not None:  # the least index
                assert floor_of(alpha * witness) == k
                assert witness == 0 or floor_of(alpha * (witness - 1)) < k
        if compare(alpha, 1) > 0:  # distinct floors: n >= 1 counts members from 1 on
            assert beatty.mu(alpha, cap) == len(members) - 1, (alpha, cap)
        else:
            n = beatty.mu(alpha, cap)
            assert floor_of(alpha * n) <= cap < floor_of(alpha * (n + 1)), (alpha, cap)


def test_window_examples():
    win = beatty.window(PHI, 12)
    assert win.members == (0, 1, 3, 4, 6, 8, 9, 11, 12)
    assert win.witnesses[12] == 8 and win.witnesses is win.witnesses  # computed once
    with pytest.raises(AttributeError):
        win.members = ()
    assert beatty.window(PHI_SQ, 13).members == (0, 2, 5, 7, 10, 13)
    assert beatty.window(1, 5).members == (0, 1, 2, 3, 4, 5)


def _random_slope(rng, lo, hi):
    """A rational or (a + sqrt(d))/c strictly inside (lo, hi)."""
    while True:
        if rng.random() < 0.4:
            c = rng.randrange(2, 60)
            x = Fraction(rng.randrange(int(lo * c), int(hi * c) + 1), c)
        else:
            d, c = rng.choice((2, 3, 5, 6, 7, 10, 13, 19, 29)), rng.randrange(1, 40)
            x = quad(round(rng.uniform(lo, hi) * c - d**0.5), 1, c, d)
        if compare(x, Fraction(lo)) > 0 and compare(x, Fraction(hi)) < 0:
            return x


def test_window_matches_oracle_with_witnesses():
    rng = random.Random(43)
    cases = [(alpha, 500) for alpha in (PHI, PHI_SQ, SQRT2, Fraction(7, 3), Fraction(2, 3))]
    # random slopes below 1, at 1 and above 1
    for lo, hi in ((0.05, 1), (1, 1.5), (1.5, 4), (4, 40)):
        cases += [(_random_slope(rng, lo, hi), rng.randrange(300)) for _ in range(12)]
    cases += [(Fraction(1), 300), (quad(0, 1, 2, 2), 200)]
    # rationals with large denominators, next to 1 and far from it
    cases += [(Fraction(10**12 + 1, 10**12), 3000), (Fraction(10**12 - 1, 10**12), 3000),
              (Fraction(31415926535897, 10**13), 2000), (Fraction(10**9 + 7, 998244353 * 3), 500)]
    # radicands 10^6 to 10^8: sqrt(d)/m just below 1, near 2 and near 7
    for d in (1000003, 12345679, 99999989):
        r = isqrt(d)
        cases += [(quad(0, 1, r + 1, d), 400), (quad(0, 1, r // 2, d), 1000),
                  (quad(0, 1, r // 7, d), 1000)]
    # tiny slopes, and the ends of the bound range
    cases += [(SQRT2 / 10**4, 3), (PHI / 10**3, 20), (Fraction(1, 10**4), 3)]
    cases += [(alpha, bound) for alpha in (PHI, SQRT2 / 7, Fraction(5, 3)) for bound in (0, 1)]
    cases += [(PHI_SQ, 10**5)]
    for alpha, bound in cases:
        win = beatty.window(alpha, bound)
        assert set(win.members) == oracle.beatty_naive(alpha, bound)
        for k, n in win.witnesses.items():
            assert floor_of(alpha * n) == k
        assert win.members == tuple(sorted(win.members))
        assert tuple(win.witnesses) == win.members
        # each witness is the least index reaching its member
        for k, n in win.witnesses.items():
            assert n == 0 or floor_of(alpha * (n - 1)) < k


def _floor_word(p, q, n):
    """The indicator of {j*p // q} on [0, n) as an int, set one j at a
    time in a list of n binary digits (digit k for bit k)."""
    digits, j = ["0"] * n, 0
    while j * p // q < n:
        digits[j * p // q] = "1"
        j += 1
    return int("".join(reversed(digits)) or "0", 2)


def _members_of(word):
    """The set bits of an int word, one bit at a time."""
    return tuple(k for k in range(word.bit_length()) if word >> k & 1)


def test_word_matches_floor_reference():
    rng = random.Random(61)
    cases = [(1, 1, 50), (7, 1, 30), (7, 3, 1), (7, 3, 0), (8, 5, 100), (10**12, 1, 40)]
    # lengths either side of a byte, a 30-bit digit and a 64-bit word, at
    # slopes below 1, of 1, with short blocks, and a huge partial quotient
    cases += [(p, q, n) for p, q in ((2, 3), (1, 1), (3, 2), (8, 5), (13, 8), (10**12, 1),
                                     (10**12 + 1, 10**12), (2 * 10**12 + 1, 2))
              for n in (0, 1, 7, 8, 9, 29, 30, 31, 63, 64, 65)]
    for _ in range(800):
        q = rng.choice((rng.randrange(1, 40), rng.randrange(1, 10**6), rng.randrange(1, 10**12)))
        p = q + rng.choice((rng.randrange(q + 5), rng.randrange(10**12)))
        if gcd(p, q) == 1:  # a prefix, or several periods when p is small
            cases.append((p, q, rng.randrange(4 * p + 3) if p < 2000 else rng.randrange(3000)))
    cases += [(p, 10**12 + 39, 2000) for p in (10**12 + 40, 2 * 10**12 + 79, 3 * 10**12 + 1)]
    for p, q, n in cases:
        assert beatty._word(p, q, n) == _floor_word(p, q, n), (p, q, n)


def test_window_on_a_huge_partial_quotient():
    # sqrt(10^12 + 1)/10^6 = [1; 2*10^12, ...] and twice it [2; 10^12, ...]
    for m in (1, 2):
        alpha = quad(0, m, 10**6, 10**12 + 1)
        win = beatty.window(alpha, 10**5)
        # bits 0, m, 2m, ... up to 10^5: the repunit (2^(10^5 + m) - 1)/(2^m - 1)
        assert win.word == ((1 << 10**5 + m) - 1) // ((1 << m) - 1)
        assert win.members == tuple(range(0, 10**5 + 1, m))
        assert set(beatty.window(alpha, 500).members) == oracle.beatty_naive(alpha, 500)


def test_sparse_window_members(monkeypatch):
    """Slope 100 over 10^7 integers: 100,000 members, found one by one
    with no walk over every integer of the word (the walk, compress, is
    made to fail) and no Python line run per member, let alone per
    integer (a trace counts the lines run in beatty).  Either side of
    slope 5, where the walk takes over, members are the set bits of the
    word."""
    win = beatty.window(100, 10**7 - 1)

    def walk(*_):
        raise AssertionError("the word was walked integer by integer")

    lines = []

    def trace(frame, event, _):
        if frame.f_globals is vars(beatty):
            lines.append(event)
            return trace
        return None

    monkeypatch.setattr(beatty, "compress", walk)
    sys.settrace(trace)
    try:
        members = win.members
    finally:
        sys.settrace(None)
    monkeypatch.undo()
    assert members == tuple(range(0, 10**7, 100))
    assert len(lines) < 100, len(lines)
    for alpha in (Fraction(49, 10), Fraction(5), Fraction(51, 10), 4 + SQRT2, 5 + SQRT2):
        win = beatty.window(alpha, 1000)
        assert win.members == _members_of(win.word)


def test_window_limit_guard():
    """A window is built whatever its member count; .members refuses past
    WINDOW_LIMIT before listing any, so the checks that read only words
    are bounded by WORD_LIMIT alone."""
    assert beatty.WINDOW_LIMIT == 10**6
    # 6,180,340 members; 1,000,001, as every integer is a member
    for alpha, bound in ((PHI, 10**7 - 1), (SQRT2 / 10**4, 10**6)):
        win = beatty.window(alpha, bound)
        exc, peak = peak_traced(lambda: win.members)
        assert isinstance(exc, ResourceLimitError) and "WINDOW_LIMIT" in str(exc)
        assert peak < 10**6  # beyond the word that already exists
    assert len(beatty.window(SQRT2 / 10**4, 10**5).members) == 10**5 + 1
    cert = beatty.Certificate(beatty.CertKind.PARTITION, 1, 1, 1)
    assert beatty.partition_check(PHI, PHI_SQ, 3 * 10**6).ok
    assert beatty.verify_implication(beatty.CertKind.PARTITION, PHI, PHI_SQ, cert, 3 * 10**6).ok
    assert beatty.ap_decomposition(7, 3, 5 * 10**6).ok


def test_word_checks_take_a_bit_per_integer():
    """The checks that read words hold a bit per integer: over the 10^7
    integers below WORD_LIMIT each keeps its traced peak within
    WORD_LIMIT bytes, a byte per integer."""
    cert = beatty.Certificate(beatty.CertKind.PARTITION, 1, 1, 1)
    bound = beatty.WORD_LIMIT - 1
    for call in (lambda: beatty.partition_check(PHI, PHI_SQ, bound),
                 lambda: beatty.verify_implication(beatty.CertKind.PARTITION, PHI, PHI_SQ,
                                                   cert, bound),
                 lambda: beatty.ap_decomposition(7, 3, bound)):
        report, peak = peak_traced(call)
        assert report.ok and report.checked_to == bound, report
        assert peak <= beatty.WORD_LIMIT, peak


def test_window_member_count_is_read_off_the_ratio(monkeypatch):
    """.members refuses exactly when it would list more than WINDOW_LIMIT:
    the count it reads off the ratio is the number of members, on random
    slopes, rational ones below 1 included."""
    rng = random.Random(71)
    for _ in range(300):
        alpha = rng.choice((Fraction(rng.randint(1, 60), rng.randint(1, 30)),
                            quad(rng.randint(0, 9), rng.randint(1, 5), rng.randint(1, 30),
                                 rng.choice(SQUAREFREE_POOL))))
        bound = rng.randrange(300)
        members = _members_of(beatty.window(alpha, bound).word)
        assert set(members) == oracle.beatty_naive(alpha, bound)
        monkeypatch.setattr(beatty, "WINDOW_LIMIT", len(members))
        assert beatty.window(alpha, bound).members == members
        monkeypatch.setattr(beatty, "WINDOW_LIMIT", len(members) - 1)
        with pytest.raises(ResourceLimitError, match="WINDOW_LIMIT"):
            beatty.window(alpha, bound).members


def test_word_limit_guard():
    """Every word is built by _word, which refuses one spanning more than
    WORD_LIMIT integers before building it, so each refusal here costs
    under 1 MB: a sparse window (few members, a long word), the checks
    that read windows' words, an oversized progression check before its
    prediction is built, and a scan whose first round would pass the
    limit."""
    assert beatty.WORD_LIMIT == 10**7
    cert = beatty.Certificate(beatty.CertKind.DISJOINT, 10**7, 10**7, 1)
    for call, limit in (
        (lambda: beatty._word(3, 2, 10**7 + 1), "WORD_LIMIT"),
        (lambda: beatty._word(2, 3, 10**7 + 1), "WORD_LIMIT"),  # all ones
        (lambda: beatty.window(10**7, 10**12), "WORD_LIMIT"),  # 100,001 members
        (lambda: beatty.window(PHI, 10**9), "WORD_LIMIT"),
        (lambda: beatty.window(SQRT2 / 10**4, 10**12), "WORD_LIMIT"),
        (lambda: beatty.partition_check(10**7, 10**7 + 1, 10**12), "WORD_LIMIT"),
        (lambda: beatty.verify_implication(beatty.CertKind.DISJOINT, 10**7 * PHI,
                                           10**7 * PHI_SQ, cert, 10**12), "WORD_LIMIT"),
        (lambda: beatty.ap_decomposition(10**12, 1, 10**13), "WORD_LIMIT"),
        (lambda: beatty.ap_decomposition(7, 3, 10**9), "WORD_LIMIT"),
        # 10^7 progressions of one period, refused before any is built
        (lambda: beatty.ap_decomposition(99999999999999999999, 10**7, 1000), "WINDOW_LIMIT"),
        # 10^6 progressions are allowed, but the window's word is refused before they are built
        (lambda: beatty.ap_decomposition(10**6 + 1, 10**6, 10**9), "WORD_LIMIT"),
        (lambda: beatty.common_elements(SQRT2, 1 + SQRT2, 10**7, 1, limit=10**8), "WORD_LIMIT"),
    ):
        exc, peak = peak_traced(call)
        assert isinstance(exc, ResourceLimitError) and limit in str(exc), exc
        assert peak < 10**6
    win = beatty.window(10**7, 10**7 - 1)  # spans WORD_LIMIT integers: allowed
    assert win.word == 1 and win.members == (0,)
    assert beatty._word(2, 3, beatty.WORD_LIMIT) == (1 << beatty.WORD_LIMIT) - 1
    # a huge modulus with a small bound needs a prediction of bound + 1 bits only
    assert beatty.ap_decomposition(10**12, 1, 10) == (
        (beatty.ArithProgression(10**12, 0),), True, 10, None)
    assert beatty.ap_decomposition(10**12 + 1, 2, 10).ok


def test_scan_rounds_meet_the_word_limit(monkeypatch):
    """A scan's words are refused only in the round that would pass
    WORD_LIMIT: a count met below it answers at any limit, and an empty
    scan refuses once its words have covered at least the first
    WORD_LIMIT/2 integers, at a traced peak of at most 8*WORD_LIMIT.
    The rounds below the limit are the same at every limit past it, so a
    larger limit never refuses what a smaller one answers."""
    scan = beatty.common_elements(SQRT2, 1 + SQRT2, 0, 3, limit=10**8)
    assert scan == beatty.common_elements(SQRT2, 1 + SQRT2, 0, 3) and scan.found == (2, 4, 7)
    # its last value 5,999,999 lies in the round of 8,388,608 bytes
    for limit in (15 * 10**6, 10**8):
        assert beatty.common_elements(SQRT2, 1 + SQRT2, 0, 2485281, limit=limit).found[-1] == 5999999
    word = beatty._word
    for limit in (10**7, 15 * 10**6, 10**8):
        built = []
        monkeypatch.setattr(beatty, "_word", lambda p, q, n: built.append(n) or word(p, q, n))
        exc, peak = peak_traced(lambda: beatty.common_elements(PHI, PHI_SQ, 0, 1, limit=limit))
        assert isinstance(exc, ResourceLimitError) and "WORD_LIMIT" in str(exc)
        assert peak <= 8 * beatty.WORD_LIMIT
        assert built[:-1] == [256 << k for k in range(16) for _ in "ab"]  # up to 8,388,608
        assert built[-1] == min(256 << 16, limit + 1) > beatty.WORD_LIMIT


def test_window_small_slope_covers_everything():
    # slope at most 1 fills the whole window
    for alpha in (Fraction(1), Fraction(1, 2), Fraction(2, 3), quad(0, 1, 2, 2)):
        assert beatty.window(alpha, 80).members == tuple(range(81))


def test_window_larger_slope_has_gap_early():
    for alpha in (Fraction(3, 2), PHI, 1 + frac_of(SQRT2)):
        bound = floor_of(1 / (alpha - 1)) + 2
        members = beatty.window(alpha, bound).member_set()
        assert members != set(range(bound + 1))


def test_mu_examples_and_identity():
    assert beatty.mu(PHI, 10) == 6
    assert beatty.mu(PHI_SQ, 10) == 4
    for h in range(0, 2000):
        assert beatty.mu(PHI, h) + beatty.mu(PHI_SQ, h) == h


def test_mu_matches_enumeration():
    for alpha in (PHI, SQRT2, Fraction(5, 2), Fraction(1, 2)):
        win_count = {}
        n = 1
        while True:
            v = floor_of(alpha * n)
            if v > 60:
                break
            win_count[n] = v
            n += 1
        for h in range(0, 61):
            assert beatty.mu(alpha, h) == sum(1 for v in win_count.values() if v <= h)


def test_partition_check_pass_pairs():
    assert beatty.partition_check(PHI, PHI_SQ, 2000).ok
    assert beatty.partition_check(SQRT2, 2 + SQRT2, 1000).ok


def test_partition_check_failure_report():
    rep = beatty.partition_check(Fraction(3, 2), Fraction(3), 100)
    assert not rep.ok
    assert rep.first_uncovered == 2
    assert rep.first_shared == 3
    assert rep.shared_witnesses == (2, 1)
    # a failure at the bound itself is inside the check
    assert beatty.partition_check(Fraction(3, 2), Fraction(3), 2) == (False, 2, None, 2, None)
    assert beatty.partition_check(Fraction(3, 2), Fraction(3), 1) == (True, 1, None, None, None)


def _corrupting_window(monkeypatch, which, edit):
    """Make beatty.window corrupt the window of its `which`-th call: drop
    its middle member, add its largest non-member, or both.  Returns the
    list of windows handed out."""
    real, handed = beatty.window, []

    def fake(alpha, bound):
        win = real(alpha, bound)
        if len(handed) == which:
            word = win.word
            mid = win.members[len(win.members) // 2]
            if "add" in edit:  # the highest zero bit in [1, bound]
                gaps = ~word & ((1 << win.bound + 1) - 2)
                assert gaps, "no non-member to add"
                word ^= 1 << gaps.bit_length() - 1
            if "drop" in edit:
                word ^= 1 << mid
            win = beatty.BeattyWindow(win.alpha, win.bound, word, win.ratio)
        handed.append(win)
        return win

    monkeypatch.setattr(beatty, "window", fake)
    return handed


def _per_k_partition(wa, wb, bound):
    """First shared k with its witnesses, and first uncovered k, one k at a time."""
    in_a, in_b = wa.member_set(), wb.member_set()
    first_shared = first_uncovered = shared_witnesses = None
    for k in range(1, bound + 1):
        a, b = k in in_a, k in in_b
        if a and b and first_shared is None:
            first_shared, shared_witnesses = k, (wa.witnesses[k], wb.witnesses[k])
        if not a and not b and first_uncovered is None:
            first_uncovered = k
    return first_shared, first_uncovered, shared_witnesses


def _set_implication(kind, wa, wb, bound):
    """The violation verify_implication should report, by set differences."""
    K = beatty.CertKind
    in_a, in_b = wa.member_set(), wb.member_set()
    shared = sorted((in_a & in_b) - {0})
    missing = sorted(set(range(1, bound + 1)) - (in_a | in_b))
    extra = sorted(in_a - in_b)
    if kind in (K.DISJOINT, K.PARTITION) and shared:
        return f"{shared[0]} is in both sequences"
    if kind in (K.COVER, K.PARTITION) and missing:
        return f"{missing[0]} is in neither sequence"
    if kind in (K.SUBSET, K.FACT_F_PRIME) and extra:
        return f"{extra[0]} is in the first sequence only"
    if kind in (K.FACT_C, K.FACT_D) and not shared:
        return f"no common element in [1, {bound}]"
    return None


def _per_k_ap(p, q, win, bound):
    residues = {(p * r) // q for r in range(q)}
    members = win.member_set()
    for k in range(bound + 1):
        if (k % p in residues) != (k in members):
            return k
    return None


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("edit", ["drop", "add", "drop+add"])
def test_checks_report_corrupted_windows(monkeypatch, which, edit):
    K = beatty.CertKind
    handed = _corrupting_window(monkeypatch, which, edit)
    for alpha, beta, bound in ((PHI, PHI_SQ, 300), (Fraction(3, 2), Fraction(3), 100),
                               (SQRT2, 2 + SQRT2, 250)):
        handed.clear()
        rep = beatty.partition_check(alpha, beta, bound)
        first_shared, first_uncovered, shared_witnesses = _per_k_partition(*handed, bound)
        assert (rep.first_shared, rep.first_uncovered) == (first_shared, first_uncovered)
        assert rep.shared_witnesses == shared_witnesses
        assert rep.ok == (first_shared is None and first_uncovered is None)
        if alpha == PHI:
            assert not rep.ok  # the complementary pair fails once corrupted
    fact_c = beatty.Certificate(K.FACT_C, 2, -1, 1)
    for kind, alpha, beta, cert in (
        (K.PARTITION, PHI, PHI_SQ, beatty.Certificate(K.PARTITION, 1, 1, 1)),
        (K.DISJOINT, 2 + SQRT2, SQRT2, beatty.Certificate(K.DISJOINT, 1, 1, 1)),
        (K.COVER, PHI, PHI_SQ, beatty.Certificate(K.COVER, 1, 1, 1)),
        (K.FACT_F_PRIME, Fraction(3), Fraction(3, 2), beatty.Certificate(K.FACT_F_PRIME, 2, 1, 1)),
        # a certificate of another kind: the implied relation fails uncorrupted
        (K.DISJOINT, SQRT2, 1 + SQRT2, fact_c),
        (K.SUBSET, SQRT2, 1 + SQRT2, fact_c),
    ):
        handed.clear()
        rep = beatty.verify_implication(kind, alpha, beta, cert, 200)
        assert rep.violation == _set_implication(kind, *handed, 200)
        assert rep.ok == (rep.violation is None)
    if which == 0:
        for p, q in ((7, 3), (11, 4)):
            handed.clear()
            rep = beatty.ap_decomposition(p, q, 150)
            assert rep.mismatch == _per_k_ap(p, q, handed[0], 150) is not None
            assert not rep.ok


def test_fact_implications_read_the_first_shared_member(monkeypatch):
    """fact_c and fact_d ask common_elements for one shared member above 0
    and build no window: an empty scan is the violation, one member a PASS."""
    K = beatty.CertKind
    cases = ((K.FACT_C, SQRT2, 1 + SQRT2, beatty.Certificate(K.FACT_C, 2, -1, 1)),
             (K.FACT_D, quad(2, 1, 2, 2), SQRT2, beatty.Certificate(K.FACT_D, 1, 2, 2)))
    for kind, alpha, beta, cert in cases:
        assert beatty.verify_implication(kind, alpha, beta, cert, 10**9).ok
        with pytest.raises(DomainError, match="limit must be >= 0, got -1"):
            beatty.verify_implication(kind, alpha, beta, cert, -1)
    monkeypatch.setattr(beatty, "window", None)  # a fact kind that read a window would fail
    calls = []

    def scanning(found):
        def scan(alpha, beta, start, count, *, limit):
            calls.append((alpha, beta, start, count, limit))
            return beatty.CommonScan(found, not found, limit)
        return scan

    for kind, alpha, beta, cert in cases:
        calls.clear()
        for found, violation in (((), "no common element in [1, 200]"), ((7,), None)):
            monkeypatch.setattr(beatty, "common_elements", scanning(found))
            rep = beatty.verify_implication(kind, alpha, beta, cert, 200)
            assert rep == beatty.ImplicationReport(violation is None, kind, 200, violation)
        assert calls == [(alpha, beta, 0, 1, 200)] * 2


def test_checks_match_per_k_scans_on_random_pairs():
    """Uncorrupted windows: partition_check on random pairs, complementary
    or not, and verify_implication of all seven kinds on pairs that satisfy
    each kind's relation, against the per-k and set-difference scans."""
    rng = random.Random(29)
    for _ in range(40):
        alpha = _random_slope(rng, 1.05, 4)
        beta = alpha / (alpha - 1) if rng.random() < 0.4 else _random_slope(rng, 1.05, 4)
        bound = rng.randrange(1, 500)
        rep = beatty.partition_check(alpha, beta, bound)
        wa, wb = beatty.window(alpha, bound), beatty.window(beta, bound)
        first_shared, first_uncovered, shared_witnesses = _per_k_partition(wa, wb, bound)
        assert (rep.first_shared, rep.first_uncovered) == (first_shared, first_uncovered)
        assert rep.shared_witnesses == shared_witnesses
        assert rep.ok == (first_shared is None and first_uncovered is None)
    for source in K:
        for _ in range(4):
            if source is K.FACT_F_PRIME:
                m = rng.randrange(2, 13)
                alpha, kinds = Fraction(rng.randrange(2 * m + 1, 3 * m), m), (source,)
            else:
                d = rng.choice(SQUAREFREE_POOL)
                alpha = 2 + frac_of(quad(rng.randrange(-5, 6), rng.randrange(1, 4), rng.randrange(1, 6), d))
                kinds = tuple(k for k in K if k is not K.FACT_F_PRIME)
            beta, bound = _built_beta(source, alpha), rng.randrange(1, 500)
            cert = beatty.certificate_search(source, alpha, beta)
            wa, wb = beatty.window(alpha, bound), beatty.window(beta, bound)
            for kind in kinds:
                rep = beatty.verify_implication(kind, alpha, beta, cert, bound)
                assert rep.violation == _set_implication(kind, wa, wb, bound), (kind, source)
                assert rep.ok == (rep.violation is None)


def test_ap_decomposition_examples():
    rep = beatty.ap_decomposition(7, 3, 50)
    assert [(p.modulus, p.residue) for p in rep.progressions] == [(7, 0), (7, 2), (7, 4)]
    assert rep.ok
    assert set(beatty.window(Fraction(7, 3), 20).members) == {0, 2, 4, 7, 9, 11, 14, 16, 18}

    rep = beatty.ap_decomposition(2, 1, 20)
    assert [(p.modulus, p.residue) for p in rep.progressions] == [(2, 0)] and rep.ok

    rep = beatty.ap_decomposition(3, 2, 30)
    assert [(p.modulus, p.residue) for p in rep.progressions] == [(3, 0), (3, 1)] and rep.ok
    # every bound, a whole number of periods or not
    assert all(beatty.ap_decomposition(7, 3, bound).ok for bound in range(70))


def test_ap_decomposition_distinct_residues_and_reduction():
    rep = beatty.ap_decomposition(14, 6, 100)  # reduces to 7/3
    assert [(p.modulus, p.residue) for p in rep.progressions] == [(7, 0), (7, 2), (7, 4)]
    for p, q in ((9, 4), (11, 3), (13, 5)):
        rep = beatty.ap_decomposition(p, q, 400)
        assert rep.ok
        residues = [pr.residue for pr in rep.progressions]
        assert len(set(residues)) == len(residues)
        assert (p - 1) not in residues


def test_ap_decomposition_rejects_slope_below_one():
    with pytest.raises(DomainError):
        beatty.ap_decomposition(2, 3, 10)
    for modulus, residue in ((3, 5), (0, 0), (3, -1)):
        with pytest.raises(DomainError):
            beatty.ArithProgression(modulus, residue)
    pr = beatty.ArithProgression(7, 2)
    assert [x for x in range(-7, 20) if pr.covers(x)] == [2, 9, 16]


# --- separation ----------------------------------------------------------

def test_separation_direct_case():
    res = beatty.separation_witness(Fraction(3), Fraction(5, 2))
    assert res.status == beatty.FOUND
    assert res.witness == 2 and res.container == "beta"
    assert res.trace == {"method": "least-split", "n": 1}


def test_report_dict_defaults_are_fresh():
    one, two = (beatty.SeparationResult(beatty.FOUND, 1, "alpha") for _ in range(2))
    one.trace["n"] = 1
    assert two.trace == {} and one.trace is not two.trace
    one, two = (beatty.Claim51Report(beatty.HOLDS) for _ in range(2))
    assert one.details == {} and one.details is not two.details
    assert repr(two) == ("Claim51Report(status='holds', m=None, t=None, k=None, "
                         "separator=None, details={})")


def test_separation_claim51_case_is_found():
    # rho = 3/2 above sqrt(2) with (m+1)*rho/(rho-1) = 9, the Claim 5.1 configuration
    res = beatty.separation_witness(Fraction(3, 2), SQRT2)
    assert res.status == beatty.FOUND
    assert res.witness == 2 and res.container == "beta"
    assert res.trace == {"method": "least-split", "n": 2}


def test_separation_conjugate_pairs():
    close_to_phi = quad(6, 5, 10, 5)  # phi + 1/10
    res = beatty.separation_witness(PHI, close_to_phi)
    assert res.status == beatty.FOUND and res.container == "alpha"
    # across radicands
    res = beatty.separation_witness(SQRT2, quad(1, 1, 2, 3))
    assert res.status == beatty.FOUND


def test_separation_rational_pairs():
    for a, b in ((Fraction(3, 2), Fraction(4, 3)), (Fraction(7, 5), Fraction(10, 7)),
                 (Fraction(5, 2), Fraction(7, 2)), (Fraction(9, 5), Fraction(11, 6))):
        res = beatty.separation_witness(a, b)
        assert res.status == beatty.FOUND


def test_separation_mixed_pairs():
    res = beatty.separation_witness(Fraction(7, 5), SQRT2)   # rational below
    assert res.status == beatty.FOUND
    res = beatty.separation_witness(SQRT2, Fraction(10, 7))  # irrational below
    assert res.status == beatty.FOUND


def test_separation_witnesses_are_genuine():
    rng = random.Random(13)
    pool = [Fraction(3), Fraction(5, 2), Fraction(3, 2), Fraction(4, 3),
            SQRT2, PHI, 2 + SQRT2, PHI_SQ, quad(1, 1, 2, 3), sqrt_int(3)]
    for _ in range(60):
        a, b = rng.sample(pool, 2)
        res = beatty.separation_witness(a, b)
        assert res.status == beatty.FOUND
        inside = a if res.container == "alpha" else b
        outside = b if res.container == "alpha" else a
        assert beatty.member(inside, res.witness) is not None
        assert beatty.member(outside, res.witness) is None


# The p/(p-1) family, pairs across quadratic fields, two large radicands
# and slopes within 10^-5 of 1.
SEPARATION_POOL = [
    Fraction(3, 2), Fraction(4, 3), Fraction(5, 4), Fraction(11, 10), Fraction(101, 100),
    Fraction(7, 5), Fraction(10, 7), Fraction(5, 2), Fraction(3), SQRT2, SQRT3, PHI,
    PHI_SQ, 2 + SQRT2, quad(1, 1, 2, 3), sqrt_int(1000003), sqrt_int(3000017),
    sqrt_int(1000003) / 1000, 1 + SQRT2 / 10**5,
]


def test_separation_is_least_against_naive():
    cap = 5000
    windows = [oracle.beatty_naive(x, cap) for x in SEPARATION_POOL]
    for i, a in enumerate(SEPARATION_POOL):
        for j, b in enumerate(SEPARATION_POOL):
            if i == j:
                continue
            res = beatty.separation_witness(a, b)
            assert res.status == beatty.FOUND and res.trace["method"] == "least-split"
            inside = windows[i] if res.container == "alpha" else windows[j]
            want = min(windows[i] ^ windows[j], default=None)  # least separating integer
            if res.witness <= cap:
                assert res.witness == want and res.witness in inside, (a, b)
            else:
                assert want is None, (a, b)


def test_separation_of_close_rationals():
    a, b = Fraction(10**6 + 1, 10**6), Fraction(10**6 + 3, 10**6 + 2)
    res = beatty.separation_witness(a, b)
    assert (res.witness, res.container, res.trace["n"]) == (10**6, "beta", 10**6)
    cap = oracle.BEATTY_GUARD
    assert oracle.beatty_naive(a, cap) == oracle.beatty_naive(b, cap)


def test_separation_by_cases_is_genuine_and_never_least():
    pool = SEPARATION_POOL[:16]
    unconstructed = 0
    for a in pool:
        for b in pool:
            if a is b:
                continue
            case = oracle.separation_by_cases(a, b)
            if case is None:
                unconstructed += 1
                continue
            x, container = case
            inside, outside = (a, b) if container == "alpha" else (b, a)
            assert beatty.member(inside, x) is not None, (a, b)
            assert beatty.member(outside, x) is None, (a, b)
            assert x >= beatty.separation_witness(a, b).witness, (a, b)
    assert oracle.separation_by_cases(Fraction(3, 2), SQRT2) is None
    assert 0 < unconstructed < len(pool) * (len(pool) - 1) // 4


def test_separation_requires_distinct_slopes():
    with pytest.raises(DomainError):
        beatty.separation_witness(PHI, PHI)


def test_separation_witness_is_rechecked(monkeypatch):
    # for 5/2 and 3 the split is at n = 1; at n = 6, 15 = floor(6*5/2) is in both
    monkeypatch.setattr(beatty, "least_denominator", lambda *ends: 6)
    with pytest.raises(AssertionError, match="membership re-check"):
        beatty.separation_witness(3, Fraction(5, 2))


# --- certificates ---------------------------------------------------------

def test_certificate_search_rechecks_the_relation(monkeypatch):
    # a unit relation that does not hold: 2/sqrt(2) + 3/(2 + sqrt(2)) is not 1
    monkeypatch.setattr(beatty, "_primitive_relation", lambda x, y: (2, 3, 1))
    with pytest.raises(AssertionError, match="non-verifying certificate"):
        beatty.certificate_search(beatty.CertKind.DISJOINT, SQRT2, 2 + SQRT2)


def test_certificate_search_examples():
    cert = beatty.certificate_search(beatty.CertKind.FACT_F_PRIME, Fraction(3), Fraction(3, 2))
    assert (cert.a, cert.b) == (2, 1)
    cert = beatty.certificate_search(beatty.CertKind.DISJOINT, 2 + SQRT2, SQRT2)
    assert (cert.a, cert.b) == (1, 1)
    cert = beatty.certificate_search(beatty.CertKind.FACT_C, SQRT2, 1 + SQRT2)
    assert (cert.a, cert.b, cert.c) == (2, -1, 1)


def test_certificate_fact_d():
    alpha = quad(2, 1, 2, 2)  # (2 + sqrt(2))/2
    cert = beatty.certificate_search(beatty.CertKind.FACT_D, alpha, SQRT2)
    assert (cert.a, cert.b, cert.c) == (1, 2, 2)
    assert beatty.verify_certificate(cert, alpha, SQRT2)


def test_partition_certificate_both_directions():
    assert beatty.certificate_search(beatty.CertKind.PARTITION, PHI, PHI_SQ) is not None
    assert beatty.certificate_search(beatty.CertKind.PARTITION, PHI, PHI) is None
    # when both unit certificates exist the coefficients collapse to 1
    dis = beatty.certificate_search(beatty.CertKind.DISJOINT, PHI, PHI_SQ)
    cov = beatty.certificate_search(beatty.CertKind.COVER, PHI, PHI_SQ)
    assert (dis.a, dis.b) == (1, 1) and (cov.a, cov.b) == (1, 1)


def test_certificate_pairing_gates():
    with pytest.raises(UnsupportedPairingError):
        beatty.certificate_search(beatty.CertKind.DISJOINT, Fraction(2), Fraction(2))
    with pytest.raises(UnsupportedPairingError):
        beatty.certificate_search(beatty.CertKind.FACT_F_PRIME, SQRT2, 1 + SQRT2)
    with pytest.raises(UnsupportedPairingError):
        beatty.certificate_search(beatty.CertKind.DISJOINT, Fraction(3, 2), SQRT2)


K = beatty.CertKind


@pytest.mark.parametrize("kind, alpha, beta, want", [
    pytest.param(K.DISJOINT, 2 + SQRT2, SQRT2, (1, 1, 1), id="disjoint_unit"),
    pytest.param(K.FACT_C, SQRT2, 1 + SQRT2, (2, -1, 1), id="mixed_sign"),
    pytest.param(K.DISJOINT, PHI, PHI, None, id="unsolvable_returns_none"),
    pytest.param(K.FACT_F_PRIME, Fraction(3), Fraction(3, 2), (2, 1, 1), id="rational_route"),
    pytest.param(K.DISJOINT, SQRT2, SQRT3, None, id="cross_radicand_rejected"),
    pytest.param(K.FACT_D, quad(2, 1, 2, 2), SQRT2, (1, 2, 2), id="positive_int_form"),
    # 1/sqrt(2) + 1/(2 + sqrt(2)) = 1: the primitive relation has c = 1 and
    # every multiple has gcd > 1, so no certificate exists
    pytest.param(K.FACT_D, SQRT2, 2 + SQRT2, None, id="positive_int_unit_sum_is_none"),
])
def test_relation_search(kind, alpha, beta, want):
    if want is UnsupportedPairingError:
        with pytest.raises(UnsupportedPairingError):
            beatty.certificate_search(kind, alpha, beta)
        return
    cert = beatty.certificate_search(kind, alpha, beta)
    assert (cert and (cert.a, cert.b, cert.c)) == want
    if cert is not None:
        assert beatty.verify_certificate(cert, alpha, beta)


def test_partition_certificate_needs_unit_coefficients():
    assert not beatty.verify_certificate(beatty.Certificate(K.PARTITION, 5, 7, 1), PHI, PHI_SQ)
    assert beatty.verify_certificate(beatty.Certificate(K.PARTITION, 1, 1, 1), PHI, PHI_SQ)
    # multiples of a relation that holds: only the side condition refuses them
    assert not beatty.verify_certificate(beatty.Certificate(K.PARTITION, 2, 2, 2), PHI, PHI_SQ)
    assert not beatty.verify_certificate(beatty.Certificate(K.DISJOINT, 2, 2, 2), PHI, PHI_SQ)
    assert not beatty.verify_certificate(beatty.Certificate(K.FACT_D, 2, 4, 4), quad(2, 1, 2, 2), SQRT2)
    assert beatty.verify_certificate(beatty.Certificate(K.FACT_C, -4, 2, -2), SQRT2, 1 + SQRT2)
    with pytest.raises(InvalidCertificateError):
        beatty.verify_implication(K.PARTITION, PHI, PHI_SQ,
                                  beatty.Certificate(K.PARTITION, 5, 7, 1), 50)
    # 1/sqrt(2) and 1/sqrt(3) lie in two fields, so no relation holds
    assert beatty.certificate_search(K.PARTITION, SQRT2, SQRT3) is None
    assert not beatty.verify_certificate(beatty.Certificate(K.PARTITION, 1, 1, 1), SQRT2, SQRT3)


def _built_beta(kind, alpha):
    """beta with kind's defining relation holding for (alpha, beta), for
    1/alpha in (1/3, 1/2)."""
    x = 1 / alpha
    return 1 / {
        "partition": 1 - x, "disjoint": (1 - x) / 2, "cover": 1 - x / 2, "subset": 2 * x,
        "fact_f_prime": 2 * x, "fact_c": 3 * x - 1, "fact_d": 2 - 3 * x,
    }[kind.value]


def test_unit_solver_matches_a_scan_of_b():
    """_solve_unit_rational against a scan of b = 1..A: over the common
    denominator den the relation is a*A + b*B = den, its least b >= 1
    makes den - b*B a multiple of A, and it is kept only when a >= 1."""
    assert beatty._solve_unit_rational((1, 0, 3, 1), (1, 0, 3, 1)) == (2, 1, 1)
    assert beatty._solve_unit_rational((2, 0, 5, 1), (2, 0, 5, 1)) is None  # gcd 2 does not divide 5
    assert beatty._solve_unit_rational((1, 0, 2, 1), (1, 0, 3, 1)) is None  # b = 3 gives a = 0
    rng = random.Random(71)
    seen = {"no b": 0, "a < 1": 0, "solved": 0}
    for _ in range(3000):
        mx, my = rng.randrange(2, 40), rng.randrange(2, 40)
        nx, ny = rng.randrange(1, mx), rng.randrange(1, my)
        den = lcm(mx, my)
        A, B = nx * den // mx, ny * den // my
        b = next((b for b in range(1, A + 1) if (den - b * B) % A == 0), None)
        if b is None:
            want, case = None, "no b"
        elif den - b * B < A:
            want, case = None, "a < 1"
        else:
            want, case = ((den - b * B) // A, b, 1), "solved"
        seen[case] += 1
        assert beatty._solve_unit_rational((nx, 0, mx, 1), (ny, 0, my, 1)) == want, (nx, mx, ny, my)
    assert min(seen.values()) >= 100, seen


def test_certificate_search_matches_relation_oracle():
    """The search against the oracle's box search.  Each kind meets pairs
    built with every kind's relation (its own always has a hit) and an
    unrelated pair of one field; two rationals for fact_f_prime.  A
    rational pair's box holds every positive solution of a*X + b*Y = 1
    (a*X <= 1 - Y and b*Y <= 1 - X), so the two answers are equal; an
    irrational pair's certificate fits the box exactly when the oracle
    finds one, and then is the oracle's least."""
    rng = random.Random(7)
    hits = []
    for kind in K:
        for source in (*K, None):
            if kind is K.FACT_F_PRIME:
                m = rng.randrange(2, 13)
                alpha = Fraction(rng.randrange(2 * m + 1, 3 * m), m)
                other = Fraction(rng.randrange(m + 1, 3 * m), m)
            else:
                d = rng.choice(SQUAREFREE_POOL)
                alpha = 2 + frac_of(quad(rng.randrange(-5, 6), rng.randrange(1, 4), rng.randrange(1, 6), d))
                other = 1 + rng.randrange(2) + frac_of(quad(rng.randrange(-5, 6), 1, rng.randrange(1, 6), d))
            beta = other if source is None else _built_beta(source, alpha)
            if kind is K.FACT_F_PRIME:
                x, y = 1 / alpha, 1 - 1 / beta
                box = max(floor_of((1 - y) / x), floor_of((1 - x) / y), 1)
                assert box <= oracle.RELATION_GUARD, (alpha, beta)
            else:
                box = 8
            want = oracle.relation_naive(kind, alpha, beta, box)
            cert = beatty.certificate_search(kind, alpha, beta)
            got = cert and (cert.a, cert.b, cert.c)
            fits = got is not None and max(map(abs, got)) <= box
            assert fits == (want is not None) and (got == want or not fits), (kind, source, alpha, beta)
            assert want or source is not kind
            hits.append(want is not None)
    assert sum(hits) > len(K)  # some pairs built with another kind hit too


def test_cross_field_pairs_have_no_relation():
    """Irrational slopes from two quadratic fields: 1, sqrt(d) and sqrt(e)
    are independent, so the oracle's box holds no relation of any kind and
    the search returns None."""
    rng = random.Random(13)
    for _ in range(8):
        d, e = rng.sample(SQUAREFREE_POOL, 2)
        alpha = 2 + frac_of(quad(rng.randrange(-5, 6), rng.randrange(1, 4), rng.randrange(1, 6), d))
        beta = 1 + rng.randrange(2) + frac_of(quad(rng.randrange(-5, 6), 1, rng.randrange(1, 6), e))
        for kind in K:
            if kind is not K.FACT_F_PRIME:
                assert oracle.relation_naive(kind, alpha, beta, 5) is None, (kind, alpha, beta)
                assert beatty.certificate_search(kind, alpha, beta) is None, (kind, alpha, beta)


def _one_answer(kind, pairs):
    """The certificate every pair gets, re-checked on every pair."""
    certs = {beatty.certificate_search(kind, alpha, beta) for alpha, beta in pairs}
    assert len(certs) == 1, (kind, certs)
    cert = certs.pop()
    assert cert is None or all(beatty.verify_certificate(cert, *pair) for pair in pairs)
    return cert


def test_one_field_under_two_radicands():
    """sqrt(P^2*Q) and P*sqrt(Q) are one number over two radicands, P and Q
    primes: the search and its re-check answer alike
    for every spelling of a pair, and two fields still have no relation."""
    P, Q = 1_000_003, 1_000_033
    roots = quad(0, 1, 1, P * P * Q), quad(0, P, 1, Q)
    assert roots[0].d != roots[1].d and roots[0] == roots[1]
    spellings = [(r, s) for r in roots for s in roots]
    for kind in K:
        if kind is not K.FACT_F_PRIME:
            pairs = [(2 + frac_of(r), _built_beta(kind, 2 + frac_of(s))) for r, s in spellings]
            assert _one_answer(kind, pairs) is not None, kind
    pairs = [(1 + r, (3 + s) / 2) for r, s in spellings]
    cert = _one_answer(K.FACT_C, pairs)
    assert (cert.a, cert.b, cert.c) == (500019500103500148, -250009750051750072, 1)
    other = quad(0, 1, 1, P * Q)  # P^3*Q^2 is not a square
    for r in roots:
        assert _one_answer(K.FACT_C, [(1 + r, (3 + other) / 2)]) is None
        assert not beatty.verify_certificate(cert, 1 + r, (3 + other) / 2)
        for kind in (K.DISJOINT, K.COVER, K.SUBSET, K.PARTITION, K.FACT_D):
            beta = _built_beta(kind, 2 + frac_of(other))
            assert beatty.certificate_search(kind, 2 + frac_of(r), beta) is None, kind


def test_verify_implication_suite():
    rep = beatty.verify_implication(
        beatty.CertKind.FACT_F_PRIME, Fraction(3), Fraction(3, 2),
        beatty.Certificate(beatty.CertKind.FACT_F_PRIME, 2, 1, 1), 1000,
    )
    assert rep.ok
    rep = beatty.verify_implication(
        beatty.CertKind.DISJOINT, 2 + SQRT2, SQRT2,
        beatty.Certificate(beatty.CertKind.DISJOINT, 1, 1, 1), 1000,
    )
    assert rep.ok
    rep = beatty.verify_implication(
        beatty.CertKind.COVER, PHI, PHI_SQ,
        beatty.Certificate(beatty.CertKind.COVER, 1, 1, 1), 1000,
    )
    assert rep.ok
    rep = beatty.verify_implication(
        beatty.CertKind.FACT_C, SQRT2, 1 + SQRT2,
        beatty.Certificate(beatty.CertKind.FACT_C, 2, -1, 1), 1000,
    )
    assert rep.ok


def test_verify_implication_rejects_bad_certificate():
    from dioapprox.errors import InvalidCertificateError

    with pytest.raises(InvalidCertificateError):
        beatty.verify_implication(
            beatty.CertKind.DISJOINT, PHI, PHI_SQ,
            beatty.Certificate(beatty.CertKind.DISJOINT, 2, 1, 1), 100,
        )


def test_rational_slopes_always_intersect_and_leave_gaps():
    # product construction: multiples of p1*p2 are common, and the
    # residue p1*p2 - 1 avoids both sequences
    slopes = [Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)]
    product = 3 * 5 * 7
    for j in (1, 2, 3):
        for s in slopes:
            assert beatty.member(s, j * product) is not None
        missing = j * product + product - 1
        assert all(beatty.member(s, missing) is None for s in slopes)


# --- scans and density probes ---------------------------------------------

def test_common_elements_examples(monkeypatch):
    scan = beatty.common_elements(SQRT2, 1 + SQRT2, 0, 3)
    assert scan.found == (2, 4, 7) and not scan.exhausted
    scan = beatty.common_elements(PHI, PHI_SQ, 0, 1, limit=3000)
    assert scan.found == () and scan.exhausted
    scan = beatty.common_elements(Fraction(3, 2), Fraction(5, 2), 0, 2)
    assert scan.found == (7, 10)
    scan = beatty.common_elements(SQRT2, 1 + SQRT2, 0, 3, limit=0)
    assert scan.found == () and scan.exhausted
    with pytest.raises(DomainError, match="limit must be >= 0, got -1"):
        beatty.common_elements(SQRT2, 1 + SQRT2, 0, 3, limit=-1)
    with pytest.raises(DomainError, match="need start >= 0"):  # checked before the limit
        beatty.common_elements(SQRT2, 1 + SQRT2, -1, 3, limit=-1)
    # an empty scan doubles its two words from 256 bytes up to limit + 1,
    # fewer than 3*(limit + 1) bytes per word in all
    built = []
    word = beatty._word
    monkeypatch.setattr(beatty, "_word", lambda p, q, n: built.append(n) or word(p, q, n))
    limit = beatty.DEFAULT_SCAN_LIMIT
    assert beatty.common_elements(PHI, PHI_SQ, 0, 1) == ((), True, limit)
    assert built == [256 << k for k in range(9) for _ in "ab"] + [limit + 1] * 2
    assert sum(built) < 6 * (limit + 1)


def test_common_elements_respects_start():
    scan = beatty.common_elements(SQRT2, 1 + SQRT2, 7, 2)
    assert scan.found == (9, 12)


def _naive_common(alpha, beta, start, count, limit):
    """(found, exhausted, scanned_to) recomputed from beatty_naive, for
    slopes below 3 (so the next member past limit is within 3 of it)."""
    if count == 0:  # the terms at index 1
        return (), False, min(floor_of(alpha), floor_of(beta))
    a, b = oracle.beatty_naive(alpha, limit + 3), oracle.beatty_naive(beta, limit + 3)
    shared = sorted(v for v in a & b if start < v <= limit)
    if len(shared) < count:
        return tuple(shared), True, limit
    last = shared[count - 1]
    after = min(min(v for v in a if v > last), min(v for v in b if v > last))
    return tuple(shared[:count]), False, after


def test_common_elements_match_naive_scan():
    rng = random.Random(47)
    cases = [(PHI, PHI_SQ, 0, 1, 3000), (SQRT2, 1 + SQRT2, 0, 1000, 200),
             (Fraction(3, 2), Fraction(5, 2), 95, 3, 100), (Fraction(2, 3), SQRT2 / 2, 10, 40, 60),
             (SQRT2 / 10**4, PHI / 10**3, 0, 4, 5), (Fraction(7, 3), Fraction(7, 3), 5, 4, 30),
             # scanned_to is phi's term at index mu(phi, 11) + 1 = 8, a convergent denominator
             (PHI, Fraction(13, 7), 0, 4, 11),
             # starts past the first round's words, and empty requests
             (SQRT2, 1 + SQRT2, 1000, 5, 3000), (SQRT2, SQRT3, 5000, 3, 8000),
             (PHI, Fraction(13, 8), 1200, 30, 4000), (Fraction(5, 3), Fraction(7, 4), 2500, 2, 2600),
             (SQRT2, 1 + SQRT2, 10, 0, 100), (Fraction(2, 3), SQRT2, 0, 0, 50),
             (PHI, PHI_SQ, 3000, 0, 10), (SQRT2 / 2, PHI, 1000, 0, 2000)]
    for _ in range(30):
        alpha, beta = _random_slope(rng, 0.3, 3), _random_slope(rng, 1, 3)
        cases.append((alpha, beta, rng.randrange(50), rng.randrange(1, 25), rng.randrange(1, 400)))
    exhausted = 0
    for alpha, beta, start, count, limit in cases:
        scan = beatty.common_elements(alpha, beta, start, count, limit=limit)
        assert (scan.found, scan.exhausted, scan.scanned_to) == \
            _naive_common(alpha, beta, start, count, limit)
        exhausted += scan.exhausted
    assert 5 <= exhausted < len(cases)


def test_dmo_window_search_examples():
    assert beatty.dmo_window_search(SQRT2, Fraction(1, 3), Fraction(1, 2), 100) == 1
    assert beatty.dmo_window_search(SQRT2, Fraction(9, 10), Fraction(19, 20), 100) == 24
    hit = beatty.dmo_window_search(PHI, 0, Fraction(1, 100), 10**5)
    assert hit is not None
    f = frac_of(PHI * hit)
    assert compare(f, 0) > 0 and compare(f, Fraction(1, 100)) < 0
    # the hit is minimal
    for n in range(1, hit):
        f = frac_of(PHI * n)
        assert not (compare(f, 0) > 0 and compare(f, Fraction(1, 100)) < 0)


def test_dmo_window_search_exhaustion():
    assert beatty.dmo_window_search(SQRT2, Fraction(9, 10), Fraction(19, 20), 10) is None
    with pytest.raises(RationalInputError):
        beatty.dmo_window_search(Fraction(3, 2), Fraction(1, 3), Fraction(1, 2), 10)
    searches = (lambda n: beatty.dmo_window_search(SQRT2, 0, 1, n),
                lambda n: beatty.residue_search(SQRT2, 3, 1, n),
                lambda n: beatty.kronecker_search(SQRT2, SQRT3, (0, 1, 0, 1), n))
    for search in searches:
        assert search(0) is None
        with pytest.raises(DomainError, match="limit must be >= 0, got -1"):
            search(-1)
    # the other arguments are checked before the limit
    with pytest.raises(RationalInputError):
        beatty.dmo_window_search(Fraction(3, 2), 0, 1, -1)
    with pytest.raises(DomainError, match="need 0 <= residue < modulus"):
        beatty.residue_search(SQRT2, 3, 3, -1)


def test_residue_search_examples():
    assert beatty.residue_search(SQRT2, 3, 1, 100) == 1
    assert beatty.residue_search(SQRT2, 2, 0, 100) == 1
    hit = beatty.residue_search(PHI, 5, 4, 1000)
    assert hit is not None
    assert floor_of(PHI * 5 * hit) % 5 == 4


def test_residue_and_window_searches_coincide():
    # floor(n*m*alpha) = k (mod m)  iff  frac(n*alpha) lies in (k/m, (k+1)/m)
    rng = random.Random(31)
    for _ in range(50):
        alpha = rng.choice((SQRT2, SQRT3, PHI, 1 + SQRT2, PHI_SQ))
        m = rng.randint(2, 6)
        k = rng.randrange(m)
        via_residue = beatty.residue_search(alpha, m, k, 400)
        via_window = beatty.dmo_window_search(
            alpha, Fraction(k, m), Fraction(k + 1, m), 400
        )
        assert via_residue == via_window
        assert via_window == oracle.frac_scan([(alpha, Fraction(k, m), Fraction(k + 1, m))], 400)


# tiny slopes, a large radicand, and slopes of one field (sqrt(2)) and of others
SEARCH_SLOPES = (SQRT2, PHI, 1 + SQRT2, quad(10**5, 1, 10**5, 2), quad(0, 1, 10**5, 2),
                 quad(0, 1, 1000, 10**6 + 3), quad(3, 2, 7, 2))


def _first_hit(search, limit):
    """The search's answer at `limit`; a hit must also be found with the
    limit at the hit, where it is the last index scanned, and not below."""
    hit = search(limit)
    if hit is not None:
        assert search(hit) == hit and search(hit - 1) is None
    return hit


def test_dmo_window_search_matches_the_oracle():
    rng = random.Random(41)
    hits = 0
    for alpha in SEARCH_SLOPES:
        for width in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100), Fraction(1, 10**4)):
            for lo in (Fraction(0), 1 - width, width * rng.randrange(int(1 / width) - 1)):
                limit = rng.choice((60, 900, 3000))
                window = (alpha, lo, lo + width)
                got = _first_hit(lambda n: beatty.dmo_window_search(*window, n), limit)
                assert got == oracle.frac_scan([window], limit), (window, limit)
                hits += got is not None
    assert 20 <= hits < 84


def test_residue_search_matches_the_oracle():
    rng = random.Random(43)
    for alpha in SEARCH_SLOPES:
        for m in (2, 3, 10, 100, 10**4):
            k = rng.choice((0, m - 1, rng.randrange(m)))
            limit = rng.choice((50, 700, 3000))
            got = _first_hit(lambda n: beatty.residue_search(alpha, m, k, n), limit)
            assert got == oracle.frac_scan([(alpha, Fraction(k, m), Fraction(k + 1, m))], limit)
            if got is not None:
                assert floor_of(alpha * m * got) % m == k


def test_kronecker_search_matches_the_oracle():
    rng = random.Random(47)
    pairs = [(SQRT2, 1 + SQRT2), (SQRT2, quad(3, 2, 7, 2)), (SQRT2, SQRT3),
             (PHI, quad(0, 1, 1000, 10**6 + 3)), (quad(10**5, 1, 10**5, 2), SQRT3)]
    hits = 0
    for alpha, beta in pairs:
        for _ in range(6):
            w1, w2 = (Fraction(1, rng.choice((2, 5, 20, 100))) for _ in range(2))
            l1, l2 = (w * rng.randrange(int(1 / w)) for w in (w1, w2))
            rect = (l1, l1 + w1, l2, l2 + w2)
            limit = rng.choice((40, 600, 2500))
            got = _first_hit(lambda n: beatty.kronecker_search(alpha, beta, rect, n), limit)
            windows = [(alpha, l1, l1 + w1), (beta, l2, l2 + w2)]
            assert got == oracle.frac_scan(windows, limit), (alpha, beta, rect, limit)
            hits += got is not None
    assert 5 <= hits < 30
    # equal fractional parts never meet two disjoint strips
    for rect in ((0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
                 (Fraction(9, 10), 1, 0, Fraction(1, 10))):
        assert beatty.kronecker_search(SQRT2, 1 + SQRT2, rect, 2000) is None


def test_far_hits_match_the_oracle():
    # narrow windows whose first hits lie near 10^5, the oracle's guard; the
    # last one's is 142,435
    windows = [(SQRT2, Fraction(7127028729, 10**10), Fraction(1, 10**5)),
               (PHI, Fraction(387096129, 625000000), Fraction(1, 10**5)),
               (quad(0, 1, 1000, 10**6 + 3), Fraction(174698253, 1250000000), Fraction(1, 10**5)),
               (quad(3, 2, 7, 2), Fraction(1, 401), Fraction(1, 10**5))]
    hits = []
    for alpha, lo, width in windows:
        window = (alpha, lo, lo + width)
        got = _first_hit(lambda n: beatty.dmo_window_search(*window, n), oracle.FRAC_GUARD)
        assert got == oracle.frac_scan([window], oracle.FRAC_GUARD), window
        hits.append(got)
    assert all(h is None or h > 6 * 10**4 for h in hits) and hits.count(None) == 1, hits


def test_searches_take_logarithmic_steps():
    third = Fraction(1, 3)
    assert beatty.dmo_window_search(SQRT2, third, third + Fraction(1, 10**6), 10**6) == 822801
    assert beatty.dmo_window_search(SQRT2, third, third + Fraction(1, 10**6), 822800) is None
    for alpha, width, limit in ((SQRT2, 10**30, 10**40), (PHI, 10**295, 10**300)):
        hi = third + Fraction(1, width)
        with counted_levels() as levels:
            n = beatty.dmo_window_search(alpha, third, hi, limit)
        assert n is not None and 1 <= n <= limit
        f = alpha * n - floor_of(alpha * n)  # checked with no search
        assert compare(f, third) > 0 and compare(f, hi) < 0
        # Lame: one descent of at most log_phi(q*D) + 2 levels, q just past the limit
        D = 3 * width
        q = beatty._exact_ratio((alpha.a * D, alpha.b * D, alpha.c, alpha.d), limit)[1]
        assert 0 < len(levels) <= lame_bound(q * D)


def test_fractional_part_hits_are_rechecked(monkeypatch):
    # a wrong convergent makes the integer test pass at n = 2, where
    # frac(2*sqrt(2)) = 0.83 lies outside (1/3, 1/2)
    monkeypatch.setattr(beatty, "_exact_ratio", lambda alpha, n: (1, 1))
    with pytest.raises(AssertionError, match="re-check"):
        beatty.dmo_window_search(SQRT2, Fraction(1, 3), Fraction(1, 2), 10)
    with pytest.raises(AssertionError, match="re-check"):
        beatty.residue_search(SQRT2, 6, 2, 10)  # the same window, (2/6, 3/6)


def test_pth_root_witness_examples():
    assert beatty.pth_root_dmo_witness(2, Fraction(1, 3), Fraction(1, 2)) == (2, 1)
    assert beatty.pth_root_dmo_witness(2, Fraction(2, 5), Fraction(1, 2)) == (2, 1)
    assert beatty.pth_root_dmo_witness(3, Fraction(1, 4), Fraction(1, 2)) == (2, 1)


def test_pth_root_witness_scan_is_bounded(monkeypatch):
    monkeypatch.setattr(beatty, "DEFAULT_SCAN_LIMIT", 1000)
    with pytest.raises(ResourceLimitError, match="DEFAULT_SCAN_LIMIT"):
        beatty.pth_root_dmo_witness(2, 0, Fraction(1, 10**8))  # proven bound about 5*10^7
    # a hit below the limit is still found
    assert beatty.pth_root_dmo_witness(3, Fraction(1, 2), Fraction(5000001, 10**7))[1] == 647


def test_pth_root_refuses_powers_past_the_bits_limit(monkeypatch):
    """Each n checks p*bitlen((n + 1)*max(b, d)), which bounds b^p, d^p and
    that n's two powers, before taking any: for (1/3, 1/2) it is 3*p bits
    at n = 1, so degrees up to 1000 answer there."""
    assert beatty.POWER_BITS_LIMIT == 750 * 4
    for p in (750, 751, 1000):
        m, n = beatty.pth_root_dmo_witness(p, Fraction(1, 3), Fraction(1, 2))
        assert n == 1 and 4**p < 3**p * m and 2**p * m < 3**p
    for p, lo, hi, n in ((1001, Fraction(1, 3), Fraction(1, 2), 1),
                         (10**7, Fraction(1, 3), Fraction(1, 2), 1),
                         (3, Fraction(1, 10**4000 + 1), Fraction(1, 10**4000), 1),
                         # no witness below n = 1023, where (n + 1)*2^990 gains a bit
                         (3, 0, Fraction(1, 2**990), 1023)):
        exc, peak = peak_traced(lambda: beatty.pth_root_dmo_witness(p, lo, hi))
        assert isinstance(exc, ResourceLimitError)
        assert f"at n = {n} exceed POWER_BITS_LIMIT" in str(exc)
        assert peak < 10**6  # 3^(10^7) alone would take 2 MB
    # a refusal at n = 1 takes no root of the 10^5-digit mesh denominator,
    # which would bisect over its 332,000 bits first
    roots = []
    root = beatty._int_nth_root
    monkeypatch.setattr(beatty, "_int_nth_root", lambda x, k: roots.append(x) or root(x, k))
    lo, hi = Fraction(1, 10**100000 + 1), Fraction(1, 10**100000)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="at n = 1 exceed POWER_BITS_LIMIT"):
        beatty.pth_root_dmo_witness(2, lo, hi)
    assert time.perf_counter() - t0 < 1 and roots == []


def test_pth_root_rechecks_the_guaranteed_bound(monkeypatch):
    # a wrong root ends the scan at n = 2, below the first witness
    monkeypatch.setattr(beatty, "_int_nth_root", lambda x, n: 0)
    with pytest.raises(AssertionError, match="guaranteed-termination bound"):
        beatty.pth_root_dmo_witness(2, 0, Fraction(1, 10**8))


def test_pth_root_witness_verified_by_powers():
    rng = random.Random(37)
    for _ in range(60):
        p = rng.randint(2, 5)
        a = Fraction(rng.randint(0, 18), 20)
        b = a + Fraction(rng.randint(1, 4), 20)
        if b >= 1:
            continue
        m, n = beatty.pth_root_dmo_witness(p, a, b)
        assert (n + a) ** p < m < (n + b) ** p


def test_kronecker_search_examples():
    rect = (Fraction(2, 5), Fraction(1, 2), Fraction(7, 10), Fraction(4, 5))
    assert beatty.kronecker_search(SQRT2, SQRT3, rect, 100) == 1
    assert beatty.kronecker_search(SQRT2, SQRT3, (0, 1, 0, 1), 10) == 1
    # identical fractional parts cannot land in disjoint strips
    rect = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    assert beatty.kronecker_search(SQRT2, 1 + SQRT2, rect, 200) is None


def test_agreement_radius_rounding():
    assert beatty.agreement_radius(Fraction(3, 2), 10) == Fraction(1, 100)
    assert beatty.agreement_radius(Fraction(3, 2), 9) == Fraction(1, 100)
    assert beatty.agreement_radius(2, 5) == Fraction(1, 25)


def test_agreement_radius_guarantee():
    for rho, m in ((Fraction(3, 2), 10), (Fraction(7, 4), 9), (Fraction(2), 5)):
        delta = beatty.agreement_radius(rho, m)
        # irrational perturbation 1/sqrt(big) below the radius needs
        # big > (1/delta)^2; big = m'^4 + 1 is never a perfect square
        big = delta.denominator**2 + 1
        eps = quad(0, 1, big, big)  # sqrt(big)/big = 1/sqrt(big)
        assert compare(eps, 0) > 0 and compare(eps, delta) < 0
        alpha = rho + eps
        want = [k for k in beatty.window(rho, m - 1).members]
        got = [k for k in beatty.window(alpha, m - 1).members]
        assert want == got


def test_claim51_pinned_case():
    rep = beatty.claim51_check(Fraction(3, 2), SQRT2)
    assert rep.status == beatty.HOLDS
    assert (rep.m, rep.t, rep.k, rep.separator) == (2, 9, 6, 10)


def test_claim51_inapplicable_cases():
    rep = beatty.claim51_check(Fraction(7, 4), SQRT3)
    assert rep.status == beatty.NOT_APPLICABLE and rep.m == 30
    rep = beatty.claim51_check(Fraction(3, 2), PHI)
    assert rep.status == beatty.NOT_APPLICABLE
    rep = beatty.claim51_check(Fraction(3, 2), Fraction(4, 3))
    assert rep.status == beatty.NOT_APPLICABLE


def test_claim51_sweep_gathers_consistent_evidence():
    """Survey applicable configurations and audit every report.

    The assertion being probed is open, so FAILS reports are data, not
    bugs.  Empirically the sweep splits cleanly: every instance with
    m >= 1 holds, and every failure sits at the degenerate m = 0 edge
    (where the source construction switches to a different witness).
    The report details must always match an independent membership
    recomputation.
    """
    holds_nontrivial = 0
    fails_at_zero = 0
    irrationals = [SQRT2, quad(1, 1, 2, 2), quad(1, 1, 3, 5), quad(2, 1, 3, 3),
                   quad(3, 1, 4, 6), quad(5, 1, 5, 7)]
    for beta in irrationals:
        if not (compare(beta, 1) > 0 and compare(beta, 2) < 0):
            continue
        for den in range(2, 12):
            for num in range(den + 1, 2 * den):
                rho = Fraction(num, den)
                if not compare(beta, rho) < 0:
                    continue
                rep = beatty.claim51_check(rho, beta)
                if rep.status == beatty.NOT_APPLICABLE:
                    continue
                x = rep.t + 1
                assert rep.details["member_rho"] == beatty.member(rho, x)
                assert rep.details["member_beta"] == beatty.member(beta, x)
                assert rep.details["floor_(k+1)rho"] == floor_of(rho * (rep.k + 1))
                if rep.status == beatty.HOLDS and rep.m >= 1:
                    holds_nontrivial += 1
                    assert rep.separator == x
                if rep.status == beatty.FAILS:
                    fails_at_zero += 1
                    assert rep.m == 0, (rho, beta, rep)
                if rep.m >= 1:
                    assert rep.status == beatty.HOLDS, (rho, beta, rep)
    assert holds_nontrivial >= 5
    assert fails_at_zero >= 1  # the probe does catch the degenerate edge
