"""The four benchmark workloads: seeded input decks and output checks.

A deck is a list of ops.  Each op calls one public dioapprox function
on inputs made here from the seed, looking the function up through its
module at call time so that the traced run sees the call.  Every input
class has a fixed share of the deck, and the parameter that drives an
op's cost is stratified (one draw per stratum) so that decks from
different seeds cost about the same.

An op fails when it raises or, for the CLI, exits with another code
than the documented one; inputs are only drawn where a theorem or the
CLI contract promises an answer, so known defects count as failures.
An op's ``check`` runs after the timed region and returns a mismatch
description or None.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from math import gcd, isqrt
from typing import Any, Callable, Optional

from dioapprox import approx, beatty, cli, exactnum, farey, nonarch, oracle

import checks


@dataclass
class Op:
    fn: str                                   # layer.function the op enters
    cls: str                                  # input class
    call: Callable[[], Any]
    check: Callable[[Any, dict], Optional[str]]
    keep: Callable[[Any], Any] = lambda r: r  # compact result kept for the check
    search: bool = False                      # counts toward beatty.search_hit_frac
    argv: Optional[list] = None               # cli-batch: the command line
    expect: int = 0                           # cli-batch: the documented exit code


@dataclass(frozen=True)
class Workload:
    name: str
    setup_code: str   # what a fresh interpreter runs to reach the first op
    build: Callable[[random.Random, str], list]


def _log_grid(lo: float, hi: float, n: int, rng: Optional[random.Random] = None) -> list:
    """n points on a log scale over [lo, hi]: the stratum centres moved
    by at most 15% of a stratum when rng is given, else the n edges
    lo..hi.  Stratum-centred draws keep decks from different seeds at
    about the same cost."""
    out = []
    for i in range(n):
        u = (i + 0.5 + rng.uniform(-0.15, 0.15)) / n if rng else (i / (n - 1) if n > 1 else 1.0)
        out.append(lo * (hi / lo) ** u)
    return out


def _is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


def _squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def _cf_sqrt(d: int, terms: int) -> list:
    """First partial quotients a_1.. of sqrt(d) (integer PQa recurrence)."""
    a0 = isqrt(d)
    m, q, a, out = 0, 1, a0, []
    for _ in range(terms):
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        out.append(a)
    return out


# -- approx-certs ----------------------------------------------------------

APPROX_KINDS = (
    ("bracket",), ("dirichlet",), ("large_denominator",),
    ("segre", Fraction(0)), ("segre", Fraction(1, 3)), ("segre", Fraction(1)),
    ("segre", Fraction(2)), ("hurwitz",),
    ("one_sided", approx.ABOVE), ("one_sided", approx.BELOW),
)
APPROX_ROUNDS = 6


def _large_radicand(rng: random.Random, lo: float, hi: float, stratum=(0, 1)) -> int:
    """Squarefree d in [lo, hi), prime to 210, whose sqrt has no partial
    quotient above 40 among the first 12, so that no single op dominates
    a run.  Prime to 210, d*5 and d*21 (the radicands the Hurwitz and
    tau = 1/3 checks square into) are squarefree as well, so whether
    they exceed the certified range depends on d alone.  `stratum` (i, n)
    confines d to the i-th of n equal slices of [lo, hi) on a log scale."""
    i, n = stratum
    while True:
        d = int(lo * (hi / lo) ** ((i + rng.random()) / n))
        if gcd(d, 210) == 1 and _squarefree(d) and max(_cf_sqrt(d, 12)) <= 40:
            return d


def _small_nonsquare(rng: random.Random, hi: int) -> int:
    while True:
        d = rng.randrange(2, hi)
        if not _is_square(d):
            return d


def _alpha_bounded(rng, i):
    """phi, sqrt(d) or (1 + sqrt(d))/2 for small d: bounded partial quotients."""
    if i % 3 == 0:
        return exactnum.quad(1, 1, 2, 5)
    d = _small_nonsquare(rng, 13)
    return exactnum.quad(0, 1, 1, d) if i % 3 == 1 else exactnum.quad(1, 1, 2, d)


def _alpha_large_pq(rng, i, s):
    """sqrt(d)/10^j for small d, or a near-square radicand sqrt(s^2 + r)."""
    if i % 2 == 0:
        return exactnum.quad(0, 1, 10 ** (2 + i % 4 // 2), _small_nonsquare(rng, 20))
    return exactnum.quad(0, 1, 1, s * s + (1, 2, -1)[i // 2 % 3])


def _alpha_moderate(rng):
    return exactnum.quad(rng.randrange(7), rng.randrange(1, 4), rng.randrange(1, 7),
                         _small_nonsquare(rng, 200))


def _approx_class(name: str, rng: random.Random) -> list:
    """(kind, alpha, order) triples for one input class, APPROX_ROUNDS per
    kind, with the order (or the radicand) stratified across the rounds."""
    n = APPROX_ROUNDS
    out = []
    for kind in APPROX_KINDS:
        if name == "bounded":
            top = 300 if kind[0] in ("bracket", "dirichlet") else 100
            orders = [10 ** round(e) for e in _log_grid(1, top, n, rng)]
            alphas = [_alpha_bounded(rng, i) for i in range(n)]
        elif name == "large_pq":
            orders = [int(q) for q in _log_grid(100, 10**6, n, rng)]
            sizes = [round(s) for s in _log_grid(10, 100, n, rng)]
            alphas = [_alpha_large_pq(rng, i, sizes[i]) for i in range(n)]
        elif name == "large_radicand":
            alphas = [exactnum.quad(0, 1, 1, _large_radicand(rng, d, d * 1.05))
                      for d in _log_grid(1e6, 1e8, n, rng)]
            orders = [int(q) for q in _log_grid(10, 100, n, rng)]
            rng.shuffle(orders)
        else:
            orders = [int(q) for q in _log_grid(10, 1000, n, rng)]
            alphas = [_alpha_moderate(rng) for _ in range(n)]
        out += [(kind, a, q) for a, q in zip(alphas, orders)]
    return out


def _farey_neighbours(cache: dict, order: int) -> list:
    if order not in cache:
        cache[order] = oracle.farey_naive(order)
    return cache[order]


def _check_bracket(beta, order):
    def check(br, cache):
        lo, hi = br.lo, br.hi
        if not (hi.h * lo.k - lo.h * hi.k == 1 and max(lo.k, hi.k) <= order < lo.k + hi.k):
            return f"{lo}..{hi} are not neighbours of order {order}"
        if not (checks.cmp_scaled(beta, 1, lo.value()) > 0 > checks.cmp_scaled(beta, 1, hi.value())):
            return f"{lo}..{hi} does not enclose {beta}"
        if order <= oracle.FAREY_GUARD:
            terms = _farey_neighbours(cache.setdefault("farey", {}), order)
            i = terms.index((lo.h, lo.k))
            if terms[i + 1] != (hi.h, hi.k):
                return f"{lo}..{hi} differ from the naive order-{order} series"
        return None
    return check


def _check_cert(alpha, kind, order, tau=None, side=None):
    bound_kind = {"large_denominator": "square"}.get(kind, kind)

    def check(appr, cache):
        p, q, b = appr.p, appr.q, appr.bound
        if not appr.verified or not approx.verify(alpha, appr):
            return f"{p}/{q} fails approx.verify"
        if (b.kind, b.q_limit, b.tau, b.side) != (bound_kind, order, tau, side):
            return f"certificate carries bound {b}"
        if not checks.approx_side_ok(kind, order, p, q):
            return f"q = {q} breaks the side condition for Q = {order}"
        x = Fraction(p, q)
        if kind == "dirichlet":
            r = Fraction(1, q * order)
            ok = checks.cmp_scaled(alpha, 1, x - r) >= 0 >= checks.cmp_scaled(alpha, 1, x + r)
            if ok and order <= oracle.DIRICHLET_GUARD:
                ok = (p, q) in oracle.dirichlet_naive(alpha, order)
        elif kind == "large_denominator":
            r = Fraction(1, q * q)
            ok = checks.cmp_scaled(alpha, 1, x - r) > 0 > checks.cmp_scaled(alpha, 1, x + r)
        elif kind == "one_sided":
            r = Fraction(1, q * q)
            lo, hi = (x - r, x) if side == approx.ABOVE else (x, x + r)
            ok = checks.cmp_scaled(alpha, 1, lo) > 0 > checks.cmp_scaled(alpha, 1, hi)
        else:
            ok = True
        return None if ok else f"{p}/{q} breaks the {kind} inequality"
    return check


def build_approx(rng: random.Random, root: str) -> list:
    ops = []
    for name in ("bounded", "large_pq", "large_radicand", "moderate"):
        for kind, alpha, order in _approx_class(name, rng):
            fn = kind[0]
            if fn == "bracket":
                beta = exactnum.frac_of(alpha)
                ops.append(Op("farey.bracket", name,
                              lambda b=beta, o=order: farey.bracket(b, o),
                              _check_bracket(beta, order)))
            elif fn == "segre":
                tau = kind[1]
                ops.append(Op("approx.segre", name,
                              lambda a=alpha, t=tau, o=order: approx.segre(a, t, o),
                              _check_cert(alpha, "segre", order, tau=tau)))
            elif fn == "one_sided":
                side = kind[1]
                ops.append(Op("approx.one_sided", name,
                              lambda a=alpha, o=order, s=side: approx.one_sided(a, o, s),
                              _check_cert(alpha, "one_sided", order, side=side)))
            else:
                ops.append(Op(f"approx.{fn}", name,
                              lambda a=alpha, o=order, f=fn: getattr(approx, f)(a, o),
                              _check_cert(alpha, fn, order)))
    rng.shuffle(ops)
    return ops


# -- beatty-scans ----------------------------------------------------------

BEATTY_ROUNDS = 6
SLOPE_KINDS = ("rational", "small", "large")
# window, partition_check and verify_implication slopes of the last round
TOP_SLOPES = (exactnum.quad(0, 1, 1, 5), exactnum.quad(1, 1, 2, 10), exactnum.quad(0, 1, 1, 6))


def _slope(rng: random.Random, kind: str, lo: float, hi: float, stratum=(0, 1)):
    """A slope strictly inside (lo, hi): a rational p/q that is not an
    integer, (a + sqrt(d))/c with d < 30, or sqrt(d)/m with a squarefree
    d in [10^6, 10^8] from `stratum` (see _large_radicand)."""
    while True:
        if kind == "rational":
            q = rng.randrange(2, 10)
            x = Fraction(rng.randrange(int(lo * q), int(hi * q) + 1), q)
            if x.denominator == 1:
                continue
        elif kind == "small":
            d, c = _small_nonsquare(rng, 30), rng.randrange(1, 6)
            a = round(rng.uniform(lo, hi) * c - d ** 0.5)
            x = exactnum.quad(a, 1, c, d)
        else:
            d = _large_radicand(rng, 1e6, 1e8, stratum)
            x = exactnum.quad(0, 1, int(d ** 0.5 / rng.uniform(lo, hi)), d)
        if checks.cmp_scaled(x, 1, Fraction(lo)) > 0 > checks.cmp_scaled(x, 1, Fraction(hi)):
            return x


def _cert_pair(rng: random.Random, kind: str, alpha=None):
    """(alpha, beta, (a, b, c)) with the defining relation of `kind`
    holding exactly; x = 1/alpha lies in (1/3, 1/2)."""
    if alpha is None:
        alpha = _slope(rng, "rational" if kind == "fact_f_prime" else "small", 2.4, 2.6)
    x = 1 / alpha
    y, abc = {
        "partition": (1 - x, (1, 1, 1)),
        "disjoint": ((1 - x) / 2, (1, 2, 1)),
        "cover": (1 - x / 2, (1, 2, 1)),
        "subset": (2 * x, (2, 1, 1)),
        "fact_f_prime": (2 * x, (2, 1, 1)),
        "fact_c": (3 * x - 1, (3, -1, 1)),
        "fact_d": (2 - 3 * x, (3, 1, 2)),
    }[kind]
    return alpha, 1 / y, abc


CERT_KINDS = ("partition", "disjoint", "cover", "subset", "fact_c", "fact_d", "fact_f_prime")

# (case, kind and range of the first slope, kind and range of the second).
# Only the large-radicands case mixes two large radicands, so every
# deck exposes the two-radical squarefree limit the same number of times.
SEPARATION_CASES = (
    ("both-large", ("small", 2, 3), ("small", 2, 3)),
    ("both-large-radicands", ("large", 2, 3), ("large", 2, 3)),
    ("one-below-2", ("small", 1, 2), ("small", 2, 3)),
    ("rational-pair", ("rational", 1, 2), ("rational", 1, 2)),
    ("irrational-pair", ("small", 1, 2), ("small", 1, 2)),
    ("rational-below", ("rational", 1, 1.5), ("small", 1.5, 2)),
    ("irrational-below", ("small", 1, 1.5), ("rational", 1.5, 2)),
)


def _check_members(alpha, bound):
    def check(members, cache):
        naive = sorted(oracle.beatty_naive(alpha, bound))
        return None if list(members) == naive else f"window of {alpha} to {bound} differs from beatty_naive"
    return check


def _expect_ok(what):
    def check(report, cache):
        return None if report.ok else f"{what} reported {report}"
    return check


def _check_mu(alpha, h):
    def check(m, cache):
        ok = (m == 0 or checks.floor_mul(alpha, m) <= h) and checks.floor_mul(alpha, m + 1) > h
        return None if ok else f"mu({alpha}, {h}) = {m}"
    return check


def _check_member(alpha, k):
    def check(n, cache):
        want = checks.index_of(alpha, k)
        return None if n == want else f"member({alpha}, {k}) = {n}, expected {want}"
    return check


def _check_separation(alpha, beta, case):
    def check(res, cache):
        if res.status == beatty.UNSUPPORTED:
            return None if case == "irrational-below" else f"{case} pair reported unsupported"
        inside, outside = (alpha, beta) if res.container == "alpha" else (beta, alpha)
        if checks.is_member(inside, res.witness) and not checks.is_member(outside, res.witness):
            return None
        return f"{res.witness} does not separate {alpha} and {beta}"
    return check


def _check_cert_search(alpha, beta, expect_hit):
    def check(cert, cache):
        if cert is None:
            return "no certificate for a pair built with one" if expect_hit else None
        return None if beatty.verify_certificate(cert, alpha, beta) else f"{cert} does not verify"
    return check


def _check_common(alpha, beta, start):
    def check(scan, cache):
        if not scan.found:
            return None if scan.exhausted else "empty scan that is not exhausted"
        top = scan.found[-1]
        both = oracle.beatty_naive(alpha, top) & oracle.beatty_naive(beta, top)
        want = tuple(sorted(v for v in both if v > start))
        return None if scan.found == want else "common elements differ from beatty_naive"
    return check


def _check_first(hit, limit, what):
    """The least n <= limit where `hit` holds, found by a scan."""
    def check(n, cache):
        want = next((k for k in range(1, limit + 1) if hit(k)), None)
        return None if n == want else f"{what} returned {n}, expected {want}"
    return check


def build_beatty(rng: random.Random, root: str) -> list:
    """Windows of 10^3..10^5 with slopes near 2, so a scan's cost follows
    its size; the searches' intervals narrow with the round and their
    limits cap the scan."""
    ops = []
    add = ops.append
    # An op's cost follows its large radicand (trial division up to its
    # square root) and a search's cost its scan length, so each call site
    # takes one stratum of these per round, in a drawn order; decks from
    # different seeds then hold about the same mix of costs.
    turns: dict = {}

    def turn(site):
        if site not in turns:
            turns[site] = cycle(rng.sample(range(BEATTY_ROUNDS), BEATTY_ROUNDS))
        return next(turns[site])

    def slope(site, kind, lo, hi):
        if kind != "large":
            return _slope(rng, kind, lo, hi)
        return _slope(rng, kind, lo, hi, (turn(site), BEATTY_ROUNDS))

    def target(site, draw, hit, limit):
        """Of BEATTY_ROUNDS drawn search targets, the one whose scan length
        (its first n with hit(target, n), else the limit) has the site's
        next rank."""
        targets = [draw() for _ in range(BEATTY_ROUNDS)]
        targets.sort(key=lambda t: next((n for n in range(1, limit + 1) if hit(t, n)), limit))
        return targets[turn(site)]

    # one window size per scanning op, on a grid of 4 sizes per round, so
    # that scan costs form a continuum and each kind of scan spans the range
    grid = [round(m) for m in _log_grid(1e3, 1e5, 4 * BEATTY_ROUNDS)]
    for r in range(BEATTY_ROUNDS):
        size = [grid[4 * r + (k + r) % 4] for k in range(4)]
        # the largest scans take fixed slopes: peak memory moves in the
        # steps of hash-table growth, and a drawn slope could straddle one
        top = r == BEATTY_ROUNDS - 1
        kind = SLOPE_KINDS[r % 3]
        a = TOP_SLOPES[0] if top else slope("window", kind, 1.8, 2.2)
        add(Op("beatty.window", kind, lambda a=a, m=size[0]: beatty.window(a, m),
               _check_members(a, size[0]), keep=lambda w: w.members))

        a = TOP_SLOPES[1] if top else slope("partition", ("small", "large")[r % 2], 1.8, 2.2)
        b = a / (a - 1)
        add(Op("beatty.partition_check", "complementary",
               lambda a=a, b=b, m=size[1]: beatty.partition_check(a, b, m),
               _expect_ok("partition_check on a complementary pair")))

        ck = CERT_KINDS[r % len(CERT_KINDS)]
        a, b, abc = _cert_pair(rng, ck, TOP_SLOPES[2] if top else None)
        cert = beatty.Certificate(beatty.CertKind(ck), *abc)
        add(Op("beatty.verify_implication", ck,
               lambda ck=ck, a=a, b=b, c=cert, m=size[2]: beatty.verify_implication(ck, a, b, c, m),
               _expect_ok("verify_implication")))

        q = 3 + r
        add(Op("beatty.ap_decomposition", "rational",
               lambda p=2 * q + 1, q=q, m=size[3]: beatty.ap_decomposition(p, q, m),
               _expect_ok("ap_decomposition")))

        a, b = _slope(rng, ("rational", "small")[r % 2], 1, 3), _slope(rng, "small", 1, 3)
        start = rng.randrange(1000)
        add(Op("beatty.common_elements", "pair",
               lambda a=a, b=b, s=start: beatty.common_elements(a, b, s, 20),
               _check_common(a, b, start)))

        for kind, width, limit in (("small", 20, 300), ("large", 5, 50)):
            a = slope("dmo", kind, 1, 3)
            width = Fraction(1, width << r % 3)
            lo = target(f"dmo {kind}", lambda: Fraction(rng.randrange(100), 100) * (1 - width),
                        lambda lo, n: checks.frac_between(a, n, lo, lo + width), limit)
            hi = lo + width
            add(Op("beatty.dmo_window_search", kind,
                   lambda a=a, lo=lo, hi=hi, n=limit: beatty.dmo_window_search(a, lo, hi, n),
                   _check_first(lambda n, a=a, lo=lo, hi=hi: checks.frac_between(a, n, lo, hi),
                                limit, "dmo_window_search"), search=True))

            a = slope("residue", kind, 1, 3)
            m = 4 << r % 3
            res = target(f"residue {kind}", lambda: rng.randrange(m),
                         lambda res, n: checks.floor_mul(a, n * m) % m == res, 500)
            add(Op("beatty.residue_search", kind,
                   lambda a=a, m=m, res=res: beatty.residue_search(a, m, res, 500),
                   _check_first(lambda n, a=a, m=m, res=res: checks.floor_mul(a, n * m) % m == res,
                                500, "residue_search"), search=True))

        a, b = _slope(rng, "small", 1, 3), _slope(rng, "small", 1, 3)
        w = Fraction(1, 4 + 2 * (r % 3))
        lo_a, lo_b = target("kronecker",
                            lambda: [Fraction(rng.randrange(100), 100) * (1 - w) for _ in range(2)],
                            lambda t, n: checks.frac_between(a, n, t[0], t[0] + w)
                            and checks.frac_between(b, n, t[1], t[1] + w), 300)
        rect = [lo_a, lo_a + w, lo_b, lo_b + w]
        add(Op("beatty.kronecker_search", "small",
               lambda a=a, b=b, rect=tuple(rect): beatty.kronecker_search(a, b, rect, 300),
               _check_first(lambda n, a=a, b=b, r=rect: checks.frac_between(a, n, r[0], r[1])
                            and checks.frac_between(b, n, r[2], r[3]), 300, "kronecker_search"),
               search=True))

        # two each of the cheapest ops, so that the deck's median op falls
        # inside the spread of separation costs rather than at an edge
        for kind in (SLOPE_KINDS[r % 3], SLOPE_KINDS[(r + 1) % 3]):
            a = slope("mu", kind, 1, 3)
            h = round(10 ** rng.uniform(3, 12))
            add(Op("beatty.mu", kind, lambda a=a, h=h: beatty.mu(a, h), _check_mu(a, h)))
            a = slope("member", kind, 1, 3)
            k = rng.randrange(1, 10**9)
            add(Op("beatty.member", kind, lambda a=a, k=k: beatty.member(a, k), _check_member(a, k)))

        for j in range(4):
            case, (ka, la, ha), (kb, lb, hb) = SEPARATION_CASES[(4 * r + j) % len(SEPARATION_CASES)]
            while True:
                a, b = slope("separation-a", ka, la, ha), slope("separation-b", kb, lb, hb)
                if a != b and (ka != "large" or a.d != b.d):
                    break
            add(Op("beatty.separation_witness", case,
                   lambda a=a, b=b: beatty.separation_witness(a, b),
                   _check_separation(a, b, case)))

        ck = CERT_KINDS[(r + 3) % len(CERT_KINDS)]
        a, b, _ = _cert_pair(rng, ck)
        add(Op("beatty.certificate_search", ck,
               lambda ck=ck, a=a, b=b: beatty.certificate_search(ck, a, b),
               _check_cert_search(a, b, True), search=True))
        if ck == "fact_f_prime":
            a, b = _slope(rng, "rational", 1, 3), _slope(rng, "rational", 1, 3)
        else:
            a = _slope(rng, "small", 1, 3)
            b = exactnum.quad(rng.randrange(-3, 9), rng.randrange(1, 4), rng.randrange(1, 6), a.d)
            if checks.cmp_scaled(b, 1, 1) <= 0:
                b = b + 1 - exactnum.floor_of(b)
        add(Op("beatty.certificate_search", "unrelated",
               lambda ck=ck, a=a, b=b: beatty.certificate_search(ck, a, b),
               _check_cert_search(a, b, False), search=True))
    rng.shuffle(ops)
    return ops


# -- nonarch-model ---------------------------------------------------------

NONARCH_ROUNDS = 8


def _poly_text(coeffs: list) -> str:
    """Integer coefficients, ascending, as the parser's text form."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        body = str(abs(c)) if i == 0 else (f"{abs(c)}*" if abs(c) != 1 else "") + ("t" if i == 1 else f"t^{i}")
        parts.append(("-" if c < 0 else "") + body if not parts else ("- " if c < 0 else "+ ") + body)
    return " ".join(parts) or "0"


def _int_poly(rng: random.Random, deg: int, lead: Optional[int] = None) -> list:
    cs = [rng.randrange(-9, 10) for _ in range(deg)]
    return cs + [lead if lead is not None else rng.choice([c for c in range(-9, 10) if c])]


def _ratfunc_text(rng: random.Random, lead_den: int, num_deg: int = 2, den_deg: int = 1,
                  lead_num: Optional[int] = None) -> tuple:
    """Integer num/den and their text.  A linear den shares no root with
    num, so the quotient is already reduced."""
    while True:
        num = _int_poly(rng, num_deg, lead_num or rng.randrange(1, 10))
        den = _int_poly(rng, den_deg, lead_den)
        if den_deg != 1 or sum(c * Fraction(-den[0], den[1]) ** i for i, c in enumerate(num)):
            return num, den, f"({_poly_text(num)})/({_poly_text(den)})"


def _check_floor(num, den, scale=(1,)):
    def check(ip, cache):
        want = checks.poly_floor(checks.series_mul(list(scale), num, len(scale) + len(num) - 1), den)
        got = list(ip.poly.coeffs) or [Fraction(0)]
        return None if got == want else f"floor is {ip}, expected coefficients {want}"
    return check


def _check_series(want_of, prec):
    def check(res, cache):
        got, want = res
        if got.prec != prec or got.lead < 0 or got.exact:
            return f"series has lead {got.lead}, precision {got.prec}, exact={got.exact}"
        cs = [got.coeff(i) for i in range(prec)]
        return None if want_of(cs) == want else "series coefficients are wrong"
    return check


def _check_linf(sigma: Fraction, rho: Fraction):
    def check(rep, cache):
        fl = lambda n, x: (n * x).numerator // (n * x).denominator
        m = fl(1, 1 / (rho - sigma))
        k = next(k for k in range(1, m + 1)
                 if fl(k, sigma) == fl(k, rho) and fl(k + 1, sigma) != fl(k + 1, rho))
        got = (rep.applicable, rep.m, rep.k, rep.separator.constant(),
               rep.lower_neighbor.constant(), rep.upper_neighbor.constant())
        want = (True, m, k, fl(k + 1, sigma), fl(k, rho), fl(k + 1, rho))
        return None if got == want else f"linf report {got}, expected {want}"
    return check


def _check_round_trip(res, cache):
    first, second = res
    same = first == second and nonarch.format_laurent(first) == nonarch.format_laurent(second)
    return None if same else "parse/format round trip changed the value"


def _round_trip(text):
    first = nonarch.parse_laurent(text)
    return first, nonarch.parse_laurent(nonarch.format_laurent(first))


def build_nonarch(rng: random.Random, root: str) -> list:
    """Degrees cycle with the round and the op, precisions and linf
    bounds follow fixed grids; coefficients come from the seed."""
    ops = []
    add = ops.append
    precs = [round(p) for p in _log_grid(32, 256, NONARCH_ROUNDS)]
    ms = [round(m) for m in _log_grid(2, 1000, NONARCH_ROUNDS)]
    leads = (1, 2, 3, -1)
    for r in range(NONARCH_ROUNDS):
        for j in range(5):
            num, den, text = _ratfunc_text(rng, leads[j % 4], (j + r) % 5, 1 + (j + 2 * r) % 3)
            x = nonarch.parse_laurent(text)
            add(Op("nonarch.floor_ip", "ratfunc", lambda x=x: nonarch.floor_ip(x),
                   _check_floor(num, den)))
        for j in range(4):
            num, den, text = _ratfunc_text(rng, 1 + j % 3, (j + r) % 4, 1 + (j + r) % 3)
            alpha = nonarch.parse_laurent(text)
            n = [rng.randrange(0, 10) for _ in range(1 + (j + r) % 3)] + [rng.randrange(1, 5)]
            idx = nonarch.IPElem(nonarch.Poly(n))
            add(Op("nonarch.beatty_nonarch", "polynomial-index",
                   lambda a=alpha, n=idx: nonarch.beatty_nonarch(a, n), _check_floor(num, den, n)))
        for j in range(4):
            if j < 2:
                text = _poly_text(_int_poly(rng, 1 + (j + r) % 4))
            else:
                text = _ratfunc_text(rng, leads[(r + j) % 4], 1 + (r + j) % 3, 1, 1)[2]
            add(Op("nonarch.parse_laurent", "round-trip", lambda t=text: _round_trip(t),
                   _check_round_trip))

        prec = precs[r]
        s = nonarch.sqrt1p_eps(prec)
        one_plus_eps = [Fraction(1), Fraction(1)] + [Fraction(0)] * (prec - 2)
        unit = [Fraction(1)] + [Fraction(0)] * (prec - 1)
        add(Op("nonarch.mul", "sqrt1p-square", lambda s=s, w=one_plus_eps: (nonarch.mul(s, s), w),
               _check_series(lambda cs: cs, prec)))
        scs = [s.coeff(i) for i in range(prec)]
        add(Op("nonarch.div", "sqrt1p-inverse",
               lambda s=s, u=unit: (nonarch.div(nonarch.RatFunc.const(1), s), u),
               _check_series(lambda cs, scs=scs, p=prec: checks.series_mul(cs, scs, p), prec)))

        # sigma just above 1, so the floors first split at k = m: the scan
        # runs to its bound
        m = ms[r]
        sigma = 1 + Fraction(1, rng.randrange(2 * m + 2, 4 * m + 4))
        rho = sigma + 1 / (m + Fraction(1, 2))
        add(Op("nonarch.linf_experiment", "rational-slopes",
               lambda s=nonarch.RatFunc.const(sigma), r=nonarch.RatFunc.const(rho):
               nonarch.linf_experiment(s, r),
               _check_linf(sigma, rho)))
    rng.shuffle(ops)
    return ops


# -- cli-batch -------------------------------------------------------------

CLI_ROUNDS = 5


class CliFailure(Exception):
    """A dioapprox process broke the exit-code contract."""


class Broken(str):
    """A check's finding that the op broke a promise of its interface
    (a failed op), as opposed to a wrong answer."""


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _judge(argv, expect, code, err):
    if "Traceback (most recent call last)" in err:
        raise CliFailure(f"traceback from {argv[:3]}")
    if code != expect:
        raise CliFailure(f"exit {code}, expected {expect}, from {argv[:3]}")


def run_subprocess(argv: list, expect: int, env: dict, root: str):
    proc = subprocess.run([sys.executable, "-m", "dioapprox.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    _judge(argv, expect, proc.returncode, proc.stderr)
    return proc.returncode, proc.stdout


def run_inprocess(argv: list, expect: int = None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = cli.run(list(argv), stdout=out, stderr=err)
    if expect is not None:
        _judge(argv, expect, code, err.getvalue())
    return code, out.getvalue()


def _check_replay(argv):
    """A JSON envelope's argv must reproduce the same bytes."""
    def check(res, cache):
        code, out = res
        if code != 0 or "--format" not in argv:
            return None
        replayed = run_inprocess(json.loads(out)["argv"])
        return None if replayed == (code, out) else Broken(f"replaying {argv[:3]} changed the output")
    return check


def _alpha_text(rng, lo=1, hi=3):
    return exactnum.format_exact(_slope(rng, "small", lo, hi))


def _frac_text(rng, order):
    k = rng.randrange(2, order + 1)
    h = rng.choice([h for h in range(1, k) if gcd(h, k) == 1])
    return f"{h}/{k}"


def _cli_valid(rng: random.Random, r: int) -> list:
    """One cheap, well-formed command per kind; all expect exit 0.  The
    floor input's denominator leads with 1, 2 or 3 in turn."""
    n = rng.randrange(8, 40)
    a = _slope(rng, "small", 2, 3)
    p = rng.randrange(3, 12)
    return [
        ["farey", "list", str(n)],
        ["farey", "succ", _frac_text(rng, n), str(n)],
        ["farey", "pred", _frac_text(rng, n), str(n)],
        ["farey", "greatest", str(n), str(rng.randrange(1, n * n))],
        ["approx", "dirichlet", _alpha_text(rng), str(rng.randrange(10, 10**4))],
        ["approx", "segre", _alpha_text(rng), rng.choice(["0", "1/3", "1", "2"]), str(rng.randrange(10, 1000))],
        ["approx", "hurwitz", _alpha_text(rng), str(rng.randrange(10, 1000))],
        ["approx", "onesided", _alpha_text(rng), str(rng.randrange(10, 1000)), rng.choice(["above", "below"])],
        ["beatty", "term", _alpha_text(rng), str(rng.randrange(10**6))],
        ["beatty", "member", _alpha_text(rng), str(rng.randrange(1, 10**6))],
        ["beatty", "window", _alpha_text(rng), str(rng.randrange(20, 200))],
        ["beatty", "mu", _alpha_text(rng), str(rng.randrange(10**9))],
        ["beatty", "partition", exactnum.format_exact(a), exactnum.format_exact(a / (a - 1)), str(rng.randrange(50, 500))],
        ["beatty", "apdecomp", str(p), str(rng.choice([q for q in range(1, p) if gcd(p, q) == 1])), "200"],
        ["beatty", "dmo", _alpha_text(rng), "0", "1/10", "1000"],
        ["beatty", "pthroot", str(rng.randrange(2, 4)), "1/3", "1/2"],
        ["nonarch", "floor", _ratfunc_text(rng, 1 + r % 3, lead_num=1)[2]],
        ["nonarch", "arith", _ratfunc_text(rng, 1)[2], rng.choice(["add", "sub", "mul", "div"]), _ratfunc_text(rng, 1)[2]],
        ["oracle", "farey", str(rng.randrange(5, 30))],
        ["oracle", "beatty", _alpha_text(rng), str(rng.randrange(20, 200))],
    ]


def _cli_malformed(rng: random.Random) -> list:
    """Bad or oversized argv with the exit code the contract documents."""
    return [
        (["farey", "list"], 2),
        (["approx", "dirichlet", f"sqrt({rng.randrange(2, 99)}", "5"], 2),
        (["farey", "succ", "1/1", str(rng.randrange(2, 50))], 2),
        (["oracle", "farey", str(rng.randrange(1001, 10**6))], 2),
        (["beatty", "dmo", _alpha_text(rng), "0", f"1/{rng.randrange(10**6, 10**7)}", "20"], 3),
        (["beatty", "term", "9" * rng.randrange(4400, 6000), "3"], 2),
        (["nonarch", "floor", "t^"], 2),
        (["approx", "segre", _alpha_text(rng), "-1", "5"], 2),
    ]


def build_cli(rng: random.Random, root: str) -> list:
    env = cli_env(root)
    bad = _cli_malformed(rng)
    ops = []
    for r in range(CLI_ROUNDS):
        deck = [(argv, 0) for argv in _cli_valid(rng, r)]
        deck += [bad[(2 * r + j) % len(bad)] for j in range(2)]
        for i, (argv, expect) in enumerate(deck):
            if (i + r) % 2:
                argv = argv + ["--format", "json"]
            ops.append(Op(f"cli.{argv[0]}", "malformed" if expect else "valid",
                          lambda v=argv, e=expect: run_subprocess(v, e, env, root),
                          _check_replay(argv), argv=argv, expect=expect))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "approx-certs": Workload(
        "approx-certs",
        "import dioapprox.approx, dioapprox.exactnum as m; m.parse_exact('(1+1*sqrt(5))/2')",
        build_approx),
    "beatty-scans": Workload(
        "beatty-scans",
        "import dioapprox.beatty, dioapprox.exactnum as m; m.parse_exact('(1+1*sqrt(5))/2')",
        build_beatty),
    "nonarch-model": Workload(
        "nonarch-model",
        "import dioapprox.nonarch as m; m.parse_laurent('(t^2)/(t+1)')",
        build_nonarch),
    "cli-batch": Workload(
        "cli-batch",
        "import dioapprox.cli as m; m.build_parser()",
        build_cli),
}
