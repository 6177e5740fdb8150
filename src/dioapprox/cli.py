"""Command-line surface over all modules.

Every payload value is exact text: handlers return library values, and
one walk prints each through its own ``str`` (``format_exact``,
``format_laurent``); floats never appear.  The JSON envelope echoes a
canonical argv, and re-running that argv reproduces the payload byte for byte.

Every command is one row of ``_COMMANDS``: its group, name, arguments
and a handler.  Each argument has a kind that pairs a parser with a
canonical formatter, and ``parse(fmt(v)) == v`` holds for every kind.
The argparse tree, the ``inputs`` echo and the canonical argv are all
derived from the rows, so the replay promise holds by construction.

A row's group names its module, imported at the handler's first lookup:
a process loads only the module of the command it runs, ``--help`` none.
A process also builds command parsers for its own group's rows only,
and imports ``json`` only to print a ``--format json`` envelope.

Exit codes: 0 success, 1 contract violation found (e.g. a partition
check FAILs), 2 usage or parse error, 3 resource limit reached.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import import_module
from types import GeneratorType
from typing import Callable, NamedTuple, Optional

from .errors import (
    DomainError,
    IndeterminateSignError,
    NotFoundError,
    ParseError,
    PrecisionError,
    ResourceLimitError,
)
from .exactnum import format_exact, parse_exact

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

LIST_LIMIT = 10**6  # most terms `farey list` prints


class _Group:
    """A group's module, imported at its first attribute lookup."""

    def __init__(self, name: str):
        self._module = f"{__package__}.{name}"

    def __getattr__(self, attr: str):
        return getattr(import_module(self._module), attr)


approx, beatty, farey, nonarch, oracle = map(
    _Group, ("approx", "beatty", "farey", "nonarch", "oracle"))


def _fr(text: str) -> Fraction:
    value = parse_exact(text)
    if not isinstance(value, Fraction):
        raise ParseError("expected a rational number", text, 0)
    return value


def _fmt_laurent(x) -> str:
    # parse_laurent reads back every rational function format_laurent
    # writes; the only series it parses is the builtin.
    return nonarch.format_laurent(x) if isinstance(x, nonarch.RatFunc) else "sqrt1p(eps)"


# -- argument kinds and the table's row types -------------------------------


class _Kind(NamedTuple):
    """One parser and its canonical formatter.  ``parse`` takes the text
    and the parsed namespace; ``None`` leaves conversion to argparse."""

    fmt: Callable
    parse: Optional[Callable] = None
    type: Optional[Callable] = None
    choices: Optional[tuple] = None


_INT = _Kind(str, type=int)
_EXACT = _Kind(format_exact, lambda text, ns: parse_exact(text))
_RATIONAL = _Kind(format_exact, lambda text, ns: _fr(text))
_LAURENT = _Kind(_fmt_laurent, lambda text, ns: nonarch.parse_laurent(text, ns.precision))
_FLAG = _Kind(bool)


def _choice(*values: str) -> _Kind:
    return _Kind(str, choices=values)


# argparse needs choices and defaults before any module loads: a test pins
# these to approx.ABOVE, approx.BELOW, beatty.CertKind,
# beatty.DEFAULT_SCAN_LIMIT and nonarch.DEFAULT_PRECISION
_SIDE = _choice("above", "below")
_CERT_KIND = _choice("disjoint", "cover", "subset", "partition", "fact_c", "fact_d", "fact_f_prime")
_REQUIRED = object()


class _Arg(NamedTuple):
    name: str  # "alpha" for a positional, "--limit" for an option
    kind: _Kind
    default: object = _REQUIRED  # options only

    @property
    def option(self) -> bool:
        return self.name.startswith("--")

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


class _Command(NamedTuple):
    """``handler`` takes each argument's value by dest and returns the
    result, or ``(result, exit_code, resource)``, of library values."""

    group: str
    name: str
    args: tuple
    handler: Callable


def _exact(node):
    """The envelope's text: None, bools and strings as they stand, dicts,
    lists, tuples and generators leaf by leaf, and every other value as
    ``str``.  A generator's items become text one at a time."""
    if node is None or isinstance(node, (bool, str)):
        return node
    if isinstance(node, dict):
        return {k: _exact(v) for k, v in node.items()}
    if isinstance(node, (list, tuple, GeneratorType)):
        return [_exact(v) for v in node]
    return str(node)


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _checked(ok: bool) -> int:
    return EXIT_OK if ok else EXIT_VIOLATION


# -- handlers ---------------------------------------------------------------


def _listing(terms: list) -> dict:
    return {"terms": terms, "count": len(terms)}


def _farey_size(N: int, cap: int) -> int:
    """|F_N| = 1 + phi(1) + ... + phi(N) by a totient sieve, or its first
    partial sum past cap.  phi(k) >= sqrt(k/2), so the k in [n/2, n] add
    at least n^1.5/4 and the sum passes cap by the n with n^3 > 16*cap^2."""
    n = min(N, 1 << -(-(16 * cap * cap).bit_length() // 3))
    phi = list(range(n + 1))
    count = 1
    for k in range(1, n + 1):
        if phi[k] == k > 1:  # a prime: every smaller prime has left it alone
            for m in range(k, n + 1, k):
                phi[m] -= phi[m] // k
        count += phi[k]  # final: every prime up to k has acted on it
        if count > cap:
            break
    return count


def _farey_list(N):
    count = _farey_size(N, LIST_LIMIT)  # |F_N| unless past the limit
    if count > LIST_LIMIT:
        raise ResourceLimitError(f"F_{N} has more than LIST_LIMIT = {LIST_LIMIT} terms")
    return {"terms": farey.sequence(N), "count": count}


def _farey(x: Fraction, order: int) -> farey.FareyFraction:
    return farey.farey_fraction(x.numerator, x.denominator, order)


def _farey_mediant(left, right, N):
    med = farey.mediant(_farey(left, N), _farey(right, N))
    return {"raw": f"{med.num}/{med.den}", "value": med.value}


def _farey_greatest(N, m, nonstrict):
    f = farey.greatest_below(N, m, strict=not nonstrict)
    return {"fraction": f, "phi": farey.phi_embed(f)}


def _appr(appr: approx.Approximation) -> dict:
    return {
        "p": appr.p,
        "q": appr.q,
        "bound": appr.bound.describe(appr.q),
        "verified": appr.verified,
    }


def _approx_verify(alpha, p, q, kind, bound_q, tau, side):
    if tau is not None and kind != "segre":
        raise DomainError("--tau applies only to --kind segre")
    if side is not None and kind != "onesided":
        raise DomainError("--side applies only to --kind onesided")
    if kind == "segre":
        bound = approx.Bound.segre(Fraction(1) if tau is None else tau, bound_q)
    elif kind == "onesided":
        bound = approx.Bound.one_sided(side or approx.ABOVE, bound_q)
    else:
        bound = getattr(approx.Bound, kind)(bound_q)
    ok = approx.verify(alpha, approx.Approximation(p, q, bound, verified=False))
    return {"verified": ok}, _checked(ok), None


def _beatty_member(alpha, k):
    witness = beatty.member(alpha, k)
    return {"member": witness is not None, "witness": witness}


def _beatty_partition(alpha, beta, M):
    rep = beatty.partition_check(alpha, beta, M)
    result = {"status": _status(rep.ok), "checked_to": rep.checked_to}
    if rep.first_shared is not None:
        result["first_shared"] = rep.first_shared
    if rep.first_uncovered is not None:
        result["first_uncovered"] = rep.first_uncovered
    return result, _checked(rep.ok), None


def _beatty_apdecomp(p, q, M):
    rep = beatty.ap_decomposition(p, q, M)
    progressions = [f"{pr.modulus}*I+{pr.residue}" for pr in rep.progressions]
    return {"progressions": progressions, "status": _status(rep.ok)}, _checked(rep.ok), None


def _beatty_separate(alpha, beta):
    res = beatty.separation_witness(alpha, beta)
    return {
        "status": res.status,
        "witness": res.witness,
        "container": res.container,
        "trace": res.trace,
    }


def _beatty_cert(kind, alpha, beta):
    cert = beatty.certificate_search(beatty.CertKind(kind), alpha, beta)
    if cert is None:
        return {"found": False}
    return {"found": True, "a": cert.a, "b": cert.b, "c": cert.c}


def _beatty_imply(kind, alpha, beta, a, b, c, M):
    kind = beatty.CertKind(kind)
    rep = beatty.verify_implication(kind, alpha, beta, beatty.Certificate(kind, a, b, c), M)
    result = {"status": _status(rep.ok)}
    if rep.violation:
        result["violation"] = rep.violation
    return result, _checked(rep.ok), None


def _beatty_common(alpha, beta, start, count, limit):
    scan = beatty.common_elements(alpha, beta, start, count, limit=limit)
    return (
        {"found": scan.found, "exhausted": scan.exhausted},
        EXIT_RESOURCE if scan.exhausted else EXIT_OK,
        {"scan_limit": limit, "exhausted": scan.exhausted},
    )


def _search(hit: Optional[int], limit: int):
    if hit is None:
        return ({"found": False, "n": None}, EXIT_RESOURCE,
                {"scan_limit": limit, "exhausted": True})
    return {"found": True, "n": hit}


def _beatty_pthroot(p, lo, hi):
    m, n = beatty.pth_root_dmo_witness(p, lo, hi)
    return {"M": m, "n": n}


def _beatty_claim51(rho, beta):
    rep = beatty.claim51_check(rho, beta)
    result = {
        "status": rep.status,
        "m": rep.m,
        "t": rep.t,
        "k": rep.k,
        "separator": rep.separator,
    }
    return result, EXIT_VIOLATION if rep.status == beatty.FAILS else EXIT_OK, None


_NONARCH_OPS = ("add", "sub", "mul", "div")  # functions of nonarch


def _nonarch_linf(sigma, rho, precision):
    rep = nonarch.linf_experiment(sigma, rho)
    if not rep.applicable:
        return {"applicable": False, "reason": rep.reason}
    return {
        "applicable": True,
        "m": rep.m,
        "k": rep.k,
        "separator": rep.separator,
        "between": [rep.lower_neighbor, rep.upper_neighbor],
    }


# -- the command table ------------------------------------------------------

_N = _Arg("N", _INT)
_Q = _Arg("Q", _INT)
_M = _Arg("M", _INT)
_ALPHA = _Arg("alpha", _EXACT)
_BETA = _Arg("beta", _EXACT)
_LIMIT = _Arg("limit", _INT)
_SCAN_LIMIT = _Arg("--limit", _INT, 100_000)
_PRECISION = _Arg("--precision", _INT, 64)

_COMMANDS = (
    _Command("farey", "list", (_N,), _farey_list),
    _Command("farey", "succ", (_Arg("fraction", _RATIONAL), _N),
             lambda fraction, N: {"successor": farey.successor(_farey(fraction, N))}),
    _Command("farey", "pred", (_Arg("fraction", _RATIONAL), _N),
             lambda fraction, N: {"predecessor": farey.predecessor(_farey(fraction, N))}),
    _Command("farey", "mediant", (_Arg("left", _RATIONAL), _Arg("right", _RATIONAL), _N),
             _farey_mediant),
    _Command("farey", "phi", (_Arg("fraction", _RATIONAL), _N),
             lambda fraction, N: {"phi": farey.phi_embed(_farey(fraction, N))}),
    _Command("farey", "greatest", (_N, _Arg("m", _INT), _Arg("--nonstrict", _FLAG, False)),
             _farey_greatest),

    _Command("approx", "dirichlet", (_ALPHA, _Q),
             lambda alpha, Q: _appr(approx.dirichlet(alpha, Q))),
    _Command("approx", "large", (_ALPHA, _Q),
             lambda alpha, Q: _appr(approx.large_denominator(alpha, Q))),
    _Command("approx", "segre", (_ALPHA, _Arg("tau", _RATIONAL), _Q),
             lambda alpha, tau, Q: _appr(approx.segre(alpha, tau, Q))),
    _Command("approx", "hurwitz", (_ALPHA, _Q),
             lambda alpha, Q: _appr(approx.hurwitz(alpha, Q))),
    _Command("approx", "onesided", (_ALPHA, _Q, _Arg("side", _SIDE)),
             lambda alpha, Q, side: _appr(approx.one_sided(alpha, Q, side))),
    _Command("approx", "verify",
             (_ALPHA, _Arg("p", _INT), _Arg("q", _INT),
              _Arg("--kind", _choice("dirichlet", "square", "segre", "hurwitz", "onesided")),
              _Arg("--bound-q", _INT), _Arg("--tau", _RATIONAL, None), _Arg("--side", _SIDE, None)),
             _approx_verify),

    _Command("beatty", "term", (_ALPHA, _Arg("n", _INT)),
             lambda alpha, n: {"value": beatty.beatty_term(alpha, n)}),
    _Command("beatty", "member", (_ALPHA, _Arg("k", _INT)), _beatty_member),
    _Command("beatty", "window", (_ALPHA, _M),
             lambda alpha, M: {"members": beatty.window(alpha, M).members}),
    _Command("beatty", "mu", (_ALPHA, _Arg("h", _INT)),
             lambda alpha, h: {"count": beatty.mu(alpha, h)}),
    _Command("beatty", "partition", (_ALPHA, _BETA, _M), _beatty_partition),
    _Command("beatty", "apdecomp", (_Arg("p", _INT), _Arg("q", _INT), _M), _beatty_apdecomp),
    _Command("beatty", "separate", (_ALPHA, _BETA), _beatty_separate),
    _Command("beatty", "cert",
             (_Arg("kind", _CERT_KIND), _ALPHA, _BETA), _beatty_cert),
    _Command("beatty", "imply",
             (_Arg("kind", _CERT_KIND), _ALPHA, _BETA,
              _Arg("a", _INT), _Arg("b", _INT), _Arg("c", _INT), _M),
             _beatty_imply),
    _Command("beatty", "common",
             (_ALPHA, _BETA, _Arg("start", _INT), _Arg("count", _INT), _SCAN_LIMIT),
             _beatty_common),
    _Command("beatty", "dmo", (_ALPHA, _Arg("lo", _RATIONAL), _Arg("hi", _RATIONAL), _LIMIT),
             lambda alpha, lo, hi, limit: _search(beatty.dmo_window_search(alpha, lo, hi, limit), limit)),
    _Command("beatty", "residue", (_ALPHA, _Arg("m", _INT), _Arg("k", _INT), _LIMIT),
             lambda alpha, m, k, limit: _search(beatty.residue_search(alpha, m, k, limit), limit)),
    _Command("beatty", "pthroot", (_Arg("p", _INT), _Arg("lo", _RATIONAL), _Arg("hi", _RATIONAL)),
             _beatty_pthroot),
    _Command("beatty", "kronecker",
             (_ALPHA, _BETA, *(_Arg(x, _RATIONAL) for x in ("l1", "r1", "l2", "r2")), _LIMIT),
             lambda alpha, beta, l1, r1, l2, r2, limit: _search(
                 beatty.kronecker_search(alpha, beta, (l1, r1, l2, r2), limit), limit)),
    _Command("beatty", "radius", (_Arg("rho", _RATIONAL), _Arg("m", _INT)),
             lambda rho, m: {"delta": beatty.agreement_radius(rho, m)}),
    _Command("beatty", "claim51", (_Arg("rho", _RATIONAL), _BETA), _beatty_claim51),

    _Command("nonarch", "floor", (_Arg("expr", _LAURENT), _PRECISION),
             lambda expr, precision: {"floor": nonarch.floor_ip(expr)}),
    _Command("nonarch", "arith",
             (_Arg("left", _LAURENT), _Arg("op", _choice(*_NONARCH_OPS)), _Arg("right", _LAURENT),
              _PRECISION),
             lambda left, op, right, precision: {"value": getattr(nonarch, op)(left, right)}),
    _Command("nonarch", "beatty", (_Arg("alpha", _LAURENT), _Arg("n", _LAURENT), _PRECISION),
             lambda alpha, n, precision: {"value": nonarch.beatty_nonarch(alpha, n)}),
    _Command("nonarch", "linf", (_Arg("sigma", _LAURENT), _Arg("rho", _LAURENT), _PRECISION),
             _nonarch_linf),

    _Command("oracle", "farey", (_N,),
             lambda N: _listing([f"{h}/{k}" for h, k in oracle.farey_naive(N)])),
    _Command("oracle", "dirichlet", (_ALPHA, _Q),
             lambda alpha, Q: {"satisfying": [f"{p}/{q}" for p, q in oracle.dirichlet_naive(alpha, Q)]}),
    _Command("oracle", "beatty", (_ALPHA, _M),
             lambda alpha, M: {"members": sorted(oracle.beatty_naive(alpha, M))}),
)


# -- the generic path -------------------------------------------------------


def build_parser(group: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser tree; with ``group`` given, only that group's command rows
    get a parser.  Every group's parser stays, so top-level help and
    errors read the same either way."""
    top = argparse.ArgumentParser(
        prog="dioapprox",
        description="Exact Diophantine approximation toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json"), default="plain")
    groups = top.add_subparsers(dest="group", required=True)
    subparsers = {}
    for cmd in _COMMANDS:
        if cmd.group not in subparsers:
            subparsers[cmd.group] = groups.add_parser(cmd.group).add_subparsers(
                dest="cmd", required=True)
        if group not in (None, cmd.group):
            continue
        p = subparsers[cmd.group].add_parser(cmd.name, parents=[common])
        p.set_defaults(command=cmd)
        for arg in cmd.args:
            if arg.kind is _FLAG:
                p.add_argument(arg.name, action="store_true")
            elif arg.option:
                required = arg.default is _REQUIRED
                p.add_argument(arg.name, type=arg.kind.type, choices=arg.kind.choices,
                               required=required, default=None if required else arg.default)
            else:
                p.add_argument(arg.name, type=arg.kind.type, choices=arg.kind.choices)
    return top


def _execute(cmd: _Command, ns: argparse.Namespace) -> tuple[dict, int]:
    """The envelope of exact text, and the exit code."""
    values = {}
    for arg in cmd.args:
        value = getattr(ns, arg.dest)
        if value is not None and arg.kind.parse is not None:
            value = arg.kind.parse(value, ns)
        values[arg.dest] = value
    reply = cmd.handler(**values)
    result, exit_code, resource = reply if isinstance(reply, tuple) else (reply, EXIT_OK, None)
    # The echo: every argument with a value, as canonical text; the argv:
    # positionals in table order, then options, then "--format json".
    inputs, positionals, options = {}, [], []
    for arg in cmd.args:
        value = values[arg.dest]
        if value is None:
            continue
        inputs[arg.dest] = text = arg.kind.fmt(value)
        if not arg.option:
            positionals.append(text)
        elif arg.kind is not _FLAG:
            options += [arg.name, text]
        elif value:
            options.append(arg.name)
    options += ["--format", "json"]
    if any(text.startswith("-") for text in positionals):
        # argparse reads a positional such as "-2/5" as an option; "--" ends the options
        canonical = [cmd.group, cmd.name, *options, "--", *positionals]
    else:
        canonical = [cmd.group, cmd.name, *positionals, *options]
    return _exact({"command": f"{cmd.group} {cmd.name}", "argv": canonical, "inputs": inputs,
                   "result": result, "resource": resource}), exit_code


def _render_plain(envelope: dict, stream):
    def emit(prefix, fields: dict):
        for k, v in fields.items():
            if isinstance(v, dict):
                emit(f"{prefix}{k}.", v)
            else:
                v = " ".join(str(x) for x in v) if isinstance(v, list) else v
                print(f"{prefix}{k}: {v}", file=stream)

    print(f"command: {envelope['command']}", file=stream)
    emit("", envelope["result"])
    if envelope["resource"]:
        emit("resource.", envelope["resource"])


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in {c.group for c in _COMMANDS} else None)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):  # usage, errors and --help
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        envelope, exit_code = _execute(args.command, args)
    except (ParseError, DomainError, NotFoundError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_USAGE
    except (ResourceLimitError, PrecisionError, IndeterminateSignError, ValueError) as exc:
        if isinstance(exc, ValueError) and "integer string conversion" not in str(exc):
            raise  # a resource failure only when str() met the interpreter's digit limit
        print(f"resource: {exc}", file=stderr)
        return EXIT_RESOURCE
    if args.format == "json":
        import json

        print(json.dumps(envelope), file=stdout)
    else:
        _render_plain(envelope, stdout)
    return exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
