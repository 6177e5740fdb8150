"""Command-line surface over all modules.

Every payload numeric is an exact string (integer, fraction or radical
expression); floats never appear.  The JSON envelope echoes a canonical
argv, and re-running that argv reproduces the payload byte for byte.

Every command is one row of ``_COMMANDS``: its group, name, arguments
and a handler.  Each argument has a kind that pairs a parser with a
canonical formatter, and ``parse(fmt(v)) == v`` holds for every kind.
The argparse tree, the ``inputs`` echo and the canonical argv are all
derived from the rows, so the replay promise holds by construction.

Exit codes: 0 success, 1 contract violation found (e.g. a partition
check FAILs), 2 usage or parse error, 3 resource limit reached.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import approx, beatty, farey, nonarch, oracle
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


def _fr(text: str) -> Fraction:
    value = parse_exact(text)
    if not isinstance(value, Fraction):
        raise ParseError("expected a rational number", text, 0)
    return value


def _fmt_fr(x: Fraction) -> str:
    return format_exact(Fraction(x))


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
_RATIONAL = _Kind(_fmt_fr, lambda text, ns: _fr(text))
_LAURENT = _Kind(_fmt_laurent, lambda text, ns: nonarch.parse_laurent(text, ns.precision))
_FLAG = _Kind(bool)


def _choice(*values: str) -> _Kind:
    return _Kind(str, choices=values)


_SIDE = _choice(approx.ABOVE, approx.BELOW)
_CERT_KIND = _choice(*(k.value for k in beatty.CertKind))
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
    result, or ``(result, exit_code, resource)``."""

    group: str
    name: str
    args: tuple
    handler: Callable


class _Outcome:
    def __init__(self, command, inputs, result, canonical, exit_code=EXIT_OK,
                 resource=None):
        self.command = command
        self.inputs = inputs
        self.result = result
        self.canonical = canonical
        self.exit_code = exit_code
        self.resource = resource


def _text(x) -> Optional[str]:
    return None if x is None else str(x)


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _checked(ok: bool) -> int:
    return EXIT_OK if ok else EXIT_VIOLATION


# -- handlers ---------------------------------------------------------------


def _listing(terms: list) -> dict:
    return {"terms": terms, "count": str(len(terms))}


def _farey(x: Fraction, order: int) -> farey.FareyFraction:
    return farey.farey_fraction(x.numerator, x.denominator, order)


def _farey_mediant(left, right, N):
    med = farey.mediant(_farey(left, N), _farey(right, N))
    return {"raw": f"{med.num}/{med.den}", "value": _fmt_fr(med.value)}


def _farey_greatest(N, m, nonstrict):
    f = farey.greatest_below(N, m, strict=not nonstrict)
    return {"fraction": str(f), "phi": str(farey.phi_embed(f))}


def _appr(appr: approx.Approximation) -> dict:
    return {
        "p": str(appr.p),
        "q": str(appr.q),
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
    return {"member": witness is not None, "witness": _text(witness)}


def _beatty_partition(alpha, beta, M):
    rep = beatty.partition_check(alpha, beta, M)
    result = {"status": _status(rep.ok), "checked_to": str(rep.checked_to)}
    if rep.first_shared is not None:
        result["first_shared"] = str(rep.first_shared)
    if rep.first_uncovered is not None:
        result["first_uncovered"] = str(rep.first_uncovered)
    return result, _checked(rep.ok), None


def _beatty_apdecomp(p, q, M):
    rep = beatty.ap_decomposition(p, q, M)
    progressions = [f"{pr.modulus}*I+{pr.residue}" for pr in rep.progressions]
    return {"progressions": progressions, "status": _status(rep.ok)}, _checked(rep.ok), None


def _beatty_separate(alpha, beta):
    res = beatty.separation_witness(alpha, beta)
    return {
        "status": res.status,
        "witness": _text(res.witness),
        "container": res.container,
        "trace": {k: str(v) for k, v in res.trace.items()},
    }


def _beatty_cert(kind, alpha, beta, bound):
    cert = beatty.certificate_search(beatty.CertKind(kind), alpha, beta, bound)
    if cert is None:
        return {"found": False}
    return {"found": True, "a": str(cert.a), "b": str(cert.b), "c": str(cert.c)}


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
        {"found": [str(v) for v in scan.found], "exhausted": scan.exhausted},
        EXIT_RESOURCE if scan.exhausted else EXIT_OK,
        {"scan_limit": str(limit), "exhausted": scan.exhausted},
    )


def _search(hit: Optional[int], limit: int):
    if hit is None:
        return ({"found": False, "n": None}, EXIT_RESOURCE,
                {"scan_limit": str(limit), "exhausted": True})
    return {"found": True, "n": str(hit)}


def _beatty_pthroot(p, lo, hi):
    m, n = beatty.pth_root_dmo_witness(p, lo, hi)
    return {"M": str(m), "n": str(n)}


def _beatty_claim51(rho, beta):
    rep = beatty.claim51_check(rho, beta)
    result = {
        "status": rep.status,
        "m": _text(rep.m),
        "t": _text(rep.t),
        "k": _text(rep.k),
        "separator": _text(rep.separator),
    }
    return result, EXIT_VIOLATION if rep.status == beatty.FAILS else EXIT_OK, None


_NONARCH_OPS = {
    "add": nonarch.add,
    "sub": nonarch.sub,
    "mul": nonarch.mul,
    "div": nonarch.div,
}


def _nonarch_beatty(alpha, n, precision):
    if not isinstance(n, nonarch.RatFunc) or n.den != nonarch.Poly([1]):
        raise DomainError("the index must be a polynomial with integer constant")
    return {"value": str(nonarch.beatty_nonarch(alpha, nonarch.IPElem(n.num)))}


def _nonarch_linf(sigma, rho, precision):
    rep = nonarch.linf_experiment(sigma, rho)
    if not rep.applicable:
        return {"applicable": False, "reason": rep.reason}
    return {
        "applicable": True,
        "m": str(rep.m),
        "k": str(rep.k),
        "separator": str(rep.separator),
        "between": [str(rep.lower_neighbor), str(rep.upper_neighbor)],
    }


# -- the command table ------------------------------------------------------

_N = _Arg("N", _INT)
_Q = _Arg("Q", _INT)
_M = _Arg("M", _INT)
_ALPHA = _Arg("alpha", _EXACT)
_BETA = _Arg("beta", _EXACT)
_LIMIT = _Arg("limit", _INT)
_PRECISION = _Arg("--precision", _INT, nonarch.DEFAULT_PRECISION)

_COMMANDS = (
    _Command("farey", "list", (_N,),
             lambda N: _listing([str(f) for f in farey.sequence(N)])),
    _Command("farey", "succ", (_Arg("fraction", _RATIONAL), _N),
             lambda fraction, N: {"successor": str(farey.successor(_farey(fraction, N)))}),
    _Command("farey", "pred", (_Arg("fraction", _RATIONAL), _N),
             lambda fraction, N: {"predecessor": str(farey.predecessor(_farey(fraction, N)))}),
    _Command("farey", "mediant", (_Arg("left", _RATIONAL), _Arg("right", _RATIONAL), _N),
             _farey_mediant),
    _Command("farey", "phi", (_Arg("fraction", _RATIONAL), _N),
             lambda fraction, N: {"phi": str(farey.phi_embed(_farey(fraction, N)))}),
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
             lambda alpha, n: {"value": str(beatty.beatty_term(alpha, n))}),
    _Command("beatty", "member", (_ALPHA, _Arg("k", _INT)), _beatty_member),
    _Command("beatty", "window", (_ALPHA, _M),
             lambda alpha, M: {"members": [str(k) for k in beatty.window(alpha, M).members]}),
    _Command("beatty", "mu", (_ALPHA, _Arg("h", _INT)),
             lambda alpha, h: {"count": str(beatty.mu(alpha, h))}),
    _Command("beatty", "partition", (_ALPHA, _BETA, _M), _beatty_partition),
    _Command("beatty", "apdecomp", (_Arg("p", _INT), _Arg("q", _INT), _M), _beatty_apdecomp),
    _Command("beatty", "separate", (_ALPHA, _BETA), _beatty_separate),
    _Command("beatty", "cert",
             (_Arg("kind", _CERT_KIND), _ALPHA, _BETA, _Arg("--bound", _INT, 10**6)),
             _beatty_cert),
    _Command("beatty", "imply",
             (_Arg("kind", _CERT_KIND), _ALPHA, _BETA,
              _Arg("a", _INT), _Arg("b", _INT), _Arg("c", _INT), _M),
             _beatty_imply),
    _Command("beatty", "common",
             (_ALPHA, _BETA, _Arg("start", _INT), _Arg("count", _INT),
              _Arg("--limit", _INT, beatty.DEFAULT_SCAN_LIMIT)),
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
             lambda rho, m: {"delta": _fmt_fr(beatty.agreement_radius(rho, m))}),
    _Command("beatty", "claim51", (_Arg("rho", _RATIONAL), _BETA), _beatty_claim51),

    _Command("nonarch", "floor", (_Arg("expr", _LAURENT), _PRECISION),
             lambda expr, precision: {"floor": str(nonarch.floor_ip(expr))}),
    _Command("nonarch", "arith",
             (_Arg("left", _LAURENT), _Arg("op", _choice(*_NONARCH_OPS)), _Arg("right", _LAURENT),
              _PRECISION),
             lambda left, op, right, precision: {
                 "value": nonarch.format_laurent(_NONARCH_OPS[op](left, right))}),
    _Command("nonarch", "beatty", (_Arg("alpha", _LAURENT), _Arg("n", _LAURENT), _PRECISION),
             _nonarch_beatty),
    _Command("nonarch", "linf", (_Arg("sigma", _LAURENT), _Arg("rho", _LAURENT), _PRECISION),
             _nonarch_linf),

    _Command("oracle", "farey", (_N,),
             lambda N: _listing([f"{h}/{k}" for h, k in oracle.farey_naive(N)])),
    _Command("oracle", "dirichlet", (_ALPHA, _Q),
             lambda alpha, Q: {"satisfying": [f"{p}/{q}" for p, q in oracle.dirichlet_naive(alpha, Q)]}),
    _Command("oracle", "beatty", (_ALPHA, _M),
             lambda alpha, M: {"members": [str(v) for v in sorted(oracle.beatty_naive(alpha, M))]}),
)


# -- the generic path -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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


def _execute(cmd: _Command, ns: argparse.Namespace) -> _Outcome:
    values = {}
    for arg in cmd.args:
        value = getattr(ns, arg.dest)
        if value is not None and arg.kind.parse is not None:
            value = arg.kind.parse(value, ns)
        values[arg.dest] = value
    reply = cmd.handler(**values)
    result, exit_code, resource = reply if isinstance(reply, tuple) else (reply, EXIT_OK, None)
    # The echo: every argument with a value, as canonical text; the argv:
    # positionals in table order, then options.
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
    return _Outcome(f"{cmd.group} {cmd.name}", inputs, result,
                    [cmd.group, cmd.name, *positionals, *options], exit_code, resource)


def _render_plain(outcome: _Outcome, stream):
    def emit(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}{k}.", v) if isinstance(v, dict) else emit_kv(f"{prefix}{k}", v)
        else:
            emit_kv(prefix.rstrip("."), value)

    def emit_kv(key, value):
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        print(f"{key}: {value}", file=stream)

    print(f"command: {outcome.command}", file=stream)
    emit("", outcome.result)
    if outcome.resource:
        emit("resource.", outcome.resource)


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    fmt = args.format
    try:
        outcome = _execute(args.command, args)
    except (ParseError, DomainError, NotFoundError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_USAGE
    except (ResourceLimitError, PrecisionError, IndeterminateSignError) as exc:
        print(f"resource: {exc}", file=stderr)
        return EXIT_RESOURCE
    if fmt == "json":
        canonical = list(outcome.canonical) + ["--format", "json"]
        envelope = {
            "command": outcome.command,
            "argv": canonical,
            "inputs": outcome.inputs,
            "result": outcome.result,
            "resource": outcome.resource,
        }
        print(json.dumps(envelope), file=stdout)
    else:
        _render_plain(outcome, stdout)
    return outcome.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
