import ast
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dioapprox
from dioapprox import approx, beatty, cli, farey, nonarch, oracle


def run_capture(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_farey_list_plain():
    code, out, _ = run_capture(["farey", "list", "5"])
    assert code == 0
    assert "0/1 1/5 1/4 1/3 2/5 1/2 3/5 2/3 3/4 4/5 1/1" in out
    assert "count: 11" in out


def test_dirichlet_json_payload():
    code, out, _ = run_capture(["approx", "dirichlet", "sqrt(2)", "5", "--format", "json"])
    assert code == 0
    env = json.loads(out)
    assert env["result"] == {"p": "7", "q": "5", "bound": "1/25", "verified": True}
    assert env["inputs"]["alpha"] == "(0+1*sqrt(2))/1"


def test_partition_pass_and_fail_exit_codes():
    code, out, _ = run_capture(
        ["beatty", "partition", "(1+1*sqrt(5))/2", "(3+1*sqrt(5))/2", "10000"]
    )
    assert code == 0 and "PASS" in out
    code, out, _ = run_capture(["beatty", "partition", "3/2", "3", "100"])
    assert code == 1 and "FAIL" in out


def test_parse_error_exit_code():
    code, _, err = run_capture(["beatty", "term", "sqrt(", "5"])
    assert code == 2 and "error" in err
    code, out, err = run_capture(["farey", "list"])  # argparse's usage error
    assert code == 2 and not out and "required: N" in err


def test_laurent_text_errors_and_the_spaced_builtin():
    code, out, err = run_capture(["nonarch", "floor", "3²"])
    assert code == 2 and not out and "trailing input at position 1" in err
    code, out, err = run_capture(["nonarch", "floor", "sqrt1p( eps )", "--format", "json"])
    assert code == 0 and not err
    env = json.loads(out)
    assert env["inputs"]["expr"] == "sqrt1p(eps)" and env["result"] == {"floor": "1"}
    assert run_capture(env["argv"]) == (code, out, err)


def test_resource_exit_code():
    code, out, _ = run_capture(
        ["beatty", "common", "(1+1*sqrt(5))/2", "(3+1*sqrt(5))/2", "0", "1",
         "--limit", "500", "--format", "json"]
    )
    assert code == 3
    env = json.loads(out)
    assert env["result"]["exhausted"] is True
    assert env["resource"]["exhausted"] is True


def test_window_limit_exit_code():
    for argv in (["beatty", "window", "(1+1*sqrt(5))/2", "1000000000"],
                 ["beatty", "partition", "(1+1*sqrt(5))/2", "(3+1*sqrt(5))/2", "1000000000"]):
        code, out, err = run_capture(argv)
        assert code == 3 and out == ""
        assert "WINDOW_LIMIT" in err and "Traceback" not in err
    # a sparse window: 100,001 members, but a word of 10^12 + 1 bytes
    code, out, err = run_capture(["beatty", "window", "10000000", "1000000000000"])
    assert code == 3 and out == ""
    assert "WORD_LIMIT" in err and "Traceback" not in err


def test_scan_and_progression_limits_exit_code():
    # 10^7 progressions, and an empty scan that used to run for about 45 s
    for argv, limit in ((["beatty", "apdecomp", "99999999999999999999", "10000000", "1000"],
                         "WINDOW_LIMIT"),
                        (["beatty", "common", "(1+1*sqrt(5))/2", "(3+1*sqrt(5))/2", "0", "1",
                          "--limit", "100000000"], "WORD_LIMIT")):
        code, out, err = run_capture(argv)
        assert code == 3 and out == ""
        assert limit in err and "Traceback" not in err


def test_nonarch_size_limits_exit_code():
    for argv, limit in ((["nonarch", "floor", "t^200000"], "DEGREE_LIMIT"),
                        (["nonarch", "arith", "sqrt1p(eps)", "mul", "sqrt1p(eps)",
                          "--precision", "1500"], "PRECISION_LIMIT")):
        code, out, err = run_capture(argv)
        assert code == 3 and out == ""
        assert limit in err and "Traceback" not in err


def test_pthroot_scan_limit_exit_code():
    code, out, err = run_capture(["beatty", "pthroot", "2", "0", "1/100000000"])
    assert code == 3 and out == ""
    assert "DEFAULT_SCAN_LIMIT" in err and "Traceback" not in err


def test_results_too_long_to_print_exit_code():
    n = "9" * 4300  # the interpreter prints integers of at most 4300 digits
    for argv in (["beatty", "term", "2", n], ["beatty", "term", "sqrt(2)", n],
                 ["approx", "dirichlet", "10*sqrt(2)", n], ["farey", "phi", "1/2", n],
                 ["beatty", "pthroot", "40000", "1/3", "1/2"],
                 ["beatty", "pthroot", "10000000", "1/3", "1/2"]):
        started = time.perf_counter()
        code, out, err = run_capture(argv)
        assert code == 3 and out == "" and err.startswith("resource: "), argv[:2]
        assert "Traceback" not in err and time.perf_counter() - started < 5


def test_floor_of_dense_quotient_with_30_digit_coefficients():
    rng = random.Random(5)
    num, den = ([rng.randrange(10**29, 10**30) for _ in range(17)] for _ in range(2))
    text = "({})/({})".format(*(" + ".join(f"{c}*t^{i}" for i, c in enumerate(p)) for p in (num, den)))
    code, out, err = run_capture(["nonarch", "floor", text])
    floor, _ = oracle.ratfunc_floor_naive(num, den)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == f"floor: {floor[0] if floor else 0}"


def test_floor_past_the_coefficient_limit_exit_code():
    # t^64/(10^1000*t + 1) parses within the limit; its floor would hold
    # 6.9 million bits
    code, out, err = run_capture(["nonarch", "floor", f"t^64/({10 ** 1000}*t + 1)"])
    assert code == 3 and out == ""
    assert "COEFF_BITS_LIMIT" in err and "Traceback" not in err


def test_farey_list_limit_exit_code():
    code, out, err = run_capture(["farey", "list", "2000"])  # about 1.2e6 terms
    assert code == 3 and out == ""
    assert "LIST_LIMIT" in err and "Traceback" not in err


def test_farey_list_refuses_before_building_terms(monkeypatch):
    def no_terms(N):
        raise AssertionError("farey.sequence called")

    monkeypatch.setattr(farey, "sequence", no_terms)
    code, out, err = run_capture(["farey", "list", "100000000"])
    assert code == 3 and out == ""
    assert "LIST_LIMIT" in err and "Traceback" not in err


def test_farey_size_is_the_totient_sum():
    for N in range(1, 60):
        assert cli._farey_size(N, 10**9) == len(oracle.farey_naive(N))
    assert cli._farey_size(1813, cli.LIST_LIMIT) <= cli.LIST_LIMIT < cli._farey_size(1814, 10**9)
    assert cli._farey_size(10**8, 10) == 11  # |F_1..F_5| = 2, 3, 5, 7, 11: it stops at F_5


def test_coefficient_bits_limit_exit_code():
    rng = random.Random(1)

    def dense():  # degree 16, 300-digit coefficients
        return " + ".join(f"{rng.randrange(10**299, 10**300)}*t^{i}" for i in range(17))

    p, q = (f"({dense()})/({dense()})" for _ in range(2))
    code, out, err = run_capture(["nonarch", "arith", p, "add", q])
    assert code == 3 and out == ""
    assert "COEFF_BITS_LIMIT" in err and "Traceback" not in err


def test_series_of_a_dense_quotient_stops_at_the_coefficient_limit():
    rng = random.Random(3)
    num, den = ([rng.randrange(2**29, 2**30) for _ in range(65)] for _ in range(2))
    text = "({})/({})".format(*(" + ".join(f"{c}*t^{i}" for i, c in enumerate(p)) for p in (num, den)))
    start = time.perf_counter()
    code, out, err = run_capture(["nonarch", "arith", text, "mul", "sqrt1p(eps)",
                                  "--precision", "600"])
    assert code == 3 and out == ""
    assert "COEFF_BITS_LIMIT" in err and "Traceback" not in err
    assert time.perf_counter() - start < 5  # expanding all 600 terms takes several seconds


def test_partition_certificate_with_other_coefficients_is_refused():
    code, out, err = run_capture(["beatty", "imply", "partition", "(1+1*sqrt(5))/2",
                                  "(3+1*sqrt(5))/2", "5", "7", "1", "50"])
    assert code == 2 and out == ""
    assert "does not hold" in err and "Traceback" not in err


def test_implication_on_rational_slopes_is_refused():
    # Beatty's theorem is about irrational slopes; `beatty cert` refuses these pairs too
    for argv in (["beatty", "imply", "partition", "2", "2", "1", "1", "1", "5"],
                 ["beatty", "imply", "disjoint", "3", "3", "1", "2", "1", "50"]):
        code, out, err = run_capture(argv)
        assert code == 2 and out == "", argv
        assert "require two irrational slopes" in err and "Traceback" not in err


def test_close_rational_pair_separates():
    for a, b, witness in (("1000001/1000000", "1000003/1000002", "1000000"),
                          ("10001/10000", "10003/10002", "10000")):
        code, out, err = run_capture(["beatty", "separate", a, b, "--format", "json"])
        assert code == 0 and not err
        env = json.loads(out)
        assert env["result"]["witness"] == witness
        assert env["result"]["trace"] == {"method": "least-split", "n": witness}
        assert run_capture(env["argv"]) == (0, out, "")


def test_verify_subcommand():
    code, out, _ = run_capture(
        ["approx", "verify", "sqrt(2)", "7", "5", "--kind", "dirichlet",
         "--bound-q", "5", "--format", "json"]
    )
    assert code == 0 and json.loads(out)["result"]["verified"] is True
    code, out, _ = run_capture(
        ["approx", "verify", "sqrt(2)", "3", "2", "--kind", "square", "--bound-q", "2"]
    )
    assert code == 1


def test_verify_refuses_options_of_other_kinds():
    base = ["approx", "verify", "sqrt(2)", "7", "5", "--kind", "dirichlet", "--bound-q", "5"]
    for extra in (["--tau", "1/2"], ["--side", "below"], ["--tau", "1/2", "--side", "below"]):
        code, out, err = run_capture(base + extra)
        assert code == 2 and not out and "applies only to" in err, extra
    code, _, err = run_capture(["approx", "verify", "sqrt(2)", "7", "5", "--kind", "segre",
                                "--bound-q", "5", "--side", "below"])
    assert code == 2 and "--side" in err
    code, _, err = run_capture(["approx", "verify", "sqrt(2)", "7", "5", "--kind", "onesided",
                                "--bound-q", "5", "--tau", "1"])
    assert code == 2 and "--tau" in err
    code, _, _ = run_capture(["approx", "verify", "sqrt(2)", "7", "5", "--kind", "onesided",
                              "--bound-q", "1", "--side", "below"])
    assert code == 0


def test_verify_refuses_negative_tau():
    base = ["approx", "verify", "sqrt(2)", "3", "2", "--kind", "segre", "--bound-q", "1"]
    for spelling, shown in ((["--tau=-1/8"], "-1/8"), (["--tau=-1/4"], "-1/4"),
                            (["--tau", "-1"], "-1")):
        for tail in ([], ["--format", "json"]):
            code, out, err = run_capture(base + spelling + tail)
            assert (code, out, err) == (2, "", f"error: tau must be >= 0, got {shown}\n"), spelling


def test_negative_search_limits_are_usage_errors():
    searches = (["beatty", "dmo", "sqrt(2)", "0", "1"], ["beatty", "residue", "sqrt(2)", "3", "1"],
                ["beatty", "kronecker", "sqrt(2)", "sqrt(3)", "0", "1", "0", "1"])
    cases = [argv + [limit] for argv in searches for limit in ("-1", "0")]
    cases += [["beatty", "common", "sqrt(2)", "1+sqrt(2)", "0", "1", "--limit", limit]
              for limit in ("-1", "0")]
    for argv in cases:
        code, out, err = run_capture(argv)
        if "-1" in argv:
            assert (code, out, err) == (2, "", "error: limit must be >= 0, got -1\n"), argv
        else:  # limit 0 runs out before the first index
            assert code == 3 and "exhausted: True" in out and not err, argv


@pytest.mark.parametrize("argv, message", [
    (["approx", "large", "sqrt(2)", "0"], "Q must be >= 1, got 0"),
    (["approx", "segre", "sqrt(2)", "1/2", "0"], "Q must be >= 1, got 0"),
    (["approx", "onesided", "sqrt(2)", "0", "below"], "Q must be >= 1, got 0"),
    (["farey", "succ", "sqrt(2)", "5"], "expected a rational number at position 0: 'sqrt(2)'"),
    (["beatty", "member", "sqrt(2)", "-1"], "membership is about k >= 0, got -1"),
    (["beatty", "window", "sqrt(2)", "-1"], "window bound must be >= 0, got -1"),
    (["beatty", "mu", "sqrt(2)", "-1"], "mu needs h >= 0, got -1"),
    (["beatty", "partition", "1/2", "3", "10"], "partition checking needs alpha, beta > 1"),
    (["beatty", "residue", "3/2", "3", "1", "10"], "residue searches need irrational alpha"),
    (["beatty", "pthroot", "1", "1/3", "1/2"], "root degree must be >= 2"),
    (["beatty", "kronecker", "3/2", "sqrt(3)", "0", "1", "0", "1", "10"],
     "fractional-part searches need irrationals"),
    (["beatty", "kronecker", "sqrt(2)", "sqrt(3)", "1/2", "1/3", "0", "1", "10"],
     "rectangle sides must satisfy 0 <= l < r <= 1"),
    (["beatty", "radius", "3/2", "0"], "need m >= 1"),
])
def test_argument_checks_are_usage_errors(argv, message):
    assert run_capture(argv) == (2, "", f"error: {message}\n")


def test_nonarch_commands():
    code, out, _ = run_capture(["nonarch", "floor", "(t^2)/(t+1)"])
    assert code == 0 and "t - 1" in out
    code, out, _ = run_capture(["nonarch", "arith", "t", "mul", "1/t"])
    assert code == 0 and "value: 1" in out
    code, out, _ = run_capture(["nonarch", "linf", "5/4", "3/2", "--format", "json"])
    env = json.loads(out)
    assert env["result"]["m"] == "4" and env["result"]["separator"] == "2"
    code, out, _ = run_capture(["nonarch", "beatty", "(t+1)/(t)", "t"])
    assert code == 0 and "t + 1" in out


def test_oracle_commands():
    code, out, _ = run_capture(["oracle", "beatty", "(1+1*sqrt(5))/2", "12"])
    assert code == 0
    assert "0 1 3 4 6 8 9 11 12" in out


def test_json_round_trip_reproduces_payload():
    cases = [
        ["approx", "dirichlet", "sqrt(2)", "5", "--format", "json"],
        ["farey", "greatest", "5", "9", "--format", "json"],
        ["beatty", "window", "(1+1*sqrt(5))/2", "12", "--format", "json"],
        ["beatty", "claim51", "3/2", "sqrt(2)", "--format", "json"],
        ["beatty", "dmo", "sqrt(2)", "9/10", "19/20", "100", "--format", "json"],
        ["nonarch", "linf", "5/4", "3/2", "--format", "json"],
        ["oracle", "dirichlet", "sqrt(2)", "10", "--format", "json"],
        # positionals that argparse would read as options replay after "--"
        ["beatty", "claim51", "--format", "json", "--", "2", "-2/5"],
        ["nonarch", "floor", "--format", "json", "--", "-2*t + 1"],
    ]
    for argv in cases:
        _, first, _ = run_capture(argv)
        env = json.loads(first)
        _, second, _ = run_capture(env["argv"])
        assert second == first, argv


def test_every_numeric_in_json_is_a_string():
    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert not isinstance(node, float)
            assert isinstance(node, (str, bool, int)) or node is None
            assert not isinstance(node, int) or isinstance(node, bool)

    for argv in (
        ["approx", "hurwitz", "(1+1*sqrt(5))/2", "10", "--format", "json"],
        ["beatty", "mu", "(1+1*sqrt(5))/2", "10", "--format", "json"],
        ["farey", "mediant", "1/3", "2/5", "5", "--format", "json"],
    ):
        _, out, _ = run_capture(argv)
        walk(json.loads(out))


def test_literal_choices_match_their_modules():
    assert cli._SIDE.choices == (approx.ABOVE, approx.BELOW)
    assert cli._CERT_KIND.choices == tuple(k.value for k in beatty.CertKind)
    assert cli._SCAN_LIMIT.default == beatty.DEFAULT_SCAN_LIMIT
    assert cli._PRECISION.default == nonarch.DEFAULT_PRECISION
    assert all(callable(getattr(nonarch, op)) for op in cli._NONARCH_OPS)


def _modules_after(argv=None):
    """The modules a fresh interpreter holds after cli.run(argv), or with
    no argv, after start-up alone."""
    script = "import sys\n"
    if argv is not None:
        script += ("import io\n"
                   "from dioapprox import cli\n"
                   f"cli.run({argv!r}, stdout=io.StringIO(), stderr=io.StringIO())\n")
    script += "print(*sorted(sys.modules))"
    src = os.path.dirname(os.path.dirname(dioapprox.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    return set(proc.stdout.split())


def test_a_command_loads_only_the_modules_it_runs():
    toolkit = {f"dioapprox.{m}" for m in ("approx", "beatty", "farey", "nonarch", "oracle")}
    avoided = {"dataclasses", "inspect", "json"} - _modules_after()
    for argv, loaded in ((["approx", "hurwitz", "sqrt(2)", "1000"], {"approx"}),
                         (["farey", "succ", "2/6", "5"], {"farey"}),
                         (["beatty", "mu", "sqrt(2)", "100"], {"beatty"}),
                         (["nonarch", "floor", "t"], {"nonarch"}),
                         (["oracle", "farey", "5"], {"oracle"}),
                         (["--help"], set()),
                         (["beatty", "cert", "--help"], set()),
                         (["farey", "list"], set())):  # a usage error
        modules = _modules_after(argv)
        assert {m.split(".")[1] for m in toolkit & modules} == loaded, argv
        assert not avoided & modules, argv
    assert "json" in _modules_after(["farey", "succ", "2/6", "5", "--format", "json"])


def test_toolkit_modules_import_only_the_kernel():
    """Each toolkit module imports, from the package, only errors and exactnum."""
    src = os.path.dirname(dioapprox.__file__)
    for name in ("approx", "beatty", "farey", "nonarch", "oracle"):
        with open(os.path.join(src, f"{name}.py")) as fh:
            tree = ast.parse(fh.read())
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                used |= {a.name for a in node.names} if node.module is None else {node.module}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dioapprox"):
                used.add(node.module)
            elif isinstance(node, ast.Import):
                used |= {a.name for a in node.names if a.name.startswith("dioapprox")}
        assert used <= {"errors", "exactnum"}, (name, used)


def test_no_module_uses_floating_point():
    """No module has a float literal, names float, or imports or reads inf or nan."""
    src = os.path.dirname(dioapprox.__file__)
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            found = (
                isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Attribute) and node.attr in ("inf", "nan")
                or isinstance(node, ast.ImportFrom)
                and {a.name for a in node.names} & {"inf", "nan"}
            )
            assert not found, (name, node.lineno)


# One sample argv per command-table row.
REPLAY_SAMPLES = [
    ["farey", "list", "5"],
    ["farey", "succ", "2/6", "5"],
    ["farey", "pred", "2/5", "5"],
    ["farey", "mediant", "1/3", "2/5", "5"],
    ["farey", "phi", "2/5", "5"],
    ["farey", "greatest", "5", "9", "--nonstrict"],
    ["approx", "dirichlet", "sqrt(2)", "5"],
    ["approx", "large", "2+sqrt(3)", "7"],
    ["approx", "segre", "(1+1*sqrt(5))/2", "2/6", "10"],
    ["approx", "hurwitz", "sqrt(3)", "10"],
    ["approx", "onesided", "sqrt(2)", "10", "below"],
    ["approx", "verify", "sqrt(2)", "17", "12", "--kind", "segre", "--bound-q", "5",
     "--tau", "1/2"],
    ["beatty", "term", "sqrt(8)", "10"],
    ["beatty", "member", "sqrt(2)", "7"],
    ["beatty", "window", "sqrt(2)", "12"],
    ["beatty", "mu", "sqrt(2)", "10"],
    ["beatty", "partition", "sqrt(2)", "2+sqrt(2)", "100"],
    ["beatty", "apdecomp", "5", "3", "50"],
    ["beatty", "separate", "3", "5/2"],
    ["beatty", "cert", "disjoint", "sqrt(2)", "2+sqrt(2)", "--bound", "100"],
    ["beatty", "imply", "disjoint", "sqrt(2)", "2+sqrt(2)", "1", "1", "1", "100"],
    ["beatty", "common", "(1+1*sqrt(5))/2", "(3+1*sqrt(5))/2", "0", "1", "--limit", "500"],
    ["beatty", "dmo", "sqrt(2)", "9/10", "19/20", "100"],
    ["beatty", "residue", "sqrt(2)", "3", "1", "100"],
    ["beatty", "pthroot", "2", "1/3", "1/2"],
    ["beatty", "kronecker", "sqrt(2)", "sqrt(3)", "0", "1/2", "1/2", "1", "100"],
    ["beatty", "radius", "3/2", "5"],
    ["beatty", "claim51", "3/2", "sqrt(2)"],
    ["nonarch", "floor", "(t^2)/(2*t+1)"],
    ["nonarch", "arith", "sqrt1p(eps)", "mul", "t", "--precision", "8"],
    ["nonarch", "beatty", "(t+1)/(t)", "(t)/(2)"],
    ["nonarch", "linf", "5/4", "3/2", "--precision", "16"],
    ["oracle", "farey", "5"],
    ["oracle", "dirichlet", "sqrt(2)", "10"],
    ["oracle", "beatty", "(1+1*sqrt(5))/2", "12"],
]


def test_every_command_replays_its_json_argv():
    rows = {(c.group, c.name): c for c in cli._COMMANDS}
    assert {tuple(argv[:2]) for argv in REPLAY_SAMPLES} == set(rows)
    for argv in REPLAY_SAMPLES:
        code, first, err = run_capture(argv + ["--format", "json"])
        assert code in (0, 1, 3) and not err, argv
        env = json.loads(first)
        assert run_capture(env["argv"]) == (code, first, ""), argv
        given = {a.lstrip("-").replace("-", "_") for a in argv if a.startswith("--")}
        expected = {a.dest for a in rows[tuple(argv[:2])].args
                    if not a.option or a.dest in given or a.default is not None}
        assert set(env["inputs"]) == expected, argv


def _full_parser_capture(argv):
    """Exit code and output of the full parser tree on an argv it exits on."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    return (2 if exc.value.code else 0), out.getvalue(), err.getvalue()


def test_a_group_parser_reads_argv_as_the_full_tree_does():
    for argv in REPLAY_SAMPLES:
        for tail in ([], ["--format", "json"]):
            assert (cli.build_parser(argv[0]).parse_args(argv + tail)
                    == cli.build_parser().parse_args(argv + tail)), argv
    groups = {c.group for c in cli._COMMANDS}
    for group in groups:
        assert cli.build_parser(group).format_help() == cli.build_parser().format_help()
    exits = [["--help"], ["-h"], ["farey", "list"], ["bogus", "list", "5"], ["farey"],
             ["farey", "bogus"], ["--", "farey", "list"], []]
    exits += [[group, "--help"] for group in groups]
    exits += [[c.group, c.name, "--help"] for c in cli._COMMANDS]
    for argv in exits:
        assert run_capture(argv) == _full_parser_capture(argv), argv


# --- argv fuzzer over the command table -------------------------------------

def _poly_text(coeffs):
    terms = [f"{c}*t^{i}" for i, c in enumerate(coeffs) if c] or ["0"]
    return " + ".join(terms).replace("+ -", "- ")


_INTS = st.integers(-3, 40).map(str)
_RATIONALS = st.builds("{}/{}".format, st.integers(-2, 12), st.integers(0, 12))
_EXACTS = st.one_of(
    _INTS,
    _RATIONALS,
    st.builds(lambda a, b, d, c: f"({a}{'-' if b < 0 else '+'}{abs(b)}*sqrt({d}))/{c}",
              st.integers(-6, 6), st.integers(-3, 3), st.integers(0, 12), st.integers(0, 5)),
)
_POLYS = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(_poly_text)
_WS = st.sampled_from(["", " ", "  "])
_SPACED_POLYS = st.lists(
    st.builds("{}{}*{}t{}^{}{}".format, st.integers(0, 9), _WS, _WS, _WS, _WS, st.integers(0, 4)),
    min_size=1, max_size=3).map(" - ".join)
_SIDES = st.one_of(_POLYS, _SPACED_POLYS, st.builds("({}{}{})".format, _WS, _SPACED_POLYS, _WS))
# a stray '*' or '^', an unbalanced parenthesis or a chained '/' between two sides
_MALFORMED = st.builds("{}{}{}".format, _SIDES,
                       st.sampled_from(["*", "^", "(", ")", ")/(", "/(t)/", "/ /"]), _SIDES)
_LAURENTS = st.one_of(
    st.sampled_from(["sqrt1p(eps)", "sqrt1p( eps )", "3²", "t^٣"]),
    _POLYS,
    st.builds("({})/({})".format, _POLYS, _POLYS),
    _RATIONALS,
    _SIDES,
    st.builds("{}{}/{}{}".format, _SIDES, _WS, _WS, _SIDES),
    _MALFORMED,
)


def _text_for(kind):
    if kind.choices:
        return st.sampled_from(kind.choices)
    return {cli._INT: _INTS, cli._EXACT: _EXACTS, cli._RATIONAL: _RATIONALS,
            cli._LAURENT: _LAURENTS}[kind]


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(cli._COMMANDS))
    argv, options = [cmd.group, cmd.name], []
    for arg in cmd.args:
        if arg.option and arg.default is not cli._REQUIRED and not draw(st.booleans()):
            continue
        if arg.kind is cli._FLAG:
            options.append(arg.name)
        elif arg.option:
            options += [arg.name, draw(_text_for(arg.kind))]
        else:
            argv.append(draw(_text_for(arg.kind)))
    return argv + options + ["--format", draw(st.sampled_from(["plain", "json"]))]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_argvs())
def test_fuzzed_argv_keeps_the_exit_contract(argv):
    code, out, err = run_capture(argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, err)
    if out and argv[-1] == "json":
        assert run_capture(json.loads(out)["argv"]) == (code, out, err), argv
