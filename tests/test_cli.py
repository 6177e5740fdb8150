import io
import json

from dioapprox import cli


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


def test_resource_exit_code():
    code, out, _ = run_capture(
        ["beatty", "common", "(1+1*sqrt(5))/2", "(3+1*sqrt(5))/2", "0", "1",
         "--limit", "500", "--format", "json"]
    )
    assert code == 3
    env = json.loads(out)
    assert env["result"]["exhausted"] is True
    assert env["resource"]["exhausted"] is True


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
