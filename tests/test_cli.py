import io

import pytest

from skewfrac import cli

Y1 = "1/4*(X - i*X*i - j*X*j - k*X*k)"
RECON = ("1/4*(X-i*X*i-j*X*j-k*X*k) + i*(1/4*(j*X*k-X*i-i*X-k*X*j))"
         " + j*(1/4*(k*X*i-X*j-j*X-i*X*k)) + k*(1/4*(i*X*j-X*k-k*X-j*X*i))")

# (argv, exact stdout) -- the byte-for-byte command/output contract
GOLDEN = [
    (["canon", Y1], "t1\n"),
    (["eq", "X", RECON], "true\n"),
    (["canon", "X*i - i*X"], "(-2*k)*t3 + (2*j)*t4\n"),
    (["canon", "(t-i)*(t-j)"], "t^2 - (i + j)*t + k\n"),
    (["canon", "(t-j)*(t-i)"], "t^2 - (i + j)*t - k\n"),
    (["canon", "i*j*k"], "-1\n"),
    (["canon", "X - " + Y1], "(i)*t2 + (j)*t3 + (k)*t4\n"),
    (["eval", "X^2", "1 + i"], "2*i\n"),
    (["eval", "(t - i)^2", "2"], "3 - 4*i\n"),
    (["eval", "t1 + i*t2", "3", "1/2", "0", "0"], "3 + 1/2*i\n"),
    (["eval", "3/4 + i"], "3/4 + i\n"),
    (["eq", "(t-i)*(t-j)", "(t-j)*(t-i)"], "false\n"),
    (["eq", "1/(t-i) + 1/(t+i)", "2*t / (t^2 + 1)"], "true\n"),
    (["central", "t^2 + 1"], "true\n"),
    (["central", "i"], "false\n"),
    (["central", "t - i"], "false\n"),
    (["central", "t2"], "true\n"),
    (["central", Y1], "true\n"),
    (["components", "1/(t - i)"],
     "t / (t^2 + 1)\n1 / (t^2 + 1)\n0\n0\n"),
    (["components", "1/2 - k"], "1/2\n0\n0\n-1\n"),
    (["deg", "(t-i)*(t-j)*(t-k)"], "3\n"),
    (["deg", "1/(t^2+1)"], "-2\n"),
    (["deg", "X*X + X"], "2\n"),
    (["deg", "0*X"], "-inf\n"),        # X-degree is formal: 0 is the empty sum
    (["deg", "X - X"], "1\n"),         # ... and X - X keeps both words
    (["deg", "(0*X)^0"], "0\n"),
    (["gcrd", "(t-i)*(t-j)", "(t-k)*(t-j)"], "t - j\n"),
    (["gcrd", "t^2+1", "t^2+2"], "1\n"),
    (["lcrm", "t - i", "t - j"], "m = t^2 + 1\nu = t + i\nv = t + j\n"),
    (["frac", "add", "1/(t-i)", "1/(t+i)"], "2*t / (t^2 + 1)\n"),
    (["frac", "mul", "1/(t-i)", "1/(t+i)"], "1 / (t^2 + 1)\n"),
    (["frac", "inv", "t - i"], "1 / (t - i)\n"),
    (["frac", "reduce", "((t-i)*(t-j)) / ((t-k)*(t-j))"],
     "(t - i) / (t - k)\n"),
    (["frac", "div", "t - i", "t - i"], "1\n"),
    (["canon", "(2*t + 2*i) / 4"], "1/2*t + 1/2*i\n"),
    (["canon", "((1 + i)/(1 - i))*t"], "i*t\n"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=[" ".join(g[0])[:40] for g in GOLDEN])
def test_golden(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def test_golden_count():
    assert len(GOLDEN) >= 20


# (argv, exit code, exact stderr) for commands that must fail
GOLDEN_ERRORS = [
    (["canon", "X/(X - X)"], 2,
     "skewfrac: parse error: can only divide by a constant here "
     "(at position 2)\n"),
    (["canon", "X/(0*X)"], 3, "skewfrac: domain error: division by zero\n"),
    (["canon", "t/(1 - 1)"], 3, "skewfrac: domain error: division by zero\n"),
    # only ASCII digits are digits: int() rejects the others isdigit() accepts
    (["canon", "\u00b2"], 2,
     "skewfrac: parse error: unexpected character '\u00b2' (at position 1)\n"),
    (["canon", "t^\u00b2"], 2,
     "skewfrac: parse error: unexpected character '\u00b2' (at position 3)\n"),
]


@pytest.mark.parametrize("argv,code,err", GOLDEN_ERRORS,
                         ids=[" ".join(g[0]) for g in GOLDEN_ERRORS])
def test_golden_errors(argv, code, err, capsys):
    assert cli.main(argv) == code
    assert capsys.readouterr() == ("", err)


def test_long_chains_and_deep_nesting(capsys):
    # a flat chain is a left-deep tree as tall as it is long
    assert cli.main(["canon", "+".join(["t"] * 5000)]) == 0
    assert capsys.readouterr().out == "5000*t\n"
    assert cli.main(["canon", "*".join(["i"] * 2001) + "*t"]) == 0
    assert capsys.readouterr().out == "i*t\n"
    assert cli.main(["canon", "--", "-" * 3000 + "t"]) == 0
    assert capsys.readouterr().out == "t\n"
    # parentheses nest at most parser.MAX_NESTING deep
    deep = "(" * 100 + "t" + ")" * 100
    assert cli.main(["canon", deep]) == 0
    assert capsys.readouterr().out == "t\n"
    assert cli.main(["canon", "(" + deep + ")"]) == 2
    assert capsys.readouterr().err == (
        "skewfrac: parse error: parentheses nested deeper than 100 "
        "(at position 101)\n")
    assert cli.main(["canon", "(" * 1000 + "t" + ")" * 1000]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_double_dash_ends_options(capsys):
    assert cli.main(["canon", "--", "--1"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert cli.main(["--", "deg", "--seed"]) == 2   # "--seed" is an expression
    assert "parse error" in capsys.readouterr().err


def test_parse_error_exit_codes(capsys):
    assert cli.main(["canon", "t + ("]) == 2
    assert cli.main(["canon", "X + t1"]) == 2
    assert cli.main(["eq", "X", "t"]) == 2
    assert cli.main(["bogusverb", "t"]) == 2
    assert cli.main(["canon"]) == 2          # missing argument
    assert cli.main(["--seed", "xyz", "selftest"]) == 2
    assert cli.main(["--frobnicate", "canon", "t"]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "position" in err


def test_domain_error_exit_codes(capsys):
    assert cli.main(["frac", "inv", "0*t"]) == 3
    assert cli.main(["frac", "div", "t", "0*t"]) == 3
    assert cli.main(["eval", "1/(t^2+1)", "i"]) == 3
    assert cli.main(["eval", "1/t", "0"]) == 3    # pole
    assert cli.main(["selftest", "bogus"]) == 3
    assert cli.main(["gcrd", "1/(t-i)", "t"]) == 3  # genuine fraction
    err = capsys.readouterr().err
    assert "domain error" in err


def test_selftest_exit_codes(capsys, monkeypatch):
    assert cli.main(["selftest", "ore", "--seed", "7"]) == 0
    out1 = capsys.readouterr().out
    assert out1.endswith("all checks passed\n")
    # byte-stable under the same seed
    assert cli.main(["selftest", "ore", "--seed", "7"]) == 0
    assert capsys.readouterr().out == out1

    monkeypatch.setattr(cli, "run_suite",
                        lambda *a, **k: (["boom: 0/1 FAIL"], False))
    assert cli.main(["selftest", "ore"]) == 4


def test_eval_arity_errors(capsys):
    assert cli.main(["eval", "X^2"]) == 2                 # missing point
    assert cli.main(["eval", "t1+t2", "1", "2"]) == 2     # needs four
    assert cli.main(["eval", "3", "4"]) == 2              # constant, no point
    assert cli.main(["eval", "t+1", "i"]) == 3            # irrational point


def test_batch_mode(capsys, monkeypatch):
    script = """
# bindings are parse-time splices
let y1 = 1/4 * (X - i*X*i - j*X*j - k*X*k)
canon y1
deg "y1 * y1"
eq "y1" "y1 + X - X"
canon "(t - ("
central "t^2"
"""
    monkeypatch.setattr(cli.sys, "stdin", io.StringIO(script))
    code = cli.main([])
    out, err = capsys.readouterr()
    assert out == "t1\n2\ntrue\ntrue\n"
    assert "parse error" in err
    assert code == 2, "first error code wins"


def test_batch_deep_let_splices(capsys, monkeypatch):
    # each splice nests the previous tree one level deeper on the right
    script = "let a = t\n" + "let a = t - (a)\n" * 1500 + "canon a\ndeg a\n"
    monkeypatch.setattr(cli.sys, "stdin", io.StringIO(script))
    assert cli.main([]) == 0
    assert capsys.readouterr() == ("t\n1\n", "")


def test_batch_bad_let(capsys, monkeypatch):
    monkeypatch.setattr(cli.sys, "stdin",
                        io.StringIO("let 9x = t\nlet t = t\nlet a * t\n"))
    assert cli.main([]) == 2
    assert capsys.readouterr().err.count("parse error") == 3


def test_single_expression_verbs_join_spaces(capsys):
    # unquoted shell splits still parse for one-expression verbs
    assert cli.main(["deg", "t^2", "+", "1"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_usage_on_tty(capsys, monkeypatch):
    class Tty(io.StringIO):
        def isatty(self):
            return True
    monkeypatch.setattr(cli.sys, "stdin", Tty())
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err
