"""Command-line front end.

    skewfrac <verb> [args] [--seed N] [--max-coeff N] [--depth N]

Verbs: canon, eval, eq, central, components, deg, gcrd, lcrm, frac,
selftest.  With no verb and piped input, reads one command per line
from stdin (batch mode); batch lines may also be `let NAME = EXPR`,
binding a name to a parsed expression for later lines.

X-context expressions are evaluated straight into the coordinate ring
H_c[t1..t4] (parser.COORD), never as formal words; `deg` alone needs a
formal property, the X-degree, and reads it off the parsed expression,
evaluating only the divisors, for their errors.
t-context expressions fold their constants to quaternions and are built
as polynomials in H_c[t]; a fraction is formed, and reduced once, only
at a `/` by a polynomial.  Parentheses nest at most parser.MAX_NESTING
deep (deeper is a parse error).

Exit codes: 0 success, 2 parse/usage error, 3 domain error (division
by zero, depth cap, unknown suite, a result with a number longer than
the interpreter's int-to-string limit), 4 self-test failure.  _report
prints every error line.
"""

from __future__ import annotations

import shlex
import sys
from fractions import Fraction

from .centralpoly import CentralPoly, gcrd, lcrm_with_cofactors
from .errors import DepthExceededError, ParseError, UnknownSuiteError
from .fractionfield import component_decompose
from .freealgebra import sigma  # noqa: F401  (re-exported; perfbench traces it here)
from .parser import (CONST, COORD, TCTX, XCTX, check_divisors, classify,
                     evaluate, parse, x_degree)
from .quaternion import quat
from .selftest import run_suite

_USAGE = """\
usage: skewfrac <verb> [args] [--seed N] [--max-coeff N] [--depth N]

verbs:
  canon EXPR              canonical form (X-context: the coordinate polynomial)
  eval EXPR PT...         evaluate: X takes one quaternion point, t one
                          rational, t1..t4 four rationals
  eq EXPR EXPR            equality (X-context: as functions) -> true/false
  central EXPR            membership in the center -> true/false
  components EXPR         the four coordinates, one per line
  deg EXPR                degree (num minus den degree for fractions)
  gcrd EXPR EXPR          greatest common right divisor of two t-polynomials
  lcrm EXPR EXPR          least common right multiple with cofactors
  frac OP EXPR [EXPR]     OP in {add,sub,mul,div,inv,reduce} on fractions
  selftest [SUITE]        identities|ore|fractions|roundtrip|tower|all

with no verb, reads commands (and `let NAME = EXPR` bindings) from stdin\
"""

_RESERVED = {"i", "j", "k", "X", "t", "t1", "t2", "t3", "t4", "let"}


class _UsageError(Exception):
    """Bad verb, arguments or options; reported without a kind."""


class _LineError(Exception):
    """A batch line shlex cannot split, or a malformed `let`."""


class _DomainError(Exception):
    """A well-formed command without an answer."""


class _Options:
    __slots__ = ("seed", "max_coeff", "depth")

    def __init__(self):
        self.seed = 0
        self.max_coeff = None
        self.depth = None


def _split_options(argv):
    opts = _Options()
    pos = []
    names = {"--seed": "seed", "--max-coeff": "max_coeff", "--depth": "depth"}
    i = 0
    while i < len(argv):
        arg = argv[i]
        name, eq, inline = arg.partition("=")
        if name in names:
            if eq:
                raw = inline
            else:
                i += 1
                if i >= len(argv):
                    raise _UsageError(f"{name} expects an integer")
                raw = argv[i]
            try:
                value = int(raw)
            except ValueError:
                raise _UsageError(f"{name} expects an integer, got {raw!r}")
            if name == "--max-coeff" and value < 1:
                raise _UsageError(f"--max-coeff must be at least 1, got {value}")
            setattr(opts, names[name], value)
        elif arg == "--":
            pos.extend(argv[i + 1:])
            break
        elif arg.startswith("--"):
            raise _UsageError(f"unknown option {arg}")
        else:
            pos.append(arg)
        i += 1
    return opts, pos


# -- expression helpers -------------------------------------------------------

def _eval_node(text: str, bindings, context=None):
    """(value, context found); X-context values are coordinate polynomials."""
    node = parse(text, bindings)
    found = classify(node)
    if context is not None and found not in (CONST, context):
        raise ParseError(f"expected a {context} expression, found {found}", 1)
    return evaluate(node, _domain(context or found)), found


def _domain(context: str) -> str:
    return COORD if context == XCTX else context


def _rational_point(text: str, bindings) -> Fraction:
    value, _ = _eval_node(text, bindings, CONST)
    if not value.is_rational():
        raise _DomainError(f"expected a rational point, got {text!r}")
    return value.re


def _as_poly(text: str, bindings) -> CentralPoly:
    value, _ = _eval_node(text, bindings, TCTX)
    if not value.is_polynomial():
        raise _DomainError("expected a polynomial, got a genuine fraction")
    return value.num


def _text(value) -> str:
    """str(value), or a domain error past the int-to-string limit."""
    try:
        return str(value)
    except ValueError:
        raise _DomainError("result has a number longer than "
                           f"{sys.get_int_max_str_digits()} digits") from None


def _bool_word(b: bool) -> str:
    return "true" if b else "false"


# -- verbs --------------------------------------------------------------------

def _cmd_canon(args, opts, bindings, out):
    (expr,) = args
    value, _ = _eval_node(expr, bindings)
    print(_text(value), file=out)


def _cmd_eval(args, opts, bindings, out):
    value, ctx = _eval_node(args[0], bindings)
    pts = args[1:]
    if ctx == CONST:
        if pts:
            raise _UsageError("a constant expression takes no point")
        result = value
    elif ctx == XCTX:
        if len(pts) != 1:
            raise _UsageError("X-context eval takes one quaternion point")
        q, _ = _eval_node(pts[0], bindings, CONST)
        result = value.eval(*q.coords())
    elif ctx == TCTX:
        if len(pts) != 1:
            raise _UsageError("t-context eval takes one rational point")
        p = quat(_rational_point(pts[0], bindings))
        dval = value.den.eval_central(p)
        if not dval:
            raise _DomainError("denominator vanishes at the point")
        result = value.num.eval_central(p) * dval.inverse()
    else:
        if len(pts) != 4:
            raise _UsageError("t1..t4 eval takes four rational points")
        coords = [_rational_point(p, bindings) for p in pts]
        result = value.eval(*coords)
    print(_text(result), file=out)


def _cmd_eq(args, opts, bindings, out):
    e1, e2 = args
    n1, n2 = parse(e1, bindings), parse(e2, bindings)
    c1, c2 = classify(n1), classify(n2)
    if c1 == c2 or c2 == CONST:
        joint = c1
    elif c1 == CONST:
        joint = c2
    else:
        raise ParseError(
            f"cannot compare a {c1} expression with a {c2} expression", 1)
    v1, v2 = evaluate(n1, _domain(joint)), evaluate(n2, _domain(joint))
    print(_bool_word(v1 == v2), file=out)


def _cmd_central(args, opts, bindings, out):
    (expr,) = args
    value, ctx = _eval_node(expr, bindings)
    if ctx == CONST:
        result = value.is_rational()
    elif ctx == TCTX:
        result = value.is_central()
    else:
        result = not any(value.components()[1:])
    print(_bool_word(result), file=out)


def _cmd_components(args, opts, bindings, out):
    (expr,) = args
    value, ctx = _eval_node(expr, bindings)
    if ctx == CONST:
        parts = value.coords()
    elif ctx == TCTX:
        parts = component_decompose(value)
    else:
        parts = value.components()
    print("\n".join(map(_text, parts)), file=out)


def _cmd_deg(args, opts, bindings, out):
    (expr,) = args
    node = parse(expr, bindings)
    ctx = classify(node)
    if ctx == XCTX:
        # formal, so read off the AST; only the divisors are evaluated,
        # for canon's errors
        check_divisors(node)
        print(x_degree(node), file=out)
        return
    value = evaluate(node, ctx)
    if ctx == CONST:
        d = 0 if value else float("-inf")
    elif ctx == TCTX:
        d = value.num.degree - value.den.degree if value else float("-inf")
    else:
        d = value.degree
    print(d, file=out)


def _cmd_gcrd(args, opts, bindings, out):
    p1, p2 = (_as_poly(e, bindings) for e in args)
    print(_text(gcrd(p1, p2)), file=out)


def _cmd_lcrm(args, opts, bindings, out):
    p1, p2 = (_as_poly(e, bindings) for e in args)
    if not p1 or not p2:
        raise _DomainError("lcrm requires nonzero polynomials")
    m, u, v = map(_text, lcrm_with_cofactors(p1, p2))
    print(f"m = {m}", file=out)
    print(f"u = {u}", file=out)
    print(f"v = {v}", file=out)


_FRAC_OPS = {"add", "sub", "mul", "div", "inv", "reduce"}


def _cmd_frac(args, opts, bindings, out):
    if not args or args[0] not in _FRAC_OPS:
        raise _UsageError("frac OP EXPR [EXPR] with OP in "
                          "add, sub, mul, div, inv, reduce")
    op, exprs = args[0], args[1:]
    need = 1 if op in ("inv", "reduce") else 2
    if len(exprs) != need:
        raise _UsageError(f"frac {op} takes {need} expression(s)")
    vals = [_eval_node(e, bindings, TCTX)[0] for e in exprs]
    if op == "add":
        result = vals[0] + vals[1]
    elif op == "sub":
        result = vals[0] - vals[1]
    elif op == "mul":
        result = vals[0] * vals[1]
    elif op == "div":
        if not vals[1]:
            raise _DomainError("division by zero")
        result = vals[0] / vals[1]
    elif op == "inv":
        if not vals[0]:
            raise _DomainError("zero has no inverse")
        result = vals[0].inverse()
    else:
        result = vals[0]
    print(_text(result), file=out)


def _cmd_selftest(args, opts, bindings, out):
    if len(args) > 1:
        raise _UsageError("selftest takes at most one suite name")
    suite = args[0] if args else "all"
    lines, ok = run_suite(suite, seed=opts.seed, max_coeff=opts.max_coeff,
                          depth_limit=opts.depth)
    for line in lines:
        print(line, file=out)
    return 0 if ok else 4


_SINGLE_EXPR = {"canon", "central", "components", "deg"}
_VERBS = {
    "canon": (_cmd_canon, 1, 1),
    "eval": (_cmd_eval, 1, 5),
    "eq": (_cmd_eq, 2, 2),
    "central": (_cmd_central, 1, 1),
    "components": (_cmd_components, 1, 1),
    "deg": (_cmd_deg, 1, 1),
    "gcrd": (_cmd_gcrd, 2, 2),
    "lcrm": (_cmd_lcrm, 2, 2),
    "frac": (_cmd_frac, 2, 3),
    "selftest": (_cmd_selftest, 0, 1),
}


def _run_command(words, opts, bindings, out) -> int:
    verb, args = words[0], words[1:]
    if verb not in _VERBS:
        raise _UsageError(f"unknown verb {verb!r}\n{_USAGE}")
    handler, lo, hi = _VERBS[verb]
    if verb in _SINGLE_EXPR and len(args) > 1:
        args = [" ".join(args)]    # unquoted expression with spaces
    if not lo <= len(args) <= hi:
        raise _UsageError(f"{verb} takes {lo}"
                          + (f"..{hi}" if hi != lo else "") + " argument(s)")
    return handler(args, opts, bindings, out) or 0


def _report(e: Exception, err) -> int:
    """Print the one `skewfrac: ...` line of a known error and return its
    exit code: 2 for usage and parse errors, 3 for domain errors."""
    if isinstance(e, _UsageError):
        kind, code = "", 2
    elif isinstance(e, (ParseError, _LineError)):
        kind, code = "parse error: ", 2
    else:
        kind, code = "domain error: ", 3
    print(f"skewfrac: {kind}{e}", file=err)
    return code


_KNOWN_ERRORS = (_UsageError, ParseError, _LineError, _DomainError,
                 DepthExceededError, UnknownSuiteError, ZeroDivisionError)


def _batch(opts, stdin, out, err) -> int:
    bindings: dict = {}
    first_error = 0
    for raw in stdin:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            code = _run_line(line, opts, bindings, out)
        except _KNOWN_ERRORS as e:
            code = _report(e, err)
        first_error = first_error or code
    return first_error


def _run_line(line, opts, bindings, out) -> int:
    """Run a command, or bind a name for `let NAME = EXPR`."""
    try:
        words = shlex.split(line)
    except ValueError as e:
        raise _LineError(e) from None
    if words[0] != "let":
        return _run_command(words, opts, bindings, out)
    if len(words) < 4 or words[2] != "=":
        raise _LineError("let NAME = EXPR")
    name = words[1]
    if not name.isidentifier() or name in _RESERVED:
        raise _LineError(f"invalid binding name {name!r}")
    bindings[name] = parse(" ".join(words[3:]), bindings)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        opts, pos = _split_options(argv)
        if pos:
            return _run_command(pos, opts, {}, sys.stdout)
    except _KNOWN_ERRORS as e:
        return _report(e, sys.stderr)
    if sys.stdin.isatty():
        print(_USAGE, file=sys.stderr)
        return 2
    return _batch(opts, sys.stdin, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
