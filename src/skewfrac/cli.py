"""Command-line front end.

    skewfrac <verb> [args] [--seed N] [--max-coeff N] [--depth N]

Verbs: canon, eval, eq, central, components, deg, gcrd, lcrm, frac,
selftest.  With no verb and piped input, reads one command per line
from stdin (batch mode); batch lines may also be `let NAME = EXPR`,
binding a name to a parsed expression for later lines.

X-context expressions are evaluated straight into the coordinate ring
H_c[t1..t4] (parser.COORD), never as formal words; `deg` alone needs a
formal property, the X-degree, and reads it off the parsed expression.
t-context expressions fold their constants to quaternions and are built
as polynomials in H_c[t]; a fraction is formed, and reduced once, only
at a `/` by a polynomial.  Parentheses nest at most parser.MAX_NESTING
deep (deeper is a parse error).

Exit codes: 0 success, 2 parse/usage error, 3 domain error (division
by zero, depth cap, unknown suite), 4 self-test failure.
"""

from __future__ import annotations

import shlex
import sys
from fractions import Fraction

from .centralpoly import CentralPoly, gcrd, lcrm_with_cofactors
from .errors import DepthExceededError, ParseError, UnknownSuiteError
from .fractionfield import HFRAC, component_decompose
from .freealgebra import sigma  # noqa: F401  (re-exported; perfbench traces it here)
from .parser import CONST, COORD, TCTX, XCTX, classify, evaluate, parse, x_degree
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
    pass


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
                setattr(opts, names[name], int(raw))
            except ValueError:
                raise _UsageError(f"{name} expects an integer, got {raw!r}")
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

def _eval_in(text: str, bindings, context=None):
    value, found, _ = _eval_node(text, bindings, context)
    return value, found


def _eval_node(text: str, bindings, context=None):
    """(value, context found, parsed node); X-context values are
    coordinate polynomials."""
    node = parse(text, bindings)
    found = classify(node)
    if context is not None and found not in (CONST, context):
        raise ParseError(f"expected a {context} expression, found {found}", 1)
    return evaluate(node, _domain(context or found)), found, node


def _domain(context: str) -> str:
    return COORD if context == XCTX else context


def _rational_point(text: str, bindings) -> Fraction:
    value, found = _eval_in(text, bindings, CONST)
    if found != CONST or not value.is_rational():
        raise _DomainError(f"expected a rational point, got {text!r}")
    return value.re


def _as_poly(value) -> CentralPoly:
    if not value.is_polynomial():
        raise _DomainError("expected a polynomial, got a genuine fraction")
    return value.num


class _DomainError(Exception):
    pass


def _bool_word(b: bool) -> str:
    return "true" if b else "false"


# -- verbs --------------------------------------------------------------------

def _cmd_canon(args, opts, bindings, out):
    (expr,) = args
    value, _ = _eval_in(expr, bindings)
    print(value, file=out)


def _cmd_eval(args, opts, bindings, out):
    if not args:
        raise _UsageError("eval needs an expression")
    value, ctx = _eval_in(args[0], bindings)
    pts = args[1:]
    if ctx == CONST:
        if pts:
            raise _UsageError("a constant expression takes no point")
        result = value
    elif ctx == XCTX:
        if len(pts) != 1:
            raise _UsageError("X-context eval takes one quaternion point")
        q, found = _eval_in(pts[0], bindings, CONST)
        if found != CONST:
            raise _UsageError("the point must be a constant expression")
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
    print(result, file=out)


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
    value, ctx = _eval_in(expr, bindings)
    if ctx == CONST:
        result = value.is_rational()
    elif ctx == TCTX:
        result = value.is_central()
    else:
        result = not any(value.components()[1:])
    print(_bool_word(result), file=out)


def _cmd_components(args, opts, bindings, out):
    (expr,) = args
    value, ctx = _eval_in(expr, bindings)
    if ctx == CONST:
        parts = value.coords()
    elif ctx == TCTX:
        parts = component_decompose(value)
    else:
        parts = value.components()
    for p in parts:
        print(p, file=out)


def _cmd_deg(args, opts, bindings, out):
    (expr,) = args
    value, ctx, node = _eval_node(expr, bindings)
    if ctx == CONST:
        d = 0 if value else float("-inf")
    elif ctx == XCTX:
        d = x_degree(node)
    elif ctx == TCTX:
        d = value.num.degree - value.den.degree if value else float("-inf")
    else:
        d = value.degree
    print(d, file=out)


def _cmd_gcrd(args, opts, bindings, out):
    e1, e2 = args
    p1 = _as_poly(_eval_in(e1, bindings, TCTX)[0])
    p2 = _as_poly(_eval_in(e2, bindings, TCTX)[0])
    print(gcrd(p1, p2), file=out)


def _cmd_lcrm(args, opts, bindings, out):
    e1, e2 = args
    p1 = _as_poly(_eval_in(e1, bindings, TCTX)[0])
    p2 = _as_poly(_eval_in(e2, bindings, TCTX)[0])
    if not p1 or not p2:
        raise _DomainError("lcrm requires nonzero polynomials")
    m, u, v = lcrm_with_cofactors(p1, p2)
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
    vals = [_eval_in(e, bindings, TCTX)[0] for e in exprs]
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
    print(result, file=out)


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
    code = handler(args, opts, bindings, out)
    return code or 0


def _dispatch(words, opts, bindings, out, err) -> int:
    try:
        return _run_command(words, opts, bindings, out)
    except _UsageError as e:
        print(f"skewfrac: {e}", file=err)
        return 2
    except ParseError as e:
        print(f"skewfrac: parse error: {e}", file=err)
        return 2
    except (_DomainError, DepthExceededError, UnknownSuiteError,
            ZeroDivisionError) as e:
        print(f"skewfrac: domain error: {e}", file=err)
        return 3


def _batch(opts, stdin, out, err) -> int:
    bindings: dict = {}
    first_error = 0
    for raw in stdin:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words = shlex.split(line)
        except ValueError as e:
            print(f"skewfrac: parse error: {e}", file=err)
            first_error = first_error or 2
            continue
        if words[0] == "let":
            code = _bind(words, bindings, err)
        else:
            code = _dispatch(words, opts, bindings, out, err)
        first_error = first_error or code
    return first_error


def _bind(words, bindings, err) -> int:
    if len(words) < 4 or words[2] != "=":
        print("skewfrac: parse error: let NAME = EXPR", file=err)
        return 2
    name = words[1]
    if not name.isidentifier() or name in _RESERVED:
        print(f"skewfrac: parse error: invalid binding name {name!r}",
              file=err)
        return 2
    try:
        bindings[name] = parse(" ".join(words[3:]), bindings)
    except ParseError as e:
        print(f"skewfrac: parse error: {e}", file=err)
        return 2
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        opts, pos = _split_options(argv)
    except _UsageError as e:
        print(f"skewfrac: {e}", file=sys.stderr)
        return 2
    if not pos:
        if sys.stdin.isatty():
            print(_USAGE, file=sys.stderr)
            return 2
        return _batch(opts, sys.stdin, sys.stdout, sys.stderr)
    return _dispatch(pos, opts, {}, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
