"""Expression grammar shared by the CLI verbs.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] atom ['^' natural]
    atom   := rational | 'i'|'j'|'k' | 'X' | 't' | 't1'..'t4' | '(' expr ')'

`a/b` is the right quotient a * b^-1; like `*` it binds tighter than
addition and associates left, so a/b/c = (a*b^-1)*c^-1 — with a
noncommutative product this is a real choice, fixed here once.
`13/4` (digits immediately around the slash) always lexes as one
rational literal by maximal munch, so `13/4^2` is (13/4)^2 and
`(8)/2/2` is 8/(2/2); write spaces around `/` to force the quotient
operator.  Canonical printed output never produces the ambiguous
shape, so round-trips are unaffected.

An expression lives in one of four contexts decided by the variables
it mentions: constant (none), X (free algebra), t (fractions over the
quaternions) and t1..t4 (four central variables).  The families never
mix; a violation raises MixedContextError with the position of the
offending variable.

An X-context expression can also be evaluated in the COORD domain,
straight into H_c[t1..t4]: X becomes sigma(X) and the ring operations
run on coordinate polynomials.  sigma is a ring homomorphism, so the
result is sigma(evaluate(node, XCTX)) without ever expanding the formal
words, whose number is exponential in the X-degree.  The one formal
property the polynomial cannot show, the X-degree, is read off the AST
by x_degree.

Outside the X context, a subtree without variables is folded to one
plain Quaternion and lifted into the context's ring only where it meets
a variable.  A t-context expression is built in H_c[t] (HPOLY), and a
RightFraction is formed only at a `/` with a polynomial divisor, so
it is reduced once there rather than after every `+`, `*` and `^`.
Canonical forms are unique, so the value is the one that evaluating
every leaf as a fraction would give.  The X context folds nothing: in
a formal sum, 1 - 1 is two words.

Only ASCII digits form numbers, at most sys.get_int_max_str_digits()
of them, and a literal like 1/0 raises ZeroDivisionError.  Parentheses
nest at most MAX_NESTING deep; a chain like `t + t + ... + t` has no
length limit, because the walks over the AST loop instead of recursing.

Identifiers other than the reserved symbols refer to `let` bindings
(purely syntactic: the bound AST is spliced in at parse time).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .centralpoly import CentralPoly
from .errors import MixedContextError, ParseError
from .freealgebra import X as FREE_X
from .freealgebra import FreeExpr, sigma
from .fractionfield import HFRAC, HPOLY, RightFraction
from .multipoly import MultiPoly
from .quaternion import HH, ONE, I, J, K, Quaternion


# -- AST --------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: int = 0


@dataclass(frozen=True)
class Unit:
    sym: str              # 'i' | 'j' | 'k'
    pos: int = 0


@dataclass(frozen=True)
class VarX:
    pos: int = 0


@dataclass(frozen=True)
class VarT:
    pos: int = 0


@dataclass(frozen=True)
class VarTl:
    index: int            # 1..4
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    a: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str               # '+' | '-' | '*' | '/'
    a: "Node"
    b: "Node"
    pos: int = 0


@dataclass(frozen=True)
class Pow:
    a: "Node"
    n: int
    pos: int = 0


Node = Union[Num, Unit, VarX, VarT, VarTl, Neg, BinOp, Pow]


# -- tokenizer ----------------------------------------------------------------

_DIGITS = "0123456789"     # str.isdigit() also accepts '²', which int() rejects


def _tokenize(text: str):
    tokens = []
    n = len(text)
    pos = 0
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        start = pos
        if ch in _DIGITS:
            while pos < n and text[pos] in _DIGITS:
                pos += 1
            num = _int(text[start:pos], start + 1)
            den = 1
            # greedy rational literal: digits '/' digits with no spaces
            if pos + 1 < n and text[pos] == "/" and text[pos + 1] in _DIGITS:
                pos += 1
                den_start = pos
                while pos < n and text[pos] in _DIGITS:
                    pos += 1
                den = _int(text[den_start:pos], start + 1)
                if not den:
                    raise ZeroDivisionError("division by zero")
            tokens.append(("num", Fraction(num, den), start + 1))
        elif ch.isalpha() or ch == "_":
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], start + 1))
        elif ch in "+-*/^()":
            tokens.append((ch, ch, start + 1))
            pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", start + 1)
    tokens.append(("end", "", n + 1))
    return tokens


def _int(digits: str, pos: int) -> int:
    try:        # ASCII digits fail only past the int-to-string limit
        return int(digits)
    except ValueError:
        raise ParseError(f"number longer than {sys.get_int_max_str_digits()}"
                         " digits", pos) from None


# -- recursive descent ----------------------------------------------------------

# Parenthesized groups may nest this deep.  Each level costs the parser
# four stack frames, and Python's default recursion limit is 1000.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, bindings):
        self.tokens = tokens
        self.bindings = bindings or {}
        self.at = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.at]

    def advance(self):
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in "+-":
            op, _, pos = self.advance()
            node = BinOp(op, node, self.term(), pos)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] in "*/":
            op, _, pos = self.advance()
            node = BinOp(op, node, self.factor(), pos)
        return node

    def factor(self) -> Node:
        negations = 0
        while self.peek()[0] == "-":
            self.advance()
            negations += 1
        node = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.advance()
            kind, value, npos = self.advance()
            if kind != "num" or value.denominator != 1 or value < 0:
                raise ParseError("exponent must be a natural number", npos)
            node = Pow(node, int(value), pos)
        for _ in range(negations):
            node = Neg(node)
        return node

    def atom(self) -> Node:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value, pos)
        if kind == "name":
            if value in ("i", "j", "k"):
                return Unit(value, pos)
            if value == "X":
                return VarX(pos)
            if value == "t":
                return VarT(pos)
            if value in ("t1", "t2", "t3", "t4"):
                return VarTl(int(value[1]), pos)
            if value in self.bindings:
                return self.bindings[value]
            raise ParseError(f"unknown name {value!r}", pos)
        if kind == "(":
            if self.nesting == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.nesting += 1
            node = self.expr()
            self.nesting -= 1
            kind, _, cpos = self.advance()
            if kind != ")":
                raise ParseError("expected ')'", cpos)
            return node
        raise ParseError(f"expected a value, found {value!r}" if value
                         else "unexpected end of input", pos)


def parse(text: str, bindings: Optional[dict] = None) -> Node:
    parser = _Parser(_tokenize(text), bindings)
    node = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        shown = str(value) if kind == "num" else repr(value)
        raise ParseError(f"unexpected trailing input {shown}", pos)
    return node


# -- walking the AST ------------------------------------------------------------------

def _postorder(node: Node) -> list:
    """The nodes under `node`, each after its operands and left operands
    first: the order in which a recursive walk finishes them.

    The walks below loop over this list instead of recursing, because
    the parser builds `t + t + ... + t` as a left-deep tree as tall as
    the chain is long, and a `let` splice can nest deeper still.
    """
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        out.append(n)
        kind = type(n)
        if kind is BinOp:
            stack.append(n.a)
            stack.append(n.b)
        elif kind is Neg or kind is Pow:
            stack.append(n.a)
    out.reverse()
    return out


# -- context classification --------------------------------------------------------

CONST, XCTX, TCTX, MULTI = "const", "X", "t", "t1..t4"

# not a context classify returns: the X context evaluated through sigma
COORD = "coord"

_VAR_CONTEXTS = {VarX: XCTX, VarT: TCTX, VarTl: MULTI}


def classify(node: Node) -> str:
    """Which variable family the expression uses (CONST when none)."""
    found = CONST
    for n in _postorder(node):
        ctx = _VAR_CONTEXTS.get(type(n))
        if ctx is None or ctx == found:
            continue
        if found != CONST:
            raise MixedContextError(
                f"cannot mix {found} and {ctx} variables", n.pos)
        found = ctx
    return found


# -- evaluation ---------------------------------------------------------------------

# Each context supplies the embeddings of the leaves, its division rule
# and `finish`; the walk is shared.  Outside the X context a leaf
# without variables is a plain Quaternion, so a variable-free subtree
# folds to one constant, and Python's operator dispatch lifts it into
# the context's ring where it meets a variable (CentralPoly,
# RightFraction and MultiPoly all take a Quaternion operand on either
# side).  `finish` turns the value of the whole expression, which may
# be such a constant, into the context's type.  The X context keeps
# every constant as a word: folding 1 - 1 would change a formal sum.

_UNITS = {"i": I, "j": J, "k": K}


class _Domain:
    def num(self, r: Fraction): return HH.coerce(r)
    def unit(self, q: Quaternion): return q
    def var_x(self): raise ParseError("X not valid here", 0)
    def var_t(self): raise ParseError("t not valid here", 0)
    def var_tl(self, l: int): raise ParseError("t1..t4 not valid here", 0)
    def quotient(self, a, b, node: BinOp): raise NotImplementedError
    def finish(self, value): return value


class _ConstDomain(_Domain):
    def quotient(self, a, b, node):
        if not b:
            raise ZeroDivisionError("division by zero")
        return a * b.inverse()


class _FreeDomain(_Domain):
    def num(self, r): return FreeExpr.constant(Quaternion(r))
    def unit(self, q): return FreeExpr.constant(q)
    def var_x(self): return FREE_X

    def quotient(self, a, b, node):
        # H<X> has no fractions; only constants can divide
        q = _as_constant_word(b)
        if q is None:
            raise ParseError("can only divide by a constant here", node.pos)
        if not q:
            raise ZeroDivisionError("division by zero")
        return a * FreeExpr.constant(q.inverse())


class _FracDomain(_ConstDomain):
    """Values stay in H_c[t] (HPOLY) until a `/` has a polynomial
    divisor; the RightFraction formed there is reduced once."""

    def var_t(self): return HPOLY.t

    def quotient(self, a, b, node):
        if isinstance(b, CentralPoly):
            if not b:
                raise ZeroDivisionError("division by zero")
            if not isinstance(a, RightFraction):
                return HFRAC(a, b)
            b = HFRAC.embed(b)
        return super().quotient(a, b, node)

    def finish(self, value):
        return HFRAC.one._coerce(value)     # embeds a polynomial or constant


class _MultiDomain(_Domain):
    def var_tl(self, l): return MultiPoly.variable(l)

    def quotient(self, a, b, node):
        q = b if isinstance(b, Quaternion) else _as_constant_term(b)
        if q is None:
            raise ParseError("can only divide by a constant here", node.pos)
        if not q:
            raise ZeroDivisionError("division by zero")
        q = q.inverse()
        return a * q if isinstance(a, Quaternion) else a.scale_right(q)

    def finish(self, value):
        if isinstance(value, Quaternion):
            return MultiPoly.constant(value)
        return value


class _CoordDomain(_MultiDomain):
    var_tl = _Domain.var_tl

    def var_x(self): return sigma(FREE_X)

    def quotient(self, a, b, node):
        # the formal rule of _FreeDomain: a divisor with X in any word
        # is rejected even when its image is constant
        if x_degree(node.b) > 0:
            raise ParseError("can only divide by a constant here", node.pos)
        return super().quotient(a, b, node)


def _as_constant_word(f: FreeExpr) -> Optional[Quaternion]:
    total = Quaternion()
    for w in f.words:
        if len(w) != 1:
            return None
        total = total + w[0]
    return total


def _as_constant_term(p: MultiPoly) -> Optional[Quaternion]:
    if not p.terms:
        return Quaternion()
    if set(p.terms) == {(0, 0, 0, 0)}:
        return p.terms[(0, 0, 0, 0)]
    return None


_DOMAINS = {
    CONST: _ConstDomain(),
    XCTX: _FreeDomain(),
    TCTX: _FracDomain(),
    MULTI: _MultiDomain(),
    COORD: _CoordDomain(),
}


def evaluate(node: Node, context: str):
    """Evaluate in the value domain of `context` (a classify result, or
    COORD for an X-context expression).  Both operands of a `/` are
    evaluated before the division rule runs, left first."""
    dom = _DOMAINS[context]
    values = []
    push = values.append
    for n in _postorder(node):
        kind = type(n)
        if kind is BinOp:
            b = values.pop()
            a = values[-1]
            op = n.op
            if op == "+":
                values[-1] = a + b
            elif op == "-":
                values[-1] = a - b
            elif op == "*":
                values[-1] = a * b
            else:
                values[-1] = dom.quotient(a, b, n)
        elif kind is Num:
            push(dom.num(n.value))
        elif kind is Unit:
            push(dom.unit(_UNITS[n.sym]))
        elif kind is Pow:
            values[-1] = values[-1] ** n.n
        elif kind is Neg:
            values[-1] = -values[-1]
        elif kind is VarT:
            push(dom.var_t())
        elif kind is VarX:
            push(dom.var_x())
        elif kind is VarTl:
            push(dom.var_tl(n.index))
        else:
            raise TypeError(f"unknown node {n!r}")
    return dom.finish(values[0])


def x_degree(node: Node):
    """The X-degree of evaluate(node, XCTX), read off the AST.

    A formal sum keeps every word (X - X has degree 1) and a product of
    nonzero words is never zero, so degrees add under `*` and take the
    maximum under `+`; only the literal 0 is the empty sum, degree -inf.
    """
    degrees = []
    for n in _postorder(node):
        if isinstance(n, BinOp):
            b = degrees.pop()
            if n.op == "*":
                degrees[-1] += b
            elif n.op != "/":
                degrees[-1] = max(degrees[-1], b)
        elif isinstance(n, Pow):
            degrees[-1] = n.n * degrees[-1] if n.n else 0
        elif isinstance(n, Num):
            degrees.append(float("-inf") if n.value == 0 else 0)
        elif not isinstance(n, Neg):
            degrees.append(1 if isinstance(n, VarX) else 0)
    return degrees[0]


def check_divisors(node: Node) -> None:
    """Raise what evaluate(node, COORD) raises, evaluating only divisors:
    only a `/` fails there, and the walk meets them in evaluate's order."""
    coord = _DOMAINS[COORD]
    for n in _postorder(node):
        if type(n) is BinOp and n.op == "/":
            # a divisor with X fails the formal rule before its value is read
            b = evaluate(n.b, COORD) if x_degree(n.b) <= 0 else None
            coord.quotient(ONE, b, n)


def parse_and_eval(text: str, bindings: Optional[dict] = None,
                   context: Optional[str] = None):
    """Parse, classify (or check against a required context), evaluate.

    Returns (value, context).  A constant expression evaluates in the
    requested context when one is given, else as a plain quaternion.
    """
    node = parse(text, bindings)
    found = classify(node)
    if context is None:
        context = found
    elif found != CONST and found != context:
        raise MixedContextError(
            f"expected a {context} expression, found {found}", 1)
    return evaluate(node, context), found
