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

Identifiers other than the reserved symbols refer to `let` bindings
(purely syntactic: the bound AST is spliced in at parse time).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import MixedContextError, ParseError
from .freealgebra import X as FREE_X
from .freealgebra import FreeExpr, sigma
from .fractionfield import HFRAC, HPOLY, RightFraction
from .multipoly import MultiPoly
from .quaternion import I, J, K, ONE, Quaternion


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

_RESERVED = {"i", "j", "k", "X", "t", "t1", "t2", "t3", "t4"}


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
        if ch.isdigit():
            while pos < n and text[pos].isdigit():
                pos += 1
            # greedy rational literal: digits '/' digits with no spaces
            if pos + 1 < n and text[pos] == "/" and text[pos + 1].isdigit():
                pos += 1
                den_start = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                value = Fraction(int(text[start:den_start - 1]),
                                 int(text[den_start:pos]))
            else:
                value = Fraction(int(text[start:pos]))
            tokens.append(("num", value, start + 1))
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


# -- recursive descent ----------------------------------------------------------

class _Parser:
    def __init__(self, tokens, bindings):
        self.tokens = tokens
        self.bindings = bindings or {}
        self.at = 0

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
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.factor())
        node = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.advance()
            kind, value, npos = self.advance()
            if kind != "num" or value.denominator != 1 or value < 0:
                raise ParseError("exponent must be a natural number", npos)
            node = Pow(node, int(value), pos)
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
            node = self.expr()
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


# -- context classification --------------------------------------------------------

CONST, XCTX, TCTX, MULTI = "const", "X", "t", "t1..t4"

# not a context classify returns: the X context evaluated through sigma
COORD = "coord"


def classify(node: Node) -> str:
    """Which variable family the expression uses (CONST when none)."""
    found = CONST

    def walk(n):
        nonlocal found
        if isinstance(n, (VarX, VarT, VarTl)):
            ctx = XCTX if isinstance(n, VarX) else (
                TCTX if isinstance(n, VarT) else MULTI)
            if found == CONST:
                found = ctx
            elif found != ctx:
                raise MixedContextError(
                    f"cannot mix {found} and {ctx} variables", n.pos)
        elif isinstance(n, Neg):
            walk(n.a)
        elif isinstance(n, BinOp):
            walk(n.a)
            walk(n.b)
        elif isinstance(n, Pow):
            walk(n.a)

    walk(node)
    return found


# -- evaluation ---------------------------------------------------------------------

# Each context supplies the embeddings of the leaves and its division
# rule; the structural recursion is shared.

_UNITS = {"i": I, "j": J, "k": K}


class _Domain:
    def num(self, r: Fraction): raise NotImplementedError
    def unit(self, q: Quaternion): raise NotImplementedError
    def var_x(self): raise ParseError("X not valid here", 0)
    def var_t(self): raise ParseError("t not valid here", 0)
    def var_tl(self, l: int): raise ParseError("t1..t4 not valid here", 0)
    def quotient(self, a, b, node: BinOp): raise NotImplementedError


class _ConstDomain(_Domain):
    def num(self, r): return Quaternion(r)
    def unit(self, q): return q

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


class _FracDomain(_Domain):
    def num(self, r): return HFRAC.coerce_rational(r)
    def unit(self, q): return HFRAC.embed(HPOLY.constant(q))
    def var_t(self): return HFRAC.t

    def quotient(self, a, b, node):
        if not b:
            raise ZeroDivisionError("division by zero")
        return a * b.inverse()


class _MultiDomain(_Domain):
    def num(self, r): return MultiPoly.constant(Quaternion(r))
    def unit(self, q): return MultiPoly.constant(q)
    def var_tl(self, l): return MultiPoly.variable(l)

    def quotient(self, a, b, node):
        q = _as_constant_term(b)
        if q is None:
            raise ParseError("can only divide by a constant here", node.pos)
        if not q:
            raise ZeroDivisionError("division by zero")
        return a.scale_right(q.inverse())


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
    COORD for an X-context expression)."""
    dom = _DOMAINS[context]

    def walk(n):
        if isinstance(n, Num):
            return dom.num(n.value)
        if isinstance(n, Unit):
            return dom.unit(_UNITS[n.sym])
        if isinstance(n, VarX):
            return dom.var_x()
        if isinstance(n, VarT):
            return dom.var_t()
        if isinstance(n, VarTl):
            return dom.var_tl(n.index)
        if isinstance(n, Neg):
            return -walk(n.a)
        if isinstance(n, Pow):
            return walk(n.a) ** n.n
        if isinstance(n, BinOp):
            a = walk(n.a)
            b = walk(n.b)
            if n.op == "+":
                return a + b
            if n.op == "-":
                return a - b
            if n.op == "*":
                return a * b
            return dom.quotient(a, b, n)
        raise TypeError(f"unknown node {n!r}")

    return walk(node)


def x_degree(node: Node):
    """The X-degree of evaluate(node, XCTX), read off the AST.

    A formal sum keeps every word (X - X has degree 1) and a product of
    nonzero words is never zero, so degrees add under `*` and take the
    maximum under `+`; only the literal 0 is the empty sum, degree -inf.
    """
    if isinstance(node, Num):
        return float("-inf") if node.value == 0 else 0
    if isinstance(node, VarX):
        return 1
    if isinstance(node, Neg):
        return x_degree(node.a)
    if isinstance(node, Pow):
        return node.n * x_degree(node.a) if node.n else 0
    if isinstance(node, BinOp):
        a = x_degree(node.a)
        if node.op == "/":
            return a
        b = x_degree(node.b)
        return a + b if node.op == "*" else max(a, b)
    return 0


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
