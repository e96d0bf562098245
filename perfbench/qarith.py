"""Independent exact arithmetic for checking outputs.

Nothing here imports skewfrac.  A quaternion is a tuple of four
integer numerators over a positive denominator in lowest terms (so
tuple equality is equality), a t-polynomial a list of quaternions
(constant term first), and `evaluate` reads the expression grammar the CLI accepts
and prints:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] atom ['^' natural]
    atom   := rational | i | j | k | X | t | t1..t4 | '(' expr ')'

with `a/b` the right quotient a * b^-1 and `13/4` (no spaces) one
rational literal.  Expressions are evaluated straight into a domain:
either at a point (X a quaternion, t and t1..t4 rationals), where
evaluation is a ring homomorphism for central points, or into dense
t-polynomials for exact structural comparison.
"""

from fractions import Fraction
from math import gcd


def _mk(a, b, c, d, den):
    """Four integer numerators over a positive denominator, in lowest
    terms, so that tuple equality is equality of values."""
    if den < 0:
        a, b, c, d, den = -a, -b, -c, -d, -den
    g = gcd(a, b, c, d, den)
    if g > 1:
        return (a // g, b // g, c // g, d // g, den // g)
    return (a, b, c, d, den)


def q(a=0, b=0, c=0, d=0):
    """The quaternion a + b i + c j + d k from ints or Fractions."""
    fs = [Fraction(x) for x in (a, b, c, d)]
    den = 1
    for f in fs:
        den = den * f.denominator // gcd(den, f.denominator)
    return _mk(*(f.numerator * (den // f.denominator) for f in fs), den)


def coords(x):
    return tuple(Fraction(n, x[4]) for n in x[:4])


Q0 = q()
Q1 = q(1)
UNITS = {"i": q(0, 1), "j": q(0, 0, 1), "k": q(0, 0, 0, 1)}


def qadd(x, y):
    if x[4] == y[4]:
        return _mk(x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3], x[4])
    dx, dy = x[4], y[4]
    return _mk(x[0] * dy + y[0] * dx, x[1] * dy + y[1] * dx,
               x[2] * dy + y[2] * dx, x[3] * dy + y[3] * dx, dx * dy)


def qneg(x):
    return (-x[0], -x[1], -x[2], -x[3], x[4])


def qsub(x, y):
    return qadd(x, qneg(y))


def qmul(x, y):
    a1, b1, c1, d1, e1 = x
    a2, b2, c2, d2, e2 = y
    return _mk(a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
               a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
               a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
               a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2, e1 * e2)


def qscale(x, r):
    r = Fraction(r)
    return _mk(x[0] * r.numerator, x[1] * r.numerator, x[2] * r.numerator,
               x[3] * r.numerator, x[4] * r.denominator)


def qinv(x):
    n = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
    if not n:
        raise ZeroDivisionError("zero quaternion has no inverse")
    den = x[4]
    return _mk(x[0] * den, -x[1] * den, -x[2] * den, -x[3] * den, n)


def qpow(x, n):
    out = Q1
    while n:
        if n & 1:
            out = qmul(out, x)
        x = qmul(x, x)
        n >>= 1
    return out


def is_zero(x):
    return not (x[0] or x[1] or x[2] or x[3])


def is_real(x):
    return not (x[1] or x[2] or x[3])


# -- dense t-polynomials with quaternion coefficients ------------------------

def ptrim(p):
    p = list(p)
    while p and is_zero(p[-1]):
        p.pop()
    return p


def padd(p, r):
    out = [Q0] * max(len(p), len(r))
    for n, c in enumerate(p):
        out[n] = c
    for n, c in enumerate(r):
        out[n] = qadd(out[n], c)
    return ptrim(out)


def pneg(p):
    return [qneg(c) for c in p]


def pmul(p, r):
    if not p or not r:
        return []
    out = [Q0] * (len(p) + len(r) - 1)
    for m, a in enumerate(p):
        for n, b in enumerate(r):
            out[m + n] = qadd(out[m + n], qmul(a, b))
    return ptrim(out)


def peval(p, t):
    """Value at a rational (central) point, Horner from the top."""
    acc = Q0
    for c in reversed(p):
        acc = qadd(qscale(acc, t), c)
    return acc


def pdivmod_right(f, g):
    """quo, rem with f == quo*g + rem and deg rem < deg g."""
    g = ptrim(g)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    inv_lead = qinv(g[-1])
    rem = ptrim(f)
    quo = [Q0] * max(len(rem) - len(g) + 1, 0)
    while len(rem) >= len(g):
        shift = len(rem) - len(g)
        c = qmul(rem[-1], inv_lead)
        quo[shift] = c
        for n, gc in enumerate(g):
            rem[shift + n] = qsub(rem[shift + n], qmul(c, gc))
        rem = ptrim(rem[:-1])
    return ptrim(quo), rem


# -- the expression grammar ------------------------------------------------------

def _tokenize(text):
    out = []
    pos, n = 0, len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos + 1 < n and text[pos] == "/" and text[pos + 1].isdigit():
                pos += 1
                den = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                out.append(("num", Fraction(int(text[start:den - 1]),
                                            int(text[den:pos]))))
            else:
                out.append(("num", Fraction(int(text[start:pos]))))
        elif ch.isalpha():
            start = pos
            while pos < n and text[pos].isalnum():
                pos += 1
            out.append(("name", text[start:pos]))
        elif ch in "+-*/^()":
            out.append((ch, ch))
            pos += 1
        else:
            raise ValueError(f"unexpected character {ch!r}")
    out.append(("end", ""))
    return out


class PointDomain:
    """Values are quaternions: X -> x, t -> t, t1..t4 -> ts."""

    def __init__(self, x=None, t=None, ts=None):
        self.vars = {}
        if x is not None:
            self.vars["X"] = x
        if t is not None:
            self.vars["t"] = q(t)
        if ts is not None:
            for n, v in enumerate(ts, start=1):
                self.vars[f"t{n}"] = q(v)

    def const(self, c):
        return c

    def var(self, name):
        if name not in self.vars:
            raise ValueError(f"no value for {name}")
        return self.vars[name]

    add, sub, mul = staticmethod(qadd), staticmethod(qsub), staticmethod(qmul)

    def neg(self, a):
        return qneg(a)

    def div(self, a, b):
        return qmul(a, qinv(b))

    def pow(self, a, n):
        return qpow(a, n)


class TPolyDomain:
    """Values are t-polynomials; only constants may divide."""

    def const(self, c):
        return ptrim([c])

    def var(self, name):
        if name != "t":
            raise ValueError(f"{name} is not a t-polynomial variable")
        return [Q0, Q1]

    def add(self, a, b):
        return padd(a, b)

    def sub(self, a, b):
        return padd(a, pneg(b))

    def mul(self, a, b):
        return pmul(a, b)

    def neg(self, a):
        return pneg(a)

    def div(self, a, b):
        if len(b) != 1:
            raise ValueError("not a polynomial: division by a nonconstant")
        return pmul(a, [qinv(b[0])])

    def pow(self, a, n):
        out = [Q1]
        for _ in range(n):
            out = pmul(out, a)
        return out


def evaluate(text, dom):
    toks = _tokenize(text)
    at = 0

    def peek():
        return toks[at][0]

    def take():
        nonlocal at
        tok = toks[at]
        at += 1
        return tok

    def expr():
        v = term()
        while peek() in ("+", "-"):
            op = take()[0]
            w = term()
            v = dom.add(v, w) if op == "+" else dom.sub(v, w)
        return v

    def term():
        v = factor()
        while peek() in ("*", "/"):
            op = take()[0]
            w = factor()
            v = dom.mul(v, w) if op == "*" else dom.div(v, w)
        return v

    def factor():
        if peek() == "-":
            take()
            return dom.neg(factor())
        v = atom()
        if peek() == "^":
            take()
            kind, n = take()
            if kind != "num" or n.denominator != 1 or n < 0:
                raise ValueError("exponent must be a natural number")
            v = dom.pow(v, int(n))
        return v

    def atom():
        kind, value = take()
        if kind == "num":
            return dom.const(q(value))
        if kind == "name":
            if value in UNITS:
                return dom.const(UNITS[value])
            return dom.var(value)
        if kind == "(":
            v = expr()
            if take()[0] != ")":
                raise ValueError("expected ')'")
            return v
        raise ValueError(f"unexpected token {value!r}")

    v = expr()
    if peek() != "end":
        raise ValueError("trailing input")
    return v


def at_point(text, **point):
    return evaluate(text, PointDomain(**point))


def as_tpoly(text):
    return evaluate(text, TPolyDomain())
