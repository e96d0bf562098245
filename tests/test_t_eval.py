"""t-context evaluation checked at rational points.

t is central, so substituting a rational r for t is a ring homomorphism
from H_c[t] to H, and it extends to H(t) wherever no denominator
vanishes.  The oracle evaluates the AST at r in plain Quaternion
arithmetic, with no polynomial, fraction or constant folding in
between; the canonical result num * den^-1 must agree with it at three
points.  A divisor is identically zero when it vanishes at more points
than its numerator degree bound, and then evaluate must raise.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import assume, given, settings, strategies as st

from skewfrac import gcrd
from skewfrac.parser import TCTX, BinOp, Neg, Num, Pow, Unit, VarT, evaluate
from skewfrac.quaternion import I, J, K, Quaternion

UNITS = {"i": I, "j": J, "k": K}
T = VarT()


def _num(r):
    return Num(Fraction(r))


def _sum(a, b):
    return BinOp("+", a, b)


def _diff(a, b):
    return BinOp("-", a, b)


def _prod(a, b):
    return BinOp("*", a, b)


leaves = st.one_of(
    st.just(T),
    st.sampled_from([Unit("i"), Unit("j"), Unit("k")]),
    st.sampled_from([0, 1, -3, Fraction(1, 2)]).map(_num),
    st.sampled_from([                                               # fractions
        BinOp("/", _num(1), _diff(T, Unit("i"))),
        BinOp("/", _sum(T, Unit("j")), _diff(T, Unit("i"))),
        BinOp("/", _prod(Unit("k"), T), _sum(_prod(_num(2), T), Unit("j"))),
    ]),
)
divisors = st.sampled_from([
    _num(4), _diff(_num(1), Unit("i")), _sum(_num(1), Unit("k")),   # constants
    _num(0), _diff(_num(1), _num(1)), _diff(Unit("j"), Unit("j")),  # zero ones
    T, _diff(T, Unit("i")), _sum(T, _num(1)), _sum(Pow(T, 2), _num(1)),  # polynomials
    _sum(_prod(_num(2), T), Unit("j")), _diff(_prod(Unit("k"), T), _num(3)),
    _prod(_sum(T, Unit("i")), _sum(T, Unit("j"))),
    _diff(T, T), _prod(_num(0), T),                                 # zero ones
])


def _grow(children):
    quotients = st.builds(lambda a, d: BinOp("/", a, d), children,
                          st.one_of(divisors, children))
    return st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*"), children, children),
        st.builds(Pow, children, st.integers(0, 3)),
        quotients, quotients,
    )


exprs = st.recursive(leaves, _grow, max_leaves=10)

# candidate points; each nonzero divisor vanishes at only a few of them
POINTS = [Fraction(p, q) for q in (1, 2, 3, 5) for p in range(-12, 13)
          if Fraction(p, q).denominator == q]


class _Pole(Exception):
    """A divisor that is not identically zero vanishes at the point."""


@lru_cache(maxsize=None)
def _degrees(node):
    """Bounds (n, d) on the degrees of a right fraction n * d^-1 equal
    to node: lcrm and the Ore relocation never exceed the product."""
    if isinstance(node, BinOp):
        (na, da), (nb, db) = _degrees(node.a), _degrees(node.b)
        if node.op in "+-":
            return max(na + db, nb + da), da + db
        if node.op == "*":
            return na + nb, da + db
        return na + db, da + nb
    if isinstance(node, Neg):
        return _degrees(node.a)
    if isinstance(node, Pow):
        n, d = _degrees(node.a)
        return node.n * n, node.n * d
    return (1 if isinstance(node, VarT) else 0), 0


@lru_cache(maxsize=None)
def _is_zero(node):
    """Whether node is the zero element of H(t): zero at more points
    than its numerator can have roots."""
    need = _degrees(node)[0] + 1
    for r in POINTS:
        try:
            value = _at(node, r)
        except _Pole:
            continue
        if value:
            return False
        need -= 1
        if not need:
            return True
    raise AssertionError("ran out of points")


def _at(node, r):
    """node at t = r in Quaternion arithmetic."""
    if isinstance(node, Num):
        return Quaternion(node.value)
    if isinstance(node, Unit):
        return UNITS[node.sym]
    if isinstance(node, VarT):
        return Quaternion(r)
    if isinstance(node, Neg):
        return -_at(node.a, r)
    if isinstance(node, Pow):
        return _at(node.a, r) ** node.n
    a, b = _at(node.a, r), _at(node.b, r)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if b:
        return a * b.inverse()
    if _is_zero(node.b):
        raise ZeroDivisionError("division by zero")
    raise _Pole


def _divisors(node):
    if isinstance(node, BinOp):
        yield from _divisors(node.a)
        yield from _divisors(node.b)
        if node.op == "/":
            yield node.b
    elif isinstance(node, (Neg, Pow)):
        yield from _divisors(node.a)


@settings(max_examples=300, deadline=None)
@given(exprs)
def test_t_evaluation_matches_pointwise_quaternion_arithmetic(node):
    # enough points to decide every divisor, with room for its poles
    assume(all(_degrees(d)[0] < 30 for d in _divisors(node)))
    divides_by_zero = any(_is_zero(d) for d in _divisors(node))
    try:
        value = evaluate(node, TCTX)
    except ZeroDivisionError as e:
        assert divides_by_zero and str(e) == "division by zero"
        return
    assert not divides_by_zero
    assert value.den.is_monic() and gcrd(value.num, value.den).degree <= 0
    checked = 0
    for r in POINTS:
        den = value.den.eval_central(Quaternion(r))
        try:
            expected = _at(node, r)
        except _Pole:
            continue
        if not den:
            continue
        assert value.num.eval_central(Quaternion(r)) * den.inverse() == expected
        checked += 1
        if checked == 3:
            return
    raise AssertionError("fewer than three points away from the poles")
