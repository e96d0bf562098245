"""The coordinate evaluation of X-context expressions, checked against
the formal path it replaces in the CLI: expand the words in H<X>, then
apply sigma."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from skewfrac import sigma
from skewfrac.errors import ParseError
from skewfrac.parser import (COORD, XCTX, BinOp, Neg, Num, Pow, Unit, VarX,
                             check_divisors, evaluate, parse, x_degree)

ZERO_X = BinOp("*", Num(Fraction(0)), VarX())               # 0*X
X_MINUS_X = BinOp("-", VarX(), VarX())                      # X - X

leaves = st.one_of(
    st.just(VarX()),
    st.sampled_from([Unit("i"), Unit("j"), Unit("k")]),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-3), Fraction(1, 2)]).map(Num),
    st.just(ZERO_X), st.just(X_MINUS_X),
    st.just(Pow(ZERO_X, 0)),                                # (0*X)^0 == 1
)
divisors = st.sampled_from([
    Num(Fraction(2)), Unit("j"), BinOp("+", Num(Fraction(1)), Unit("k")),
    Num(Fraction(0)), BinOp("-", Unit("i"), Unit("i")),     # zero constants
    ZERO_X, Pow(ZERO_X, 0),                                 # formal degree -inf, 0
    X_MINUS_X, VarX(), BinOp("+", VarX(), Unit("i")),       # formally non-constant
])


def _grow(children):
    return st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*"), children, children),
        st.builds(Pow, children, st.integers(0, 3)),
        st.builds(lambda a, d: BinOp("/", a, d), children, divisors),
    )


exprs = st.recursive(leaves, _grow, max_leaves=8)


def _words_bound(n):
    """An upper bound on the formal word count, to keep the oracle fast."""
    if isinstance(n, Neg):
        return _words_bound(n.a)
    if isinstance(n, Pow):
        return _words_bound(n.a) ** n.n
    if isinstance(n, BinOp):
        a, b = _words_bound(n.a), _words_bound(n.b)
        return a * b if n.op == "*" else a if n.op == "/" else a + b
    return 2


def _outcome(fn):
    try:
        return fn(), None
    except (ParseError, ZeroDivisionError) as e:
        return None, type(e)


@settings(max_examples=300, deadline=None)
@given(exprs)
def test_coordinate_evaluation_matches_sigma_of_the_words(node):
    assume(_words_bound(node) <= 4096)
    words, words_error = _outcome(lambda: evaluate(node, XCTX))
    poly, poly_error = _outcome(lambda: evaluate(node, COORD))
    assert poly_error is words_error
    if words_error is None:
        assert poly == sigma(words)
        assert x_degree(node) == words.x_degree


def _error(fn):
    try:
        fn()
    except (ParseError, ZeroDivisionError) as e:
        return type(e), str(e)
    return None


@settings(max_examples=300, deadline=None)
@given(exprs)
def test_check_divisors_raises_what_coordinate_evaluation_raises(node):
    assume(_words_bound(node) <= 4096)
    assert _error(lambda: check_divisors(node)) == \
        _error(lambda: evaluate(node, COORD))


def test_check_divisors_keeps_the_order_of_errors():
    for text in ("X/(X - X) + 1/(1 - 1)", "1/(1 - 1) + X/(X - X)",
                 "X/((X - X)/(1 - 1))", "X/(1/(X - X))", "X/(0*X)",
                 "(X + 1/(0*X))/X"):
        node = parse(text)
        expected = _error(lambda: evaluate(node, COORD))
        assert expected is not None, text
        assert _error(lambda: check_divisors(node)) == expected, text
    check_divisors(parse("X^60/(2 + i) + X/((X^9)^0)"))


def test_x_degree_edge_cases():
    cases = {"0*X": float("-inf"), "X - X": 1, "(0*X)^0": 0, "0": float("-inf"),
             "X^0": 0, "(X + i)^3 / 2": 3, "X*X*0": float("-inf"), "i": 0}
    for text, degree in cases.items():
        assert x_degree(parse(text)) == degree, text
