"""The operator protocol shared by the exact types: every type takes ints,
Fractions and its coefficients on either side of +, -, * and == (all but
one coefficient, see _operands), and refuses operands of other rings."""

import operator
from fractions import Fraction

import pytest

from skewfrac import (HFRAC, HPOLY, QPOLY, FreeExpr, I, J, K, MultiPoly, ONE,
                      Quaternion, X, func_eq, tower_field)
from skewfrac.multipoly import MP_ONE, T1, T2, T3

F1, F2 = tower_field(1), tower_field(2)
t = HPOLY.t

# (x, a coefficient of x's ring)
SAMPLES = {
    "Quaternion": (Quaternion(1, -2, Fraction(1, 3), 4), J),
    "CentralPoly": ((t - I) * (t + 2 * J) + K, I + K),
    "RightFraction": (HFRAC(t + J, t - I), I - 2 * K),
    "MultiPoly": (T1 * I + T2 * T3 - J, K),
    "FreeExpr": (X * I - J * X * X + 2, I),
    "tower_field(2)": (F2(F2.ring.t + F1(I), F2.ring.t + F1.t), F1.t + J),
}
DIVISION_RINGS = {"Quaternion", "RightFraction", "tower_field(2)"}


def _operands(name, left=False):
    if name == "tower_field(2)":
        # a depth-1 coefficient is a RightFraction like the depth-2 element,
        # so Python never tries the reflected operator: it works on the
        # right only; a quaternion, from two levels down, works on both
        return [3, Fraction(-2, 5), J] + ([] if left else [SAMPLES[name][1]])
    return [3, Fraction(-2, 5), SAMPLES[name][1]]


def _same(x, y):
    # FreeExpr's == compares words, and n*X and X*n are distinct words
    # for the same function; compare those as functions
    return func_eq(x, y) if isinstance(x, FreeExpr) else x == y


@pytest.mark.parametrize("name", SAMPLES)
def test_subtraction_is_adding_the_negative(name):
    x = SAMPLES[name][0]
    for y in _operands(name):
        assert x - y == x + (-y)
    for y in _operands(name, left=True):
        assert y - x == -(x - y)
        assert x + y == y + x


@pytest.mark.parametrize("name", SAMPLES)
def test_integers_and_powers(name):
    x = SAMPLES[name][0]
    for n in (-2, 0, 5):
        assert _same(n * x, x * n)
    assert x ** 0 == 1 and x ** 1 == x
    assert x ** 3 == x * x * x


@pytest.mark.parametrize("name", SAMPLES)
def test_foreign_operands_are_refused(name):
    x = SAMPLES[name][0]
    for foreign in ("a", QPOLY.t):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, foreign)
            with pytest.raises(TypeError):
                op(foreign, x)
        assert x != foreign and foreign != x
        assert not x == foreign


@pytest.mark.parametrize("name", SAMPLES)
def test_division_and_negative_powers(name):
    x, c = SAMPLES[name]
    if name not in DIVISION_RINGS:
        for bad in (lambda: x / 2, lambda: 2 / x, lambda: x / x,
                    lambda: x ** -1):
            with pytest.raises(TypeError):
                bad()
        return
    assert x ** -2 == x.inverse() ** 2
    for y in _operands(name):
        assert x / y == x * (Fraction(1) / y)
    for y in _operands(name, left=True):
        assert y / x == y * x.inverse()
    with pytest.raises(ZeroDivisionError):
        (x - x) ** -1


def test_eq_coerces_like_add():
    assert HPOLY.one == 1 and 1 == HPOLY.one and HPOLY.one == ONE
    assert len({HPOLY.one, 1, HFRAC.one}) == 1
    assert len({HFRAC.one, HPOLY.one, 1}) == 1
    assert MP_ONE == 1 and MP_ONE == ONE and MultiPoly.constant(I) == I
    assert len({MP_ONE, 1, ONE}) == 1 and len({ONE, 1, MP_ONE}) == 1
    assert HPOLY.constant(I) == I and F2.ring.constant(F1.t) == F1.t


def test_two_rings_stay_distinct():
    # each equals 1, but a rational polynomial is not a quaternion one
    assert QPOLY.one == 1 and HPOLY.one == 1
    assert QPOLY.one != HPOLY.one and HPOLY.one != QPOLY.one
    assert QPOLY.t != HPOLY.t and F1.t != HFRAC.t
