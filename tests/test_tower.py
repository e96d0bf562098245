import random
from operator import add, mul, sub, truediv

import pytest

from skewfrac import (DEFAULT_DEPTH_LIMIT, DepthExceededError, HFRAC, HPOLY,
                      I, J, K, ONE, QFRAC, QPOLY, tower_constant, tower_field,
                      tower_variable)
from skewfrac.selftest import _rand_tower2


def test_depth_guards():
    with pytest.raises(ValueError):
        tower_field(0)
    with pytest.raises(DepthExceededError):
        tower_field(DEFAULT_DEPTH_LIMIT + 1)
    tower_field(DEFAULT_DEPTH_LIMIT)  # at the cap is fine


def test_fields_are_cached():
    assert tower_field(2) is tower_field(2)
    assert tower_field(2).ring.coeff is tower_field(1)


def test_depth_one_is_hfrac_shape():
    F1 = tower_field(1)
    assert F1.ring.var == "t1"
    assert F1.ring.coeff.name == "HH"


def test_variables_and_constants_are_central():
    t1 = tower_variable(2, 1)
    t2 = tower_variable(2, 2)
    qi = tower_constant(2, I)
    qj = tower_constant(2, J)
    assert t1 * t2 == t2 * t1
    assert t1 * qi == qi * t1, "t1 commutes with embedded constants"
    assert qi * qj == tower_constant(2, K)
    assert qj * qi == tower_constant(2, -K)
    assert t1.is_central() and t2.is_central()
    assert not qi.is_central()


def test_values_of_lower_levels_coerce_through_the_tower():
    F1, F2, F3 = tower_field(1), tower_field(2), tower_field(3)
    assert F3(F1.t) == tower_variable(3, 1)
    assert F2(I) == tower_constant(2, I)
    assert I + F2.one == F2.one + I
    assert F2.one == ONE and ONE == F2.one
    # t is not t1: a polynomial of another ring stays foreign
    for foreign in (HPOLY.t, HFRAC.t, QPOLY.t):
        with pytest.raises(TypeError):
            F2(foreign)
    with pytest.raises(ValueError):
        tower_constant(0, I)
    assert QFRAC(QPOLY.t).is_central()
    assert not F3(I).is_central()


def test_depth2_printed_forms():
    F1, F2 = tower_field(1), tower_field(2)
    t1 = F1.t
    p = F2.ring.poly([t1 / (t1 - I), -1, -(t1 - 1)])
    assert str(p) == "-(t1 - 1)*t2^2 - t2 + t1 / (t1 - i)"
    assert str(F2(p, F2.ring.t - I)) == \
        "(-(t1 - 1)*t2^2 - t2 + t1 / (t1 - i)) / (t2 - i)"
    q, r = p.divmod_right(F2.ring.t - I)
    assert str(q) == "-(t1 - 1)*t2 - i*t1 - 1 + i"
    assert str(r) == "(t1^2 - 2*i*t1 - 1 + i) / (t1 - i)"


def test_arithmetic_across_tower_levels():
    # both operands are RightFractions (or CentralPolys), so the lower
    # level's operator lifts itself into the higher level's ring
    F1, F2, F3 = tower_field(1), tower_field(2), tower_field(3)
    for low, high in ((F1.t, F2.t), (F1.t + I, F3.t), (F2.t, F3.t - J)):
        lifted = high.field(low)
        for op in (add, sub, mul, truediv):
            assert op(low, high) == op(lifted, high)
            assert op(high, low) == op(high, lifted)
            assert op(low, high).field is high.field
    product = F1.ring.t * F2.ring.one
    assert product.ring is F2.ring and product == F2.ring.constant(F1.t)
    assert F2.ring.t - F1.ring.t == F2.ring.poly([-F1.t, 1])
    with pytest.raises(TypeError):
        QPOLY.t + HPOLY.t        # neither ring takes the other


def test_variable_index_range():
    with pytest.raises(ValueError):
        tower_variable(2, 3)
    with pytest.raises(ValueError):
        tower_variable(2, 0)


def test_difference_of_squares_depth2():
    u = tower_variable(2, 2)
    qi = tower_constant(2, I)
    one = tower_field(2).one
    assert (u - qi) * (u + qi) == u * u + one


def test_inverse_depth2():
    rng = random.Random(50)
    F2 = tower_field(2)
    for _ in range(8):
        x = _rand_tower2(rng, F2, 2, fraction=False)
        if not x:
            continue
        assert x * x.inverse() == F2.one
        assert x.inverse() * x == F2.one


def test_axiom_triple_with_fraction():
    rng = random.Random(51)
    F2 = tower_field(2)
    x = _rand_tower2(rng, F2, 2, fraction=True)
    y = _rand_tower2(rng, F2, 2, fraction=False)
    z = _rand_tower2(rng, F2, 2, fraction=False)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
