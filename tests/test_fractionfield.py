import random
from fractions import Fraction

import pytest

from skewfrac import (HFRAC, HPOLY, QFRAC, QPOLY, I, J, K, RightFraction,
                      centralize_denominator, component_decompose,
                      component_recompose, quat, tower_field, tower_variable)
from skewfrac.fractionfield import conj_poly

t = HPOLY.t


def test_construction_reduces():
    # t^2 + 1 = (t + i)(t - i), so the right factor cancels
    x = HFRAC(t * t + 1, t - I)
    assert x.is_polynomial()
    assert str(x) == "t + i"
    # common right factor (t - j)
    y = HFRAC((t - I) * (t - J), (t - K) * (t - J))
    assert str(y) == "(t - i) / (t - k)"


def test_denominator_made_monic():
    x = HFRAC(t, (t - I).scale_left(2 * J))
    assert x.den.is_monic()
    assert x == HFRAC(t, t - I) * HFRAC(HPOLY.constant((2 * J).inverse()))


def test_call_coerces_like_the_ring():
    # num and den take what the ring's operations take
    assert HFRAC(t, Fraction(1, 2)) == HFRAC(2 * t)
    assert HFRAC(Fraction(1, 2), t) == HFRAC(HPOLY.one, 2 * t)
    assert HFRAC(I, t - J) == HFRAC(HPOLY.constant(I), t - J)
    assert QFRAC(Fraction(1, 3)) * 3 == QFRAC.one
    F2 = tower_field(2)
    assert F2(Fraction(1, 3)) * 3 == F2.one
    assert F2(tower_field(1).t, 2) * 2 == tower_variable(2, 1)
    for bad in (QPOLY.t, tower_field(1).ring.t, tower_field(1).one, "t"):
        with pytest.raises(TypeError):
            HFRAC(bad)
        with pytest.raises(TypeError):
            HFRAC(t, bad)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        HFRAC(t, HPOLY.zero)


def test_arithmetic_hand_values():
    inv_minus = HFRAC(HPOLY.one, t - I)   # (t-i)^-1
    inv_plus = HFRAC(HPOLY.one, t + I)
    s = inv_minus + inv_plus
    assert s == HFRAC(2 * t, t * t + 1)
    d = inv_minus - inv_plus
    assert d == HFRAC(HPOLY.constant(2 * I), t * t + 1)
    p = inv_minus * inv_plus
    # (t-i)^-1 (t+i)^-1 = ((t+i)(t-i))^-1 = (t^2+1)^-1
    assert p == HFRAC(HPOLY.one, t * t + 1)


def test_inverse():
    x = HFRAC(t - I, (t - J) * (t - K))
    assert x * x.inverse() == HFRAC.one
    assert x.inverse() * x == HFRAC.one
    assert x ** -2 == (x * x).inverse()
    with pytest.raises(ZeroDivisionError):
        HFRAC.zero.inverse()


def test_equality_same_value_structural():
    x = HFRAC(t - I, t - J)
    c = (t - K) * (t + I)
    blown = HFRAC((t - I) * c, (t - J) * c)
    assert blown == x
    assert blown.structurally_equal(x), "canonical forms must coincide"
    assert x.same_value(blown)
    y = HFRAC(t + I, t - J)
    assert x != y and not x.same_value(y)


def test_component_decompose_golden():
    # (t - i)^-1 = t/(t^2+1) + (1/(t^2+1)) i
    parts = component_decompose(HFRAC(HPOLY.one, t - I))
    assert str(parts[0]) == "t / (t^2 + 1)"
    assert str(parts[1]) == "1 / (t^2 + 1)"
    assert not parts[2] and not parts[3]
    assert all(p.field is QFRAC for p in parts)


def test_decompose_recompose_identity():
    rng = random.Random(30)
    for _ in range(40):
        num = HPOLY.sample(rng, rng.randint(0, 3), 4)
        den = HPOLY.sample(rng, rng.randint(0, 3), 4)
        if not den:
            den = HPOLY.one
        x = HFRAC(num, den)
        assert component_recompose(component_decompose(x)) == x


def test_centralize_denominator():
    rng = random.Random(31)
    for _ in range(40):
        num = HPOLY.sample(rng, rng.randint(0, 3), 4)
        den = HPOLY.sample(rng, rng.randint(1, 3), 4)
        if not den:
            continue
        x = HFRAC(num, den)
        n, d = centralize_denominator(x)
        assert all(c.is_rational() for c in d.coeffs)
        assert HFRAC(n, d) == x, "same element after centralizing"


def test_conj_poly():
    f = (t - I) * (t - J)
    g = conj_poly(f)
    assert g == (t + J) * (t + I), "conjugation reverses factor order"


def test_is_central():
    assert HFRAC.t.is_central()
    assert HFRAC(t * t + 1, 2 * t - 3).is_central()
    assert not HFRAC(HPOLY.constant(I)).is_central()
    assert not HFRAC(t - I, t + J).is_central()
    assert HFRAC.zero.is_central() and HFRAC.one.is_central()


def test_central_fractions_commute():
    rng = random.Random(32)
    c = HFRAC(t * t - 2, 3 * t + 1)
    for _ in range(20):
        num = HPOLY.sample(rng, rng.randint(0, 2), 3)
        den = HPOLY.sample(rng, rng.randint(0, 2), 3)
        if not den:
            den = HPOLY.one
        x = HFRAC(num, den)
        assert c * x == x * c


def test_polynomial_embedding_hom():
    rng = random.Random(33)
    for _ in range(40):
        f = HPOLY.sample(rng, rng.randint(0, 3), 5)
        g = HPOLY.sample(rng, rng.randint(0, 3), 5)
        assert HFRAC.embed(f) * HFRAC.embed(g) == HFRAC.embed(f * g)
        assert HFRAC.embed(f) + HFRAC.embed(g) == HFRAC.embed(f + g)
        assert HFRAC.embed(f) == f and hash(HFRAC.embed(f)) == hash(f)


def test_str_golden():
    assert str(HFRAC.zero) == "0"
    assert str(HFRAC.one) == "1"
    assert str(HFRAC(t - I, t - J)) == "(t - i) / (t - j)"
    assert str(HFRAC(t, t - I)) == "t / (t - i)"
    assert str(HFRAC(HPOLY.one, t * t + 1)) == "1 / (t^2 + 1)"
    assert str(HFRAC.embed(t + 1)) == "t + 1"


def test_mixed_scalar_ops():
    x = HFRAC(HPOLY.one, t - I)
    assert x + 0 == x
    assert x * 1 == x
    assert (x + 1) - 1 == x
    assert 2 * x == x + x
    assert x + (t - I) == HFRAC(1 + (t - I) * (t - I), t - I)


def test_pow():
    x = HFRAC(HPOLY.one, t - I)
    assert x ** 0 == HFRAC.one
    assert x ** 2 == x * x
    assert x ** -1 == HFRAC.embed(t - I)
