import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewfrac import (HPOLY, QPOLY, I, J, K, ONE, Quaternion, gcld, gcrd,
                      lclm, lcrm, lcrm_with_cofactors, quat, tower_field)
from skewfrac.fractionfield import conj_poly

from oracles import lcrm_oracle

t = HPOLY.t


def test_noncommutative_products():
    # the two factorizations of t^2 - (i+j)t differ in the constant term
    assert str((t - I) * (t - J)) == "t^2 - (i + j)*t + k"
    assert str((t - J) * (t - I)) == "t^2 - (i + j)*t - k"
    assert (t - I) * (t + I) == t * t + 1


def test_central_variable():
    q = HPOLY.constant(I + 2 * J)
    assert t * q == q * t
    assert str(I * t - t * I) == "0"


def test_format_golden():
    assert str(HPOLY.zero) == "0"
    assert str(HPOLY.one) == "1"
    assert str(t) == "t"
    assert str(-t) == "-t"
    assert str(t * t - 1) == "t^2 - 1"
    assert str(HPOLY.poly([quat(Fraction(1, 2)), -I])) == "-i*t + 1/2"
    assert str(HPOLY.poly([quat(0), I + J])) == "(i + j)*t"
    assert str(HPOLY.poly([-(I + J), quat(1)])) == "t - i - j"
    assert str(3 * t ** 2 + Fraction(1, 4)) == "3*t^2 + 1/4"


def test_format_signs():
    # a negative coefficient is negated and joined with ' - '; a constant
    # term keeps its own first sign, the rest of its text as printed
    assert str(QPOLY.poly([1, Fraction(-1, 2)])) == "-1/2*t + 1"
    assert str(HPOLY.poly([-1 + I, -1 - I])) == "-(1 + i)*t - 1 + i"


def test_divmod_right_and_left():
    rng = random.Random(10)
    for _ in range(150):
        f = HPOLY.sample(rng, rng.randint(0, 6), 8)
        g = HPOLY.sample(rng, rng.randint(0, 4), 8)
        q, r = f.divmod_right(g)
        assert q * g + r == f
        assert r.degree < g.degree
        ql, rl = f.divmod_left(g)
        assert g * ql + rl == f
        assert rl.degree < g.degree


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        t.divmod_right(HPOLY.zero)


def test_degree_additivity():
    rng = random.Random(11)
    for _ in range(200):
        f = HPOLY.sample(rng, rng.randint(0, 6), 8)
        g = HPOLY.sample(rng, rng.randint(0, 6), 8)
        assert (f * g).degree == f.degree + g.degree
    assert (HPOLY.zero * t).degree == float("-inf")


def test_gcrd_planted_factor():
    rng = random.Random(12)
    for _ in range(60):
        c = HPOLY.sample(rng, rng.randint(1, 3), 5)
        x = HPOLY.sample(rng, rng.randint(0, 2), 5) * c
        y = HPOLY.sample(rng, rng.randint(0, 2), 5) * c
        if not x or not y:
            continue
        g = gcrd(x, y)
        assert g.is_monic()
        assert not x.divmod_right(g)[1]
        assert not y.divmod_right(g)[1]
        assert not g.divmod_right(c)[1], "planted right factor must divide"


def test_gcld_planted_factor():
    rng = random.Random(13)
    for _ in range(60):
        c = HPOLY.sample(rng, rng.randint(1, 3), 5)
        x = c * HPOLY.sample(rng, rng.randint(0, 2), 5)
        y = c * HPOLY.sample(rng, rng.randint(0, 2), 5)
        if not x or not y:
            continue
        g = gcld(x, y)
        assert not x.divmod_left(g)[1]
        assert not y.divmod_left(g)[1]
        assert not g.divmod_left(c)[1]


def test_lcrm_example():
    m, u, v = lcrm_with_cofactors(t - I, t - J)
    assert m == t * t + 1
    assert u == t + I and v == t + J
    assert (t - I) * u == m and (t - J) * v == m


def test_lcrm_against_linear_algebra_oracle():
    rng = random.Random(14)
    for trial in range(40):
        if trial % 2:
            c = HPOLY.sample(rng, 1, 4)
            x = c * HPOLY.sample(rng, rng.randint(0, 2), 4)
            y = c * HPOLY.sample(rng, rng.randint(0, 2), 4)
        else:
            x = HPOLY.sample(rng, rng.randint(0, 4), 4)
            y = HPOLY.sample(rng, rng.randint(0, 4), 4)
        if not x or not y:
            continue
        assert lcrm(x, y) == lcrm_oracle(x, y)


def test_lcrm_degree_law():
    # deg lcrm = deg x + deg y - deg gcld (left divisor, not right)
    x = (t - I) * (t - J)
    y = (t - I) * (t - K)
    m = lcrm(x, y)
    assert m.degree == 3
    assert gcld(x, y).degree == 1
    assert gcrd(x, y).degree == 0


def test_lclm_mirror():
    m = lclm(t - I, t - J)
    assert m == t * t + 1
    assert not m.divmod_left(t - I)[1] and not m.divmod_left(t - J)[1]


def test_lcrm_zero_input():
    with pytest.raises(ZeroDivisionError):
        lcrm(HPOLY.zero, t)


def test_monic_normalizations():
    f = HPOLY.poly([J, I])         # i*t + j
    assert f.monic_left() == HPOLY.poly([I.inverse() * J, ONE])
    assert f.monic_right() == HPOLY.poly([J * I.inverse(), ONE])
    assert f.monic_left().is_monic()


def test_eval_central_is_homomorphism_at_rational_points():
    rng = random.Random(15)
    for _ in range(60):
        f = HPOLY.sample(rng, rng.randint(0, 4), 5)
        g = HPOLY.sample(rng, rng.randint(0, 4), 5)
        r = quat(Fraction(rng.randint(-8, 8), rng.randint(1, 8)))
        assert (f * g).eval_central(r) == f.eval_central(r) * g.eval_central(r)
        assert (f + g).eval_central(r) == f.eval_central(r) + g.eval_central(r)


def test_scaling():
    f = t + I
    assert f.scale_left(J) == J * f
    assert f.scale_right(J) == f * J
    assert f.scale_left(J) != f.scale_right(J)


coeffs = st.lists(st.integers(min_value=-5, max_value=5).map(quat),
                  min_size=0, max_size=5)


@settings(max_examples=60)
@given(coeffs, coeffs, coeffs)
def test_ring_axioms(a, b, c):
    f, g, h = HPOLY.poly(a), HPOLY.poly(b), HPOLY.poly(c)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


quats = st.builds(Quaternion, *[st.integers(min_value=-3, max_value=3)] * 4)
polys = st.lists(quats, max_size=4).map(HPOLY.poly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_left_algorithms_mirror_right_ones(a, b, c):
    # conj_poly reverses products (t is central), so it carries right
    # divisors and multiples to left ones; c is a common left factor
    f, g = c * a, c * b
    for x, y in ((f, g), (a, b)):
        if y:
            q, r = conj_poly(x).divmod_right(conj_poly(y))
            assert x.divmod_left(y) == (conj_poly(q), conj_poly(r))
    assert gcld(f, g) == conj_poly(gcrd(conj_poly(f), conj_poly(g)))
    if a and b:
        assert lclm(a, b) == conj_poly(lcrm(conj_poly(a), conj_poly(b)))
    if f and g:
        assert lclm(f, g) == conj_poly(lcrm(conj_poly(f), conj_poly(g)))


def test_euclid_over_tower_coefficients():
    # H(t1)_c[t2]: the coefficients are fractions, and conjugation is
    # not available to derive one side from the other
    F1 = tower_field(1)
    s, t1 = tower_field(2).ring.t, F1.t
    i, j = F1(I), F1(J)
    cases = [((s * s + j) * (s - t1 * i), (s + 1 / (t1 - j)) * (s - t1 * i)),
             (s ** 3 + t1, s * j - 1),
             ((s + i) * (s - j), (s + i) * (s + t1))]
    gcrds = [s - t1 * i, s.ring.one, s.ring.one]
    gclds = [s.ring.one, s.ring.one, s + i]
    for (f, g), d, e in zip(cases, gcrds, gclds):
        q, r = f.divmod_right(g)
        assert q * g + r == f and r.degree < g.degree
        q, r = f.divmod_left(g)
        assert g * q + r == f and r.degree < g.degree
        assert gcrd(f, g) == d and gcld(f, g) == e
        m, u, v = lcrm_with_cofactors(f, g)
        assert m.is_monic() and f * u == m and g * v == m
        assert m.degree == f.degree + g.degree - e.degree
        m = lclm(f, g)
        assert m.is_monic()
        assert not m.divmod_right(f)[1] and not m.divmod_right(g)[1]
        assert m.degree == f.degree + g.degree - d.degree
