import random
from fractions import Fraction

from skewfrac import I, J, K, MultiPoly, quat
from skewfrac.multipoly import MP_ONE, MP_ZERO, T1, T2, T3, T4
from skewfrac.quaternion import rand_quaternion


def test_variables_commute():
    assert T1 * T2 == T2 * T1
    assert (T1 + T2) * (T1 - T2) == T1 * T1 - T2 * T2


def test_coefficients_multiply_noncommutatively():
    a = MultiPoly.constant(I) * T1
    b = MultiPoly.constant(J) * T1
    assert a * b == MultiPoly.constant(K) * T1 * T1
    assert b * a == MultiPoly.constant(-K) * T1 * T1


def test_graded_lex_str():
    # total degree first, then t1 > t2 > t3 > t4
    p = T4 + T1 * T1 + T2 * T3 + MP_ONE
    assert str(p) == "t1^2 + t2*t3 + t4 + 1"
    assert str(T3 + T2 + T4 + T1) == "t1 + t2 + t3 + t4"


def test_str_golden():
    assert str(MP_ZERO) == "0"
    assert str(MP_ONE) == "1"
    assert str(-T2) == "(-1)*t2"
    assert str(MultiPoly.constant(2 * I) * T3) == "(2*i)*t3"
    assert str(T1 * T1 - MP_ONE) == "t1^2 - 1"
    assert str(T1 - T2) == "t1 + (-1)*t2"
    assert str(MultiPoly.constant(quat(Fraction(1, 2)))) == "1/2"
    assert str(T1 + MultiPoly.constant(-1 + I)) == "t1 - 1 + i"


def test_eval():
    p = T1 * T1 + MultiPoly.constant(I) * T2
    assert p.eval(Fraction(3), Fraction(1, 2), Fraction(0), Fraction(0)) \
        == quat(9) + I * Fraction(1, 2)
    assert MP_ZERO.eval(*(Fraction(1),) * 4) == quat(0)


def test_components_recompose():
    rng = random.Random(20)
    units = (quat(1), I, J, K)
    for _ in range(50):
        terms = [(tuple(rng.randint(0, 2) for _ in range(4)),
                  rand_quaternion(rng, 5)) for _ in range(4)]
        p = MultiPoly(terms)
        parts = p.components()
        recombined = MP_ZERO
        for u, part in zip(units, parts):
            assert all(c.is_rational() for _, c in part.sorted_terms())
            recombined = recombined + part * MultiPoly.constant(u)
        assert recombined == p


def test_degree():
    assert MP_ZERO.degree == float("-inf")
    assert MP_ONE.degree == 0
    assert (T1 * T2 * T3 + T4).degree == 3


def test_zero_coefficient_terms_drop():
    p = MultiPoly([((1, 0, 0, 0), quat(1)), ((1, 0, 0, 0), quat(-1))])
    assert p == MP_ZERO
    assert not p


def test_scalar_coercion():
    assert T1 + 1 == T1 + MP_ONE
    assert 2 * T1 == T1 + T1
    assert T1 * Fraction(1, 2) + T1 * Fraction(1, 2) == T1
