import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewfrac import (HFRAC, HH, HPOLY, QFRAC, QPOLY, FreeExpr, I, J, K,
                      MultiPoly, ONE, Quaternion, X, ZERO, quat, tower_field)
from skewfrac.quaternion import (QQ, power, rand_nonzero_quaternion,
                                 rand_quaternion)


def test_hamilton_table():
    assert I * J == K and J * K == I and K * I == J
    assert J * I == -K and K * J == -I and I * K == -J
    assert I * I == J * J == K * K == quat(-1)


def test_str_golden():
    assert str(quat(0)) == "0"
    assert str(quat(1)) == "1"
    assert str(I) == "i"
    assert str(-J) == "-j"
    assert str(quat(1) + I) == "1 + i"
    assert str(quat(Fraction(3, 2)) - K) == "3/2 - k"
    assert str(Quaternion(0, -1, 2, 0)) == "-i + 2*j"
    assert str(Quaternion(Fraction(-1, 4), 0, 0, Fraction(1, 3))) \
        == "-1/4 + 1/3*k"


def test_component_accessors():
    q = Quaternion(1, Fraction(-2, 3), 0, 5)
    assert q.re == 1
    assert q.im_i == Fraction(-2, 3)
    assert q.coords() == (1, Fraction(-2, 3), 0, 5)
    assert not q.is_rational()
    assert quat(Fraction(7, 2)).is_rational()


def test_inverse_and_norm():
    rng = random.Random(1)
    for _ in range(200):
        a = rand_nonzero_quaternion(rng, 10)
        assert a * a.inverse() == ONE
        assert a.inverse() * a == ONE
        b = rand_quaternion(rng, 10)
        assert (a * b).norm() == a.norm() * b.norm()


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugation_antiautomorphism():
    rng = random.Random(2)
    for _ in range(100):
        a, b = rand_quaternion(rng, 8), rand_quaternion(rng, 8)
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert a * a.conjugate() == quat(a.norm())


def test_real_part():
    q = Quaternion(Fraction(5, 7), 1, -2, 3)
    assert q.re == Fraction(5, 7)
    # Re(a) = (a - iai - jaj - kak) / 4
    r = (q - I * q * I - J * q * J - K * q * K) * Fraction(1, 4)
    assert r == quat(Fraction(5, 7))


def test_right_quotient():
    rng = random.Random(3)
    for _ in range(50):
        a = rand_quaternion(rng, 6)
        b = rand_nonzero_quaternion(rng, 6)
        assert a / b == a * b.inverse()
    assert I / J == I * (-J)  # j^-1 = -j


def test_scalar_mixing():
    assert 2 * I == I + I
    assert I * 2 == I + I
    assert Fraction(1, 2) * (I + J) == Quaternion(0, Fraction(1, 2),
                                                  Fraction(1, 2), 0)
    assert quat(3) - 1 == quat(2)
    assert 1 - quat(3) == quat(-2)


def test_pow():
    assert (ONE + I) ** 2 == 2 * I
    assert (ONE + I) ** 0 == ONE
    assert I ** 3 == -I


small = st.integers(min_value=-9, max_value=9)
dens = st.integers(min_value=1, max_value=9)
quats = st.builds(
    lambda a, b, c, d, n: Quaternion(Fraction(a, n), Fraction(b, n),
                                     Fraction(c, n), Fraction(d, n)),
    small, small, small, small, dens)


@given(quats, quats, quats)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


class _Counted:
    """A value that counts the products made from it."""

    def __init__(self, log):
        self.log = log

    def __mul__(self, other):
        self.log.append(1)
        return _Counted(self.log)


@pytest.mark.parametrize("n,products", [(0, 0), (1, 0), (2, 1), (3, 2),
                                        (8, 3), (9, 4), (15, 6)])
def test_power_makes_no_unused_product(n, products):
    # squarings up to the top bit, plus one product per further set bit
    log = []
    power(_Counted(log), n, None)
    assert len(log) == products


def test_power_matches_repeated_products():
    t = HPOLY.t
    bases = [ONE + I - Fraction(1, 2) * K, t - I + J,
             MultiPoly.variable(1) + MultiPoly.constant(I),
             HFRAC(t + J, t - I), X * I + J]
    for base in bases:
        acc = base ** 0
        for n in range(10):
            # str too: a FreeExpr keeps its words in order, == ignores it
            assert base ** n == acc and str(base ** n) == str(acc)
            acc = acc * base


rationals = st.fractions(max_denominator=9).filter(lambda r: abs(r) < 100)
numbers = st.one_of(st.integers(-100, 100), rationals, rationals.map(Quaternion),
                    quats)


def _forms(x):
    """x together with the same value as Quaternion, Fraction and int, and
    as a constant of every exact type that has one."""
    q = x if isinstance(x, Quaternion) else Quaternion(x)
    F1, F2 = tower_field(1), tower_field(2)
    forms = [x, q, HPOLY.constant(q), HFRAC(q), F1(q), F2(F1(q)), F2(q),
             tower_field(3)(q), MultiPoly.constant(q), FreeExpr.constant(q)]
    if q.is_rational():
        r = q.re
        forms += [r, QPOLY.constant(r), QFRAC(r)]
        forms += [r.numerator] if r.denominator == 1 else []
    return forms


@given(numbers, numbers)
def test_equal_numbers_hash_equal(a, b):
    values = _forms(a) + _forms(b)
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)


@given(quats)
def test_norm_zero_iff_zero(a):
    # anisotropic over the rationals: sum of four squares vanishes only at 0
    assert (a.norm() == 0) == (not a)


def test_division_ring_descriptor():
    rng = random.Random(4)
    assert HH.zero == ZERO and HH.one == ONE
    assert HH.coerce(Fraction(2, 3)) == quat(Fraction(2, 3))
    assert HH.coerce(I) is I and HH.coerce(HPOLY.t) is None
    assert QQ.coerce(3) == 3 and QQ.coerce(I) is None
    a = HH.sample(rng, 5)
    assert HH.inv(a) * a == ONE if a else True
