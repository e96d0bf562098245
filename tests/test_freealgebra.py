import random
from fractions import Fraction

from skewfrac import (FreeExpr, I, J, K, MultiPoly, X, eval_free,
                      find_witness, func_eq, phi, quat, sigma, vanishes,
                      y_constant)
from skewfrac.multipoly import MP_ZERO, T1, T2, T3, T4
from skewfrac.quaternion import rand_quaternion


def test_words_are_formal():
    # bool() asks about the formal word sum; vanishes() asks about the
    # induced function -- X - X is formally two words but the zero map
    d = X - X
    assert d and vanishes(d)
    assert d == FreeExpr(((quat(1),), (quat(-1),))) * X
    assert not FreeExpr(())


def test_zero_letter_kills_word():
    assert not FreeExpr(((quat(1), quat(0)),))
    assert X * 0 == FreeExpr(())


def test_x_degree():
    assert X.x_degree == 1
    assert (X * X * I + X).x_degree == 2
    assert FreeExpr(()).x_degree == float("-inf")
    assert FreeExpr.constant(I).x_degree == 0


def test_str_golden():
    assert str(X) == "X"
    assert str(FreeExpr(())) == "0"
    assert str(I * X) == "(i)*X"
    assert str(X * I) == "X*(i)"
    assert str(I * X * J + X) == "(i)*X*(j) + X"
    assert str(FreeExpr.constant(-K)) == "(-k)"


def test_sigma_of_x():
    assert sigma(X) == T1 + MultiPoly.constant(I) * T2 \
        + MultiPoly.constant(J) * T3 + MultiPoly.constant(K) * T4


def test_sigma_is_a_homomorphism():
    rng = random.Random(40)
    for _ in range(40):
        f = _rand(rng)
        g = _rand(rng)
        assert sigma(f + g) == sigma(f) + sigma(g)
        assert sigma(f * g) == sigma(f) * sigma(g)


def test_coordinate_functions():
    for l, tl in enumerate((T1, T2, T3, T4), start=1):
        assert sigma(y_constant(l)) == tl
    recon = y_constant(1) + I * y_constant(2) + J * y_constant(3) \
        + K * y_constant(4)
    assert vanishes(X - recon)
    assert func_eq(X, recon)


def test_y_values_are_rational():
    rng = random.Random(41)
    for _ in range(50):
        q = rand_quaternion(rng, 10)
        for l in range(1, 5):
            v = eval_free(y_constant(l), q)
            assert v.is_rational()
            assert v.re == q.coords()[l - 1]


def test_commutator_of_central_y():
    rng = random.Random(42)
    y2 = y_constant(2)
    for _ in range(10):
        h = _rand(rng)
        assert vanishes(y2 * h - h * y2), "y_l is central as a function"


def test_sigma_commutator_golden():
    assert str(sigma(X * I - I * X)) == "(-2*k)*t3 + (2*j)*t4"


def test_phi_round_trips():
    rng = random.Random(43)
    for _ in range(30):
        p = _rand_poly(rng)
        assert sigma(phi(p)) == p
    for _ in range(15):
        f = _rand(rng)
        assert vanishes(phi(sigma(f)) - f)


def test_vanishes_distinguishes():
    assert not vanishes(X * I - I * X)
    assert vanishes(FreeExpr(()))
    assert not vanishes(FreeExpr.constant(I))


def test_witness_search():
    f = X * I - I * X
    w = find_witness(f, random.Random(44))
    assert w is not None
    assert eval_free(f, w)
    assert find_witness(X - X, random.Random(44)) is None


def test_eval_free_words():
    q = quat(1) + I            # 1 + i
    assert eval_free(X * X, q) == q * q
    assert eval_free(I * X * J, q) == I * q * J
    assert eval_free(FreeExpr.constant(K), q) == K


def test_eval_matches_sigma():
    rng = random.Random(45)
    for _ in range(40):
        f = _rand(rng)
        q = rand_quaternion(rng, 5)
        assert eval_free(f, q) == sigma(f).eval(*q.coords())


def test_component_split():
    rng = random.Random(46)
    for _ in range(20):
        p = sigma(_rand(rng))
        parts = p.components()
        total = MP_ZERO
        for u, part in zip((quat(1), I, J, K), parts):
            assert all(c.is_rational() for _, c in part.sorted_terms())
            total = total + part * MultiPoly.constant(u)
        assert total == p


def _rand(rng, max_deg=3):
    words = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(0, max_deg)
        words.append(tuple(rand_quaternion(rng, 4) for _ in range(n + 1)))
    return FreeExpr(words)


def _rand_poly(rng):
    terms = []
    for _ in range(rng.randint(1, 4)):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(0, 3)):
            e[rng.randint(0, 3)] += 1
        terms.append((tuple(e), rand_quaternion(rng, 6)))
    return MultiPoly(terms)
