"""Seeded property suites behind `skewfrac selftest`.

Each check runs a batch of randomized property instances and reports
(name, failures, total); a suite is a fixed list of checks.  All
randomness flows from one seeded Random per check, so output is
byte-stable for a given seed.  Default batch sizes are the contract
minimums.

Suites: identities, ore, fractions, roundtrip, tower, all.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from fractions import Fraction

from .centralpoly import CentralPoly, gcld, gcrd, lcrm_with_cofactors
from .errors import UnknownSuiteError
from .fractionfield import (HFRAC, HPOLY, QFRAC, RightFraction,
                            centralize_denominator, component_decompose,
                            component_recompose)
from .freealgebra import (FreeExpr, X, eval_free, find_witness, phi, sigma,
                          vanishes, y_constant)
from .multipoly import MultiPoly
from .quaternion import I, J, K, ONE, Quaternion, quat, rand_quaternion
from .tower import (DEFAULT_DEPTH_LIMIT, tower_constant, tower_field,
                    tower_variable)


@dataclass
class CheckResult:
    name: str
    failures: int
    total: int

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{self.name}: {self.total - self.failures}/{self.total} {status}"


# ---------------------------------------------------------------------------
# identities suite
# ---------------------------------------------------------------------------

def check_re_identity(rng: random.Random, n: int = 1000,
                      bound: int = 10) -> CheckResult:
    """Re(a) = (a - iai - jaj - kak)/4 at random rational quaternions."""
    quarter = Fraction(1, 4)
    fails = 0
    for _ in range(n):
        a = rand_quaternion(rng, bound)
        lhs = (a - I * a * I - J * a * J - K * a * K) * quarter
        if lhs != quat(a.re):
            fails += 1
    return CheckResult("re-extraction identity", fails, n)


def check_coordinate_functions(rng: random.Random, n: int = 500,
                               bound: int = 10) -> CheckResult:
    """sigma(y_l) = t_l; y_l evaluates to the l-th rational coordinate."""
    fails = 0
    total = n + 5
    for l in range(1, 5):
        if sigma(y_constant(l)) != MultiPoly.variable(l):
            fails += 1
    recon = y_constant(1) + I * y_constant(2) + J * y_constant(3) + K * y_constant(4)
    if not vanishes(X - recon):
        fails += 1
    for m in range(n):
        q = rand_quaternion(rng, bound)
        l = 1 + m % 4
        v = eval_free(y_constant(l), q)
        if not v.is_rational() or v.re != q.coords()[l - 1]:
            fails += 1
    return CheckResult("coordinate functions", fails, total)


def check_eval_compat(rng: random.Random, n: int = 500,
                      bound: int = 6) -> CheckResult:
    """eval_free(f, q) = sigma(f) evaluated at the coordinates of q."""
    fails = 0
    for _ in range(n):
        f = _rand_free(rng, rng.randint(0, 3), rng.randint(1, 3), bound)
        q = rand_quaternion(rng, bound)
        if eval_free(f, q) != sigma(f).eval(*q.coords()):
            fails += 1
    return CheckResult("evaluation compatibility", fails, n)


# ---------------------------------------------------------------------------
# roundtrip suite
# ---------------------------------------------------------------------------

def check_sigma_phi(rng: random.Random, n: int = 200,
                    bound: int = 10) -> CheckResult:
    """sigma(phi(p)) = p for random p of degree <= 3."""
    fails = 0
    for _ in range(n):
        p = _rand_multipoly(rng, 3, rng.randint(1, 4), bound)
        if sigma(phi(p)) != p:
            fails += 1
    return CheckResult("sigma-after-phi identity", fails, n)


def check_phi_sigma(rng: random.Random, n: int = 100,
                    bound: int = 5) -> CheckResult:
    """phi(sigma(f)) - f vanishes identically, X-degree <= 4."""
    fails = 0
    degrees = [0, 1, 1, 1, 2, 2, 2, 3, 3, 4]
    for m in range(n):
        xdeg = degrees[m % len(degrees)]
        f = _rand_free(rng, xdeg, rng.randint(1, 2), bound)
        if not vanishes(phi(sigma(f)) - f):
            fails += 1
    return CheckResult("phi-after-sigma modulo vanishing", fails, n)


def check_witness_search(rng: random.Random, n: int = 100,
                         bound: int = 5) -> CheckResult:
    """Non-vanishing f admits an evaluation witness within 50 draws."""
    fails = 0
    found = 0
    while found < n:
        f = _rand_free(rng, rng.randint(0, 3), rng.randint(1, 3), bound)
        if vanishes(f):
            continue
        found += 1
        w = find_witness(f, rng, max_draws=50)
        if w is None or not eval_free(f, w):
            fails += 1
    return CheckResult("witness search", fails, n)


def check_ideal_members(rng: random.Random, n: int = 100,
                        evals: int = 200, bound: int = 4) -> CheckResult:
    """Members of the vanishing ideal evaluate to zero everywhere.

    Members come from the two constructions the isomorphism provides:
    commutators with the central y_l, and phi/sigma round-trip
    differences.
    """
    fails = 0
    for m in range(n):
        if m % 10 < 7:
            h = _rand_free(rng, rng.randint(0, 2), rng.randint(1, 2), bound)
            yl = y_constant(1 + m % 4)
            member = yl * h - h * yl
        else:
            g = _rand_free(rng, rng.randint(0, 2), 1, bound)
            member = phi(sigma(g)) - g
        if not vanishes(member):
            fails += 1
            continue
        for _ in range(evals):
            q = rand_quaternion(rng, 3)
            if eval_free(member, q):
                fails += 1
                break
    return CheckResult("vanishing-ideal membership", fails, n)


# ---------------------------------------------------------------------------
# ore suite
# ---------------------------------------------------------------------------

def check_degree_additivity(rng: random.Random, n: int = 1000,
                            bound: int = 6) -> CheckResult:
    """deg(f*g) = deg f + deg g for nonzero f, g."""
    fails = 0
    for _ in range(n):
        f = HPOLY.sample(rng, rng.randint(0, 5), bound)
        g = HPOLY.sample(rng, rng.randint(0, 5), bound)
        if (f * g).degree != f.degree + g.degree:
            fails += 1
    return CheckResult("degree additivity", fails, n)


def check_division(rng: random.Random, n: int = 400,
                   bound: int = 6) -> CheckResult:
    """Both one-sided divisions: f = q*g + r = g*q' + r', deg r < deg g."""
    fails = 0
    for _ in range(n):
        f = HPOLY.sample(rng, rng.randint(0, 5), bound)
        g = HPOLY.sample(rng, rng.randint(0, 4), bound)
        q, r = f.divmod_right(g)
        if q * g + r != f or not r.degree < g.degree:
            fails += 1
            continue
        q, r = f.divmod_left(g)
        if g * q + r != f or not r.degree < g.degree:
            fails += 1
    return CheckResult("one-sided division", fails, n)


def check_lcrm(rng: random.Random, n: int = 500,
               bound: int = 5) -> CheckResult:
    """lcrm witnesses: m = x*u = y*v nonzero, monic, of minimal degree.

    Minimality via deg m = deg x + deg y - deg gcld(x, y); a third of
    the pairs get a planted common left factor so the gcld is
    genuinely nontrivial.
    """
    fails = 0
    for m_idx in range(n):
        if m_idx % 3 == 0:
            c = HPOLY.sample(rng, rng.randint(1, 2), bound)
            x = c * HPOLY.sample(rng, rng.randint(0, 3), bound)
            y = c * HPOLY.sample(rng, rng.randint(0, 3), bound)
        else:
            x = HPOLY.sample(rng, rng.randint(0, 5), bound)
            y = HPOLY.sample(rng, rng.randint(0, 5), bound)
        if not x or not y:
            continue
        m, u, v = lcrm_with_cofactors(x, y)
        ok = (bool(m) and m.is_monic() and x * u == m and y * v == m
              and m.degree == x.degree + y.degree - gcld(x, y).degree)
        if not ok:
            fails += 1
    return CheckResult("least common right multiples", fails, n)


def check_gcrd(rng: random.Random, n: int = 300,
               bound: int = 5) -> CheckResult:
    """gcrd right-divides both inputs and is divisible by planted factors."""
    fails = 0
    for _ in range(n):
        c = HPOLY.sample(rng, rng.randint(1, 2), bound)
        x = HPOLY.sample(rng, rng.randint(0, 2), bound) * c
        y = HPOLY.sample(rng, rng.randint(0, 2), bound) * c
        if not x or not y:
            continue
        g = gcrd(x, y)
        _, r1 = x.divmod_right(g)
        _, r2 = y.divmod_right(g)
        _, r3 = g.divmod_right(c)
        if r1 or r2 or r3 or not g.is_monic():
            fails += 1
    return CheckResult("greatest common right divisors", fails, n)


# ---------------------------------------------------------------------------
# fractions suite
# ---------------------------------------------------------------------------

def check_fraction_axioms(rng: random.Random, n: int = 300,
                          bound: int = 3) -> CheckResult:
    """Division-ring axioms in H_c(t) on random triples, degree <= 3."""
    fails = 0
    for _ in range(n):
        x, y, z = (_rand_fraction(rng, 3, bound) for _ in range(3))
        ok = ((x + y) + z == x + (y + z)
              and x + y == y + x
              and (x * y) * z == x * (y * z)
              and x * (y + z) == x * y + x * z
              and (x + y) * z == x * z + y * z
              and x + HFRAC.zero == x and x * HFRAC.one == x)
        if ok and x:
            ix = x.inverse()
            ok = x * ix == HFRAC.one and ix * x == HFRAC.one
        # canonical-form uniqueness: the subtraction-based comparison
        # agrees with structural equality of reduced forms, and
        # (a*c)(b*c)^-1 lands on the same canonical pair as a*b^-1
        if ok:
            c = HPOLY.sample(rng, rng.randint(1, 2), bound)
            blown = HFRAC(x.num * c, x.den * c)
            ok = (x.same_value(y) == x.structurally_equal(y)
                  and (x - x).structurally_equal(HFRAC.zero)
                  and blown.structurally_equal(x) and blown == x)
        if not ok:
            fails += 1
    return CheckResult("fraction field axioms", fails, n)


def check_center(rng: random.Random, n: int = 200,
                 bound: int = 3) -> CheckResult:
    """is_central iff the i, j, k components vanish."""
    fails = 0
    for m in range(n):
        kind = m % 3
        if kind == 0:       # built from Q(t): central
            x = _rand_central_fraction(rng, bound)
        elif kind == 1:     # i * central != 0: never central
            c = _rand_central_fraction(rng, bound)
            while not c:
                c = _rand_central_fraction(rng, bound)
            x = HFRAC.embed(HPOLY.constant(I)) * c
        else:
            x = _rand_fraction(rng, 2, bound)
        parts = component_decompose(x)
        expect = not parts[1] and not parts[2] and not parts[3]
        if x.is_central() != expect:
            fails += 1
            continue
        if kind == 0 and not x.is_central():
            fails += 1
        if kind == 1 and x.is_central():
            fails += 1
    return CheckResult("center membership", fails, n)


def check_components(rng: random.Random, n: int = 300,
                     bound: int = 3) -> CheckResult:
    """decompose/recompose identity; centralized denominators rational."""
    fails = 0
    for _ in range(n):
        x = _rand_fraction(rng, 2, bound)
        parts = component_decompose(x)
        if any(p.field is not QFRAC for p in parts):
            fails += 1
            continue
        if component_recompose(parts) != x:
            fails += 1
            continue
        _, cden = centralize_denominator(x)
        if not all(c.is_rational() for c in cden.coeffs):
            fails += 1
    return CheckResult("component decomposition", fails, n)


def check_embedding(rng: random.Random, n: int = 200,
                    bound: int = 4) -> CheckResult:
    """f -> f * 1^-1 is a ring homomorphism."""
    fails = 0
    for _ in range(n):
        f = HPOLY.sample(rng, rng.randint(0, 3), bound)
        g = HPOLY.sample(rng, rng.randint(0, 3), bound)
        if (HFRAC.embed(f) + HFRAC.embed(g) != HFRAC.embed(f + g)
                or HFRAC.embed(f) * HFRAC.embed(g) != HFRAC.embed(f * g)):
            fails += 1
    return CheckResult("polynomial embedding", fails, n)


# ---------------------------------------------------------------------------
# tower suite
# ---------------------------------------------------------------------------

def check_tower_axioms(rng: random.Random, n: int = 100, bound: int = 2,
                       limit: int = DEFAULT_DEPTH_LIMIT) -> CheckResult:
    """Depth-2 field axioms; degree <= 2 at each level."""
    F2 = tower_field(2, limit)
    fails = 0
    for m in range(n):
        rich = m % 5 < 2    # 40%: one element gets a genuine denominator
        x = _rand_tower2(rng, F2, bound, fraction=rich and m % 3 == 0)
        y = _rand_tower2(rng, F2, bound, fraction=rich and m % 3 == 1)
        z = _rand_tower2(rng, F2, bound, fraction=rich and m % 3 == 2)
        ok = ((x + y) + z == x + (y + z)
              and x + y == y + x
              and (x * y) * z == x * (y * z)
              and x * (y + z) == x * y + x * z
              and (x + y) * z == x * z + y * z)
        if ok and x:
            ix = x.inverse()
            ok = x * ix == F2.one and ix * x == F2.one
        if not ok:
            fails += 1
    return CheckResult("depth-2 field axioms", fails, n)


def check_tower_centrality(rng: random.Random, n: int = 20, bound: int = 2,
                           limit: int = DEFAULT_DEPTH_LIMIT) -> CheckResult:
    """t1 and t2 commute with random depth-2 elements; i, j do not
    commute with each other after embedding."""
    F2 = tower_field(2, limit)
    t1, t2 = tower_variable(2, 1, limit), tower_variable(2, 2, limit)
    qi, qj = tower_constant(2, I, limit), tower_constant(2, J, limit)
    fails = 0
    if qi * qj == qj * qi or qi * qj != tower_constant(2, K, limit):
        fails += 1
    for _ in range(n):
        x = _rand_tower2(rng, F2, bound, fraction=False)
        if t1 * x != x * t1 or t2 * x != x * t2:
            fails += 1
    return CheckResult("depth-2 central variables", fails, n + 1)


def check_tower_depth3(rng: random.Random,
                       limit: int = DEFAULT_DEPTH_LIMIT) -> CheckResult:
    """Fixed depth-3 smoke test: variables central, arithmetic sane."""
    F3 = tower_field(3, limit)
    u1, u2, u3 = (tower_variable(3, l, limit) for l in (1, 2, 3))
    qi = tower_constant(3, I, limit)
    one = tower_constant(3, ONE, limit)
    checks = [
        u1 * u3 == u3 * u1,
        u2 * u3 == u3 * u2,
        qi * u3 == u3 * qi,
        (u3 - qi) * (u3 + qi) == u3 * u3 + one,
        (u1 + u2 + u3).is_central(),
        not qi.is_central(),
        (u3 + one).inverse() * (u3 + one) == F3.one,
    ]
    fails = sum(1 for c in checks if not c)
    return CheckResult("depth-3 smoke", fails, len(checks))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _rand_free(rng, max_xdeg, nwords, bound) -> FreeExpr:
    words = []
    for _ in range(nwords):
        m = rng.randint(0, max_xdeg) if max_xdeg else 0
        words.append(tuple(rand_quaternion(rng, bound) for _ in range(m + 1)))
    return FreeExpr(words)


def _rand_multipoly(rng, deg, nterms, bound) -> MultiPoly:
    terms = []
    for _ in range(nterms):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(0, deg)):
            e[rng.randint(0, 3)] += 1
        terms.append((tuple(e), rand_quaternion(rng, bound)))
    return MultiPoly(terms)


def _rand_fraction(rng, deg, bound) -> RightFraction:
    num = HPOLY.sample(rng, rng.randint(0, deg), bound)
    den = HPOLY.sample(rng, rng.randint(0, deg), bound)
    while not den:
        den = HPOLY.sample(rng, rng.randint(0, deg), bound)
    return HFRAC(num, den)


def _rand_central_fraction(rng, bound) -> RightFraction:
    def rational_poly(deg):
        return HPOLY.poly([quat(Fraction(rng.randint(-bound, bound),
                                         rng.randint(1, bound)))
                           for _ in range(deg + 1)])
    num = rational_poly(rng.randint(0, 2))
    den = rational_poly(rng.randint(0, 2))
    while not den:
        den = rational_poly(rng.randint(0, 2))
    return HFRAC(num, den)


def _int_quat(rng, bound) -> Quaternion:
    return Quaternion(rng.randint(-bound, bound), rng.randint(-bound, bound),
                      rng.randint(-bound, bound), rng.randint(-bound, bound))


def _rand_tower2(rng, F2, bound, fraction: bool) -> RightFraction:
    """Depth-2 sample: degree <= 2 over degree <= 2 in t2, level-1
    coefficients of degree <= 2 in t1 and integer coordinates.

    Coefficients are mostly constants or t1-polynomials; each element
    carries at most one genuinely fractional level-1 coefficient, and
    only `fraction` elements get a nonconstant t2-denominator —
    anything richer makes the compounded level-1 denominators explode
    far beyond what an axiom check needs.
    """
    L1 = F2.ring.coeff
    R1 = L1.ring

    def l1_coeff(allow_frac: bool):
        r = rng.random()
        if r < 0.5:
            return L1(R1.constant(_int_quat(rng, bound)))
        if r < 0.85 or not allow_frac:
            return L1(R1.poly([_int_quat(rng, 1)
                               for _ in range(rng.randint(1, 3))]))
        num = R1.poly([_int_quat(rng, 1) for _ in range(rng.randint(1, 2))])
        den = R1.poly([_int_quat(rng, 1), ONE])
        if not num:
            num = R1.one
        return L1(num, den)

    frac_budget = 1

    def l1(allow=True):
        nonlocal frac_budget
        c = l1_coeff(allow and frac_budget > 0)
        if not c.is_polynomial():
            frac_budget -= 1
        return c

    num = CentralPoly(F2.ring, tuple(l1() for _ in range(rng.randint(1, 3))))
    if fraction:
        den = CentralPoly(F2.ring, tuple(l1(False) for _ in range(2)))
        while not den:
            den = CentralPoly(F2.ring, (l1(False), L1.one))
    else:
        den = F2.ring.one
    return F2(num, den)


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

SUITES = {
    "identities": (check_re_identity, check_coordinate_functions,
                   check_eval_compat),
    "ore": (check_degree_additivity, check_division, check_lcrm, check_gcrd),
    "fractions": (check_fraction_axioms, check_center, check_components,
                  check_embedding),
    "roundtrip": (check_sigma_phi, check_phi_sigma, check_witness_search,
                  check_ideal_members),
    "tower": (check_tower_axioms, check_tower_centrality, check_tower_depth3),
}
SUITE_ORDER = ("identities", "ore", "fractions", "roundtrip", "tower")


def run_suite(name: str, seed: int = 0, max_coeff: int | None = None,
              depth_limit: int | None = None) -> tuple[list[str], bool]:
    """Run one suite (or 'all'); returns (report lines, all passed).

    max_coeff overrides each check's coefficient bound; depth_limit
    overrides the tower depth cap (lowering it below 3 makes the
    depth-3 smoke check raise DepthExceededError).
    """
    if name == "all":
        names = SUITE_ORDER
    elif name in SUITES:
        names = (name,)
    else:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from "
            f"{', '.join(SUITE_ORDER)} or all")
    lines = []
    ok = True
    for suite in names:
        for check in SUITES[suite]:
            params = inspect.signature(check).parameters
            kw = {}
            if max_coeff is not None and "bound" in params:
                kw["bound"] = max_coeff
            if depth_limit is not None and "limit" in params:
                kw["limit"] = depth_limit
            result = check(random.Random(f"{seed}:{check.__name__}"), **kw)
            lines.append(f"[{suite}] {result.line()}")
            ok = ok and result.ok
    lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
    return lines, ok
