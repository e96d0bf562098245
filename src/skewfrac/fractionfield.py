"""Right fractions over a central skew polynomial ring.

D_c[t] satisfies the right Ore condition — any two nonzero elements
have a common right multiple — so it embeds in a division ring of
right fractions num * den^-1.  Every fraction here is kept in the
canonical reduced form: gcrd(num, den) = 1 and den monic.  Reduction
happens in the constructor; uniqueness of the canonical form is a
tested property (same_value gives the order-theoretic comparison via
a common right multiple, and the test suites check it agrees with
structural equality of canonical forms).

The sided conventions, fixed throughout:

  reduce   (n*g)(d*g)^-1 == n*d^-1           (strip gcrd on the right)
  rescale  (n*c)(d*c)^-1 == n*d^-1, c != 0   (monic denominator)
  add      a*b^-1 + c*d^-1 == (a*u + c*v)*m^-1, m = lcrm(b,d) = b*u = d*v
  mul      a*b^-1 * c*d^-1 == (a*s)*(d*r)^-1, lcrm(c,b) = c*r = b*s
           (from b^-1*c == s*r^-1)
  inv      (a*b^-1)^-1 == b*a^-1

A FractionField is itself a DivisionRing, so a polynomial ring can be
built over it; iterating gives the nested fraction fields in
`tower` (one new central variable per level).  Its coerce takes its
own fractions and, through the polynomial ring, whatever the
coefficient field's coerce takes, so values of every level below lift
in one call.
"""

from __future__ import annotations

from operator import add, mul

from .centralpoly import CentralPoly, PolyRing, gcrd, lcrm_with_cofactors
from .quaternion import (HH, ONE, QQ, DivisionRing, DivisionRingElement, I, J,
                         K, Quaternion, is_simple)


class FractionField(DivisionRing):
    """The right fraction division ring of a PolyRing."""

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.name = f"Frac({ring.coeff.name}_c[{ring.var}])"
        self.zero = RightFraction(self, ring.zero, ring.one, _reduced=True)
        self.one = RightFraction(self, ring.one, ring.one, _reduced=True)
        self.coerce = self.one._coerce
        # Commuting with i and j already forces all quaternion components
        # into the rational-function center, at every tower depth; over
        # a commutative base neither lifts and there is nothing to test.
        lifted = (self.coerce(I), self.coerce(J))
        self.central_tests = tuple(c for c in lifted if c is not None)

    def __call__(self, num, den=1) -> "RightFraction":
        """Build num * den^-1, canonicalizing; num and den may be anything
        the ring's operations take (int, Fraction, a polynomial of the
        ring, a value of any level below)."""
        coerce = self.ring.one._coerce
        n, d = coerce(num), coerce(den)
        if n is None or d is None:
            raise TypeError(f"cannot build an element of {self.name} "
                            f"from {num!r} and {den!r}")
        return RightFraction(self, n, d)

    def embed(self, poly: CentralPoly) -> "RightFraction":
        return RightFraction(self, poly, self.ring.one, _reduced=True)

    @property
    def t(self) -> "RightFraction":
        return RightFraction(self, self.ring.t, self.ring.one, _reduced=True)

    def sample(self, rng, bound) -> "RightFraction":
        # small shapes: deep towers multiply work per level
        num = self.ring.sample(rng, rng.randint(0, 1), bound)
        den = self.ring.sample(rng, rng.randint(0, 1), bound)
        while not den:
            den = self.ring.sample(rng, 1, bound)
        return RightFraction(self, num, den)


class RightFraction(DivisionRingElement):
    """num * den^-1 with gcrd(num, den) = 1 and den monic."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FractionField, num: CentralPoly, den: CentralPoly,
                 _reduced: bool = False):
        if not den:
            raise ZeroDivisionError("fraction with zero denominator")
        if not _reduced:
            num, den = _reduce(num, den)
        self.field = field
        self.num = num
        self.den = den

    # -- structure ---------------------------------------------------------

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        # structural fast path; subtraction-to-zero is the definition
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        return not (self - other)

    def __hash__(self) -> int:
        # a polynomial (denominator 1) equals its numerator, so hashes like it
        if self.den.is_constant():
            return hash(self.num)
        return hash((self.num, self.den))

    def same_value(self, other: "RightFraction") -> bool:
        """Equality a*b^-1 == c*d^-1 checked over a common right
        multiple of the denominators, independent of canonical forms.
        Tests cross-check this against structural equality of the
        reduced representations."""
        if not self.num or not other.num:
            return (not self.num) and (not other.num)
        m, u, v = lcrm_with_cofactors(self.den, other.den)
        return self.num * u == other.num * v

    def structurally_equal(self, other: "RightFraction") -> bool:
        return self.num == other.num and self.den == other.den

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, value):
        other = self._coerce(value)
        if other is None:
            return self._lifted(value, add)
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return RightFraction(self.field, self.num + other.num, self.den)
        if self.den.is_constant():        # den == 1 (monic constant)
            return RightFraction(self.field,
                                 self.num * other.den + other.num, other.den)
        if other.den.is_constant():
            return RightFraction(self.field,
                                 self.num + other.num * self.den, self.den)
        m, u, v = lcrm_with_cofactors(self.den, other.den)
        return RightFraction(self.field, self.num * u + other.num * v, m)

    __radd__ = __add__

    def __neg__(self):
        return RightFraction(self.field, -self.num, self.den, _reduced=True)

    def __mul__(self, value):
        other = self._coerce(value)
        if other is None:
            return self._lifted(value, mul)
        if not self.num or not other.num:
            return self.field.zero
        if self.den.is_constant():        # den == 1: plain left factor
            return RightFraction(self.field, self.num * other.num, other.den)
        if other.num.is_constant():
            # b^-1 * c == c * (c^-1 b c)^-1 for a constant c: conjugate
            # the denominator coefficientwise instead of running Euclid
            c = other.num.constant_value()
            c_inv = self.field.ring.coeff.inv(c)
            conj_den = self.den.scale_left(c_inv).scale_right(c)
            return RightFraction(self.field, self.num.scale_right(c),
                                 other.den * conj_den)
        # b^-1 * c  ==  s * r^-1  where  c*r == b*s == lcrm(c, b)
        _, r, s = lcrm_with_cofactors(other.num, self.den)
        return RightFraction(self.field, self.num * s, other.den * r)

    def inverse(self) -> "RightFraction":
        # self is reduced, and right divisors of {num, den} don't care
        # about order, so (den, num) is already reduced: only the new
        # denominator's leading unit needs normalizing.
        if not self.num:
            raise ZeroDivisionError("zero fraction has no inverse")
        if self.num.is_monic():
            return RightFraction(self.field, self.den, self.num, _reduced=True)
        c = self.field.ring.coeff.inv(self.num.lead())
        return RightFraction(self.field, self.den.scale_right(c),
                             self.num.scale_right(c), _reduced=True)

    def _coerce(self, value):
        if isinstance(value, RightFraction) and value.field is self.field:
            return value
        # anything else the ring takes, a value of any level below
        # included, is embedded as a polynomial
        poly = self.field.ring.one._coerce(value)
        return None if poly is None else self.field.embed(poly)

    # -- centrality ---------------------------------------------------------

    def is_central(self) -> bool:
        """Whether self commutes with the whole field.

        It suffices to commute with the chosen test constants: the
        centralizer of the coefficient generators together with the
        inner variables is exactly the center (rational functions of
        the central variables over Q).
        """
        return all(self * c == c * self for c in self.field.central_tests)

    def __str__(self) -> str:
        """`num / (den)`, or num for a polynomial; the signs inside are
        joined by quaternion.signed_sum."""
        if self.den.is_constant():
            return str(self.num)
        num_s = str(self.num)
        if not is_simple(num_s):
            num_s = f"({num_s})"
        return f"{num_s} / ({self.den})"

    def __repr__(self) -> str:
        return f"<{self.field.name}: {self}>"


def _reduce(num: CentralPoly, den: CentralPoly):
    ring = num.ring
    if not num:
        return ring.zero, ring.one
    if den.is_constant():
        # unit denominator: absorb it into the numerator
        c = ring.coeff.inv(den.constant_value())
        return num.scale_right(c), ring.one
    if not num.is_constant():       # a constant numerator is a unit
        g = gcrd(num, den)
        if g.degree > 0:
            num, _ = num.divmod_right(g)
            den, _ = den.divmod_right(g)
    if not den.is_monic():
        c = ring.coeff.inv(den.lead())
        num = num.scale_right(c)
        den = den.scale_right(c)
    return num, den


# ---------------------------------------------------------------------------
# Quaternion-specific structure: centralization and components
# ---------------------------------------------------------------------------

def conj_poly(p: CentralPoly) -> CentralPoly:
    """Coefficientwise quaternion conjugate."""
    return CentralPoly(p.ring, tuple(c.conjugate() for c in p.coeffs))


def centralize_denominator(x: RightFraction):
    """Rewrite num*den^-1 with a rational-coefficient denominator.

    den * conj(den) has rational coefficients: the t^n coefficient is
    sum a_m * conj(a_l) over m+l = n, and each (m,l)/(l,m) pair sums
    to 2*Re(a_m * conj(a_l)).  Returns the un-reduced pair
    (num * conj(den), den * conj(den)); the second is central.
    """
    n = x.num * conj_poly(x.den)
    d = x.den * conj_poly(x.den)
    return n, d


QPOLY = PolyRing(QQ, "t")
QFRAC = FractionField(QPOLY)
HPOLY = PolyRing(HH, "t")
HFRAC = FractionField(HPOLY)


def _to_rational_poly(p: CentralPoly, coord: int) -> CentralPoly:
    return CentralPoly(QPOLY, tuple(c.coords()[coord] for c in p.coeffs))


def component_decompose(x: RightFraction):
    """Split an HFRAC element into four QFRAC coordinates.

    x == c1 + c2*i + c3*j + c4*k with each c_l a rational function of
    t.  Works by centralizing the denominator, then splitting the
    numerator coordinatewise; the rational denominator is shared.
    """
    if x.field is not HFRAC:
        raise TypeError("component decomposition is for quaternion fractions")
    n, d = centralize_denominator(x)
    dq = _to_rational_poly(d, 0)  # central, so purely rational
    return tuple(RightFraction(QFRAC, _to_rational_poly(n, coord), dq)
                 for coord in range(4))


def component_recompose(parts) -> RightFraction:
    """Inverse of component_decompose: HFRAC element c1 + c2 i + c3 j + c4 k."""
    total = HFRAC.zero
    for part, unit in zip(parts, (ONE, I, J, K)):
        num = CentralPoly(HPOLY, tuple(Quaternion(c) * unit for c in part.num.coeffs))
        den = CentralPoly(HPOLY, tuple(Quaternion(c) for c in part.den.coeffs))
        total = total + RightFraction(HFRAC, num, den)
    return total
