"""Exact rational scalars and rational quaternions.

Rationals are the stdlib Fraction: arbitrary-precision numerator over a
positive denominator, always in lowest terms, with structural equality.

A Quaternion is a + b*i + c*j + d*k with rational coordinates and the
Hamilton relations i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j.  The
norm form a^2 + b^2 + c^2 + d^2 has no nontrivial rational zeros, so
every nonzero element is invertible and the ring is a division ring.

Internally a quaternion is four integer numerators over one shared
positive denominator with gcd(a, b, c, d, den) == 1.  That keeps the
hot multiplication path on plain integers; the per-coordinate Fraction
views are exposed as properties (re, im_i, im_j, im_k).

Every exact element type of the package (Quaternion, CentralPoly,
RightFraction, MultiPoly, FreeExpr) derives from RingElement.  A type
writes its own +, unary -, * and _coerce, which maps an operand to an
element of the same ring, or to None when the ring does not take it;
_coerce(1) is the ring's one.  RingElement derives - and the reflected
- and * from those, and ** for n >= 0 through `power`, so each takes
exactly the operands + and * take.  DivisionRingElement adds, for the
types with inverse(), the right quotient a / b = a * b^-1 and negative
powers.  Every type prints a sum through signed_sum, the one sign rule.

The module also defines DivisionRing, the small operation bundle that
the generic polynomial and fraction machinery is parameterized over,
with the two base instances QQ (rationals) and HH (quaternions).  Its
coerce(value) is the one way a value enters a ring: it returns the
element or None.  HH.coerce is Quaternion._coerce, and the polynomial
and fraction types delegate to their coefficient ring's coerce, so a
value of any lower tower level lifts through every level above it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from operator import sub, truediv


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply; `one` when n == 0.

    Shared by every exact ring type here.  It starts from the lowest set
    bit instead of multiplying into `one`, and squares the base only
    while higher bits remain.
    """
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return one if result is None else result
        base = base * base


class RingElement:
    """The operators an exact ring type derives from +, unary -, * and
    _coerce (see the module docstring)."""

    __slots__ = ()

    def __sub__(self, value):
        other = self._coerce(value)
        if other is None:
            return self._lifted(value, sub)
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        # power returns the one only for n == 0, so build it only then
        return power(self, n, self._coerce(1) if n == 0 else None)

    def _lifted(self, value, op):
        """op(self, value) in value's ring, or NotImplemented if it does not
        take self: a forward operator whose _coerce refused `value` ends
        here, as two tower levels share one type and Python then never
        tries the reflected operator."""
        lifted = value._coerce(self) if isinstance(value, RingElement) else None
        return NotImplemented if lifted is None else op(lifted, value)


class DivisionRingElement(RingElement):
    """A RingElement with inverse(): right quotients and negative powers."""

    __slots__ = ()

    def __truediv__(self, value):
        # Right quotient a * b^-1; the only division this package uses.
        other = self._coerce(value)
        if other is None:
            return self._lifted(value, truediv)
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if isinstance(n, int) and n < 0:
            return self.inverse() ** -n
        return super().__pow__(n)


class Quaternion(DivisionRingElement):
    """Immutable exact rational quaternion."""

    __slots__ = ("_a", "_b", "_c", "_d", "_den")

    def __init__(self, re=0, im_i=0, im_j=0, im_k=0):
        ra, rb, rc, rd = (_as_fraction(re), _as_fraction(im_i),
                          _as_fraction(im_j), _as_fraction(im_k))
        den = 1
        for r in (ra, rb, rc, rd):
            den = den * r.denominator // gcd(den, r.denominator)
        a = ra.numerator * (den // ra.denominator)
        b = rb.numerator * (den // rb.denominator)
        c = rc.numerator * (den // rc.denominator)
        d = rd.numerator * (den // rd.denominator)
        g = gcd(a, b, c, d, den)
        if g > 1:
            a //= g; b //= g; c //= g; d //= g; den //= g
        self._a = a; self._b = b; self._c = c; self._d = d; self._den = den

    @classmethod
    def _raw(cls, a: int, b: int, c: int, d: int, den: int) -> "Quaternion":
        # den > 0 required; normalizes the shared gcd.
        g = gcd(a, b, c, d, den)
        if g > 1:
            a //= g; b //= g; c //= g; d //= g; den //= g
        self = object.__new__(cls)
        self._a = a; self._b = b; self._c = c; self._d = d; self._den = den
        return self

    # -- coordinate views ------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def im_i(self) -> Fraction:
        return Fraction(self._b, self._den)

    @property
    def im_j(self) -> Fraction:
        return Fraction(self._c, self._den)

    @property
    def im_k(self) -> Fraction:
        return Fraction(self._d, self._den)

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.re, self.im_i, self.im_j, self.im_k)

    def is_rational(self) -> bool:
        """True when the i, j, k coordinates all vanish."""
        return self._b == 0 and self._c == 0 and self._d == 0

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        ds, do = self._den, other._den
        if ds == do:
            return Quaternion._raw(self._a + other._a, self._b + other._b,
                                   self._c + other._c, self._d + other._d, ds)
        return Quaternion._raw(self._a * do + other._a * ds,
                               self._b * do + other._b * ds,
                               self._c * do + other._c * ds,
                               self._d * do + other._d * ds, ds * do)

    __radd__ = __add__

    def __neg__(self):
        q = object.__new__(Quaternion)
        q._a = -self._a; q._b = -self._b; q._c = -self._c; q._d = -self._d
        q._den = self._den
        return q

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a1, b1, c1, d1 = self._a, self._b, self._c, self._d
            a2, b2, c2, d2 = other._a, other._b, other._c, other._d
            return Quaternion._raw(
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
                self._den * other._den)
        if isinstance(other, int):
            return Quaternion._raw(self._a * other, self._b * other,
                                   self._c * other, self._d * other, self._den)
        if isinstance(other, Fraction):
            n, m = other.numerator, other.denominator
            return Quaternion._raw(self._a * n, self._b * n, self._c * n,
                                   self._d * n, self._den * m)
        return NotImplemented

    def __rmul__(self, other):
        # Only reached for scalars, which are central, so reuse __mul__.
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    @staticmethod
    def _coerce(value):
        if isinstance(value, Quaternion):
            return value
        if isinstance(value, int):
            return Quaternion._raw(value, 0, 0, 0, 1)
        if isinstance(value, Fraction):
            return Quaternion._raw(value.numerator, 0, 0, 0, value.denominator)
        return None

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q)/norm(q); raises on zero."""
        n = self._a * self._a + self._b * self._b + self._c * self._c + self._d * self._d
        if n == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        den = self._den
        return Quaternion._raw(self._a * den, -self._b * den,
                               -self._c * den, -self._d * den, n)

    # -- involution and norm ----------------------------------------------

    def conjugate(self) -> "Quaternion":
        q = object.__new__(Quaternion)
        q._a = self._a; q._b = -self._b; q._c = -self._c; q._d = -self._d
        q._den = self._den
        return q

    def norm(self) -> Fraction:
        """q * conj(q) as a nonnegative rational, zero iff q == 0."""
        n = self._a * self._a + self._b * self._b + self._c * self._c + self._d * self._d
        return Fraction(n, self._den * self._den)

    # -- structure ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b or self._c or self._d)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self._a == other._a and self._b == other._b and
                self._c == other._c and self._d == other._d and
                self._den == other._den)

    def __hash__(self) -> int:
        # a rational quaternion equals its int/Fraction, so hashes like it
        if self.is_rational():
            return hash(self.re)
        return hash((self._a, self._b, self._c, self._d, self._den))

    def __str__(self) -> str:
        """`a + b*i + c*j + d*k` without zero terms, joined by signed_sum."""
        return signed_sum(
            (num < 0, _coord_str(abs(num), self._den, sym))
            for num, sym in ((self._a, ""), (self._b, "i"),
                             (self._c, "j"), (self._d, "k")) if num)

    def __repr__(self) -> str:
        return f"Quaternion({str(self)!r})"



def _coord_str(num: int, den: int, sym: str) -> str:
    f = Fraction(num, den)
    if not sym:
        return str(f)
    if f == 1:
        return sym
    return f"{f}*{sym}"


def signed_sum(terms) -> str:
    """Join (negative, text) terms as `a - b + c`, `0` when there are none:
    the sign rule of every printer of the package."""
    out = []
    for neg, text in terms:
        if out:
            out.append(" - " if neg else " + ")
        elif neg:
            out.append("-")
        out.append(text)
    return "".join(out) if out else "0"


def signed_term(text: str) -> tuple[bool, str]:
    """A printed constant as a term of a longer sum: its leading '-'
    belongs to its first summand only and becomes the joining sign
    (`x + (-1 + i)` prints `x - 1 + i`)."""
    return (True, text[1:]) if text.startswith("-") else (False, text)


def is_simple(text: str) -> bool:
    """No additive structure (safe as a bare left factor of '*')."""
    return ("+" not in text) and ("-" not in text) and (" " not in text)


_coerce = Quaternion._coerce

ZERO = Quaternion()
ONE = Quaternion(1)
I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)


quat = Quaternion


# ---------------------------------------------------------------------------
# Division-ring descriptors
# ---------------------------------------------------------------------------

class DivisionRing:
    """Operation bundle for a coefficient domain.

    Elements are plain values supporting +, -, *, ==, bool; the
    descriptor supplies the constants, inversion, coercion and seeded
    sampling that generic code needs on top of that.
    """

    name: str
    zero: object
    one: object

    def inv(self, a):
        return a.inverse()

    def coerce(self, value):
        """value as an element of this ring, or None when the ring does
        not take it."""
        raise NotImplementedError

    def sample(self, rng: random.Random, bound: int):
        """Deterministic random element with coordinate size <= bound."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


class RationalField(DivisionRing):
    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def inv(self, a: Fraction) -> Fraction:
        return 1 / a

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        return None

    def sample(self, rng, bound):
        return rand_rational(rng, bound)


class QuaternionDivisionRing(DivisionRing):
    name = "HH"
    zero = ZERO
    one = ONE
    coerce = staticmethod(_coerce)

    def sample(self, rng, bound):
        return rand_quaternion(rng, bound)


QQ = RationalField()
HH = QuaternionDivisionRing()


# ---------------------------------------------------------------------------
# Seeded sampling
# ---------------------------------------------------------------------------

def rand_rational(rng: random.Random, bound: int = 10) -> Fraction:
    """Random fraction with |numerator| <= bound and denominator <= bound."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_quaternion(rng: random.Random, bound: int = 10) -> Quaternion:
    return Quaternion(rand_rational(rng, bound), rand_rational(rng, bound),
                      rand_rational(rng, bound), rand_rational(rng, bound))


def rand_nonzero_quaternion(rng: random.Random, bound: int = 10) -> Quaternion:
    while True:
        q = rand_quaternion(rng, bound)
        if q:
            return q
