"""Polynomials in one central variable over a division ring.

Elements of D_c[t] are finite sums sum_n a_n t^n with a_n in D and t
commuting with every coefficient, stored as a dense coefficient tuple
(constant term first).  Coefficients need not commute with each other,
so left and right division are distinct; both are implemented, along
with greatest common right/left divisors and least common right/left
multiples, which is everything the right fraction field needs.  One
body, given the side, serves both versions of each algorithm: the left
one is the right one with every product reversed (the opposite ring).

Degree is additive on products (lead coefficients multiply to a
nonzero lead since D has no zero divisors), so the ring has no zero
divisors and degree arguments work as over a field.  The zero
polynomial has degree -infinity.
"""

from __future__ import annotations

from operator import add, mul
from typing import Sequence

from .quaternion import (DivisionRing, RingElement, is_simple, signed_sum,
                         signed_term)

NEG_INF = float("-inf")


class PolyRing:
    """Descriptor for D_c[var] over the coefficient ring `coeff`."""

    __slots__ = ("coeff", "var", "zero", "one", "t")

    def __init__(self, coeff: DivisionRing, var: str = "t"):
        self.coeff = coeff
        self.var = var
        self.zero = CentralPoly(self, ())
        self.one = CentralPoly(self, (coeff.one,))
        self.t = CentralPoly(self, (coeff.zero, coeff.one))

    def poly(self, coeffs: Sequence) -> "CentralPoly":
        """Build from a coefficient sequence, constant term first."""
        return CentralPoly(self, tuple(coeffs))

    def constant(self, a) -> "CentralPoly":
        return CentralPoly(self, (a,))

    def sample(self, rng, deg: int, bound: int) -> "CentralPoly":
        """Random polynomial of degree exactly `deg` (deg < 0 gives 0)."""
        if deg < 0:
            return self.zero
        coeffs = [self.coeff.sample(rng, bound) for _ in range(deg + 1)]
        while not coeffs[-1]:
            coeffs[-1] = self.coeff.sample(rng, bound)
        return CentralPoly(self, tuple(coeffs))

    def __repr__(self):
        return f"{self.coeff!r}_c[{self.var}]"


class CentralPoly(RingElement):
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: PolyRing, coeffs: tuple):
        # strip trailing zeros so equality is structural
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self.ring = ring
        self.coeffs = coeffs[:n]

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, n: int):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return self.ring.coeff.zero

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self):
        return self.coeffs[0] if self.coeffs else self.ring.coeff.zero

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.coeff.one

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CentralPoly) or other.ring is not self.ring:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant equals its coefficient, so hashes like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash((id(self.ring), self.coeffs))

    # -- ring operations ----------------------------------------------------

    def __add__(self, value):
        other = self._coerce(value)
        if other is None:
            return self._lifted(value, add)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for n, c in enumerate(b):
            merged[n] = merged[n] + c
        return CentralPoly(self.ring, tuple(merged))

    __radd__ = __add__

    def __neg__(self):
        return CentralPoly(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, value):
        other = self._coerce(value)
        if other is None:
            return self._lifted(value, mul)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self.ring.zero
        zero = self.ring.coeff.zero
        out = [zero] * (len(a) + len(b) - 1)
        for m, am in enumerate(a):
            if not am:
                continue
            for n, bn in enumerate(b):
                if bn:
                    out[m + n] = out[m + n] + am * bn
        return CentralPoly(self.ring, tuple(out))

    def scale_left(self, a) -> "CentralPoly":
        return CentralPoly(self.ring, tuple(a * c for c in self.coeffs))

    def scale_right(self, a) -> "CentralPoly":
        return CentralPoly(self.ring, tuple(c * a for c in self.coeffs))

    def _coerce(self, value):
        if isinstance(value, CentralPoly) and value.ring is self.ring:
            return value
        # anything the coefficient ring takes is a constant
        c = self.ring.coeff.coerce(value)
        return None if c is None else CentralPoly(self.ring, (c,))

    # -- division -----------------------------------------------------------

    def divmod_right(self, g: "CentralPoly"):
        """q, r with self == q*g + r and deg r < deg g."""
        return self._divmod(g, True)

    def divmod_left(self, g: "CentralPoly"):
        """q, r with self == g*q + r and deg r < deg g."""
        return self._divmod(g, False)

    def _divmod(self, g: "CentralPoly", right: bool):
        # Each step drops the top of the remainder, which the quotient
        # coefficient c cancels, and subtracts c times the rest of g.
        if not g:
            raise ZeroDivisionError("division by the zero polynomial")
        ring = self.ring
        inv_lead = ring.coeff.inv(g.lead())
        low = g.coeffs[:-1]
        dg = len(low)
        rem = list(self.coeffs)
        q = [ring.coeff.zero] * max(len(rem) - dg, 0)
        while len(rem) > dg:
            top = rem.pop()
            if not top:
                continue
            shift = len(rem) - dg
            if right:
                c = top * inv_lead
                rem[shift:] = [a - c * b for a, b in zip(rem[shift:], low)]
            else:
                c = inv_lead * top
                rem[shift:] = [a - b * c for a, b in zip(rem[shift:], low)]
            q[shift] = c
        return CentralPoly(ring, tuple(q)), CentralPoly(ring, tuple(rem))

    def monic_left(self) -> "CentralPoly":
        """lead^-1 * self (monic; same right divisors)."""
        if not self or self.is_monic():
            return self
        return self.scale_left(self.ring.coeff.inv(self.lead()))

    def monic_right(self) -> "CentralPoly":
        """self * lead^-1 (monic; same left divisors)."""
        if not self or self.is_monic():
            return self
        return self.scale_right(self.ring.coeff.inv(self.lead()))

    # -- evaluation ----------------------------------------------------------

    def eval_central(self, x):
        """Evaluate at a scalar that commutes with all coefficients.

        Horner from the top coefficient; only meaningful when x is
        central in the coefficient ring (e.g. rational), since t is a
        central variable.
        """
        if not self.coeffs:
            return self.ring.coeff.zero
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self.coeffs, self.ring.var)

    def __repr__(self) -> str:
        return f"<{self.ring!r}: {self}>"


def format_poly(coeffs: tuple, var: str) -> str:
    """Descending powers, coefficient printed left of the variable.

    Frozen elision rules (golden tests depend on these exactly):
    coefficient 1 before a power is dropped; a coefficient whose text
    starts with '-' is negated and the term joined with ' - '; a
    coefficient with internal additive structure is parenthesized; the
    exponent is dropped for degree 1; the constant term is spliced in
    bare, reusing its own leading sign (quaternion.signed_term).  The
    signs are joined by quaternion.signed_sum, as in every printer.
    Every output re-parses to the same polynomial (rationals print p/q,
    a rational-literal token).
    """
    terms = []
    for n in range(len(coeffs) - 1, 0, -1):
        c = coeffs[n]
        if not c:
            continue
        pow_str = var if n == 1 else f"{var}^{n}"
        text = str(c)
        neg = text.startswith("-")
        if neg:
            text = str(-c)
        if not is_simple(text):
            text = f"({text})"
        terms.append((neg, pow_str if text == "1" else f"{text}*{pow_str}"))
    if coeffs and coeffs[0]:
        terms.append(signed_term(str(coeffs[0])))
    return signed_sum(terms)


# ---------------------------------------------------------------------------
# One-sided gcd / lcm
# ---------------------------------------------------------------------------

def gcrd(f: CentralPoly, g: CentralPoly) -> CentralPoly:
    """Greatest common right divisor, monic (left-normalized).

    Euclid on right division: the right divisors of {f, g} and of
    {g, f mod g} coincide.  gcrd(0, 0) == 0.
    """
    return _gcd(f, g, True)


def gcld(f: CentralPoly, g: CentralPoly) -> CentralPoly:
    """Greatest common left divisor, monic (right-normalized)."""
    return _gcd(f, g, False)


def _gcd(f: CentralPoly, g: CentralPoly, right: bool) -> CentralPoly:
    # looked up per call: a wrapper installed on the class sees each division
    div = CentralPoly.divmod_right if right else CentralPoly.divmod_left
    monic = CentralPoly.monic_left if right else CentralPoly.monic_right
    a, b = f, g
    while b:
        _, r = div(a, b)
        a, b = monic(b), r
    return monic(a)


def lcrm_with_cofactors(x: CentralPoly, y: CentralPoly):
    """Least common right multiple m = x*u = y*v, with m monic.

    Returns (m, u, v).  Both inputs must be nonzero.
    """
    return _lcm(x, y, True)


def lcrm(x: CentralPoly, y: CentralPoly) -> CentralPoly:
    return lcrm_with_cofactors(x, y)[0]


def lclm(x: CentralPoly, y: CentralPoly) -> CentralPoly:
    """Least common left multiple m = u*x = v*y, monic."""
    return _lcm(x, y, False)[0]


def _lcm(x: CentralPoly, y: CentralPoly, right: bool):
    """(m, u, v) with m monic, m = x*u = y*v if `right` else u*x = v*y.

    Runs the extended Euclidean scheme on division from the other side,
    maintaining r_n == x*u_n + y*v_n (for a left multiple, with every
    product reversed); when the remainder hits zero the relation
    0 == x*u + y*v gives the common multiple m = x*u = y*(-v).
    """
    if not x or not y:
        raise ZeroDivisionError(
            f"{'lcrm' if right else 'lclm'} requires nonzero inputs")
    ring = x.ring
    div = CentralPoly.divmod_left if right else CentralPoly.divmod_right
    scale = CentralPoly.scale_right if right else CentralPoly.scale_left
    mul = CentralPoly.__mul__ if right else CentralPoly.__rmul__
    r0, r1 = x, y
    u0, u1 = ring.one, ring.zero
    v0, v1 = ring.zero, ring.one
    while r1:
        q, r2 = div(r0, r1)
        r0, r1 = r1, r2
        u0, u1 = u1, u0 - mul(u1, q)
        v0, v1 = v1, v0 - mul(v1, q)
        # keep the invariant's remainder monic to limit coefficient growth:
        # scaling (r, u, v) by a unit on the multiple's side preserves it
        if r1:
            c = ring.coeff.inv(r1.lead())
            r1 = scale(r1, c)
            u1 = scale(u1, c)
            v1 = scale(v1, c)
    m = mul(x, u1)
    c = ring.coeff.inv(m.lead())
    return scale(m, c), scale(u1, c), scale(-v1, c)
