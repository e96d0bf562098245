"""Quaternion polynomials in four central variables t1..t4.

Sparse representation: a mapping from exponent 4-tuples to nonzero
quaternion coefficients.  The variables commute with each other and
with every coefficient; the coefficients do not commute among
themselves, so left and right scalar action differ and products keep
coefficient order (a t^e)(b t^f) = (a b) t^(e+f).

Term order is graded lex with t1 > t2 > t3 > t4, descending.  The
order is fixed once and used for printing, iteration and hashing.

Textual form: each term prints `(coef)*t1^e1*t2^e2*t3^e3*t4^e4` with
zero-exponent factors dropped, `^1` elided, the `(coef)*` prefix
elided when the coefficient is 1, and the constant term spliced in
bare.  These elisions are frozen; golden tests depend on them.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .quaternion import (ONE, ZERO, Quaternion, RingElement, _coerce,
                         signed_sum, signed_term)

Expo = tuple[int, int, int, int]

_ZERO_EXP: Expo = (0, 0, 0, 0)


def _order_key(e: Expo):
    # graded lex, t1 > t2 > t3 > t4; bigger key = earlier in print order
    return (sum(e), e)


def _accumulate(acc: dict, items) -> dict:
    """Add each (exponent, coefficient) pair into acc, keeping only the
    nonzero sums; returns acc."""
    for e, c in items:
        prev = acc.get(e)
        s = prev + c if prev is not None else c
        if s:
            acc[e] = s
        elif prev is not None:
            del acc[e]
    return acc


class MultiPoly(RingElement):
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Expo, Quaternion] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms = _accumulate({}, items)

    @classmethod
    def _raw(cls, terms: dict) -> "MultiPoly":
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def variable(cls, l: int) -> "MultiPoly":
        """t_l for l in 1..4."""
        if not 1 <= l <= 4:
            raise ValueError("variable index must be 1..4")
        e = [0, 0, 0, 0]
        e[l - 1] = 1
        return cls._raw({tuple(e): ONE})

    @classmethod
    def constant(cls, q) -> "MultiPoly":
        q = _coerce(q)
        return cls._raw({_ZERO_EXP: q} if q else {})

    # -- queries -------------------------------------------------------------

    @property
    def degree(self):
        if not self.terms:
            return float("-inf")
        return max(sum(e) for e in self.terms)

    def coefficient(self, e: Expo) -> Quaternion:
        return self.terms.get(e, ZERO)

    def sorted_terms(self) -> list[tuple[Expo, Quaternion]]:
        return sorted(self.terms.items(), key=lambda it: _order_key(it[0]),
                      reverse=True)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # a constant equals its coefficient, so hashes like it
        if self.terms.keys() <= {_ZERO_EXP}:
            return hash(self.coefficient(_ZERO_EXP))
        return hash(tuple(self.sorted_terms()))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        return MultiPoly._raw(_accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # _accumulate's loop inline: feeding it a generator is 10-35 % slower
        acc: dict[Expo, Quaternion] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                c = c1 * c2
                prev = acc.get(e)
                s = prev + c if prev is not None else c
                if s:
                    acc[e] = s
                elif prev is not None:
                    del acc[e]
        return MultiPoly._raw(acc)

    def scale_left(self, q: Quaternion) -> "MultiPoly":
        return MultiPoly((e, q * c) for e, c in self.terms.items())

    def scale_right(self, q: Quaternion) -> "MultiPoly":
        return MultiPoly((e, c * q) for e, c in self.terms.items())

    def _coerce(self, value):
        if isinstance(value, MultiPoly):
            return value
        q = _coerce(value)
        return None if q is None else MultiPoly.constant(q)

    # -- evaluation and components ----------------------------------------------

    def eval(self, x1, x2, x3, x4) -> Quaternion:
        """Evaluate at a rational point (the variables are central)."""
        total = ZERO
        for e, c in self.terms.items():
            m = x1 ** e[0] * x2 ** e[1] * x3 ** e[2] * x4 ** e[3]
            total = total + c * m
        return total

    def components(self) -> tuple["MultiPoly", "MultiPoly", "MultiPoly", "MultiPoly"]:
        """Coordinate polynomials p = p1 + p2*i + p3*j + p4*k over Q."""
        out = [{}, {}, {}, {}]
        for e, c in self.terms.items():
            for n, r in enumerate(c.coords()):
                if r:
                    out[n][e] = Quaternion(r)
        return tuple(MultiPoly._raw(d) for d in out)

    # -- printing ----------------------------------------------------------------

    def __str__(self) -> str:
        """The terms in print order (see the module docstring), joined by
        quaternion.signed_sum; only the constant term carries a sign."""
        terms = []
        for e, c in self.sorted_terms():
            if e == _ZERO_EXP:
                terms.append(signed_term(str(c)))
                continue
            mono = "*".join(f"t{n+1}" if exp == 1 else f"t{n+1}^{exp}"
                            for n, exp in enumerate(e) if exp)
            terms.append((False, mono if c == ONE else f"({c})*{mono}"))
        return signed_sum(terms)

    def __repr__(self) -> str:
        return f"MultiPoly({str(self)!r})"


MP_ZERO = MultiPoly._raw({})
MP_ONE = MultiPoly._raw({_ZERO_EXP: ONE})
T1 = MultiPoly.variable(1)
T2 = MultiPoly.variable(2)
T3 = MultiPoly.variable(3)
T4 = MultiPoly.variable(4)
