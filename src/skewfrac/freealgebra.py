"""The free algebra H<X> and the polynomial-function isomorphism.

A FreeExpr is a formal sum of words; each word (a0, a1, ..., am) with
quaternion letters stands for a0*X*a1*X*...*X*am, m >= 0 occurrences
of X.  X does not commute with anything, so no rewriting happens in
the algebra itself: sums concatenate word lists, and products
concatenate words pairwise, merging only the boundary letters
(..., am) * (b0, ...) -> (..., am*b0, ...).  Words that pick up a
zero letter evaluate to zero everywhere and are dropped; that is the
only pruning.  Semantic equality lives entirely in sigma.

The two substitution maps:

    sigma : H<X>        -> H_c[t1..t4],  X |-> t1 + i*t2 + j*t3 + k*t4
    phi   : H_c[t1..t4] -> H<X>,         t_l |-> y_l

y1..y4 are the coordinate-extraction combinations (each evaluates to
the corresponding rational coordinate of its argument, so they are
central as polynomial functions):

    y1 = (1/4)(X - iXi - jXj - kXk)
    y2 = (1/4)(jXk - Xi - iX - kXj)
    y3 = (1/4)(kXi - Xj - jX - iXk)
    y4 = (1/4)(iXj - Xk - kX - jXi)

sigma(phi(p)) = p holds exactly; phi(sigma(f)) = f holds modulo the
ideal of expressions vanishing at every quaternion, and membership in
that ideal is decidable: vanishes(f) iff sigma(f) = 0.  Hence func_eq
decides whether two free expressions agree as functions on all of H.

sigma memoizes on word suffixes (tails share massively across the
words phi produces), so repeated canonicalization stays cheap, but a
FreeExpr can hold exponentially many words in its X-degree.  sigma on
a FreeExpr is therefore the library and oracle path; the CLI evaluates
X-context expressions in the coordinate ring directly (parser.COORD
sends X to sigma(X) and never builds the words).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from random import Random

from .multipoly import MultiPoly
from .quaternion import (ONE, ZERO, I, J, K, Quaternion, RingElement, _coerce,
                         signed_sum)

Word = tuple  # of Quaternion, length m+1 for m occurrences of X


class FreeExpr(RingElement):
    __slots__ = ("words",)

    def __init__(self, words=()):
        kept = []
        for w in words:
            if all(w):
                kept.append(tuple(w))
        self.words = tuple(kept)

    @classmethod
    def constant(cls, q) -> "FreeExpr":
        q = _coerce(q)
        if q is None:
            raise TypeError("free-algebra constants must be quaternions")
        return cls(((q,),)) if q else cls()

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FreeExpr(self.words + other.words)

    __radd__ = __add__

    def __neg__(self):
        return FreeExpr(tuple((-w[0],) + w[1:] for w in self.words))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        words = []
        for a in self.words:
            for b in other.words:
                joint = a[-1] * b[0]
                if joint:
                    words.append(a[:-1] + (joint,) + b[1:])
        return FreeExpr(words)

    def _coerce(self, value):
        if isinstance(value, FreeExpr):
            return value
        q = _coerce(value)
        return None if q is None else FreeExpr.constant(q)

    # -- structure -------------------------------------------------------------

    @property
    def x_degree(self):
        if not self.words:
            return float("-inf")
        return max(len(w) - 1 for w in self.words)

    def __bool__(self) -> bool:
        # nonzero as a FORMAL sum; use vanishes() for functional zero
        return bool(self.words)

    def __eq__(self, other) -> bool:
        # structural multiset equality; functional equality is func_eq
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return sorted(map(_word_key, self.words)) == \
            sorted(map(_word_key, other.words))

    def __hash__(self) -> int:
        # the empty sum equals 0 and one one-letter word its letter,
        # so each hashes like that number
        if not self.words:
            return hash(0)
        if len(self.words) == 1 and len(self.words[0]) == 1:
            return hash(self.words[0][0])
        return hash(tuple(sorted(map(_word_key, self.words))))

    def __str__(self) -> str:
        """The words joined by quaternion.signed_sum, each with a `+`."""
        return signed_sum((False, _word_str(w)) for w in self.words)

    def __repr__(self) -> str:
        return f"FreeExpr({str(self)!r})"


def _word_key(w: Word):
    return tuple(q.coords() for q in w)


def _word_str(w: Word) -> str:
    if len(w) == 1:
        return f"({w[0]})"
    parts = []
    for pos, q in enumerate(w):
        if pos:
            parts.append("X")
        if q != ONE:
            parts.append(f"({q})")
    return "*".join(parts)


X = FreeExpr(((ONE, ONE),))

_QUARTER = Fraction(1, 4)

# the four coordinate words, exactly as displayed: (1/4)(X - iXi - ...)
_Y_WORDS = {
    1: ((ONE, ONE), (-I, I), (-J, J), (-K, K)),
    2: ((J, K), (-ONE, I), (-I, ONE), (-K, J)),
    3: ((K, I), (-ONE, J), (-J, ONE), (-I, K)),
    4: ((I, J), (-ONE, K), (-K, ONE), (-J, I)),
}


def y_constant(l: int) -> FreeExpr:
    """The l-th coordinate function y_l in H<X>, l in 1..4."""
    if l not in _Y_WORDS:
        raise ValueError("coordinate index must be 1, 2, 3 or 4")
    return FreeExpr(tuple((w[0] * _QUARTER,) + w[1:] for w in _Y_WORDS[l]))


def eval_free(f: FreeExpr, q) -> Quaternion:
    """Substitute q for X;  f -> f(q) is a ring homomorphism."""
    q = _coerce(q)
    total = ZERO
    for w in f.words:
        acc = w[0]
        for a in w[1:]:
            acc = acc * q * a
        total = total + acc
    return total


# ---------------------------------------------------------------------------
# sigma: X -> t1 + i t2 + j t3 + k t4
# ---------------------------------------------------------------------------

_T_SUB = MultiPoly({
    (1, 0, 0, 0): ONE,
    (0, 1, 0, 0): I,
    (0, 0, 1, 0): J,
    (0, 0, 0, 1): K,
})


@lru_cache(maxsize=32768)
def _sigma_tail(tail: Word) -> MultiPoly:
    """sigma of X*a_1*X*a_2*...*X*a_m for the letter tail (a_1..a_m)."""
    head = _T_SUB.scale_right(tail[0])
    if len(tail) == 1:
        return head
    return head * _sigma_tail(tail[1:])


def sigma(f: FreeExpr) -> MultiPoly:
    """Expand f after the substitution X -> t1 + i t2 + j t3 + k t4.

    The t_l are central, so the expansion lands in H_c[t1..t4]; f
    vanishes identically on H exactly when the result is zero.
    """
    parts = (MultiPoly.constant(w[0]) if len(w) == 1
             else _sigma_tail(w[1:]).scale_left(w[0]) for w in f.words)
    return MultiPoly(term for part in parts for term in part.terms.items())


# ---------------------------------------------------------------------------
# phi: t_l -> y_l
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _phi_monomial(e: tuple) -> FreeExpr:
    """y1^e1 * y2^e2 * y3^e3 * y4^e4 as a FreeExpr."""
    result = FreeExpr(((ONE,),))
    for l, exp in enumerate(e, start=1):
        if exp:
            result = result * (y_constant(l) ** exp)
    return result


def phi(p: MultiPoly) -> FreeExpr:
    """Substitute t_l -> y_l, coefficients unchanged (on the left)."""
    total = FreeExpr()
    for e, c in p.sorted_terms():
        total = total + FreeExpr.constant(c) * _phi_monomial(e)
    return total


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------

def vanishes(f: FreeExpr) -> bool:
    """True iff f(q) = 0 for every quaternion q."""
    return not sigma(f)


def func_eq(f: FreeExpr, g: FreeExpr) -> bool:
    """True iff f and g agree as functions on all of H."""
    return vanishes(f - g)


def find_witness(f: FreeExpr, rng: Random, max_draws: int = 50):
    """A rational quaternion q with f(q) != 0, or None.

    Samples integer coordinates from a box that grows every ten
    draws; when sigma(f) != 0 a witness exists in every large enough
    box, and random draws find one quickly because a nonzero
    polynomial vanishes on only a thin slice of a big box.
    """
    for draw in range(max_draws):
        bound = 2 + draw // 10
        q = Quaternion(rng.randint(-bound, bound), rng.randint(-bound, bound),
                       rng.randint(-bound, bound), rng.randint(-bound, bound))
        if eval_free(f, q):
            return q
    return None
