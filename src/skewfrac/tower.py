"""Nested fraction fields H_c(t1, ..., tn).

The field at depth n is built definitionally as the right fraction
field of a central polynomial ring over the field at depth n-1:

    H_c(t1, ..., tn) = (H_c(t1, ..., t_{n-1}))_c(tn)

with depth 1 the quaternion case.  Every level is a FractionField and
therefore a DivisionRing, so the construction is literally iterated.
All the variables are central at every level: t_l for l < n arrives
as a nested constant coefficient, and tn itself is central in the
polynomial ring by construction.

Arithmetic cost grows steeply with depth (one level-n coefficient
operation expands into many level-(n-1) field operations), so depth
is capped; the default bound is 3.
"""

from __future__ import annotations

from .centralpoly import PolyRing
from .errors import DepthExceededError
from .fractionfield import FractionField, RightFraction
from .quaternion import HH, Quaternion

DEFAULT_DEPTH_LIMIT = 3

_cache: dict[int, FractionField] = {}


def tower_field(depth: int, limit: int = DEFAULT_DEPTH_LIMIT) -> FractionField:
    """H_c(t1, ..., t_depth) as a FractionField, cached per depth."""
    if depth < 1:
        raise ValueError("tower depth must be >= 1")
    if depth > limit:
        raise DepthExceededError(
            f"tower depth {depth} exceeds the configured bound {limit}")
    if depth not in _cache:
        coeff = HH if depth == 1 else tower_field(depth - 1, limit)
        _cache[depth] = FractionField(PolyRing(coeff, f"t{depth}"))
    return _cache[depth]


def tower_constant(depth: int, q: Quaternion,
                   limit: int = DEFAULT_DEPTH_LIMIT) -> RightFraction:
    """The quaternion q embedded as a depth-n constant."""
    field = tower_field(depth, limit)   # the only check that rejects depth < 1
    value = q
    for level in range(1, depth + 1):
        inner = tower_field(level, limit)
        value = inner.embed(inner.ring.constant(value))
    return value


def tower_variable(depth: int, l: int,
                   limit: int = DEFAULT_DEPTH_LIMIT) -> RightFraction:
    """t_l as an element of the depth-n field (1 <= l <= depth)."""
    if not 1 <= l <= depth:
        raise ValueError("variable index out of range for this depth")
    field = tower_field(l, limit)
    value = field.t
    for level in range(l + 1, depth + 1):
        outer = tower_field(level, limit)
        value = outer.embed(outer.ring.constant(value))
    return value
