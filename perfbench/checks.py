"""Correctness checks on op outputs, run after the timed region.

None of them goes through the path being timed.  Values are compared
at seeded rational points with the exact quaternion arithmetic of
`qarith` (evaluation at a central point is a ring homomorphism, also on
fractions whose denominators do not vanish there); eq, central and deg
have planted answers; lcrm is compared with `lcrm_oracle` from the
repository's test oracles, which finds least common right multiples by
linear algebra.

`check(workload, op, output, oracles)` returns None when the output is
right and a short reason when it is not.
"""

from qarith import (Q1, UNITS, as_tpoly, at_point, coords, is_real,
                    pdivmod_right, peval, pmul, ptrim, q, qadd, qinv, qmul,
                    qsub)
from inputs import tower_eval

POINTS_NEEDED = 2
_BASIS = (Q1, UNITS["i"], UNITS["j"], UNITS["k"])


def check(workload, op, output, oracles):
    if workload == "tower2":
        return _check_tower(op, output)
    head, _, body = output.partition("\n")
    if head != "exit 0":
        return f"{head.strip()}: {body.strip()[:120]}"
    if "expect" in op:
        return None if body == op["expect"] else f"expected {op['expect']!r}, got {body!r}"
    if workload == "euclid":
        return _check_euclid(op, body, oracles)
    return _check_coord(op, body)


# -- comparing values at points --------------------------------------------------------

def _agree_at_points(points, want, got):
    """want(point) and got(point) agree at POINTS_NEEDED points where both
    are defined; a point where either divides by zero is skipped."""
    used = 0
    for pt in points:
        try:
            w, g = want(pt), got(pt)
        except ZeroDivisionError:
            continue
        if w != g:
            return f"value differs at {pt}"
        used += 1
        if used == POINTS_NEEDED:
            return None
    return "too few points where the value is defined"


def _combine(parts):
    """c1 + c2 i + c3 j + c4 k from four real quaternions; None if not real."""
    total = q()
    for c, unit in zip(parts, _BASIS):
        if not is_real(c):
            return None
        total = qadd(total, qmul(c, unit))
    return total


def _components_value(lines, **point):
    parts = [at_point(line, **point) for line in lines]
    if len(parts) != 4:
        raise ValueError("expected four components")
    return _combine(parts)


# -- euclid ------------------------------------------------------------------------------

def _frac_at(f, t):
    num, den = f
    return qmul(peval(num, t), qinv(peval(den, t)))


def _frac_want(verb, operands, t):
    a = _frac_at(operands[0], t)
    if verb in ("reduce", "components", "eval"):
        return a
    if verb == "inv":
        return qinv(a)
    b = _frac_at(operands[1], t)
    return {"add": lambda: qadd(a, b), "sub": lambda: qsub(a, b),
            "mul": lambda: qmul(a, b), "div": lambda: qmul(a, qinv(b))}[verb]()


def _to_tpoly(cpoly):
    return ptrim([q(*c.coords()) for c in cpoly.coeffs])


def _conj(p):
    return [(c[0], -c[1], -c[2], -c[3], c[4]) for c in p]


def _check_euclid(op, body, oracles):
    kind = op["kind"]
    if kind == "gcrd":
        return _check_gcrd(op, as_tpoly(body), oracles)
    if kind == "lcrm":
        return _check_lcrm(op, body, oracles)
    if kind == "eval":
        got = at_point(body)
        return None if got == _frac_at(op["operands"][0], op["at"]) else \
            f"eval gave {body.strip()}"
    verb = kind[5:] if kind.startswith("frac_") else kind
    if kind == "components":
        lines = body.splitlines()
        got = lambda t: _components_value(lines, t=t)
    else:
        got = lambda t: at_point(body, t=t)
    return _agree_at_points(op["points"],
                            lambda t: _frac_want(verb, op["operands"], t), got)


def _right_divides(g, f):
    return not pdivmod_right(f, g)[1]


def _check_gcrd(op, g, oracles):
    a, b = op["a"], op["b"]
    if not g or g[-1] != Q1:
        return "gcrd is not monic"
    if not (_right_divides(g, a) and _right_divides(g, b)):
        return "gcrd does not right-divide both inputs"
    if op["planted"] is not None and not _right_divides(op["planted"], g):
        return "gcrd misses the planted common right factor"
    # deg gcrd(a, b) + deg lclm(a, b) == deg a + deg b, and conjugation
    # turns left multiples into right ones: lclm(a, b) ~ lcrm(a~, b~)
    lclm_deg = oracles.lcrm_oracle(_cpoly(oracles, _conj(a)),
                                   _cpoly(oracles, _conj(b))).degree
    if len(g) - 1 != len(a) + len(b) - 2 - lclm_deg:
        return "gcrd is not the greatest common right divisor"
    return None


def _cpoly(oracles, p):
    return oracles.HPOLY.poly([oracles.Quaternion(*coords(c)) for c in p])


def _check_lcrm(op, body, oracles):
    lines = dict(line.split(" = ", 1) for line in body.splitlines())
    m, u, v = (as_tpoly(lines[k]) for k in ("m", "u", "v"))
    a, b = op["a"], op["b"]
    if pmul(a, u) != m or pmul(b, v) != m:
        return "m != a*u or m != b*v"
    want = _to_tpoly(oracles.lcrm_oracle(_cpoly(oracles, a), _cpoly(oracles, b)))
    return None if m == want else "m is not the least common right multiple"


# -- coord ------------------------------------------------------------------------------

def _check_coord(op, body):
    x_context = op["shape"] != "t14"

    def want(pt):
        if x_context:
            return at_point(op["expr"], x=q(*pt))
        return at_point(op["expr"], ts=pt)

    if op["kind"] == "eval":
        if x_context:
            expect = at_point(op["expr"], x=at_point(op["argv"][2]))
        else:
            expect = want(op["points"][0])
        return None if at_point(body) == expect else f"eval gave {body.strip()}"
    if op["kind"] == "components":
        lines = body.splitlines()
        got = lambda pt: _components_value(lines, ts=pt)
    else:
        got = lambda pt: at_point(body, ts=pt)
    return _agree_at_points(op["points"], want, got)


# -- tower2 -------------------------------------------------------------------------------

def _check_tower(op, output):
    if "expect" in op:
        return None if output == op["expect"] else \
            f"expected {op['expect']}, got {output[:120]}"
    if output.startswith("raised"):
        return output[:120]

    def value(spec, pt):
        num, den = tower_eval(spec, *pt)
        return qmul(num, qinv(den))

    def want(pt):
        xs = [value(spec, pt) for spec in op["args"]]
        if op["kind"] == "add":
            return qadd(xs[0], xs[1])
        if op["kind"] == "mul":
            return qmul(xs[0], xs[1])
        return qinv(xs[0])

    return _agree_at_points(op["points"], want,
                            lambda pt: at_point(output, ts=(*pt, 0, 0)))
