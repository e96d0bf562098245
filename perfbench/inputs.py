"""Seeded inputs for the three workloads.

Each workload is a fixed list of cells (operation kind plus input
size); one block holds every cell once, in an order shuffled by the
seed, and the seed alone draws the coefficients.  A run executes whole
blocks, so every run sees the same mix of kinds and sizes and only the
concrete inputs change with the seed.  That keeps the percentiles of
one run comparable with another's without dropping or capping any
sample.

Every op carries what its check needs: the planted answer (eq,
central, deg) or the operands as plain data for independent
re-evaluation.  Nothing here imports skewfrac; products that plant
common factors use `qarith`.
"""

import random
from fractions import Fraction

from qarith import (Q0, Q1, UNITS, coords, is_real, is_zero, padd, peval, pmul,
                    q, qadd, qinv, qmul, qscale)

WORKLOADS = ("euclid", "coord", "tower2")


def block(workload, seed, index):
    """The ops of block `index` of `workload` under `seed`."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    cells = list(_CELLS[workload])
    rng.shuffle(cells)
    make = _MAKERS[workload]
    ops = []
    for n, cell in enumerate(cells):
        op = make(rng, *cell)
        op["id"] = f"{index}.{n}"
        ops.append(op)
    return ops


# -- text of inputs -------------------------------------------------------------

def qtext(c):
    """A quaternion in the CLI grammar, e.g. `3 - 2*i + 1/2*k`."""
    parts = []
    for r, sym in zip(coords(c), ("", "i", "j", "k")):
        if not r:
            continue
        mag = abs(r)
        body = str(mag) if not sym else (sym if mag == 1 else f"{mag}*{sym}")
        if not parts:
            parts.append(("-" if r < 0 else "") + body)
        else:
            parts.append((" - " if r < 0 else " + ") + body)
    return "".join(parts) or "0"


def ptext(p, var="t"):
    """A dense t-polynomial, descending powers, each coefficient bracketed."""
    terms = []
    for n in range(len(p) - 1, -1, -1):
        if is_zero(p[n]):
            continue
        power = "" if n == 0 else (f"*{var}" if n == 1 else f"*{var}^{n}")
        terms.append(f"({qtext(p[n])}){power}")
    return " + ".join(terms) or "0"


def ftext(num, den):
    return f"({ptext(num)}) / ({ptext(den)})"


# -- random pieces ----------------------------------------------------------------

def rand_iquat(rng, bound):
    return q(*(rng.randint(-bound, bound) for _ in range(4)))


def rand_nonzero_iquat(rng, bound):
    while True:
        c = rand_iquat(rng, bound)
        if not is_zero(c):
            return c


def rand_poly(rng, deg, bound):
    """Integer quaternion coefficients in [-bound, bound], degree exactly deg."""
    return [rand_iquat(rng, bound) for _ in range(deg)] + \
        [rand_nonzero_iquat(rng, bound)]


def rand_rational_poly(rng, deg, bound):
    p = [q(rng.randint(-bound, bound)) for _ in range(deg)]
    lead = 0
    while not lead:
        lead = rng.randint(-bound, bound)
    return p + [q(lead)]


def rand_point(rng):
    """A small rational, the kind of point the checks evaluate at."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


# -- euclid: t-context commands ------------------------------------------------------

# (kind, degree, coefficient bound) cells: small degrees dominate, the
# tail reaches 8, and bounds 5..100 meet every degree range.  Fixing the
# bound per cell keeps the cost of the slowest cells, which set p99, from
# swinging with the seed.
_EUCLID_KINDS = ("gcrd", "lcrm", "frac_add", "frac_sub", "frac_mul",
                 "frac_div", "frac_inv", "frac_reduce", "eq_equal",
                 "eq_unequal", "central", "components", "deg", "eval")
_EUCLID_SIZES = ((1, 5), (1, 20), (1, 100), (2, 5), (2, 30), (2, 100),
                 (3, 10), (3, 60), (4, 40), (5, 15), (6, 100), (8, 50))


def _pair(rng, deg, bound, side="right"):
    """Two polynomials of degree `deg`.  A third share a planted common
    factor g on `side`, returned as the third item (None otherwise): a
    right factor is what gcrd and reduction find, a left factor is what
    makes an lcrm shorter than the product of degrees."""
    if deg >= 2 and rng.random() < 1 / 3:
        dg = rng.randint(1, deg // 2)
        g = rand_poly(rng, dg, bound)
        p, r = rand_poly(rng, deg - dg, bound), rand_poly(rng, deg - dg, bound)
        if side == "right":
            return pmul(p, g), pmul(r, g), g
        return pmul(g, p), pmul(g, r), g
    return rand_poly(rng, deg, bound), rand_poly(rng, deg, bound), None


def _fraction(rng, deg, bound):
    """num / den with the requested degree; a third get a planted
    common right factor that reduction must strip."""
    num, den, _ = _pair(rng, deg, bound)
    return num, den


def _euclid_op(rng, kind, deg, bound):
    size = {"deg": deg, "bound": bound}
    op = {"kind": kind, "size": size, "points": [rand_point(rng) for _ in range(6)]}
    if kind in ("gcrd", "lcrm"):
        a, b, g = _pair(rng, deg, bound, "right" if kind == "gcrd" else "left")
        op.update(argv=[kind, ptext(a), ptext(b)], a=a, b=b, planted=g)
        return op
    if kind.startswith("frac_"):
        verb = kind[5:]
        fa = _fraction(rng, deg, bound)
        if verb in ("inv", "reduce"):
            op.update(argv=["frac", verb, ftext(*fa)], operands=[fa])
            return op
        fb = _fraction(rng, deg, bound)
        da, db, g = _pair(rng, deg, bound, "left")
        if g is not None:                   # denominators share a left factor
            fa, fb = (fa[0], da), (fb[0], db)
        op.update(argv=["frac", verb, ftext(*fa), ftext(*fb)],
                  operands=[fa, fb])
        return op
    num, den = _fraction(rng, deg, bound)
    if kind == "eq_equal":
        # the same value through an extra common right factor
        c = rand_poly(rng, rng.randint(1, 2), bound)
        op.update(argv=["eq", ftext(num, den), ftext(pmul(num, c), pmul(den, c))],
                  expect="true\n")
    elif kind == "eq_unequal":
        # differs by e * den^-1 != 0
        e = rand_poly(rng, rng.randint(0, deg), bound)
        op.update(argv=["eq", ftext(num, den), ftext(padd(num, e), den)],
                  expect="false\n")
    elif kind == "central":
        if rng.random() < 0.5:
            # (r1*h) (r2*h)^-1 == r1 r2^-1, rational coefficients
            h = rand_poly(rng, rng.randint(1, 2), bound)
            r1 = rand_rational_poly(rng, deg, bound)
            r2 = rand_rational_poly(rng, deg, bound)
            op.update(argv=["central", ftext(pmul(r1, h), pmul(r2, h))],
                      expect="true\n")
        else:
            # p r^-1 with r central commutes with i, j iff p is real
            p = rand_poly(rng, deg, bound)
            if is_real(p[-1]):
                p[-1] = qadd(p[-1], UNITS["i"])
            r = rand_rational_poly(rng, deg, bound)
            op.update(argv=["central", ftext(p, r)], expect="false\n")
    elif kind == "components":
        op.update(argv=["components", ftext(num, den)], operands=[(num, den)])
    elif kind == "deg":                     # reduction keeps deg num - deg den
        den = rand_poly(rng, rng.randint(1, deg), bound)
        op.update(argv=["deg", ftext(num, den)],
                  expect=f"{len(num) - len(den)}\n")
    elif kind == "eval":
        pts = [p for p in op["points"] if not is_zero(peval(den, p))]
        pt = pts[0]
        op.update(argv=["eval", ftext(num, den), str(pt)],
                  operands=[(num, den)], at=pt)
    return op


# -- coord: X-context and t1..t4 commands -------------------------------------------------

_Y = {
    1: "1/4*(X - i*X*i - j*X*j - k*X*k)",
    2: "1/4*(j*X*k - X*i - i*X - k*X*j)",
    3: "1/4*(k*X*i - X*j - j*X - i*X*k)",
    4: "1/4*(i*X*j - X*k - k*X - j*X*i)",
}
RECON = f"{_Y[1]} + i*({_Y[2]}) + j*({_Y[3]}) + k*({_Y[4]})"

# Letters of a fixed alphabet: powers of X + c reuse the same word tails
# from op to op.  The text is what counts: the parser keeps every summand
# of a constant as its own word, so X + 1/2 + i - 3*j is four words and
# its k-th power 4^k.
_POW_LETTER = {3: "1/2 + i - 3*j", 5: "1/2 + i - 3*j", 6: "1/2 + j", 8: "i"}

# (shape, X-degree or total degree) cells; every verb meets every shape
_COORD_SHAPES = (("prod", 2), ("prod", 3), ("prod", 4), ("prod", 5),
                 ("prod", 6), ("pow", 3), ("pow", 5), ("pow", 6),
                 ("pow", 8),
                 ("words", 3), ("words", 5), ("yl", 2), ("yl", 3),
                 ("comm", 2), ("comm", 4), ("t14", 2), ("t14", 4), ("t14", 6))
_COORD_KINDS = ("canon", "eq_equal", "eq_unequal", "central", "components",
                "eval", "deg")


def rand_letter(rng):
    """A random one-term quaternion such as 3, -1/2*j or 2*k."""
    r = Fraction(rng.randint(1, 5), rng.choice((1, 1, 2, 3)))
    unit = rng.choice(("", "i", "j", "k"))
    sign = rng.choice(("", "-"))
    if not unit:
        return f"{sign}{r}"
    return f"{sign}{unit}" if r == 1 else f"{sign}{r}*{unit}"


def _linear(rng):
    """(a*X*b + c) with random one-term letters: two words."""
    a, b, c = rand_letter(rng), rand_letter(rng), rand_letter(rng)
    return f"(({a})*X*({b}) + ({c}))"


def _x_shape(rng, shape, deg):
    """An X-expression and its formal X-degree (no zero letters, so no
    word of the product drops out)."""
    if shape == "prod":
        return "*".join(_linear(rng) for _ in range(deg)), deg
    if shape == "pow":
        return f"(X + {_POW_LETTER[deg]})^{deg}", deg
    if shape == "words":
        words = []
        for _ in range(rng.randint(2, 4)):
            letters = [rand_letter(rng) for _ in range(rng.randint(1, deg) + 1)]
            words.append("*X*".join(f"({c})" for c in letters))
        words.append("*X*".join(f"({rand_letter(rng)})" for _ in range(deg + 1)))
        return " + ".join(words), deg
    if shape == "yl":
        return "*".join(f"({_Y[rng.randint(1, 4)]})" for _ in range(deg)), deg
    # comm: (y_l)*E - E*(y_l) vanishes, y_l being central as a function
    e, d = _x_shape(rng, "prod", deg - 1)
    y = _Y[rng.randint(1, 4)]
    return f"({y})*{e} - {e}*({y})", deg


def _t14_poly(rng, deg, real=False):
    """Sum of distinct monomials in t1..t4 of total degree <= deg, one
    of them of degree exactly deg."""
    expos = {tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(4)}
    expos = {e for e in expos if sum(e) < deg}
    top = [0, 0, 0, 0]
    for _ in range(deg):
        top[rng.randint(0, 3)] += 1
    expos.add(tuple(top))
    terms = []
    for e in sorted(expos):
        c = q(rng.randint(1, 5)) if real else rand_nonzero_iquat(rng, 3)
        mono = "*".join(f"t{n + 1}" if x == 1 else f"t{n + 1}^{x}"
                        for n, x in enumerate(e) if x)
        terms.append(f"({qtext(c)})" + (f"*{mono}" if mono else ""))
    return " + ".join(terms)


def _coord_op(rng, kind, shape, deg):
    size = {"tdeg" if shape == "t14" else "xdeg": deg}
    op = {"kind": kind, "shape": shape, "size": size,
          "points": [[rand_point(rng) for _ in range(4)] for _ in range(2)]}
    if shape == "t14":
        if kind == "central":
            real = rng.random() < 0.5
            op.update(argv=["central", _t14_poly(rng, deg, real=real)],
                      expect=f"{str(real).lower()}\n")
            return op
        text = _t14_poly(rng, deg)
        # t2 is central, so P*t2 - t2*P vanishes; i*t1 does not
        same = f"({text})*t2 - t2*({text}) + {text}"
        other = f"{text} + i*t1"
    else:
        text, deg = _x_shape(rng, shape, deg)
        y = _Y[rng.randint(1, 4)]
        if shape == "yl":               # X against its reconstruction
            text, same = f"X*{text}", f"({RECON})*{text}"
            deg += 1
            size["xdeg"] = deg
        else:                           # y_l is central as a function
            same = f"{text} + ({y})*X - X*({y})"
        other = f"{text} + X*i - i*X"
    if kind == "eq_equal":
        op.update(argv=["eq", text, same], expect="true\n")
    elif kind == "eq_unequal":
        op.update(argv=["eq", text, other], expect="false\n")
    elif kind == "deg":
        op.update(argv=["deg", text], expect=f"{deg}\n")
    elif kind == "central":
        # E*c - c*E vanishes for rational c and a rational multiple of
        # y_a*y_b is real valued, so the sum is central; adding i*y_c
        # makes it not
        ya, yb = _Y[rng.randint(1, 4)], _Y[rng.randint(1, 4)]
        r = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        c = rng.randint(2, 5)
        text = f"({text})*{c} - {c}*({text}) + {r}*({ya})*({yb})"
        if rng.random() < 0.5:
            op.update(argv=["central", text], expect="true\n")
        else:
            op.update(argv=["central", f"{text} + i*({y})"], expect="false\n")
    elif kind == "eval":
        if shape == "t14":
            op.update(argv=["eval", text] + [str(x) for x in op["points"][0]])
        else:
            op.update(argv=["eval", text, qtext(rand_nonzero_iquat(rng, 3))])
        op["expr"] = text
    else:
        op.update(argv=[kind, text], expr=text)
    return op


# -- tower2: library calls on H(t1)(t2) ------------------------------------------------------

# (kind, size, denominator shapes) cells.  Size is the t1-degree and the
# coefficient bound.  xy == yx with two t2-denominators at size 2 runs
# into seconds per comparison, so that corner is left out of the ranges.
_DENS = ("1", "t1", "t2")
_TOWER_CELLS = (
    [(k, s, (dx, dy)) for k in ("add", "mul", "eq_equal") for s in (1, 2)
     for dx in _DENS for dy in _DENS]
    + [("eq_unequal", s, (dx, dy)) for s in (1, 2) for dx in _DENS
       for dy in _DENS if (dx, dy) != ("t2", "t2")]
    + [(k, s, (d,)) for k in ("inverse", "central") for s in (1, 2)
       for d in _DENS])


def tower_element(rng, size, den="1", real=False):
    """Spec of a depth-2 element P * Q^-1, each of P, Q a dict
    {(deg t1, deg t2): quaternion}.  P = a t1^s t2^2 + b t1^(s-1) t2 + c
    for size s, so only the coefficients change from seed to seed; Q is
    1, t1 + d (a level-1 denominator) or t2 + d."""

    def coeff():
        if real:
            return q(rng.randint(1, size + 1))
        return rand_nonzero_iquat(rng, size)

    num = {(size, 2): coeff(), (size - 1, 1): coeff(), (0, 0): coeff()}
    if den == "1":
        return num, {(0, 0): Q1}
    return num, {(1, 0) if den == "t1" else (0, 1): Q1, (0, 0): coeff()}


def tower_eval(spec, t1, t2):
    """Own evaluation of a spec at the central point (t1, t2)."""
    num, den = spec

    def ev(p):
        acc = Q0
        for (a, b), c in p.items():
            acc = qadd(acc, qscale(c, Fraction(t1) ** a * Fraction(t2) ** b))
        return acc

    return ev(num), ev(den)


def _tower_op(rng, kind, size, dens):
    op = {"kind": kind, "size": {"deg": size, "bound": size, "dens": "/".join(dens)},
          "points": [(rand_point(rng), rand_point(rng)) for _ in range(6)]}
    if kind == "central":
        # rational P and Q make P Q^-1 central; j in P's constant term,
        # with Q still rational, makes it not
        num, den = tower_element(rng, size, dens[0], real=True)
        real = rng.random() < 0.5
        if not real:
            num[(0, 0)] = qadd(num.get((0, 0), Q0), UNITS["j"])
        op.update(args=[(num, den)], expect=str(real))
        return op
    xs = [tower_element(rng, size, d) for d in dens]
    if kind == "eq_unequal":
        # x*y vs y*x; the planted answer is confirmed by evaluation
        while not _noncommuting(xs[0], xs[1], op["points"]):
            xs = [tower_element(rng, size, d) for d in dens]
        op["expect"] = "False"
    elif kind == "eq_equal":
        op["expect"] = "True"               # x + y vs y + x
    op["args"] = xs
    return op


def _noncommuting(x, y, points):
    for a, b in points:
        xn, xd = tower_eval(x, a, b)
        yn, yd = tower_eval(y, a, b)
        if is_zero(xd) or is_zero(yd):
            continue
        xv, yv = qmul(xn, qinv(xd)), qmul(yn, qinv(yd))
        return qmul(xv, yv) != qmul(yv, xv)
    return False


_CELLS = {
    "euclid": [(k, d, b) for k in _EUCLID_KINDS for d, b in _EUCLID_SIZES],
    "coord": [(k, s, d) for k in _COORD_KINDS for s, d in _COORD_SHAPES],
    "tower2": _TOWER_CELLS,
}
_MAKERS = {"euclid": _euclid_op, "coord": _coord_op, "tower2": _tower_op}
