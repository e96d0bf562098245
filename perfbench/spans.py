"""Spans around calls into skewfrac's layers, for the traced run only.

`Tracer.install()` replaces each traced callable with a wrapper at
every place it is bound: module functions in every loaded skewfrac
module that holds them (cli and fractionfield import gcrd, sigma,
parse, ... by name), methods on their class.  `uninstall()` puts the
originals back and `restore_errors()` confirms that it did.

A span records its duration and the time its child spans covered;
self time is the difference.  Spans are aggregated per name as they
close (calls, total, self) rather than kept one by one: a single Euclid
step opens thousands of them.  Work a wrapper does for a counter after
its span closes is charged to neither the span nor its parent.
Quaternion operations get a counter only, since a timer would cost as
much as the call.
"""

import sys
from time import perf_counter

# (module, function name, span name)
FUNCTIONS = (
    ("skewfrac.cli", "main", "cli.main"),
    ("skewfrac.parser", "parse", "parser.parse"),
    ("skewfrac.parser", "evaluate", "parser.evaluate"),
    ("skewfrac.freealgebra", "sigma", "freealgebra.sigma"),
    ("skewfrac.freealgebra", "eval_free", "freealgebra.eval_free"),
    ("skewfrac.centralpoly", "gcrd", "centralpoly.gcrd"),
    ("skewfrac.centralpoly", "lcrm_with_cofactors", "centralpoly.lcrm"),
    ("skewfrac.fractionfield", "_reduce", "fractionfield.reduce"),
    ("skewfrac.fractionfield", "component_decompose",
     "fractionfield.components"),
)

# (module, class, attribute, span name)
METHODS = (
    ("skewfrac.multipoly", "MultiPoly", "__mul__", "multipoly.mul"),
    ("skewfrac.centralpoly", "CentralPoly", "__mul__", "centralpoly.mul"),
    ("skewfrac.centralpoly", "CentralPoly", "divmod_right", "centralpoly.divmod"),
    ("skewfrac.centralpoly", "CentralPoly", "divmod_left", "centralpoly.divmod"),
    ("skewfrac.fractionfield", "RightFraction", "__add__", "fractionfield.add"),
    ("skewfrac.fractionfield", "RightFraction", "__radd__", "fractionfield.add"),
    ("skewfrac.fractionfield", "RightFraction", "__mul__", "fractionfield.mul"),
    ("skewfrac.fractionfield", "RightFraction", "inverse",
     "fractionfield.inverse"),
    ("skewfrac.fractionfield", "RightFraction", "is_central",
     "fractionfield.is_central"),
    ("skewfrac.fractionfield", "RightFraction", "__eq__", "fractionfield.eq"),
)

# counted, not timed
COUNTED = (
    ("skewfrac.quaternion", "Quaternion", "__mul__", "quaternion.mul"),
    ("skewfrac.quaternion", "Quaternion", "__add__", "quaternion.add"),
    ("skewfrac.quaternion", "Quaternion", "__radd__", "quaternion.add"),
    ("skewfrac.quaternion", "Quaternion", "inverse", "quaternion.inverse"),
)

# fraction spans whose self time is also split by tower depth
_FRACTION_SPANS = ("fractionfield.reduce", "fractionfield.add",
                   "fractionfield.mul", "fractionfield.inverse",
                   "fractionfield.is_central", "fractionfield.eq")


def _skewfrac_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "skewfrac" or name.startswith("skewfrac."))]


def ring_depth(ring):
    """1 for H[t]; n for a polynomial ring over the depth n-1 field."""
    inner = getattr(ring.coeff, "ring", None)
    return 1 if inner is None else 1 + ring_depth(inner)


def _rational_bits(r):
    return max(abs(r.numerator).bit_length(), r.denominator.bit_length())


def coeff_bits(c):
    """Largest numerator or denominator bit length inside a coefficient:
    a rational, a quaternion or a fraction one tower level down."""
    if hasattr(c, "coords"):
        return max(_rational_bits(r) for r in c.coords())
    if hasattr(c, "num"):
        return max(poly_bits(c.num), poly_bits(c.den))
    return _rational_bits(c)


def poly_bits(p):
    return max((coeff_bits(c) for c in p.coeffs), default=0)


class Tracer:
    def __init__(self):
        self.stats = {}          # span name -> [calls, total_s, self_s]
        self.counts = {}         # counter name -> int
        self.depth_self = {}     # tower depth -> fraction self time
        self.maxima = {"multipoly.terms": 0, "centralpoly.coeff_bits": 0}
        self.sigma_words = 0
        self.gcrd_nontrivial = 0
        self.eq_fallbacks = 0
        self._stack = []         # frames: [child_s, span name, flag]
        self._patches = []       # (owner, attribute, original)

    # -- patching ----------------------------------------------------------------

    def install(self):
        mods = _skewfrac_modules()
        for modname, fname, span in FUNCTIONS:
            if modname not in sys.modules:      # e.g. no CLI in a library run
                continue
            orig = getattr(sys.modules[modname], fname)
            wrapper = self._timed(orig, span)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
        for modname, cls, attr, span in METHODS:
            owner = getattr(sys.modules[modname], cls)
            self._patch(owner, attr, self._timed(vars(owner)[attr], span))
        for modname, cls, attr, name in COUNTED:
            owner = getattr(sys.modules[modname], cls)
            self._patch(owner, attr, self._counted(vars(owner)[attr], name))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)

    def restore_errors(self):
        """Patched attributes that do not hold their original again."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, orig in self._patches
                if vars(owner).get(attr) is not orig]

    @property
    def patched(self):
        return list(self._patches)

    # -- wrappers ------------------------------------------------------------------

    def _counted(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def _timed(self, fn, span):
        stack, stats = self._stack, self.stats
        stats.setdefault(span, [0, 0.0, 0.0])
        after = self._after.get(span)
        if span in _FRACTION_SPANS:
            depth_of = self._fraction_depth
        else:
            depth_of = None
        is_add = span == "fractionfield.add"

        def timed(*args, **kwargs):
            if is_add and stack and stack[-1][1] == "fractionfield.eq":
                stack[-1][2] = True          # == fell back to subtraction
            frame = [0.0, span, False]
            stack.append(frame)
            t0 = perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = perf_counter()
                stack.pop()
                own = t1 - t0 - frame[0]
                st = stats[span]
                st[0] += 1
                st[1] += t1 - t0
                st[2] += own
                if done and after is not None:
                    after(self, args, result, frame)
                if depth_of is not None:
                    d = depth_of(args)
                    self.depth_self[d] = self.depth_self.get(d, 0.0) + own
                if stack:
                    stack[-1][0] += perf_counter() - t0
            return result

        timed.__wrapped__ = fn
        return timed

    @staticmethod
    def _fraction_depth(args):
        first = args[0]
        ring = first.field.ring if hasattr(first, "field") else first.ring
        return ring_depth(ring)

    # -- per-span counters, computed after the span closed ---------------------------

    def _after_sigma(self, args, result, frame):
        self.sigma_words += len(args[0].words)
        self._max("multipoly.terms", len(result.terms))

    def _after_mpmul(self, args, result, frame):
        if result is not NotImplemented:
            self._max("multipoly.terms", len(result.terms))

    def _after_gcrd(self, args, result, frame):
        if result.degree > 0:
            self.gcrd_nontrivial += 1
        self._max("centralpoly.coeff_bits", poly_bits(result))

    def _after_lcrm(self, args, result, frame):
        self._max("centralpoly.coeff_bits", max(poly_bits(p) for p in result))

    def _after_divmod(self, args, result, frame):
        self._max("centralpoly.coeff_bits", max(poly_bits(p) for p in result))

    def _after_eq(self, args, result, frame):
        if frame[2]:
            self.eq_fallbacks += 1

    def _max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    _after = {
        "freealgebra.sigma": _after_sigma,
        "multipoly.mul": _after_mpmul,
        "centralpoly.gcrd": _after_gcrd,
        "centralpoly.lcrm": _after_lcrm,
        "centralpoly.divmod": _after_divmod,
        "fractionfield.eq": _after_eq,
    }
