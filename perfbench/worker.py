"""One benchmark process: import skewfrac, run whole blocks of ops, report.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE

`setup` stops once the program is ready for its first op and prints
the monotonic clock, so the caller can time interpreter start plus
import.  `run` reads nothing but its arguments, runs blocks of ops
(one client, one thread, each op after the previous one returned)
until SECONDS of op time have been measured, and prints one JSON
object: per op its id, latency and output, plus peak RSS.  With TRACE
1 it spends half the budget untraced, then repeats exactly those
blocks with spans installed, and adds the per-layer figures, the
traced/untraced time ratio and whether the two output streams agree
byte for byte.

Run from the root of a checkout; it imports skewfrac from `src/`.
"""

import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)


def load_program(workload):
    """Import what the workload's first op needs; return its entry points."""
    import skewfrac
    if not os.path.abspath(skewfrac.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"skewfrac imported from {skewfrac.__file__}, not {SRC}")
    if workload == "tower2":
        skewfrac.tower_field(2)
        return skewfrac
    import skewfrac.cli
    return skewfrac.cli


# -- one op ------------------------------------------------------------------------
#
# A runner is (prepare, call): prepare(op) builds what the op needs before
# its timer starts; call(op, prepared) times the op and returns
# (seconds, output text).

def cli_runner(cli):
    """Ops go through cli.main(argv) with stdout and stderr captured; the
    module attribute is looked up per call, so installed spans see it."""

    def call(op, _):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        t0 = time.perf_counter()
        try:
            code = cli.main(op["argv"])
        except Exception as e:          # a traceback is a failed op, not a crash
            code = f"raised {e!r}"
        finally:
            dt = time.perf_counter() - t0
            sys.stdout, sys.stderr = saved
        return dt, f"exit {code}\n{out.getvalue()}{err.getvalue()}"

    return (lambda op: None), call


def tower_builder(skewfrac):
    """Turns a spec {(deg t1, deg t2): quaternion} pair into an element of
    H(t1)(t2), through the constructors of tower_field(1) and (2)."""
    from qarith import coords

    Q = skewfrac.Quaternion
    f1, f2 = skewfrac.tower_field(1), skewfrac.tower_field(2)

    def poly(terms):
        d1 = max(a for a, _ in terms) + 1
        d2 = max(b for _, b in terms) + 1
        rows = [[Q()] * d1 for _ in range(d2)]
        for (a, b), c in terms.items():
            rows[b][a] = Q(*coords(c))
        return f2.ring.poly([f1(f1.ring.poly(row)) for row in rows])

    def build(spec):
        num, den = spec
        return f2(poly(num), poly(den))

    return build


def tower_runner(skewfrac):
    build = tower_builder(skewfrac)

    def prepare(op):
        xs = [build(spec) for spec in op["args"]]
        if op["kind"] == "eq_equal":            # x + y against y + x
            x, y = xs
            return [x + y, y + x]
        if op["kind"] == "eq_unequal":          # xy against yx
            x, y = xs
            return [x * y, y * x]
        return xs

    def call(op, xs):
        kind = op["kind"]
        t0 = time.perf_counter()
        try:
            if kind == "add":
                result = xs[0] + xs[1]
            elif kind == "mul":
                result = xs[0] * xs[1]
            elif kind == "inverse":
                result = xs[0].inverse()
            elif kind == "central":
                result = xs[0].is_central()
            else:
                result = xs[0] == xs[1]
        except Exception as e:          # a failed op, not a crash
            result = f"raised {e!r}"
        dt = time.perf_counter() - t0
        return dt, str(result)

    return prepare, call


def make_runner(workload, program):
    return (tower_runner if workload == "tower2" else cli_runner)(program)


# -- the loop ----------------------------------------------------------------------
#
# The machines this runs on share their processors, and their speed flips
# between states tens of percent apart, often within a second.  So every
# op is bracketed by a short fixed reference computation that does not
# touch skewfrac, and its time is scaled to a machine on which that
# reference takes exactly REFERENCE_S seconds.  Raw times are kept beside
# the scaled ones.

REFERENCE_S = 0.0006
RSS_BLOCKS = 4


def _reference_once():
    from qarith import Q1, q, qadd, qmul

    x, y = q(3 ** 40, -2 ** 50, 5 ** 30, 7 ** 25), q(1, 4, -6, 2)
    t0 = time.perf_counter()
    acc, seen = Q1, {}
    for i in range(200):
        acc = qadd(qmul(x, y), acc)
        seen[(i, i % 7)] = acc
    return time.perf_counter() - t0


def reference_seconds():
    """Median time of three runs of the reference computation."""
    return sorted(_reference_once() for _ in range(3))[1]


def timed_blocks(blocks, runner, budget=None):
    """Run whole blocks until `budget` raw seconds of op time have been
    spent (or all blocks, without one), each op between two reference
    timings.  Returns the records, [op id, kind, scaled seconds, output,
    raw seconds], and the peak RSS in KiB after each block."""
    prepare, call = runner
    records, rss, spent = [], [], 0.0
    before = reference_seconds()
    for ops in blocks:
        if budget is not None and spent >= budget:
            break
        for op in ops:
            dt, out = call(op, prepare(op))
            after = reference_seconds()
            scaled = dt * REFERENCE_S / ((before + after) / 2)
            records.append([op["id"], op["kind"], scaled, out, dt])
            spent += dt
            before = after
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return records, rss


def seeded_blocks(workload, seed):
    import inputs

    index = 0
    while True:
        yield inputs.block(workload, seed, index)
        index += 1


def clear_program_caches():
    """Empty the memo tables so a repeated pass starts as cold as the first."""
    from skewfrac import freealgebra
    for name in ("_sigma_tail", "_phi_monomial"):
        fn = getattr(freealgebra, name, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def sigma_tail_info():
    from skewfrac import freealgebra
    fn = getattr(freealgebra, "_sigma_tail", None)
    info = fn.cache_info() if hasattr(fn, "cache_info") else None
    return (info.hits, info.misses) if info else (0, 0)


def traced_pass(workload, program, blocks):
    """Repeat `blocks` of ops with spans installed.  Operands are prepared
    before the spans go in, so only timed calls are traced."""
    from spans import Tracer

    prepare, call = make_runner(workload, program)
    prepared = {op["id"]: prepare(op) for ops in blocks for op in ops}
    clear_program_caches()
    hits0, misses0 = sigma_tail_info()
    tracer = Tracer()
    tracer.install()
    try:
        records, _ = timed_blocks(blocks, (lambda op: prepared[op["id"]], call))
    finally:
        tracer.uninstall()
    hits, misses = sigma_tail_info()
    layers = {
        "stats": tracer.stats,
        "counts": tracer.counts,
        "depth_self": {str(d): s for d, s in tracer.depth_self.items()},
        "maxima": tracer.maxima,
        "sigma_words": tracer.sigma_words,
        "gcrd_nontrivial": tracer.gcrd_nontrivial,
        "eq_fallbacks": tracer.eq_fallbacks,
        "sigma_tail": [hits - hits0, misses - misses0],
        "restore_errors": tracer.restore_errors(),
    }
    return records, layers


def main(argv):
    mode, workload = argv[0], argv[1]
    program = load_program(workload)
    if mode == "setup":
        print(repr(time.monotonic()))
        return 0
    seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"
    records, rss = timed_blocks(seeded_blocks(workload, seed),
                                make_runner(workload, program),
                                budget=seconds / 2 if trace else seconds)
    nblocks = len(rss)
    # peak RSS over a fixed amount of work, so a faster program that gets
    # through more blocks (and fills its memo tables further) is not
    # charged for it
    result = {"records": records, "blocks": nblocks,
              "peak_rss_kb": rss[min(RSS_BLOCKS, nblocks) - 1]}
    if trace:
        import inputs
        blocks = [inputs.block(workload, seed, index) for index in range(nblocks)]
        traced, result["layers"] = traced_pass(workload, program, blocks)
        result["traced_time"] = sum(r[2] for r in traced)
        result["trace_mismatches"] = [r[0] for r, t in zip(records, traced)
                                      if r[3] != t[3]]
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
