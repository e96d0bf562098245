"""The skewfrac benchmark.

    python3 perfbench/run.py --workload euclid|coord|tower2|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is one client in one
thread sending one op after another (a closed loop) into a fresh
`worker.py` process, which imports skewfrac from `src/`.  The op
inputs come from the seed alone (see inputs.py); every output is
checked afterwards by checks.py, outside the timed region.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of
a traced repeat of the same ops (see spans.py).  `--workload all`
runs the three workloads one after another and prints one line per
workload before a combined last line.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from worker import REFERENCE_S, reference_seconds  # noqa: E402

SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150

# kinds whose median latency is reported, per workload
OP_KINDS = ("gcrd", "lcrm", "frac_add", "frac_sub", "frac_mul", "frac_div",
            "frac_inv", "frac_reduce", "eq_equal", "eq_unequal", "central",
            "components", "deg", "eval", "canon", "add", "mul", "inverse")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_oracles():
    """lcrm_oracle from the repository's tests, plus the constructors its
    inputs need; it uses no Euclidean division."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = importlib.util.spec_from_file_location(
        "skewfrac_test_oracles", os.path.join(ROOT, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    from skewfrac import HPOLY, Quaternion
    module.HPOLY, module.Quaternion = HPOLY, Quaternion
    return module


# -- measuring -------------------------------------------------------------------------

def setup_seconds(workload):
    """Median over fresh interpreters of start-to-ready time.  Each probe is
    scaled like op times, by reference timings taken around it."""

    def reference():
        return statistics.median(reference_seconds() for _ in range(3))

    samples = []
    before = reference()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, WORKER, "setup", workload],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=60)
        if done.returncode != 0:
            fail(f"setup probe failed: {done.stderr.strip()[-500:]}")
        ready = float(done.stdout.strip())
        after = reference()
        samples.append((ready - t0) * REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(samples)


def run_worker(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, WORKER, "run", workload, str(seed), str(seconds),
         str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"worker failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)


def percentile(sorted_values, share):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * share // 1))
    return sorted_values[int(rank) - 1]


def verify(workload, seed, result, oracles):
    """Check every op the worker ran; return {op id: reason} for failures."""
    failures = {}
    outputs = {rec[0]: rec[3] for rec in result["records"]}
    sizes = Counter()
    for index in range(result["blocks"]):
        for op in inputs.block(workload, seed, index):
            if op["id"] not in outputs:
                continue
            for key, value in op["size"].items():
                sizes[f"{key}={value}"] += 1
            try:
                reason = checks.check(workload, op, outputs[op["id"]], oracles)
            except Exception as e:      # an unreadable output is a wrong one
                reason = f"check raised {e!r}"
            if reason:
                failures[op["id"]] = reason
    return failures, sizes


# -- metrics ------------------------------------------------------------------------------

def end_to_end(records, failures, setup_s, rss_kb):
    times = sorted(rec[2] for rec in records)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (1000 * percentile(times, 0.50), "ms"),
        "latency_p99_ms": (1000 * percentile(times, 0.99), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "success_ratio": (1 - len(failures) / len(times), "ratio"),
    }


def per_layer(records, result):
    layers = result["layers"]
    stats, counts = layers["stats"], layers["counts"]

    def self_s(span):
        return (stats.get(span, [0, 0.0, 0.0])[2], "s")

    def calls(span):
        return (stats.get(span, [0])[0], "count")

    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec[1], []).append(rec[2])
    out = {}
    for kind in OP_KINDS:
        times = by_kind.get(kind)
        out[f"op.{kind}.p50_ms"] = (1000 * statistics.median(times) if times
                                    else 0.0, "ms")
    out["cli.main.self_s"] = self_s("cli.main")
    out["parser.parse.self_s"] = self_s("parser.parse")
    out["parser.evaluate.self_s"] = self_s("parser.evaluate")
    out["freealgebra.sigma.calls"] = calls("freealgebra.sigma")
    out["freealgebra.sigma.self_s"] = self_s("freealgebra.sigma")
    out["freealgebra.sigma.words_in"] = (layers["sigma_words"], "count")
    hits, misses = layers["sigma_tail"]
    out["freealgebra.sigma_tail.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["freealgebra.eval_free.self_s"] = self_s("freealgebra.eval_free")
    out["multipoly.mul.calls"] = calls("multipoly.mul")
    out["multipoly.mul.self_s"] = self_s("multipoly.mul")
    out["multipoly.terms.max"] = (layers["maxima"]["multipoly.terms"], "count")
    for name in ("mul", "divmod", "gcrd", "lcrm"):
        out[f"centralpoly.{name}.calls"] = calls(f"centralpoly.{name}")
        out[f"centralpoly.{name}.self_s"] = self_s(f"centralpoly.{name}")
    gcrd_calls = calls("centralpoly.gcrd")[0]
    out["centralpoly.gcrd.nontrivial_ratio"] = (
        layers["gcrd_nontrivial"] / gcrd_calls if gcrd_calls else 0.0, "ratio")
    out["centralpoly.coeff_bits.max"] = (
        layers["maxima"]["centralpoly.coeff_bits"], "bits")
    for name in ("reduce", "add", "mul", "inverse", "is_central", "components"):
        out[f"fractionfield.{name}.self_s"] = self_s(f"fractionfield.{name}")
    eq_calls = calls("fractionfield.eq")[0]
    out["fractionfield.eq.calls"] = calls("fractionfield.eq")
    out["fractionfield.eq.self_s"] = self_s("fractionfield.eq")
    out["fractionfield.eq.fallback_ratio"] = (
        layers["eq_fallbacks"] / eq_calls if eq_calls else 0.0, "ratio")
    out["tower.d1.self_s"] = (layers["depth_self"].get("1", 0.0), "s")
    out["tower.d2.self_s"] = (layers["depth_self"].get("2", 0.0), "s")
    for name in ("mul", "add", "inverse"):
        out[f"quaternion.{name}.calls"] = (counts[f"quaternion.{name}"], "count")
    untraced = sum(rec[2] for rec in records)
    out["trace.overhead_ratio"] = (result["traced_time"] / untraced, "ratio")
    return out


def run_workload(workload, seed, seconds, trace, oracles):
    setup_s = setup_seconds(workload) if not trace else None
    result = run_worker(workload, seed, seconds, trace)
    records = result["records"]
    failures, sizes = verify(workload, seed, result, oracles)
    if trace:
        if result["trace_mismatches"]:
            failures["trace"] = (f"{len(result['trace_mismatches'])} traced "
                                 "outputs differ from untraced ones")
        if result["layers"]["restore_errors"]:
            failures["restore"] = ("not restored: "
                                   + ", ".join(result["layers"]["restore_errors"]))
        metrics = per_layer(records, result)
    else:
        metrics = end_to_end(records, failures, setup_s, result["peak_rss_kb"])
    print(f"{workload}: {len(records)} ops in {result['blocks']} blocks, "
          f"{len(failures)} failed", file=sys.stderr)
    for op_id, reason in list(failures.items())[:20]:
        print(f"  {op_id}: {reason}", file=sys.stderr)
    print(f"{workload} input sizes: "
          + json.dumps(dict(sorted(sizes.items()))), file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (("src", "skewfrac", "__init__.py"), ("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(ROOT, *needed)):
            fail(f"{os.path.join(*needed)} not found under {ROOT}: "
                 "run from a checkout of the repository")
    oracles = load_oracles()
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, oracles)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in inputs.WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, args.trace,
                              oracles)
        print(workload, json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
