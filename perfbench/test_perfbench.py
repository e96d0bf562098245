"""Tests of the benchmark itself: its checks catch wrong outputs, its
spans leave the program as they found it, and its inputs follow the seed.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402


def small_ops(workload, per_kind=2):
    """The cheapest few ops of each kind from the first block of seed 0."""
    def size(op):
        s = op["size"]
        return s.get("deg", s.get("xdeg", s.get("tdeg"))), s.get("bound", 0)

    picked, seen = [], {}
    for op in sorted(inputs.block(workload, 0, 0), key=size):
        if seen.get(op["kind"], 0) < per_kind:
            seen[op["kind"]] = seen.get(op["kind"], 0) + 1
            picked.append(op)
    return picked


def run_ops(workload, ops):
    prepare, call = worker.make_runner(workload, worker.load_program(workload))
    return [call(op, prepare(op))[1] for op in ops]


def corrupt(output):
    """The same output with its value changed."""
    for a, b in (("true", "false"), ("True", "False")):
        if output.rstrip().endswith(a):
            return output.replace(a, b)
        if output.rstrip().endswith(b):
            return output.replace(b, a)
    if re.fullmatch(r"exit 0\n-?\d+\n", output):
        head, number = output.split("\n")[:2]
        return f"{head}\n{int(number) + 1}\n"
    lines = output.split("\n")
    at = 1 if lines[0].startswith("exit") else 0
    lines[at] += " + 1"
    return "\n".join(lines)


@pytest.fixture(scope="module")
def oracles():
    return run.load_oracles()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_checks_pass_right_outputs_and_catch_corrupted_ones(workload, oracles):
    ops = small_ops(workload)
    assert {op["kind"] for op in ops} >= {"eq_equal", "eq_unequal", "central"}
    for op, output in zip(ops, run_ops(workload, ops)):
        assert checks.check(workload, op, output, oracles) is None, (op["id"], output)
        bad = corrupt(output)
        assert bad != output
        assert checks.check(workload, op, bad, oracles), (op["kind"], bad)
        if workload != "tower2":
            failed_exit = output.replace("exit 0", "exit 3", 1)
            assert checks.check(workload, op, failed_exit, oracles)


def _bindings():
    """Every attribute of every skewfrac module and traced class."""
    import skewfrac.cli  # noqa: F401  (load every module the tracer patches)
    mods = {name: dict(vars(m)) for name, m in sys.modules.items()
            if name == "skewfrac" or name.startswith("skewfrac.")}
    from skewfrac import CentralPoly, MultiPoly, Quaternion, RightFraction
    classes = {c.__name__: dict(vars(c))
               for c in (CentralPoly, MultiPoly, Quaternion, RightFraction)}
    return mods, classes


def _same(before, after):
    return all(before[k].keys() == after[k].keys()
               and all(before[k][a] is after[k][a] for a in before[k])
               for k in before)


def test_tracer_patches_every_binding_site_and_restores_them():
    import skewfrac.cli as cli
    from skewfrac import centralpoly, fractionfield, freealgebra, parser

    before = _bindings()
    originals = (centralpoly.gcrd, fractionfield.gcrd, cli.gcrd, cli.sigma,
                 cli.parse, cli.evaluate, fractionfield.lcrm_with_cofactors,
                 fractionfield.RightFraction.__eq__)
    tracer = Tracer()
    tracer.install()
    try:
        patched = (centralpoly.gcrd, fractionfield.gcrd, cli.gcrd, cli.sigma,
                   cli.parse, cli.evaluate, fractionfield.lcrm_with_cofactors,
                   fractionfield.RightFraction.__eq__)
        assert all(p is not o and p.__wrapped__ is o
                   for p, o in zip(patched, originals))
        assert freealgebra.sigma is cli.sigma and parser.parse is cli.parse
        ops = small_ops("euclid", 1) + small_ops("coord", 1)
        for op in ops:
            worker.cli_runner(cli)[1](op, None)
    finally:
        tracer.uninstall()
    assert tracer.restore_errors() == []
    assert len(tracer.patched) > 20
    mods, classes = _bindings()
    assert _same(before[0], mods) and _same(before[1], classes)
    assert tracer.stats["cli.main"][0] == len(ops)
    assert tracer.stats["centralpoly.gcrd"][0] > 0
    assert tracer.stats["freealgebra.sigma"][0] > 0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_outputs_match_untraced_outputs(workload):
    ops = small_ops(workload)
    traced, layers = worker.traced_pass(workload, worker.load_program(workload),
                                        [ops])
    assert run_ops(workload, ops) == [r[3] for r in traced]
    assert layers["restore_errors"] == []


def test_inputs_follow_the_seed():
    for workload in inputs.WORKLOADS:
        first = [op.get("argv", op.get("args")) for op in inputs.block(workload, 7, 3)]
        again = [op.get("argv", op.get("args")) for op in inputs.block(workload, 7, 3)]
        other = [op.get("argv", op.get("args")) for op in inputs.block(workload, 8, 3)]
        assert first == again and first != other


def test_reported_metrics_are_the_ones_benchmark_json_declares():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers_doc = json.load(f)
    ops = small_ops("euclid", 1)
    program = worker.load_program("euclid")
    records, _ = worker.timed_blocks([ops], worker.make_runner("euclid", program))
    traced, layers = worker.traced_pass("euclid", program, [ops])
    result = {"layers": layers, "traced_time": sum(r[2] for r in traced)}
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = {n: u for n, (_, u) in run.per_layer(records, result).items()}
    assert reported == declared
    assert list(layers_doc) == list(declared)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    reported = {n: u for n, (_, u) in run.end_to_end(records, {}, 0.1, 1024).items()}
    assert reported == declared
