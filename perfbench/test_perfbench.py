"""Tests of the benchmark itself: tracing changes no output, every wrapped
function is put back, and the checks catch a wrong certificate.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import modiag  # noqa: E402
from checks import certificate_problem, load_golden, op_problem  # noqa: E402
from run import END_TO_END, PER_LAYER, layer_unit, tail  # noqa: E402
from tracer import NAMESPACES, Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SAMPLE, WORKLOADS, pass_ops, sample_for  # noqa: E402

ALL = ("formal", "grading", "cohomology")
CASES = [(1, 3, ALL), (2, 4, ALL), (2, 5, ALL), (3, 6, ("formal", "grading"))]


def namespace_functions() -> dict:
    out = {}
    for name in NAMESPACES:
        module = sys.modules[name]
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                out[(name, attr)] = value
    return out


def certify(g, m, layers, sample=DEFAULT_SAMPLE) -> str:
    return modiag.certificate_to_json(modiag.replay_proof(g, m, layers=layers, mult_sample=sample))


@pytest.mark.parametrize("g,m,layers", CASES)
def test_traced_certificate_is_byte_identical(g, m, layers):
    plain = certify(g, m, layers)
    with Tracer() as tracer:
        with tracer.span("bench.cert", f"{g}/{m}"):
            traced = certify(g, m, layers)
    assert traced == plain
    names = {span[0].split(".")[0] for span in tracer.spans}
    assert {"diagonals", "grading"} <= names
    assert ("cohomology" in names) == ("cohomology" in layers)
    assert all(span[4] == f"{g}/{m}" for span in tracer.spans)


def test_every_wrapped_function_is_restored():
    before = namespace_functions()
    tracer = Tracer()
    tracer.install()
    try:
        during = namespace_functions()
        patched = {key for key in before if during[key] is not before[key]}
        # Names imported into other namespaces are patched there too.
        for key in [
            ("modiag", "replay_proof"),
            ("modiag.cli", "replay_proof"),
            ("modiag.cli", "_count_bounded"),
            ("modiag.grading", "mult_pushforward_all"),
            ("modiag.cohomology", "combo"),
            ("modiag.cohomology", "class_of_cycle"),
        ]:
            assert key in patched
        certify(2, 3, ALL)
    finally:
        tracer.restore()
    after = namespace_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_restore_after_an_exception():
    before = namespace_functions()
    with pytest.raises(ValueError):
        with Tracer():
            modiag.replay_proof(0, 3)
    after = namespace_functions()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--genus", "1", "--power", "3", "--layers", "formal,grading,cohomology", "--format", "text"],
        ["survey", "--genus", "1", "--power-max", "4"],
        ["verify", "--genus", "3", "--power", "7", "--layers", "cohomology", "--max-dim", "1000"],
    ],
)
def test_traced_cli_output_is_byte_identical(argv, tmp_path):
    env = {"PYTHONPATH": str(HERE.parent / "src"), "PATH": "/usr/bin:/bin"}
    plain = subprocess.run([sys.executable, "-m", "modiag", *argv], capture_output=True, env=env, timeout=120)
    spans_file = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(HERE / "tracecli.py"), str(spans_file), "cmd", *argv],
        capture_output=True, env=env, timeout=120,
    )
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    trace = json.loads(spans_file.read_text())
    assert trace["spans"][0][0] == "cli.main"


def test_layer_metrics_subtract_child_spans():
    spans = [
        ["bench.cert", 0.0, 10.0, -1, "c"],
        ["cli.main", 0.0, 9.0, 0, "c"],
        ["diagonals.modified_diagonal", 1.0, 3.0, 1, "c"],
        ["grading.replay_proof", 4.0, 8.0, 1, "c"],
        ["diagonals.proj_pushforward", 5.0, 6.0, 3, "c"],
    ]
    out = layer_metrics(spans, Counter())
    assert out["cli.self_s"] == 3.0
    assert out["grading.self_s"] == 3.0
    assert out["diagonals.self_s"] == 3.0
    assert out["diagonals.calls"] == 2
    assert out["diagonals.proj_pushforward.s"] == 1.0
    # replay_proof is how cli should get certificates; the direct
    # modified_diagonal call is recomputation.
    assert out["cli.recompute_s"] == 2.0


def test_tail_has_ten_samples_beyond_it():
    assert tail([float(i) for i in range(1, 21)]) == (10.0, 50.0, 10)
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)


def test_inputs_depend_only_on_the_seed():
    workload = WORKLOADS["shadow"]
    assert pass_ops(workload, 7, 1) == pass_ops(workload, 7, 1)
    assert pass_ops(workload, 7, 0)[0]["sample"] == list(DEFAULT_SAMPLE)
    for seed in range(50):
        sample = sample_for(seed)
        assert len(set(sample)) == 4 and all(n and -5 <= n <= 5 for n in sample)


def test_checks_accept_golden_and_reject_tampering():
    golden = load_golden()
    op = next(o for o in pass_ops(WORKLOADS["shadow"], 3, 0) if (o["g"], o["m"]) == (2, 4))
    text = certify(2, 4, ALL)
    assert op_problem(op, {"output": text}, golden) is None
    assert op_problem(op, {"output": text.replace("PASS", "PASS ", 1)}, golden) is not None

    sample = sample_for(3)
    good = json.loads(certify(2, 4, ALL, sample))
    assert certificate_problem(good, 2, 4, ALL, sample) is None
    for step, key, value in [
        ("mult-eigenvalue", "checks", [{"n": n, "factor": n ** 4 + 1, "verified": True} for n in sample]),
        ("cohomology-shadow", "is_zero", True),
        ("top-degree-pigeonhole", "counterexample", [0, 4, 4, 4]),
        ("kunneth-survivors", "survivor_count", 2),
    ]:
        bad = json.loads(certify(2, 4, ALL, sample))
        next(s for s in bad["steps"] if s["id"] == step)["witness"][key] = value
        assert certificate_problem(bad, 2, 4, ALL, sample) is not None, step


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, layer_unit(n)) for n in PER_LAYER]
