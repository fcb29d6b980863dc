"""Correctness checks for every operation the benchmark runs.

Certificates made with the default multiplication sample, and all CLI
stdout, must match the sha256 digests in ``golden.json`` byte for byte.
Every certificate is also checked against the paper's invariants, worked
out here without modiag.  An operation that timed out, raised, returned
the wrong exit code or a wrong certificate is failed.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from workloads import DEFAULT_SAMPLE

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def survivor_count(g: int, m: int) -> int:
    """Multidegrees in {0..2g-1}^m of total 2g(m-1), by dynamic programming."""
    ways = Counter({0: 1})
    for _ in range(m):
        step: Counter = Counter()
        for total, count in ways.items():
            for entry in range(2 * g):
                step[total + entry] += count
        ways = step
    return ways[2 * g * (m - 1)]


def expected_step_ids(layers) -> list[str]:
    ids = []
    if "formal" in layers:
        ids += ["mult-eigenvalue", "contraction-vanishing"]
    if "grading" in layers:
        ids += ["motivic-decomposition", "eigenweight", "kunneth-survivors", "top-degree-pigeonhole"]
    if "cohomology" in layers:
        ids.append("cohomology-shadow")
    return ids


def certificate_problem(cert: dict, g: int, m: int, layers, sample) -> str | None:
    """The first way ``cert`` breaks the paper's invariants, or None."""
    if (cert.get("g"), cert.get("m")) != (g, m):
        return f"certificate is for (g, m) = ({cert.get('g')}, {cert.get('m')})"
    steps = {s["id"]: s for s in cert["steps"]}
    if [s["id"] for s in cert["steps"]] != expected_step_ids(layers):
        return f"unexpected steps {list(steps)}"
    skipped = [i for i, s in steps.items() if s["status"] == "SKIPPED"]
    if skipped:
        return f"skipped steps {skipped}"
    vanishes = m >= 2 * g + 1
    if "formal" in layers:
        mult = steps["mult-eigenvalue"]
        checks = mult["witness"]["checks"]
        if [c["n"] for c in checks] != list(sample):
            return "mult-eigenvalue sampled the wrong multipliers"
        if mult["status"] != "PASS" or any(
            c["factor"] != c["n"] ** (2 * g) or c["verified"] is not True for c in checks
        ):
            return "a mult-eigenvalue factor is not n^(2g) or not verified"
        contraction = steps["contraction-vanishing"]
        checks = contraction["witness"]["checks"]
        if [c["j"] for c in checks] != (list(range(1, m + 1)) if m >= 2 else []):
            return "contraction-vanishing checked the wrong factors"
        if contraction["status"] != "PASS" or any(c["vanishes"] is not True for c in checks):
            return "a contraction does not vanish"
    if "grading" in layers:
        count = survivor_count(g, m)
        if steps["motivic-decomposition"]["status"] != "ASSUMED":
            return "the motivic decomposition is not marked ASSUMED"
        eigen = steps["eigenweight"]
        if eigen["status"] != "PASS" or eigen["witness"]["weight"] != 2 * g * (m - 1):
            return "eigenweight does not pin weight 2g(m-1)"
        survivors = steps["kunneth-survivors"]
        if survivors["status"] != "PASS" or survivors["witness"]["survivor_count"] != count:
            return f"survivor_count is not the analytic count {count}"
        pigeon = steps["top-degree-pigeonhole"]
        if (pigeon["status"] == "PASS") != vanishes:
            return "the pigeonhole holds although m <= 2g, or fails although m >= 2g+1"
        cex = [m - 1] + [2 * g - 1] * (m - 1)
        if not vanishes and pigeon["witness"]["counterexample"] != cex:
            return f"pigeonhole counterexample is not {cex}"
        if pigeon["witness"]["survivor_count"] != (0 if vanishes else count):
            return "pigeonhole survivor_count disagrees with the analytic count"
    if "cohomology" in layers:
        shadow = steps["cohomology-shadow"]
        if shadow["status"] != "PASS" or shadow["witness"]["is_zero"] != vanishes:
            return "the cohomology class is not zero exactly when m >= 2g+1"
        if not vanishes and shadow["witness"].get("survivor_containment") != "verified":
            return "the class's support is not checked inside the survivors"
    expected = "FAIL" if "grading" in layers and not vanishes else "PASS"
    if cert["result"] != expected:
        return f"result {cert['result']}, expected {expected}"
    return None


def op_problem(op: dict, outcome: dict, golden: dict) -> str | None:
    """Why the operation failed, or None when its output is correct."""
    if outcome.get("error"):
        return outcome["error"]
    text = outcome["output"]
    if op["kind"] == "cli":
        if outcome["exit"] != op["exit"]:
            return f"exit code {outcome['exit']}, expected {op['exit']}"
        if digest(text) != golden["cli"][op["id"]]:
            return "stdout differs from the golden digest"
        return None
    if tuple(op["sample"]) == DEFAULT_SAMPLE and digest(text) != golden["replay"][op["id"]]:
        return "certificate differs from the golden digest"
    try:
        cert = json.loads(text)
        return certificate_problem(cert, op["g"], op["m"], op["layers"], op["sample"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed certificate: {type(exc).__name__}: {exc}"
