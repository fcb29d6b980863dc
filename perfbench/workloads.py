"""Workloads of the modiag benchmark and the inputs each seed generates.

A workload is a fixed list of operations run as one pass: either
``replay_proof`` calls on a set of (g, m) pairs with one layer set, or
``python -m modiag`` command lines.  The seed decides the order of the
operations in each pass and the multiplication sample; modiag only ever
sees the generated inputs.

This module imports nothing from modiag, so the runner can plan and check
a run without loading the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# modiag.grading.DEFAULT_MULT_SAMPLE.  Pass 0 of every run uses it, so the
# certificates of that pass are checked byte for byte against golden.json.
DEFAULT_SAMPLE = (-3, -2, 2, 3)

# Fewest untraced passes in a run, so that every median has three samples.
MIN_PASSES = 3
# The run length that Workload.passes is sized for.
REFERENCE_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    # Untraced passes in a REFERENCE_SECONDS run on a 2-core Xeon with
    # Python 3.11.  The count depends on --seconds only, never on how fast
    # the program is, so a faster program is compared over the same
    # certificates.  It is also chosen so that the tail percentile (ten
    # samples beyond it) falls inside one certificate's samples rather
    # than on the edge between two.
    passes: int
    # Layer set for replay workloads; None for the command-line workload.
    layers: tuple[str, ...] | None
    # (g, m) pairs for replay workloads; (argv, expected exit code) for cli.
    items: tuple


CLI_COMMANDS = (
    (("verify", "--genus", "1", "--power", "12"), 0),
    (("verify", "--genus", "2", "--power", "4", "--format", "text"), 0),
    (("verify", "--genus", "2", "--power", "5", "--layers", "formal,grading,cohomology"), 0),
    # The bound refuses the shadow at (3, 7): exit 2 is the correct answer.
    (("verify", "--genus", "3", "--power", "7", "--layers", "cohomology", "--max-dim", "1000"), 2),
    (("survey", "--genus", "2", "--power-max", "5"), 0),
    (("survey", "--genus", "1", "--power-max", "9"), 0),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="formal-deep",
            passes=3,
            layers=("formal", "grading"),
            items=((1, 12), (1, 13), (1, 14), (2, 11)),
        ),
        Workload(
            name="shadow",
            passes=7,
            layers=("formal", "grading", "cohomology"),
            items=((1, 9), (1, 10), (2, 3), (2, 4), (2, 5), (2, 6)),
        ),
        Workload(
            name="boundary",
            passes=7,
            layers=("formal", "grading"),
            items=((3, 6), (3, 7), (4, 8), (4, 9), (5, 10), (5, 11)),
        ),
        Workload(
            name="cli",
            passes=7,
            layers=None,
            items=CLI_COMMANDS,
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, and where.
# BENCHMARK.json has no room for it, so traced results carry it instead.
LAYER_METRIC_MAP = {
    "diagonals.*": "grid_s and cert_s.tail on formal-deep, about half of grid_s on boundary; no change on shadow",
    "grading.*": "grid_s and cert_s.tail on boundary; about zero on formal-deep and shadow",
    "cohomology.*": "grid_s, cert_s.tail and peak_rss_mb on shadow; absent from formal-deep and boundary",
    "cli.*": "cert_s.p50 and grid_s on cli",
    "exact.*": "about zero today; rises when the sparse-combination code moves into exact, with no end-to-end change",
    "trace.overhead_s": "none: traced grid_s minus untraced grid_s of the same run",
}


def sample_for(seed: int) -> tuple[int, ...]:
    """Four distinct nonzero integers in -5..5, in drawn order."""
    rng = random.Random(f"sample:{seed}")
    return tuple(rng.sample([n for n in range(-5, 6) if n], 4))


def pass_ops(workload: Workload, seed: int, index: int) -> list[dict]:
    """The operations of pass ``index`` of a run, in the order they run.

    Each operation carries an ``id`` naming it independently of its
    position, so checks and per-certificate times can be matched to it.
    """
    rng = random.Random(f"order:{workload.name}:{seed}:{index}")
    items = list(workload.items)
    rng.shuffle(items)
    if workload.layers is None:
        return [
            {"id": " ".join(argv), "kind": "cli", "argv": list(argv), "exit": code}
            for argv, code in items
        ]
    sample = DEFAULT_SAMPLE if index == 0 else sample_for(seed)
    layers = ",".join(workload.layers)
    return [
        {"id": f"{layers}/{g}/{m}", "kind": "replay", "g": g, "m": m,
         "layers": list(workload.layers), "sample": list(sample)}
        for g, m in items
    ]


def pass_count(workload: Workload, seconds: float, traced: bool = False) -> int:
    """Passes in a run of ``seconds``.

    A traced run alternates untraced and traced passes, and a traced pass
    is slower, so it returns the number of such pairs, at least one.
    """
    scaled = workload.passes * seconds / REFERENCE_SECONDS
    if traced:
        return max(1, round(scaled / 2.5))
    return max(MIN_PASSES, round(scaled))
