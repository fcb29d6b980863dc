"""Benchmark runner for modiag.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One caller runs a closed loop: every pass is a fresh worker interpreter
(``perfbench/worker.py``), spawned only after the previous one has ended,
so no cache can survive from one pass to the next.  The number of passes
depends on --seconds and the workload alone (``workloads.pass_count``), so
a faster program is still compared over the same certificates.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced passes on the same inputs and reports the
per-layer metrics, including the tracing overhead.  Every output is
checked (see ``checks.py``).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
are a readable table and a JSON record of the run's environment, which is
also written to ``.bench_build/results``.

Every reported time is a wall time rescaled by the calibration work timed
around and during it (``calibrate.py``), because on a shared box the speed
of the same code drifts by half within seconds.  The runner pins itself and
every process it starts to one processor, so a segment and the operation
it scales run on the same one.  The unscaled median pass time is kept in
the run's record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

from calibrate import SEGMENT_UNITS, UNIT_S  # noqa: E402
from checks import load_golden, op_problem  # noqa: E402
from tracer import METRICS as LAYER_METRICS  # noqa: E402
from workloads import LAYER_METRIC_MAP, WORKLOADS, pass_count, pass_ops  # noqa: E402

# Workers spawned only to time set-up; the first of them is discarded,
# since it may also write modiag's bytecode cache.
SETUP_PROBES = 3
OP_TIMEOUT_S = 60.0
# Every run ends within this many seconds, whatever the program does.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("grid_s", "s"),
    ("cert_s.p50", "s"),
    ("cert_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)
# exact.self_s is 0 on every workload until the sparse-combination code
# moves into modiag.exact.  It is printed and recorded, but left out of the
# result line, whose times must differ from run to run.
RECORD_ONLY = ("exact.self_s",)
PER_LAYER = tuple(m for m in LAYER_METRICS if m not in RECORD_ONLY) + (
    "cli.startup_s",
    "trace.overhead_s",
)


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


def layer_unit(name: str) -> str:
    if name == "cohomology.useful_ratio":
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  Below eleven samples no
    percentile qualifies and the smallest sample is returned."""
    xs = sorted(samples)
    rank = max(1, len(xs) - 10)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() or None


class Runner:
    def __init__(self, workload, seed: int, deadline: float, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.tmp = tmp

    def env(self, index: int) -> dict:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # String hashing, like the inputs, follows from the seed alone.
        env["PYTHONHASHSEED"] = str((self.seed * 7919 + index) % 4294967296)
        return env

    def spawn(self, index: int, *, setup_only=False, trace=False) -> dict:
        """Run one worker; its result, with ``setup_s`` added, or an
        ``error`` key when the worker failed or was killed."""
        job = {
            "root": str(ROOT), "workload": self.workload.name, "seed": self.seed,
            "index": index, "setup_only": setup_only, "trace": trace,
            "op_timeout": OP_TIMEOUT_S, "tmp": str(self.tmp),
            "spans_out": str(BUILD / f"trace-{self.workload.name}.jsonl"),
        }
        ops = len(self.workload.items)
        limit = min(self.deadline - time.monotonic(), 30.0 + ops * OP_TIMEOUT_S)
        if limit <= 0:
            return {"error": "run budget spent before the pass started"}
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=self.env(index), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"worker killed after {limit:.0f} s"}
        except BaseException:
            # Interrupted: take the worker and its children down before leaving.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        lines = out.decode("utf-8", "replace").strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail_text = err.decode("utf-8", "replace").strip().splitlines()[-3:]
            return {"error": f"worker exited {proc.returncode}: {' | '.join(tail_text)}"}
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready"] - spawned
        return result


def check_pass(runner: Runner, index: int, result: dict, golden: dict, failures: list) -> int:
    """Check every operation of one pass; returns the number attempted."""
    ops = pass_ops(runner.workload, runner.seed, index)
    outcomes = {o["id"]: o for o in result.get("ops", [])}
    for op in ops:
        outcome = outcomes.get(op["id"], {"error": result.get("error", "not run")})
        problem = op_problem(op, outcome, golden)
        if problem:
            failures.append({"pass": index, "op": op["id"], "problem": problem})
    return len(ops)


def scaled(seconds: float, segments: list[float], samples=()) -> float:
    """Wall time rescaled to the reference machine's calm speed.

    ``segments`` are the calibration segments timed around the operation
    and ``samples`` the single units sampled during it; the sampled time is
    taken out of the operation's own.
    """
    units = SEGMENT_UNITS * len(segments) + len(samples)
    per_unit = (sum(segments) + sum(samples)) / units
    return (seconds - sum(samples)) * UNIT_S / per_unit


def scaled_ops(result: dict) -> list[tuple[str, float]]:
    """(id, scaled seconds) of each operation of a pass."""
    cal = result["cal"]
    return [
        (op["id"], scaled(op["seconds"], cal[i:i + 2], op["samples"]))
        for i, op in enumerate(result["ops"])
    ]


def setup_samples(runner: Runner) -> list[float]:
    samples = []
    for probe in range(SETUP_PROBES + 1):
        result = runner.spawn(0, setup_only=True)
        if "error" in result:
            raise SetupError(result["error"])
        if probe:
            samples.append(scaled(result["setup_s"], result["cal"][:1]))
    return samples


def end_to_end(runner: Runner, seconds: float, golden: dict) -> tuple[dict, dict, int, list]:
    setups = setup_samples(runner)
    passes = pass_count(runner.workload, seconds)
    failures: list = []
    attempted = 0
    grids, raw_grids, rss, pooled = [], [], [], []
    per_cert: dict[str, list[float]] = {}
    for index in range(passes):
        result = runner.spawn(index)
        attempted += check_pass(runner, index, result, golden, failures)
        if "error" in result:
            continue
        ops = scaled_ops(result)
        setups.append(scaled(result["setup_s"], result["cal"][:1]))
        grids.append(sum(t for _, t in ops))
        raw_grids.append(sum(op["seconds"] - sum(op["samples"]) for op in result["ops"]))
        rss.append(result["peak_rss_mb"])
        for op_id, t in ops:
            per_cert.setdefault(op_id, []).append(t)
            pooled.append(t)
    if not grids:
        raise SetupError(f"no pass completed: {failures[:1]}")
    tail_value, tail_pct, beyond = tail(pooled)
    metrics = {
        "setup_s": statistics.median(setups),
        "grid_s": statistics.median(grids),
        # The median certificate: with an even number of certificates the
        # pooled median would sit in the gap between two of them.
        "cert_s.p50": statistics.median(statistics.median(ts) for ts in per_cert.values()),
        "cert_s.tail": tail_value,
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {
        "passes": passes, "setup_samples": len(setups), "grid_samples": len(grids),
        "cert_samples": len(pooled), "certificates": len(per_cert),
        "cert_s.tail_percentile": round(tail_pct, 2), "cert_s.tail_samples_beyond": beyond,
        "unscaled_grid_s": statistics.median(raw_grids),
    }
    return metrics, detail, attempted, failures


def per_layer(runner: Runner, seconds: float, golden: dict) -> tuple[dict, dict, int, list]:
    pairs = pass_count(runner.workload, seconds, traced=True)
    failures: list = []
    attempted = 0
    grids = {False: [], True: []}
    layers: list[dict] = []
    counters: list[dict] = []
    for index in range(pairs):
        # Both passes of a pair get the same inputs; alternate which goes first.
        for trace in ((False, True) if index % 2 == 0 else (True, False)):
            result = runner.spawn(index, trace=trace)
            attempted += check_pass(runner, index, result, golden, failures)
            if "error" in result:
                continue
            grids[trace].append(sum(t for _, t in scaled_ops(result)))
            if trace:
                factor = UNIT_S * SEGMENT_UNITS / statistics.median(result["cal"])
                layers.append({
                    name: value * factor if layer_unit(name) == "s" else value
                    for name, value in result["layers"].items()
                })
                counters.append(result["counters"])
    if not grids[True] or not grids[False]:
        raise SetupError(f"no traced pair completed: {failures[:1]}")
    metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(grids[True]) - statistics.median(grids[False])
    detail = {
        "pairs": pairs, "traced_passes": len(grids[True]), "untraced_passes": len(grids[False]),
        "counters": counters[-1],
        "cohomology.useful_ratio_base": "cohomology.class_terms / cohomology.terms_built",
        "cohomology.monomials_walked": "computed from pushforward arguments, not measured",
        "layer_metric_map": LAYER_METRIC_MAP,
    }
    return metrics, detail, attempted, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    golden = load_golden()
    BUILD.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        runner = Runner(workload, seed, deadline, Path(tmp))
        measure = per_layer if trace else end_to_end
        metrics, detail, attempted, failures = measure(runner, seconds, golden)
    units = {name: layer_unit(name) for name in metrics} if trace else dict(END_TO_END)
    reported = [name for name in metrics if name not in RECORD_ONLY]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "git_sha": git_sha(),
        "source_sha256": source_digest(), "nproc": os.cpu_count(),
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "failures": failures[:20], **detail,
    }
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=2), encoding="utf-8"
    )
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for metric, value in metrics.items():
        note = "  (recorded only)" if metric in RECORD_ONLY else ""
        if metric == "cert_s.tail":
            note = f"  (p{detail['cert_s.tail_percentile']} of {detail['cert_samples']} samples)"
        print(f"  {metric:<34} {value:>14.6g} {units[metric]}{note}")
    print(f"  {'failed_frac':<34} {record['failed_frac']:>14.6g} ratio  ({len(failures)} of {attempted})")
    for failure in failures[:5]:
        print(f"  FAILED pass {failure['pass']} {failure['op']}: {failure['problem']}")
    print(json.dumps(record))
    return {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in reported},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modiag" / "__init__.py").is_file():
        print(f"error: no modiag sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
