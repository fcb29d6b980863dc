"""One pass of a workload, in a fresh interpreter.

Usage: python perfbench/worker.py JOB_JSON

``run.py`` spawns this script once per pass, with ``src`` on PYTHONPATH.
It imports modiag, generates the pass's inputs from the seed, notes the
moment it is ready, then runs every operation in order, each under a
wall-clock limit, with a calibration segment (``calibrate.py``) before the
first operation and after each one, and calibration samples taken while
each untraced replay runs.  Outputs are returned unchecked; the
runner checks them.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import Sampler, segment  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, pass_ops  # noqa: E402


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


def timed(fn, limit: float):
    """Run fn() under a wall-clock limit: (seconds, value, error)."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return time.perf_counter() - start, None, f"timeout after {limit} s"
    except Exception as exc:  # the operation failed; the pass goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, value, None


def run_replay(modiag, op: dict, limit: float, tracer) -> dict:
    def certify():
        scope = tracer.span("bench.cert", op["id"]) if tracer else nullcontext()
        with scope:
            cert = modiag.replay_proof(
                op["g"], op["m"], layers=op["layers"], mult_sample=op["sample"]
            )
            return modiag.certificate_to_json(cert)

    # A traced pass is not sampled, so the sampler's work lands in no span.
    sampler = Sampler() if tracer is None else None
    if sampler is not None:
        sampler.start()
    try:
        seconds, text, error = timed(certify, limit)
    finally:
        samples = sampler.stop() if sampler is not None else []
    return {"id": op["id"], "seconds": seconds, "samples": samples, "output": text, "error": error}


def run_cli(op: dict, limit: float, tmp: Path | None, index: int) -> dict:
    spans_file = None
    if tmp is None:
        argv = [sys.executable, "-m", "modiag", *op["argv"]]
    else:
        spans_file = tmp / f"cli-{os.getpid()}-{index}.json"
        argv = [sys.executable, str(HERE / "tracecli.py"), str(spans_file), op["id"], *op["argv"]]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return {"id": op["id"], "seconds": time.perf_counter() - start, "samples": [],
                "output": None, "exit": None, "error": f"timeout after {limit} s"}
    seconds = time.perf_counter() - start
    out = {"id": op["id"], "seconds": seconds, "samples": [],
           "output": proc.stdout.decode("utf-8", "replace"), "exit": proc.returncode, "error": None}
    if spans_file is not None:
        try:
            out["trace"] = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
        except (OSError, ValueError) as exc:
            out["error"] = f"traced command left no spans: {exc}"
    return out


def merge_cli_traces(results: list, tracer: Tracer) -> float:
    """Fold each traced command's spans into ``tracer``; return the time
    the commands spent outside modiag.cli.main (start-up and exit)."""
    startup = 0.0
    for outcome in results:
        trace = outcome.pop("trace", None)
        if trace is None:
            continue
        offset = len(tracer.spans)
        inside = 0.0
        for name, start, end, parent, cert in trace["spans"]:
            tracer.spans.append([name, start, end, parent + offset if parent >= 0 else -1, cert])
            if parent < 0:
                inside += end - start
        tracer.counters.update(trace["counters"])
        startup += outcome["seconds"] - inside
    return startup


def main() -> int:
    job = json.loads(sys.argv[1])
    root = Path(job["root"])
    import modiag

    if not Path(modiag.__file__).resolve().is_relative_to(root / "src"):
        print(f"modiag was imported from {modiag.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 3
    ops = pass_ops(WORKLOADS[job["workload"]], job["seed"], job["index"])
    ready = time.monotonic()
    cal = [segment()]
    if job["setup_only"]:
        print(json.dumps({"ready": ready, "cal": cal}))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    limit = job["op_timeout"]
    tmp = Path(job["tmp"]) if job["trace"] else None
    tracer = Tracer() if job["trace"] else None
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if op["kind"] == "cli":
                results.append(run_cli(op, limit, tmp, i))
            else:
                results.append(run_replay(modiag, op, limit, tracer))
            cal.append(segment())
    finally:
        if tracer is not None:
            tracer.restore()

    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {"ready": ready, "cal": cal, "peak_rss_mb": kib / 1024, "ops": results}
    if tracer is not None:
        startup = merge_cli_traces(results, tracer)
        layers = layer_metrics(tracer.spans, tracer.counters)
        layers["cli.startup_s"] = startup
        out["layers"] = layers
        out["counters"] = dict(tracer.counters)
        spans_path = Path(job["spans_out"])
        spans_path.write_text(
            "".join(json.dumps(span) + "\n" for span in tracer.spans), encoding="utf-8"
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
