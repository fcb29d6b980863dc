"""Record the sha256 digests that golden.json holds.

Usage, from the root of a checkout whose output is the reference:

    PYTHONPATH=src python3 perfbench/make_golden.py

Each replay certificate is made with the default multiplication sample;
each CLI command runs as ``python -m modiag`` and its stdout is digested.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import GOLDEN_PATH, digest  # noqa: E402
from workloads import DEFAULT_SAMPLE, WORKLOADS, pass_ops  # noqa: E402


def main() -> int:
    import modiag
    from modiag.grading import DEFAULT_MULT_SAMPLE

    if tuple(DEFAULT_MULT_SAMPLE) != DEFAULT_SAMPLE:
        raise SystemExit(f"modiag's default sample is {DEFAULT_MULT_SAMPLE}, not {DEFAULT_SAMPLE}")
    golden = {"replay": {}, "cli": {}}
    for workload in WORKLOADS.values():
        for op in pass_ops(workload, 0, 0):
            if op["kind"] == "cli":
                proc = subprocess.run(
                    [sys.executable, "-m", "modiag", *op["argv"]], capture_output=True, check=False
                )
                if proc.returncode != op["exit"]:
                    raise SystemExit(f"{op['id']}: exit {proc.returncode}, expected {op['exit']}")
                golden["cli"][op["id"]] = digest(proc.stdout.decode("utf-8"))
            else:
                cert = modiag.replay_proof(op["g"], op["m"], layers=op["layers"], mult_sample=op["sample"])
                golden["replay"][op["id"]] = digest(modiag.certificate_to_json(cert))
    for table in golden.values():
        for key in sorted(table):
            table[key] = table.pop(key)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
