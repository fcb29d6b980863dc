"""Run ``python -m modiag ARGS...`` with the benchmark's tracer installed.

Usage: python perfbench/tracecli.py SPANS_FILE CERT_ID ARGS...

Stdout, stderr and the exit code are the command's own; the spans and
counters go to SPANS_FILE as one JSON object when the command ends.
"""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_file, cert, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import modiag.cli  # noqa: F401  (the tracer patches loaded modules)

    tracer = Tracer()
    tracer.cert = cert
    sys.argv = ["modiag", *args]
    code = 0
    tracer.install()
    try:
        runpy.run_module("modiag", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.restore()
        sys.stdout.flush()
        Path(spans_file).write_text(
            json.dumps({"spans": tracer.spans, "counters": dict(tracer.counters)}),
            encoding="utf-8",
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
