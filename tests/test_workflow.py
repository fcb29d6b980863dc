"""The workflow's command lines, run here as the workflow writes them.

The CI workflow compares the installed ``modiag`` console script against
golden files and times it on large inputs.  This test reads
``.github/workflows/tests.yml`` as text, because PyYAML is not a test
dependency, and runs each ``run:`` script that calls ``modiag`` the way a
``shell: bash`` step runs, under ``bash --noprofile --norc -eo pipefail``,
with ``modiag`` replaced by this interpreter's ``-m modiag`` and ``src/`` on
``PYTHONPATH``.  Each script runs in a temporary directory that links
``tests/``, so what a script writes stays out of the checkout.
"""

import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

from helpers import child_env

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
MODIAG = re.compile(r"(?<![\w./-])modiag(?![\w./-])")


def run_scripts(text: str) -> list[str]:
    """The script of every ``run:`` key: the rest of its line, or, after
    ``run: |``, the following lines indented deeper than the key."""
    lines = text.splitlines()
    scripts = []
    for i, line in enumerate(lines):
        key = re.match(r"( *)(?:- )?run: (.*)$", line)
        if not key:
            continue
        if key.group(2) != "|":
            scripts.append(key.group(2) + "\n")
            continue
        body = []
        for nxt in lines[i + 1 :]:
            if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= len(key.group(1)):
                break
            body.append(nxt)
        scripts.append(textwrap.dedent("\n".join(body)).strip("\n") + "\n")
    return scripts


def test_run_scripts_reads_both_forms():
    text = "    steps:\n      - run: modiag a\n      - name: b\n        run: |\n          modiag b\n            c\n      - run: d\n"
    assert run_scripts(text) == ["modiag a\n", "modiag b\n  c\n", "d\n"]


def test_every_modiag_line_of_the_workflow_runs(tmp_path):
    scripts = [s for s in run_scripts(WORKFLOW.read_text()) if MODIAG.search(s)]
    assert scripts, "the workflow calls modiag nowhere"
    (tmp_path / "tests").symlink_to(ROOT / "tests", target_is_directory=True)
    env = child_env()
    command = shlex.quote(sys.executable) + " -m modiag"
    for i, script in enumerate(scripts):
        # An expression is filled in by the runner; here it cannot be.
        assert "${{" not in script, script
        path = tmp_path / f"step{i}.sh"
        path.write_text(MODIAG.sub(command, script))
        proc = subprocess.run(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(path)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (script, proc.stderr[-2000:])
