"""Byte-identity of command-line output against files in tests/golden/.

The files were written by the command line before the combination core and
the survey were refactored; any change to certificate or survey bytes must
show up here.  Each file is the stdout of ``python -m modiag`` with the
arguments listed for it in GOLDEN.
"""

from pathlib import Path

import pytest

from modiag.cli import main

HERE = Path(__file__).resolve().parent / "golden"
ALL_LAYERS = ("--layers", "formal,grading,cohomology")


def _verify(g: int, m: int, *extra: str) -> tuple[str, ...]:
    return ("verify", "--genus", str(g), "--power", str(m), *ALL_LAYERS, *extra)


GOLDEN = {
    **{f"verify-g1-m{m}.json": _verify(1, m) for m in range(1, 5)},
    **{f"verify-g2-m{m}.json": _verify(2, m) for m in range(1, 7)},
    "verify-g2-m4.txt": _verify(2, 4, "--format", "text"),
    "survey-g1-M9.txt": ("survey", "--genus", "1", "--power-max", "9"),
    "survey-g2-M5.txt": ("survey", "--genus", "2", "--power-max", "5"),
    "survey-g1-M3-maxdim1.txt": ("survey", "--genus", "1", "--power-max", "3", "--max-dim", "1"),
}


def test_every_golden_file_is_listed():
    assert sorted(p.name for p in HERE.iterdir()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_bytes(name, capsys):
    assert main(list(GOLDEN[name])) == 0
    assert capsys.readouterr().out.encode("utf-8") == (HERE / name).read_bytes()
