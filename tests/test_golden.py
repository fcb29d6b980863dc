"""Byte-identity of certificates and survey tables against tests/golden/.

Each file in GOLDEN is the stdout of ``python -m modiag`` with the
arguments listed for it.  Each file in LIBRARY_GOLDEN is
``certificate_to_json(replay_proof(**kwargs))`` for the keyword arguments
listed for it, pinning what the command line cannot reach.  Every file was
written by earlier code and is not regenerated unless CHANGES.md states a
contract change, so any change to certificate or survey bytes shows up
here.  ``json.dumps(indent=2)`` wrote them before certificates were written
directly, and stays the writer's oracle in ``helpers.json_oracle``.

``GRID_SHA256`` pins, in one digest, what every command of a wider grid
writes and returns, so that a change meant to keep behaviour shows byte
identity over the grid without a golden file per command.
"""

import hashlib
from itertools import combinations
from pathlib import Path

import pytest

from modiag import certificate_to_json, replay_proof
from modiag.cli import main
from modiag.grading import LAYERS

HERE = Path(__file__).resolve().parent / "golden"
ALL_LAYERS = "formal,grading,cohomology"


def _verify(g: int, m: int, *extra: str, layers: str = ALL_LAYERS) -> tuple[str, ...]:
    return ("verify", "--genus", str(g), "--power", str(m), "--layers", layers, *extra)


GOLDEN = {
    **{f"verify-g1-m{m}.json": _verify(1, m) for m in range(1, 5)},
    **{f"verify-g2-m{m}.json": _verify(2, m) for m in range(1, 7)},
    **{f"verify-g3-m{m}.json": _verify(3, m) for m in range(1, 8)},
    "verify-g1-m10.json": _verify(1, 10),
    **{f"verify-g1-m{m}.json": _verify(1, m, layers="formal,grading") for m in (16, 18)},
    "verify-g2-m7.json": _verify(2, 7),
    # The boundary pairs: both pigeonhole outcomes and the survivor witness.
    # (5,6) lists all 126 survivors and (6,5) the first 128 of 330, pinning
    # the survivor order and the list cap.  They leave the shadow out, which
    # the g = 4 files below pin up to the first vanishing power.
    **{
        f"verify-g{g}-m{m}.json": _verify(g, m, layers="formal,grading")
        for g, m in ((4, 8), (4, 9), (5, 10), (5, 11), (5, 6), (6, 5))
    },
    # All layers at g = 4 up to the first vanishing power, with the shadow's
    # bound given explicitly, past its graded dimension.
    **{
        f"verify-g4-m{m}-shadow.json": _verify(4, m, "--max-dim", "100000000000000")
        for m in range(5, 10)
    },
    # The shadow alone far past the first vanishing power, at the default bound.
    "verify-g1-m2000-cohomology.json": _verify(1, 2000, layers="cohomology"),
    # The grading layer alone at a large genus: 179,101 survivors, of which
    # the first 128 are listed, and the cap 2g - 1 binds on the first entry.
    "verify-g300-m3-grading.json": _verify(300, 3, layers="grading"),
    # 1,352,078 survivors, of which the first 128 are listed.
    "verify-g12-m13-grading.json": _verify(12, 13, layers="grading"),
    "verify-g2-m4.txt": _verify(2, 4, "--format", "text"),
    "survey-g1-M9.txt": ("survey", "--genus", "1", "--power-max", "9"),
    "survey-g2-M5.txt": ("survey", "--genus", "2", "--power-max", "5"),
    "survey-g1-M3-maxdim1.txt": ("survey", "--genus", "1", "--power-max", "3", "--max-dim", "1"),
}

LIBRARY_GOLDEN = {
    "replay-g1-m3-skipped.json": dict(g=1, m=3, layers=LAYERS, max_dim=5),
    # n = -1 and 1 are the unit cases of the gcd and sign rules.
    "replay-g2-m7-formal-unit-sample.json": dict(
        g=2, m=7, layers=("formal",), mult_sample=(-1, 1, 5, -4)
    ),
    "replay-g1-m500-formal.json": dict(g=1, m=500, layers=("formal",)),
    "replay-g3-m40-formal-grading.json": dict(
        g=3, m=40, layers=("formal", "grading"), mult_sample=(-1, 1, 5)
    ),
    # SKIPPED at the default bound, stating C(2gm, 2g): 4,311 digits, past
    # Python's int-to-text digit limit.
    "replay-g2600-m3-cohomology-skipped.json": dict(g=2600, m=3, layers=("cohomology",)),
}


def test_every_golden_file_is_listed():
    assert sorted(p.name for p in HERE.iterdir()) == sorted({**GOLDEN, **LIBRARY_GOLDEN})


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_bytes(name, capsys):
    assert main(list(GOLDEN[name])) == 0
    assert capsys.readouterr().out.encode("utf-8") == (HERE / name).read_bytes()


@pytest.mark.parametrize("name", sorted(LIBRARY_GOLDEN))
def test_certificate_matches_golden_bytes(name):
    cert = replay_proof(**LIBRARY_GOLDEN[name])
    assert certificate_to_json(cert).encode("utf-8") == (HERE / name).read_bytes()


def test_skipped_golden_skips_only_the_shadow():
    cert = replay_proof(**LIBRARY_GOLDEN["replay-g1-m3-skipped.json"])
    statuses = {s.id: s.status for s in cert.steps}
    assert [i for i, s in statuses.items() if s == "SKIPPED"] == ["cohomology-shadow"]


def _grid():
    """``verify`` at every g <= 4 and m <= 2g+2, with each nonempty layer
    subset, in both formats; ``survey`` at each g <= 4 up to 2g+2, at the
    default bound and at ``--max-dim 1``; and the two shadow refusals."""
    subsets = [",".join(c) for size in (1, 2, 3) for c in combinations(LAYERS, size)]
    for g in range(1, 5):
        for m in range(1, 2 * g + 3):
            for layers in subsets:
                for fmt in ("json", "text"):
                    yield _verify(g, m, "--format", fmt, layers=layers)
    for g in range(1, 5):
        survey = ("survey", "--genus", str(g), "--power-max", str(2 * g + 2))
        yield survey
        yield (*survey, "--max-dim", "1")
    yield _verify(3, 7, "--max-dim", "1000", layers="cohomology")
    yield _verify(2600, 3, layers="cohomology")


# Like the golden files, recomputed only when CHANGES.md states a contract
# change.
GRID_SHA256 = "8483435666059ae7114133df10a427f47f4791c8dbe4e2691356dccf53fee3fc"


def test_command_grid_digest(capsys):
    commands = list(_grid())
    assert len(commands) == 402
    digest = hashlib.sha256()
    for argv in commands:
        code = main(list(argv))
        out, err = capsys.readouterr()
        digest.update(repr((argv, code, out, err)).encode("utf-8"))
    assert digest.hexdigest() == GRID_SHA256
