import json
import subprocess
import sys

import pytest

from modiag.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes_beyond_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--genus", "1", "--power", "3",
        "--layers", "formal,grading,cohomology",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "PASS"
    assert [s["kind"] for s in payload["steps"]] == [
        "FORMAL_IDENTITY",
        "FORMAL_IDENTITY",
        "AXIOM",
        "EIGENWEIGHT",
        "GRADING_FILTER",
        "PIGEONHOLE",
        "COHOMOLOGY_CHECK",
    ]


def test_verify_small_m_reports_survivors_and_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--genus", "1", "--power", "2", "--layers", "grading")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "FAIL"  # vanishing not certified, by design
    pigeon = next(s for s in payload["steps"] if s["kind"] == "PIGEONHOLE")
    assert pigeon["witness"]["counterexample"] == [1, 1]
    assert "no conclusion" in pigeon["witness"]["note"]


def test_verify_rejects_genus_zero(capsys):
    code, _, err = run_cli(capsys, "verify", "--genus", "0", "--power", "2")
    assert code == 2
    assert "--genus" in err


def test_verify_rejects_bad_layers(capsys):
    code, _, _ = run_cli(capsys, "verify", "--genus", "1", "--power", "2", "--layers", "nonsense")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--genus", "1", "--power", "2", "--layers", ",")
    assert code == 2


def test_verify_resource_bound_is_a_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--genus", "2", "--power", "5",
        "--layers", "cohomology", "--max-dim", "100",
    )
    assert code == 2
    assert "max-dim" in err


def test_verify_output_is_byte_stable(capsys):
    args = ("verify", "--genus", "2", "--power", "5", "--layers", "formal,grading")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_verify_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys, "verify", "--genus", "1", "--power", "3", "--out", str(target)
    )
    assert code == 0
    _, out, _ = run_cli(capsys, "verify", "--genus", "1", "--power", "3")
    assert target.read_text(encoding="utf-8") == out


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--genus", "1", "--power", "3", "--format", "text")
    assert code == 0
    assert out.startswith("certificate schema 1: g=1 m=3")
    assert out.rstrip().endswith("result: PASS")


def test_verify_failure_exit_code_is_one(capsys, monkeypatch):
    # force a genuine check failure to see exit code 1
    import modiag.cli as cli_module
    from modiag.grading import Certificate, Step

    broken = Certificate(
        "1", 1, 3,
        (Step("mult-eigenvalue", "FORMAL_IDENTITY", "s", "r", "FAIL", {}),),
        "FAIL",
    )
    monkeypatch.setattr(cli_module, "replay_proof", lambda *a, **k: broken)
    code, _, _ = run_cli(capsys, "verify", "--genus", "1", "--power", "3")
    assert code == 1


def test_survey_failure_exit_code_is_one(capsys, monkeypatch):
    # a non-pigeonhole FAIL in any row's certificate fails the survey
    import dataclasses

    import modiag.cli as cli_module
    from modiag.grading import replay_proof

    def broken(g, m, **kwargs):
        cert = replay_proof(g, m, **kwargs)
        if m != 2:
            return cert
        steps = tuple(
            dataclasses.replace(s, status="FAIL") if s.id == "mult-eigenvalue" else s
            for s in cert.steps
        )
        return dataclasses.replace(cert, steps=steps, result="FAIL")

    monkeypatch.setattr(cli_module, "replay_proof", broken)
    code, out, _ = run_cli(capsys, "survey", "--genus", "1", "--power-max", "3")
    assert code == 1
    rows = out.rstrip("\n").split("\n")[2:]
    assert [row.split()[1] for row in rows] == ["pass", "FAIL", "pass"]


def test_survey_rows_and_determinism(capsys):
    code, out, _ = run_cli(capsys, "survey", "--genus", "1", "--power-max", "4")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0].startswith("survey g=1 power_max=4")
    rows = lines[2:]
    assert len(rows) == 4  # one row per m, none dropped
    assert "nonzero" in rows[1] and "no claim" in rows[1]
    assert "zero" in rows[2] and "vanishes" in rows[2]
    _, out2, _ = run_cli(capsys, "survey", "--genus", "1", "--power-max", "4")
    assert out2 == out


def test_survey_marks_skipped_rows(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--genus", "1", "--power-max", "3", "--max-dim", "1"
    )
    assert code == 0
    rows = out.rstrip("\n").split("\n")[2:]
    assert len(rows) == 3
    assert all("SKIPPED" in row for row in rows)


def test_survey_g2_survivor_counts(capsys):
    code, out, _ = run_cli(capsys, "survey", "--genus", "2", "--power-max", "5")
    assert code == 0
    rows = out.rstrip("\n").split("\n")[2:]
    counts = [int(row.split()[2]) for row in rows]
    assert counts == [1, 3, 3, 1, 0]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "modiag", "verify", "--genus", "1", "--power", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == "PASS"


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2
