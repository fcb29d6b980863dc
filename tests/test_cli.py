import ast
import itertools
import json
import shlex
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import child_env, digit_limit
from test_workflow import WORKFLOW, run_scripts
from modiag import certificate_to_json, certificate_to_text, cli, diagonals, grading, replay_proof
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
    code, _, err = run_cli(capsys, "survey", "--genus", "0", "--power-max", "2")
    assert code == 2
    assert "--genus" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--genus", "1", "--power", "0"), "--power"),
        (("survey", "--genus", "1", "--power-max", "0"), "--power-max"),
        (("verify", "--genus", "-1", "--power", "2"), "--genus"),
        (("verify", "--genus", "1", "--power", "-1"), "--power"),
        (("survey", "--genus", "-1", "--power-max", "2"), "--genus"),
        (("survey", "--genus", "1", "--power-max", "-1"), "--power-max"),
        # --genus is checked first, and alone
        (("verify", "--genus", "0", "--power", "0"), "--genus"),
        (("survey", "--genus", "0", "--power-max", "0"), "--genus"),
    ],
)
def test_power_below_one_is_a_usage_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    value = argv[argv.index(flag) + 1]
    assert err.splitlines()[-1] == f"modiag: error: {flag} must be >= 1, got {value}"


def test_verify_rejects_bad_layers(capsys):
    code, _, _ = run_cli(capsys, "verify", "--genus", "1", "--power", "2", "--layers", "nonsense")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--genus", "1", "--power", "2", "--layers", ",")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("--genus", "3", "--power", "7", "--layers", "cohomology", "--max-dim", "1000"),
            "error: the cohomology layer at g=3 m=7 needs a graded piece of dimension 5245786,"
            " at or above the bound 1000; raise --max-dim or drop the layer\n",
        ),
        (
            ("--genus", "2", "--power", "5", "--layers", "formal,grading,cohomology", "--max-dim", "100"),
            "error: the cohomology layer at g=2 m=5 needs a graded piece of dimension 4845,"
            " at or above the bound 100; raise --max-dim or drop the layer\n",
        ),
        (
            ("--genus", "2", "--power", "5", "--layers", "cohomology", "--max-dim", "100"),
            "error: the cohomology layer at g=2 m=5 needs a graded piece of dimension 4845,"
            " at or above the bound 100; raise --max-dim or drop the layer\n",
        ),
    ],
)
def test_verify_refusal_is_one_stderr_line_and_no_output(tmp_path, capsys, argv, message):
    target = tmp_path / "cert.json"
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", message)
    code, out, err = run_cli(capsys, "verify", *argv, "--out", str(target))
    assert (code, out, err) == (2, "", message)
    assert not target.exists()


LAYER_SUBSETS = [
    ",".join(subset)
    for size in range(1, len(grading.LAYERS) + 1)
    for subset in itertools.combinations(grading.LAYERS, size)
]


def test_verify_finishes_or_refuses_at_large_genus(capsys):
    # The certificate's exact integers pass the digit limit from g = 4507 at
    # m = 2 (n^(2g)) and from g = 2594 at m = 3 (C(2gm, 2g)); they are
    # written past it, and the limit stays as it was.
    limit = digit_limit()
    for g, m, layers in itertools.product((1, 3, 600, 2600, 4600), (1, 2, 3, 7), LAYER_SUBSETS):
        code = main(["verify", "--genus", str(g), "--power", str(m), "--layers", layers])
        capsys.readouterr()
        assert code in (0, 1, 2), (g, m, layers)
        assert digit_limit() == limit


def test_verify_states_an_exact_factor_past_the_digit_limit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--genus", "5000", "--power", "2", "--layers", "formal")
    assert code == 0
    factor = str(Decimal(3 ** 10000))
    assert len(factor) > 4300
    assert f'"factor": {factor},' in out


def test_verify_states_a_grading_weight_past_the_digit_limit(capsys):
    # m = 10^4299 has 4,300 digits, which int() still reads; the weight
    # nu = 12(m - 1) quoted in the grading statements has 4,301.
    limit = digit_limit()
    m = 10**4299
    code, out, _ = run_cli(capsys, "verify", "--genus", "6", "--power", str(m), "--layers", "grading")
    assert code == 0
    assert out == certificate_to_json(replay_proof(6, m, layers=("grading",)))
    assert str(Decimal(12 * (m - 1))) in out
    assert digit_limit() == limit


def test_text_header_states_a_power_past_the_digit_limit():
    limit = digit_limit()
    text = certificate_to_text(replay_proof(1, 10**5000, layers=("grading",)))
    assert text.startswith(f"certificate schema 1: g=1 m={Decimal(10**5000)}\n")
    assert digit_limit() == limit


def test_library_json_past_the_digit_limit_matches_the_command_line(capsys):
    # 3^(2g) has 4,301 digits at g = 4507.
    limit = digit_limit()
    code, out, _ = run_cli(capsys, "verify", "--genus", "4507", "--power", "2", "--layers", "formal")
    assert code == 0
    assert certificate_to_json(replay_proof(4507, 2, layers=("formal",))) == out
    assert digit_limit() == limit


def test_verify_shadow_at_first_vanishing_power_g3(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--genus", "3", "--power", "7",
        "--layers", "formal,grading,cohomology",
    )
    assert code == 0
    shadow = json.loads(out)["steps"][-1]
    assert (shadow["id"], shadow["status"], shadow["witness"]["is_zero"]) == (
        "cohomology-shadow", "PASS", True,
    )


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


def test_verify_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "cert.json"
    code, out, err = run_cli(
        capsys, "verify", "--genus", "1", "--power", "3", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot write the certificate")
    assert not target.parent.exists()


def test_verify_empty_out_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--genus", "1", "--power", "2", "--out", "")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: cannot write the certificate to ")


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
    import modiag.cli as cli_module
    from modiag.grading import replay_proof

    def broken(g, m, **kwargs):
        cert = replay_proof(g, m, **kwargs)
        if m != 2:
            return cert
        steps = tuple(
            type(s)(**{**vars(s), "status": "FAIL"}) if s.id == "mult-eigenvalue" else s
            for s in cert.steps
        )
        return type(cert)(**{**vars(cert), "steps": steps, "result": "FAIL"})

    monkeypatch.setattr(cli_module, "replay_proof", broken)
    code, out, _ = run_cli(capsys, "survey", "--genus", "1", "--power-max", "3")
    assert code == 1
    rows = out.rstrip("\n").split("\n")[2:]
    assert [row.split()[1] for row in rows] == ["pass", "FAIL", "pass"]
    # the failed row states no verdict the argument did not reach
    assert rows[1].endswith("failed")


def _fail_pigeonhole(g, m, **kwargs):
    """The real certificate with its pigeonhole step marked FAIL."""
    cert = replay_proof(g, m, **kwargs)
    steps = tuple(
        type(s)(**{**vars(s), "status": "FAIL"}) if s.kind == grading.PIGEONHOLE else s
        for s in cert.steps
    )
    return type(cert)(**{**vars(cert), "steps": steps, "result": "FAIL"})


def test_pigeonhole_failure_past_the_threshold_exits_one(capsys, monkeypatch):
    # a pigeonhole FAIL is accepted only where no vanishing is claimed, m <= 2g
    monkeypatch.setattr(cli, "replay_proof", _fail_pigeonhole)
    code, out, _ = run_cli(capsys, "verify", "--genus", "1", "--power", "2")
    assert (code, json.loads(out)["result"]) == (0, "FAIL")
    code, out, _ = run_cli(capsys, "verify", "--genus", "1", "--power", "3")
    failed = [s["id"] for s in json.loads(out)["steps"] if s["status"] == "FAIL"]
    assert (code, failed) == (1, ["top-degree-pigeonhole"])
    code, _, _ = run_cli(capsys, "survey", "--genus", "1", "--power-max", "2")
    assert code == 0
    code, out, _ = run_cli(capsys, "survey", "--genus", "1", "--power-max", "3")
    assert code == 1
    assert out.rstrip("\n").split("\n")[-1].endswith("failed")


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


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_survey_reaches_the_first_vanishing_power_at_default_settings(g, capsys):
    # The default bound admits C(2gm, 2g) up to (5, 11), about 4.69e13.
    code, out, _ = run_cli(capsys, "survey", "--genus", str(g), "--power-max", str(2 * g + 1))
    assert code == 0
    rows = out.rstrip("\n").split("\n")[2:]
    assert len(rows) == 2 * g + 1
    assert not any("SKIPPED" in row for row in rows)
    assert rows[-1].split()[3] == "zero"


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
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == "PASS"


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["survey", "--help"]])
def test_help_comes_from_argparse(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: modiag", *argv[:-1]]) + " [-h]"), out


def _agrees_with_argparse(argv):
    """Whether argv takes the plain path; if it does, argparse reads the same
    namespace from it and does not refuse it."""
    plain = cli._parse_plain(argv)
    if plain is not None:
        try:
            parsed = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses the plain command line {argv}")
        assert vars(plain) == vars(parsed), argv
    return plain is not None


# The flags of each subcommand, with values a plain command line may give
# them; int() reads " 3", "1_0", "٣" and "+2", as argparse's type=int does.
INTS = ("1", "2", "3", "12", " 3", "1_0", "\u0663", "+2")
FLAGS = {
    "verify": {
        "--genus": INTS,
        "--max-dim": INTS,
        "--power": INTS,
        "--layers": ("formal", "grading,cohomology", "", " formal , grading"),
        "--format": ("json", "text"),
        "--out": ("cert.json", "a dir/cert.txt"),
    },
    "survey": {"--genus": INTS, "--max-dim": INTS, "--power-max": INTS},
}
# Values that start with "-", are empty, do not convert or are outside their
# choices; flags that are abbreviations, the other subcommand's or unknown;
# and tokens that are no pair.  Only argparse reads a command line with one.
ODD_VALUES = ("-1", "-x", "", "x", "--", "-", "xml", "0", "--genus", "-h")
ODD_FLAGS = ("--gen", "--power", "--power-m", "--max", "--lay", "--form", "--o", "--power-max", "--layers", "--bogus")
LONE_TOKENS = ("-h", "--help", "-1", "", "--", "extra", "verify")


@st.composite
def command_lines(draw):
    """A plain command line, then up to three edits: a pair left out, given
    an odd value, repeated, misnamed or written as ``--flag=value``, or a
    lone token put anywhere."""
    command = draw(st.sampled_from(("verify", "survey", "verify", "survey", "-h", "bogus", "")))
    flags = FLAGS.get(command, FLAGS["verify"])
    pairs = [[flag, draw(st.sampled_from(flags[flag]))] for flag in draw(st.permutations(list(flags)))]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("drop", "value", "value", "repeat", "misname", "join", "lone")))
        i = draw(st.integers(0, len(pairs)))
        if edit == "lone":
            pairs.insert(i, [draw(st.sampled_from(LONE_TOKENS))])
        elif i == len(pairs) or len(pairs[i]) != 2:
            continue
        elif edit == "drop":
            del pairs[i]
        elif edit == "value":
            pairs[i][1] = draw(st.sampled_from(ODD_VALUES))
        elif edit == "repeat":
            flag = pairs[i][0]
            value = draw(st.sampled_from(flags.get(flag, ()) + ODD_VALUES))
            pairs.insert(draw(st.integers(0, len(pairs))), [flag, value])
        elif edit == "misname":
            pairs[i][0] = draw(st.sampled_from(ODD_FLAGS))
        else:
            pairs[i] = ["=".join(pairs[i])]
    return [command, *(token for pair in pairs for token in pair)]


@settings(max_examples=600, deadline=None)
@given(command_lines())
def test_plain_path_agrees_with_argparse(argv):
    # Run with --hypothesis-show-statistics for the share each side takes.
    event("plain path" if _agrees_with_argparse(argv) else "argparse")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--genus=1", "--power", "3"],
        ["survey", "--genus", "1", "--power", "5"],
        ["verify", "--genus", "1", "--power", "3", "--genus", "2"],
        ["verify", "--genus", "x", "--power", "3", "--genus", "2"],
        ["verify", "--genus", "-1", "--power", "3"],
        ["verify", "--genus", "1", "--power", "3", "--layers", "-x"],
        ["verify", "--genus", "", "--power", "3"],
        ["verify", "--genus", "1", "--power", "3", "--format", "xml"],
        ["verify", "--genus", "1"],
        ["verify", "--genus", "1", "--power", "3", "extra"],
        ["verify", "--genus", "1", "--power", "3", "-h"],
        ["--help"],
        [],
    ],
)
def test_argparse_only_forms_leave_the_plain_path(argv):
    assert cli._parse_plain(argv) is None


# The benchmark's command-line workload, copied here so that a change to it
# does not silently change what this test checks.
BENCHMARK_COMMANDS = [
    ["verify", "--genus", "1", "--power", "12"],
    ["verify", "--genus", "2", "--power", "4", "--format", "text"],
    ["verify", "--genus", "2", "--power", "5", "--layers", "formal,grading,cohomology"],
    ["verify", "--genus", "3", "--power", "7", "--layers", "cohomology", "--max-dim", "1000"],
    ["survey", "--genus", "2", "--power-max", "5"],
    ["survey", "--genus", "1", "--power-max", "9"],
]


def _workflow_command_lines():
    """The arguments of each ``modiag`` call in the workflow, up to the first
    pipe or redirection."""
    out = []
    for script in run_scripts(WORKFLOW.read_text()):
        for line in script.splitlines():
            lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            tokens = list(lexer)
            if "modiag" in tokens:
                argv = tokens[tokens.index("modiag") + 1 :]
                ends = [i for i, token in enumerate(argv) if not token.strip("();<>|&")]
                out.append(argv[: ends[0]] if ends else argv)
    return out


def test_benchmark_and_workflow_commands_take_the_plain_path():
    assert all(_agrees_with_argparse(argv) for argv in BENCHMARK_COMMANDS)
    lines = _workflow_command_lines()
    assert len(lines) > 10
    # The workflow spells two commands in forms argparse alone reads, and
    # asks argparse for help.
    assert [argv for argv in lines if not _agrees_with_argparse(argv)] == [
        ["verify", "--genus=2", "--power=5", "--layers=formal,grading,cohomology"],
        ["survey", "--gen", "2", "--power", "5"],
        ["--help"],
    ]


def test_benchmark_commands_load_no_json_decimal_fractions_or_argparse():
    # Each command is a fresh process.  json, loaded for one string escaping,
    # took about 2 ms of its start-up, and decimal, for writing an int past
    # the digit limit, about 2 ms more (Python 3.11, 2-core Xeon); the
    # escaping comes from _json, and decimal and fractions load only past
    # the limit.  -S keeps site-packages from loading any of them.
    code = (
        "import io, sys\nfrom modiag.cli import main\ncodes = []\n"
        f"for argv in {BENCHMARK_COMMANDS!r}:\n"
        "    sys.stdout = sys.stderr = io.StringIO()\n"
        "    codes.append(main(argv))\n"
        "sys.stdout = sys.__stdout__\n"
        "print(codes, [n for n in ('json', 'decimal', 'fractions', 'argparse') if n in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout) == (0, "[0, 0, 0, 2, 0, 0] []\n"), proc.stderr


def _imports(module) -> list[tuple[str, list[str]]]:
    """Each module that the source of ``module`` imports, with the names it
    takes from it (none for a plain ``import``)."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.name, []) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append((node.module or "", [a.name for a in node.names]))
    return out


def test_cli_imports_no_private_name_and_no_lower_layer():
    """The command line only renders replay_proof certificates: it imports no
    underscore name, nothing from diagonals, cohomology or exact, and not
    comb, since the certificate alone decides the shadow's bound."""
    lower = {"diagonals", "cohomology", "exact", "comb"}
    imports = _imports(cli)
    assert imports
    for module, names in imports:
        assert not lower & set(module.split(".")), module
        for name in names:
            assert not name.startswith("_") and name not in lower, name


def test_certificate_path_imports_no_oracle_module():
    """``grading`` and ``diagonals`` are what the certificate runs, and
    ``import modiag`` loads them alone: they import nothing from the oracle
    calculus of ``cycles``, ``exact`` and ``cohomology``.  The certificate's
    shadow reads the live images of the closed form from ``diagonals`` and
    runs no exterior-algebra code, so nothing of the cohomology module is
    imported either."""
    oracle = {"cycles", "exact", "cohomology"}
    for layer in (grading, diagonals):
        imports = _imports(layer)
        assert imports
        for module, names in imports:
            assert not oracle & set(module.split(".") + names), (layer.__name__, module, names)


def test_each_certificate_step_is_built_by_one_step_call():
    """Every step id in grading.py comes from exactly one ``Step(...)`` call,
    so its kind, reference and witness schema are written once, whatever the
    outcome."""
    tree = ast.parse(Path(grading.__file__).read_text(encoding="utf-8"))
    ids = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Step":
            args = node.args[:1] + [k.value for k in node.keywords if k.arg == "id"]
            assert len(args) == 1 and isinstance(args[0], ast.Constant), ast.dump(node)
            ids.append(args[0].value)
    assert sorted(ids) == sorted(s.id for s in grading.replay_proof(1, 1, layers=grading.LAYERS).steps)
    assert len(ids) == len(set(ids)) == 7
