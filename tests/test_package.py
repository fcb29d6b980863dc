"""The package surface: the public names and the modules ``import modiag``
loads."""

import ast
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import modiag
from helpers import child_env

# The acceptance suite and callers import these from ``modiag``; the list
# is derived from the package's imports, so it is pinned here.
PUBLIC = """
    Ambient Certificate ExtClass FormalCycle LinearMap MultiDegree
    PigeonholeOutcome Rational Step TwistVector admissible_degrees
    block_profile certificate_to_json certificate_to_text class_of_cycle
    class_of_twist combo combo_add combo_scale combo_sorted_items
    count_admissible cycle cycle_add cycle_equal cycle_scale diagonal_map
    drop_factor_map ext_add ext_class ext_scale filter_top gen_position
    generator integrate kunneth_component modified_diagonal
    modified_diagonal_class monomial_mask mult_pushforward_all
    mult_pushforward_factor normalize_twist profile_support proj_pushforward
    projection_map prove_empty_pigeonhole pullback pushforward render_class
    render_cycle replay_proof scaling_map twist_cycle unit wedge
    weight_from_eigenvalue zero_class zero_cycle
""".split()


def test_public_names_are_pinned_and_sorted():
    assert len(PUBLIC) == 57 and PUBLIC == sorted(PUBLIC)
    assert modiag.__all__ == PUBLIC
    for name in PUBLIC:
        assert not isinstance(getattr(modiag, name), ModuleType), name


def _run_child(*args: str) -> subprocess.CompletedProcess:
    """A child interpreter with ``args``, given src/ itself."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=child_env())


def test_import_loads_every_layer():
    layers = ("modiag.grading", "modiag.cohomology", "modiag.diagonals", "modiag.exact")
    proc = _run_child("-c", f"import sys, modiag; print(all(n in sys.modules for n in {layers!r}))")
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


def test_command_line_start_up_loads_neither_dataclasses_nor_inspect():
    # Each command is a fresh process, and importing these two took about
    # 10 ms of its start-up (Python 3.11, 2-core Xeon).  -S keeps
    # site-packages from loading them.
    proc = _run_child(
        "-S", "-c", "import sys, modiag.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def _fstrings(path: Path):
    """Each f-string of a module as (innermost enclosing function, its
    literal text)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    for fn in ast.walk(tree):  # breadth-first, so an inner function overwrites its outer one
        if isinstance(fn, ast.FunctionDef):
            owner.update((node, fn.name) for node in ast.walk(fn) if isinstance(node, ast.JoinedStr))
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            yield owner.get(node), "".join(v.value for v in node.values if isinstance(v, ast.Constant))


def test_each_input_refusal_is_written_once():
    """A range refusal is written by ``diagonals._require_in`` alone, and
    the command line checks its positive flags in one message."""
    src = Path(modiag.__file__).parent
    ranges = [
        (path.name, fn) for path in sorted(src.glob("*.py")) for fn, text in _fstrings(path) if "must lie in" in text
    ]
    assert ranges == [("diagonals.py", "_require_in")]
    assert [fn for fn, text in _fstrings(src / "cli.py") if "must be >= 1" in text] == ["main"]


def _is_main_guard(node) -> bool:
    test = getattr(node, "test", None)
    return (
        isinstance(node, ast.If)
        and isinstance(test, ast.Compare)
        and getattr(test.left, "id", None) == "__name__"
        and [getattr(c, "value", None) for c in test.comparators] == ["__main__"]
    )


def test_only_the_main_module_is_an_entry_point():
    """``python -m modiag`` runs ``__main__.py`` and the console script calls
    ``modiag.cli:main``, so no other module carries an ``if __name__ ==
    "__main__"`` block."""
    src = Path(modiag.__file__).parent
    guarded = [
        path.name
        for path in sorted(src.glob("*.py"))
        if any(_is_main_guard(node) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert guarded == ["__main__.py"]
