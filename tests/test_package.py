"""The package surface: the public names and the modules ``import modiag``
loads."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

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

# The public names of the certificate layer, loaded by ``import modiag``.
GRADING = """
    Certificate MultiDegree PigeonholeOutcome Step admissible_degrees
    certificate_to_json certificate_to_text count_admissible filter_top
    prove_empty_pigeonhole replay_proof weight_from_eigenvalue
""".split()


def test_public_names_are_pinned_and_sorted():
    assert len(PUBLIC) == 57 and PUBLIC == sorted(PUBLIC)
    assert modiag.__all__ == PUBLIC
    for name in PUBLIC:
        assert not isinstance(getattr(modiag, name), ModuleType), name


def _run_child(*args: str) -> subprocess.CompletedProcess:
    """A child interpreter with ``args``, given src/ itself."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=child_env())


# What the certificate never runs, so neither ``import modiag`` nor the
# command line's start-up loads it.
ORACLE = ("modiag.cycles", "modiag.exact", "modiag.cohomology", "fractions", "decimal")


def test_import_loads_only_the_certificate_path():
    # The certificate runs grading and diagonals alone; the formal cycles,
    # the combinations and the exterior algebra load on first use.
    watched = ("modiag.grading", "modiag.diagonals") + ORACLE
    proc = _run_child("-c", f"import sys, modiag; print([n for n in {watched!r} if n in sys.modules])")
    assert (proc.returncode, proc.stdout) == (0, "['modiag.grading', 'modiag.diagonals']\n"), proc.stderr


def test_command_line_start_up_loads_neither_dataclasses_nor_inspect():
    # Each command is a fresh process, and importing dataclasses and inspect
    # took about 10 ms of its start-up, typing about 6 ms and the oracle
    # calculus with fractions and decimal about 11 ms (Python 3.11, 2-core
    # Xeon, no bytecode cache).  -S keeps site-packages from loading them.
    forbidden = ("dataclasses", "inspect", "typing") + ORACLE
    proc = _run_child("-S", "-c", f"import sys, modiag.cli; print([n for n in {forbidden!r} if n in sys.modules])")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_plain_command_line_loads_no_argparse():
    # argparse, with the gettext and locale modules it loads, took about 5 ms
    # of a command's start-up (Python 3.11, 2-core Xeon, no bytecode cache);
    # a plain command line is read without it, and other spellings still go
    # through it to the same certificate.
    code = (
        "import sys; from modiag.cli import main; watched = ('argparse', 'gettext', 'locale')\n"
        "for argv in (['verify', '--genus', '1', '--power', '3'], ['verify', '--genus=1', '--power=3']):\n"
        "    main(argv); print([n for n in watched if n in sys.modules])\n"
    )
    proc = _run_child("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    cert = modiag.certificate_to_json(modiag.replay_proof(1, 3))
    plain, _, spelled = proc.stdout.partition("[]\n")
    assert plain == cert
    assert spelled.startswith(cert + "['argparse'"), spelled[-200:]


def test_each_public_name_is_its_home_module_binding():
    homes = {
        **dict.fromkeys(GRADING, ".grading"),
        **dict.fromkeys(["Ambient", "TwistVector", "normalize_twist"], ".diagonals"),
        **modiag._LAZY,
    }
    assert sorted(homes) == PUBLIC
    for name, home in homes.items():
        assert getattr(modiag, name) is getattr(importlib.import_module(home, "modiag"), name), name
    # Cycles and classes share one sum and one scale.
    assert modiag.ext_add is modiag.cycle_add and modiag.ext_scale is modiag.cycle_scale


@pytest.mark.parametrize(
    "name,loaded",
    [("Rational", ["modiag.exact"]), ("pullback", ["modiag.cycles", "modiag.exact", "modiag.cohomology"])],
)
def test_first_use_loads_the_home_module(name, loaded):
    modules = ORACLE[:3]
    code = f"import sys, modiag; modiag.{name}; print([n for n in {modules!r} if n in sys.modules])"
    proc = _run_child("-c", code)
    assert (proc.returncode, proc.stdout) == (0, f"{loaded!r}\n"), proc.stderr


def test_star_import_binds_every_public_name():
    ns: dict = {}
    exec("from modiag import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == PUBLIC


def test_dir_lists_every_public_name_and_unknown_names_raise():
    assert set(PUBLIC) | {"__all__", "__version__"} <= set(dir(modiag))
    with pytest.raises(AttributeError, match="nope"):
        modiag.nope


def test_reading_a_lazy_name_caches_nothing_in_the_package():
    # A tracer patches and restores vars(modiag); a lazy name cached there
    # while it is installed would outlive its restore.  A fresh interpreter,
    # where no earlier test has read a lazy name.
    code = (
        "import modiag, modiag.cohomology; before = dict(vars(modiag));"
        " [getattr(modiag, name) for name in modiag._LAZY]; print(vars(modiag) == before)"
    )
    proc = _run_child("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


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


def test_each_record_names_its_fields_once():
    """Every record class reads its fields from a ``__match_args__`` that it,
    or a base below ``_Record``, declares, and only ``_Record`` and the
    validating ``Ambient`` define ``__init__``: no constructor restates a
    field list."""
    src = Path(modiag.__file__).parent
    classes = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                names = {getattr(t, "id", None) for s in node.body if isinstance(s, ast.Assign) for t in s.targets}
                names |= {s.name for s in node.body if isinstance(s, ast.FunctionDef)}
                classes[node.name] = ([ast.unparse(base) for base in node.bases], names)

    def lineage(name):  # the class and each of its bases defined in the package
        bases = classes[name][0] if name in classes else []
        return [name] + [c for base in bases for c in lineage(base)]

    records = [name for name in classes if "_Record" in lineage(name)[1:]]
    assert {"Ambient", "FormalCycle", "LinearMap", "ExtClass", "PigeonholeOutcome", "Step", "Certificate"} <= set(records)
    for name in records:
        assert any("__match_args__" in classes[c][1] for c in lineage(name) if c != "_Record"), name
    assert sorted(name for name, (_, names) in classes.items() if "__init__" in names) == ["Ambient", "_Record"]


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
