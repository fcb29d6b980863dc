"""The package surface: the public names and the modules ``import modiag``
loads."""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import modiag

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
    """A child interpreter with ``args``.  It does not inherit pytest's
    sys.path, so it is given src/ itself."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


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
