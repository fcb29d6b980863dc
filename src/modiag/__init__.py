"""Exact verification of vanishing for modified diagonal classes on powers
of an abelian variety.

Three layers, each exact over the rationals: a formal rewrite calculus on
twisted diagonals (:mod:`modiag.diagonals`, with the tuple calculus on
formal cycles in :mod:`modiag.cycles`), weight bookkeeping with explicit
axioms and proof certificates (:mod:`modiag.grading`), and an
exterior-algebra cohomology model realizing the same classes
(:mod:`modiag.cohomology`), over the sparse combinations of
:mod:`modiag.exact`.

``import modiag`` loads only what the certificate runs, ``grading`` and
``diagonals``.  ``cycles``, ``exact`` and ``cohomology`` load the first
time one of their names is read from the package.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .diagonals import Ambient, TwistVector, normalize_twist
from .grading import (
    Certificate,
    MultiDegree,
    PigeonholeOutcome,
    Step,
    admissible_degrees,
    certificate_to_json,
    certificate_to_text,
    count_admissible,
    filter_top,
    prove_empty_pigeonhole,
    replay_proof,
    weight_from_eigenvalue,
)

__version__ = "0.1.0"

# Each public name outside the certificate path, and the module that binds it.
_LAZY = {
    name: home
    for home, names in {
        ".cycles": """FormalCycle cycle cycle_add cycle_equal cycle_scale
            modified_diagonal mult_pushforward_all mult_pushforward_factor
            proj_pushforward render_cycle twist_cycle zero_cycle""",
        ".exact": "Rational combo combo_add combo_scale combo_sorted_items",
        ".cohomology": """ExtClass LinearMap block_profile class_of_cycle
            class_of_twist diagonal_map drop_factor_map ext_add ext_class
            ext_scale generator gen_position integrate kunneth_component
            modified_diagonal_class monomial_mask profile_support
            projection_map pullback pushforward render_class scaling_map
            unit wedge zero_class""",
    }.items()
    for name in names.split()
}

# The public names bound above and the lazy ones, sorted; the relative
# imports also bind the submodules themselves, which are not exported.
__all__ = sorted(
    [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_LAZY)
)


def __getattr__(name):
    # Read from the home module on every access, never cached here, so a
    # name patched in its home module is seen through the package too.
    try:
        home = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_import_module(home, __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
