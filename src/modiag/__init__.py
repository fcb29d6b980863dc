"""Exact verification of vanishing for modified diagonal classes on powers
of an abelian variety.

Three layers, each exact over the rationals: a formal rewrite calculus on
twisted diagonals (:mod:`modiag.diagonals`), weight bookkeeping with
explicit axioms and proof certificates (:mod:`modiag.grading`), and an
exterior-algebra cohomology model realizing the same classes
(:mod:`modiag.cohomology`).
"""

from types import ModuleType as _ModuleType

from .cohomology import (
    ExtClass,
    LinearMap,
    block_profile,
    class_of_cycle,
    class_of_twist,
    diagonal_map,
    drop_factor_map,
    ext_add,
    ext_class,
    ext_scale,
    generator,
    gen_position,
    integrate,
    kunneth_component,
    modified_diagonal_class,
    monomial_mask,
    profile_support,
    projection_map,
    pullback,
    pushforward,
    render_class,
    scaling_map,
    unit,
    wedge,
    zero_class,
)
from .diagonals import (
    Ambient,
    FormalCycle,
    TwistVector,
    cycle,
    cycle_add,
    cycle_equal,
    cycle_scale,
    modified_diagonal,
    mult_pushforward_all,
    mult_pushforward_factor,
    normalize_twist,
    proj_pushforward,
    render_cycle,
    twist_cycle,
    zero_cycle,
)
from .exact import Rational, combo, combo_add, combo_scale, combo_sorted_items
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

# The public names bound above, sorted; the relative imports also bind the
# submodules themselves, which are not exported.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
