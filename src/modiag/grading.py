"""Weight bookkeeping for the vanishing argument, and proof certificates.

The motive of an abelian scheme splits into weight pieces h^i(X), i in
0..2g, on which pushforward along multiplication by n acts as n^(2g-i)
(Deninger and Murre, after Beauville).  On a product X^m the pieces are
indexed by multidegrees in {0..2g}^m, the Kunneth profiles, and a class
whose multiplication pushforward has eigen-exponent w lives in total
weight 2gm - w.

The vanishing argument for the modified diagonal is replayed as a
certificate with one step per move:

  1. its multiplication pushforward scales by n^(2g), checked exactly by
     the diagonal calculus on a sample of n.  The check runs on orbit sums
     (``diagonals`` docstring): the m representatives D(1_{1..k}) are
     pushed forward with the gcd and sign rules, in place of all 2^m - 1
     twisted diagonals;
  2. contracting any factor kills it, checked exactly by folding the m+1
     orbit coefficients, O_k -> O_k + O_(k-1).  The fold is the same for
     every factor j, so it is computed once and listed for each j;
  3. the decomposition above is imported as an explicit axiom, never
     silently;
  4. step 1 pins the class to total weight 2g(m-1);
  5. step 2 kills every profile containing an entry 2g, and the surviving
     profiles are counted: the complements to 2g of a surviving profile
     are all at least 1 yet sum to 2g, so survivors force m <= 2g, and for
     m >= 2g+1 nothing is left.  The survivors are listed by stars and
     bars, as the compositions of 2g into m positive parts, and the
     profiles with an entry 2g are counted in closed form, C(m, s)
     C(2g-1, s-1) of them with exactly s nonzero complements.  The work is
     one tuple per survivor plus at most 2g binomials.  The profiles
     counted total ``count_admissible(g, m, 2g(m-1))``, which ``enum_bound``
     bounds from above and the certificate cross-checks;
  6. optionally, the exterior-algebra realization is computed as an
     independent shadow of the same conclusion.

For m <= 2g the pigeonhole step reports its counterexample and the
certificate makes no claim about vanishing; nothing is overstated in
either direction.  Certificates serialize to deterministic JSON, byte
identical for identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator

from .cohomology import modified_diagonal_class, profile_support
from .diagonals import (
    Ambient,
    _as_int,
    cycle_equal,
    cycle_scale,
    modified_diagonal_orbits,
    mult_pushforward_all,
    orbit_proj_pushforward,
    orbit_representatives,
)

MultiDegree = tuple[int, ...]

FORMAL_IDENTITY = "FORMAL_IDENTITY"
AXIOM = "AXIOM"
EIGENWEIGHT = "EIGENWEIGHT"
GRADING_FILTER = "GRADING_FILTER"
PIGEONHOLE = "PIGEONHOLE"
COHOMOLOGY_CHECK = "COHOMOLOGY_CHECK"
STEP_KINDS = (
    FORMAL_IDENTITY,
    AXIOM,
    EIGENWEIGHT,
    GRADING_FILTER,
    PIGEONHOLE,
    COHOMOLOGY_CHECK,
)

PASS = "PASS"
FAIL = "FAIL"
ASSUMED = "ASSUMED"
SKIPPED = "SKIPPED"

LAYERS = ("formal", "grading", "cohomology")
DEFAULT_LAYERS = ("formal", "grading")
DEFAULT_MULT_SAMPLE = (-3, -2, 2, 3)
DEFAULT_ENUM_BOUND = 10**6
DEFAULT_MAX_DIM = 10**7

# Survivor lists are embedded in witnesses only up to this many entries;
# beyond it the count is still exact and the omission is flagged.
SURVIVOR_LIST_CAP = 128

SCHEMA_VERSION = "1"


def weight_from_eigenvalue(g: int, m: int, w: int) -> int:
    """Total weight of a class whose mult(n) pushforward scales by n^w."""
    Ambient(g, m)  # rejects non-integers, bools and values below 1
    w = _as_int(w)
    if not 0 <= w <= 2 * g * m:
        raise ValueError(f"eigen-exponent must lie in 0..{2 * g * m}, got {w}")
    return 2 * g * m - w


def graded_dimension(g: int, m: int) -> int:
    """C(2gm, 2g), the measure by which ``max_dim`` bounds the cohomology
    shadow.  It bounds the closed form soundly: the shadow expands one term
    per map {1..2g} -> {1..m}, and m^(2g) <= C(2gm, 2g)."""
    return comb(2 * g * m, 2 * g)


def _count_bounded(slots: int, total: int, cap: int) -> int:
    """Number of tuples in {0..cap}^slots with the given sum, by
    inclusion-exclusion on entries exceeding cap."""
    if total < 0 or cap < 0:
        return 0
    out = 0
    for k in range(slots + 1):
        rest = total - k * (cap + 1)
        if rest < 0:
            break
        out += (-1) ** k * comb(slots, k) * comb(rest + slots - 1, slots - 1)
    return out


def count_admissible(g: int, m: int, nu: int) -> int:
    """Number of multidegrees in {0..2g}^m of total nu, without enumeration."""
    Ambient(g, m)
    return _count_bounded(m, _as_int(nu), 2 * g)


def iter_admissible(g: int, m: int, nu: int) -> Iterator[MultiDegree]:
    """Multidegrees in {0..2g}^m of total nu, in lexicographic order."""
    cap = 2 * g
    prefix: list[int] = []

    def rec(slots: int, rem: int) -> Iterator[MultiDegree]:
        if slots == 0:
            if rem == 0:
                yield tuple(prefix)
            return
        lo = max(0, rem - cap * (slots - 1))
        hi = min(cap, rem)
        for value in range(lo, hi + 1):
            prefix.append(value)
            yield from rec(slots - 1, rem - value)
            prefix.pop()

    yield from rec(m, nu)


def admissible_degrees(g: int, m: int, nu: int) -> list[MultiDegree]:
    Ambient(g, m)
    return list(iter_admissible(g, m, _as_int(nu)))


def filter_top(degrees: Iterable[MultiDegree], g: int) -> list[MultiDegree]:
    """Drop every multidegree containing an entry equal to 2g (the top
    weight of one factor); input order is preserved."""
    Ambient(g, 1)  # rejects non-integers, bools and values below 1
    top = 2 * g
    return [d for d in degrees if top not in d]


def _kunneth_survivors(g: int, m: int) -> tuple[int, list[MultiDegree]]:
    """Count the multidegrees of total 2g(m-1) and list those with no entry 2g.

    The complements c_j = 2g - i_j of such a multidegree are at least 0 and
    sum to 2g, and an entry 2g is a factor j with c_j = 0.  A profile with
    exactly s nonzero complements is a choice of those s factors, C(m, s)
    ways, times a composition of 2g into s positive parts, C(2g-1, s-1)
    ways, so every class with s < m is counted in closed form and none is
    generated.  The survivors, s = m, are the compositions of 2g into m
    positive parts: stars and bars, with cut points 0 < S_1 < ... <
    S_(m-2) < 2g-1 for the partial sums of the first m-2 complements, and
    the last two factors splitting the rest.  For m >= 2g+1 there are no
    such cuts, so the empty survivor list is enumerated, not assumed.  The
    work is one tuple per survivor plus at most 2g binomials.

    The first result, the number of profiles counted, cross-checks the
    partition by s against ``count_admissible(g, m, 2g(m-1))``.  Cuts are
    taken in descending lexicographic order, and so are the complements, so
    survivors come out in the lexicographic order of
    ``filter_top(admissible_degrees(g, m, 2g(m-1)), g)``.
    """
    top = 2 * g
    if m == 1:
        return 1, [(0,)]  # the one factor takes every slot
    survivors: list[MultiDegree] = []
    for cuts in reversed(list(combinations(range(1, top - 1), m - 2))):
        bounds = (0,) + cuts
        prefix = tuple(top - b + a for a, b in zip(bounds, cuts))
        r = top - bounds[-1]
        survivors += [prefix + (top - c, top - r + c) for c in range(r - 1, 0, -1)]
    missed = sum(comb(m, s) * comb(top - 1, s - 1) for s in range(1, min(m - 1, top) + 1))
    return len(survivors) + missed, survivors


@dataclass(frozen=True)
class PigeonholeOutcome:
    """Result of the counting argument at total weight 2g(m-1).

    The complements 2g - i_j of a multidegree with no entry 2g are all at
    least 1 and sum to exactly complement_total = 2g, so survivors need
    m <= 2g.  ``holds`` means the survivor set is empty (m >= 2g+1);
    otherwise ``counterexample`` is the lexicographically smallest
    survivor, which for m = 2g is the unique one (2g-1, ..., 2g-1).
    """

    g: int
    m: int
    weight: int
    complement_total: int
    holds: bool
    counterexample: MultiDegree | None


def prove_empty_pigeonhole(g: int, m: int) -> PigeonholeOutcome:
    Ambient(g, m)
    weight = 2 * g * (m - 1)
    if m >= 2 * g + 1:
        return PigeonholeOutcome(g, m, weight, 2 * g, True, None)
    cex = (m - 1,) + (2 * g - 1,) * (m - 1)
    return PigeonholeOutcome(g, m, weight, 2 * g, False, cex)


@dataclass(frozen=True)
class Step:
    id: str
    kind: str
    statement: str
    reference: str
    status: str
    witness: dict


@dataclass(frozen=True)
class Certificate:
    schema_version: str
    g: int
    m: int
    steps: tuple[Step, ...]
    result: str


def certificate_to_json(cert: Certificate) -> str:
    """Deterministic JSON of the dataclass fields, whose declaration order is
    the key order; ``vars`` reads them without copying the witnesses."""
    return json.dumps(cert, default=vars, indent=2) + "\n"


def certificate_to_text(cert: Certificate) -> str:
    lines = [f"certificate schema {cert.schema_version}: g={cert.g} m={cert.m}"]
    for s in cert.steps:
        lines.append(f"[{s.status}] {s.kind} {s.id}: {s.statement}")
    lines.append(f"result: {cert.result}")
    return "\n".join(lines) + "\n"


def _formal_steps(g: int, m: int, mult_sample) -> list[Step]:
    orbits = modified_diagonal_orbits(Ambient(g, m))
    reps = orbit_representatives(orbits)
    checks = []
    for n in mult_sample:
        expected = cycle_scale(reps, n ** (2 * g))
        checks.append(
            {
                "n": n,
                "factor": n ** (2 * g),
                "verified": cycle_equal(mult_pushforward_all(reps, n), expected),
            }
        )
    mult_step = Step(
        id="mult-eigenvalue",
        kind=FORMAL_IDENTITY,
        statement=(
            f"pushforward along multiplication by n scales the modified diagonal"
            f" through the zero section by n^{2 * g}, for each sampled n"
        ),
        reference="multiplication by n on a g-dimensional abelian variety is finite flat of degree n^(2g)",
        status=PASS if all(c["verified"] for c in checks) else FAIL,
        witness={"checks": checks},
    )
    if m >= 2:
        vanishes = orbit_proj_pushforward(orbits).is_zero
        contractions = [{"j": j, "vanishes": vanishes} for j in range(1, m + 1)]
        statement = f"contracting any one of the {m} factors kills the modified diagonal"
    else:
        contractions = []
        statement = "no factor can be contracted at m = 1; the identity holds vacuously"
    contraction_step = Step(
        id="contraction-vanishing",
        kind=FORMAL_IDENTITY,
        statement=statement,
        reference="terms pair off under I <-> I plus the contracted factor; the leftover singleton collapses to a point",
        status=PASS if all(c["vanishes"] for c in contractions) else FAIL,
        witness={"checks": contractions},
    )
    return [mult_step, contraction_step]


def _grading_steps(
    g: int, m: int, walk: tuple[int, list[MultiDegree]] | None, enum_bound: int
) -> list[Step]:
    steps = [
        Step(
            id="motivic-decomposition",
            kind=AXIOM,
            statement=(
                "the rational motive of an abelian scheme splits into weight pieces"
                f" h^i, i = 0..{2 * g}, with multiplication-by-n pushforward acting"
                " on h^i by n^(2g-i), and products decompose by Kunneth profile"
                " with projections an isomorphism on the top piece"
            ),
            reference=(
                "C. Deninger, J. Murre, J. reine angew. Math. 422 (1991) 201-219;"
                " A. Beauville, Math. Ann. 273 (1986) 647-651"
            ),
            status=ASSUMED,
            witness={
                "imported": True,
                "base_point_note": (
                    "all diagonals pass through the zero section; translation by"
                    " any section transports the general case to this one"
                ),
            },
        )
    ]
    nu = weight_from_eigenvalue(g, m, 2 * g)
    steps.append(
        Step(
            id="eigenweight",
            kind=EIGENWEIGHT,
            statement=(
                f"the pushforward eigen-exponent {2 * g} pins the modified diagonal"
                f" to total weight {nu} = 2g(m-1)"
            ),
            reference="eigen-exponent w on total weight nu satisfies w = 2gm - nu",
            status=PASS if nu == 2 * g * (m - 1) else FAIL,
            witness={"pushforward_exponent": 2 * g, "weight": nu},
        )
    )

    outcome = prove_empty_pigeonhole(g, m)
    admissible_count = count_admissible(g, m, nu)
    survivor_count = _count_bounded(m, nu, 2 * g - 1)
    if walk is not None:
        walked, survivors = walk
        consistent = walked == admissible_count and len(survivors) == survivor_count
        if outcome.holds:
            consistent = consistent and not survivors
        else:
            consistent = consistent and outcome.counterexample in survivors
            if m == 2 * g:
                consistent = consistent and survivors == [(2 * g - 1,) * m]
        witness = {
            "admissible_count": admissible_count,
            "survivor_count": len(survivors),
            "survivors_listed": len(survivors) <= SURVIVOR_LIST_CAP,
            "survivors": [list(s) for s in survivors[:SURVIVOR_LIST_CAP]],
            "matches_analytic": consistent,
        }
        filter_step = Step(
            id="kunneth-survivors",
            kind=GRADING_FILTER,
            statement=(
                f"enumerate the multidegrees in {{0..{2 * g}}}^{m} of total {nu}"
                f" and drop those with an entry {2 * g}, whose components die"
                " under a contraction; cross-check the count analytically"
            ),
            reference="bounded compositions by direct enumeration and by inclusion-exclusion",
            status=PASS if consistent else FAIL,
            witness=witness,
        )
    else:
        filter_step = Step(
            id="kunneth-survivors",
            kind=GRADING_FILTER,
            statement=(
                f"enumeration of the {admissible_count} multidegrees of total {nu}"
                f" exceeds the configured bound; survivors are counted analytically only"
            ),
            reference="bounded compositions by inclusion-exclusion",
            status=SKIPPED,
            witness={
                "admissible_count": admissible_count,
                "survivor_count": survivor_count,
                "enumeration_bound": enum_bound,
            },
        )
    steps.append(filter_step)

    if outcome.holds:
        pigeon_step = Step(
            id="top-degree-pigeonhole",
            kind=PIGEONHOLE,
            statement=(
                f"every multidegree in {{0..{2 * g}}}^{m} of total {nu} has an entry"
                f" {2 * g}: otherwise all {m} complements to {2 * g} would be at least 1"
                f" while summing to {outcome.complement_total}, impossible for m >= 2g+1"
            ),
            reference="counting complements of a bounded composition",
            status=PASS,
            witness={
                "weight": nu,
                "complement_total": outcome.complement_total,
                "factors": m,
                "survivor_count": 0,
            },
        )
    else:
        pigeon_step = Step(
            id="top-degree-pigeonhole",
            kind=PIGEONHOLE,
            statement=(
                f"multidegrees of total {nu} with no entry {2 * g} exist for m <= 2g,"
                " so the weight argument does not conclude; vanishing is not claimed"
            ),
            reference="counting complements of a bounded composition",
            status=FAIL,
            witness={
                "weight": nu,
                "complement_total": outcome.complement_total,
                "factors": m,
                "survivor_count": survivor_count,
                "counterexample": list(outcome.counterexample),
                "note": "no conclusion about vanishing; the argument needs m >= 2g+1",
            },
        )
    steps.append(pigeon_step)
    return steps


def _cohomology_step(g: int, m: int, walk: Callable, max_dim: int) -> Step:
    """The shadow step, and the one place that decides the shadow's bound;
    ``walk()`` is read only for the survivor containment check at m <= 2g."""
    dim = graded_dimension(g, m)
    if dim >= max_dim:
        return Step(
            id="cohomology-shadow",
            kind=COHOMOLOGY_CHECK,
            statement=(
                f"the exterior-algebra realization would walk a graded piece of"
                f" dimension {dim}, beyond the configured bound"
            ),
            reference="exterior-algebra model of H*(abelian variety)",
            status=SKIPPED,
            witness={"graded_dimension": dim, "max_dim": max_dim},
        )
    cls = modified_diagonal_class(Ambient(g, m))
    support = sorted(profile_support(cls))
    top_clear = all(2 * g not in p for p in support)
    witness: dict = {
        "graded_dimension": dim,
        "is_zero": cls.is_zero,
        "support": [list(p) for p in support],
        "top_entry_components_zero": top_clear,
        "scope": (
            "homological shadow only; the Chow-level weight argument rests on"
            " the motivic-decomposition axiom"
        ),
    }
    if m >= 2 * g + 1:
        ok = cls.is_zero
        statement = "the exterior-algebra realization of the modified diagonal vanishes identically"
    else:
        walked = walk()
        if walked is not None:
            contained = set(support) <= set(walked[1])
            witness["survivor_containment"] = "verified" if contained else "violated"
        else:
            contained = True
            witness["survivor_containment"] = "skipped (enumeration above bound)"
        ok = top_clear and contained
        statement = (
            "the exterior-algebra realization is supported on surviving Kunneth"
            " profiles, none containing a top entry; nonvanishing is reported, not claimed"
        )
    return Step(
        id="cohomology-shadow",
        kind=COHOMOLOGY_CHECK,
        statement=statement,
        reference="exterior-algebra model of H*(abelian variety)",
        status=PASS if ok else FAIL,
        witness=witness,
    )


def replay_proof(
    g: int,
    m: int,
    *,
    layers: Iterable[str] = DEFAULT_LAYERS,
    mult_sample: Iterable[int] = DEFAULT_MULT_SAMPLE,
    enum_bound: int = DEFAULT_ENUM_BOUND,
    max_dim: int = DEFAULT_MAX_DIM,
) -> Certificate:
    """Replay the vanishing argument for the modified diagonal on X^m.

    Emits the steps of the requested layers in canonical order and returns
    a deterministic certificate.  The result is PASS exactly when no step
    FAILed; for m <= 2g the pigeonhole step fails by design, carrying its
    counterexample and an explicit no-claim note, so the certificate never
    asserts a vanishing the argument does not give.  Resource-bound
    overruns surface as SKIPPED steps, never as silent truncation.  Both
    bounds follow ``_as_int``: a bool, float or string raises TypeError.

    ``enum_bound`` gates the Kunneth walk by ``count_admissible``, the
    number of profiles the walk counts.  That is a sound upper bound on
    its work but a loose one, since the profiles that miss a factor are
    counted in closed form: at (7, 15) the default bound SKIPs 40,116,600
    profiles that the walk covers with a sum of 14 binomial products.
    """
    Ambient(g, m)  # rejects non-integers, bools and values below 1
    layer_set = set(layers)
    unknown = layer_set - set(LAYERS)
    if unknown or not layer_set:
        raise ValueError(f"layers must be a nonempty subset of {LAYERS}")
    sample = []
    for n in mult_sample:  # a bool or a non-integer enters as 0 and is rejected
        try:
            sample.append(_as_int(n))
        except TypeError:
            sample.append(0)
    if not sample or 0 in sample:
        raise ValueError("the multiplication sample must be nonzero integers")
    enum_bound, max_dim = _as_int(enum_bound), _as_int(max_dim)

    @cache
    def walk() -> tuple[int, list[MultiDegree]] | None:
        # The Kunneth walk at weight 2g(m-1), done at most once and only if a
        # step reads it; None above enum_bound.
        if count_admissible(g, m, 2 * g * (m - 1)) > enum_bound:
            return None
        return _kunneth_survivors(g, m)

    steps: list[Step] = []
    if "formal" in layer_set:
        steps.extend(_formal_steps(g, m, sample))
    if "grading" in layer_set:
        steps.extend(_grading_steps(g, m, walk(), enum_bound))
    if "cohomology" in layer_set:
        steps.append(_cohomology_step(g, m, walk, max_dim))

    result = PASS if all(s.status != FAIL for s in steps) else FAIL
    return Certificate(SCHEMA_VERSION, g, m, tuple(steps), result)
