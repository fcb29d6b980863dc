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
     the diagonal calculus on a sample of n.  The gcd and sign rules act
     on the run shapes of the indicator vectors, (n, 0) and (n,)
     (``diagonals`` docstring), which must normalize to (1, 0) and (1,)
     with the factor n^(2g): two normalizations per n, whatever m is, in
     place of all 2^m - 1 twisted diagonals;
  2. contracting any factor kills it, checked exactly on the alternating
     signs a_k = (-1)^(m-k) of Gamma(m) = sum_k a_k O_k: a contraction
     folds them into a_k + a_(k+1), k = 1..m-1, each of which must be 0.
     The fold is the same for every factor j, so it is computed once and
     listed for each j;
  3. the decomposition above is imported as an explicit axiom, never
     silently;
  4. step 1 pins the class to total weight 2g(m-1);
  5. step 2 kills every profile containing an entry 2g, and the surviving
     profiles are counted: the complements to 2g of a surviving profile
     are all at least 1 yet sum to 2g, so survivors force m <= 2g, and for
     m >= 2g+1 nothing is left.  The survivors, one per composition of 2g
     into m positive parts, are the profiles in {0..2g-1}^m of total
     2g(m-1), C(2g-1, m-1) of them; the certificate lists the first
     ``SURVIVOR_LIST_CAP`` from the bounded walk that also lists
     ``admissible_degrees``, and proves them the lexicographically first
     by the rank of the last one.  The profiles with an entry 2g are
     counted in closed form, C(m, s) C(2g-1, s-1) of them with exactly s
     nonzero complements, and the certificate cross-checks the partition
     against C(2g+m-1, 2g), the profiles' complements read as the
     compositions of 2g into m parts at least 0, where the cap 2g never
     binds: the count that ``count_admissible`` returns at this total.
     The work is at most ``SURVIVOR_LIST_CAP`` tuples, min(m-1, 2g)
     big-int-by-small-int steps, two binomials, and the rank when the list
     is truncated;
  6. optionally, the exterior-algebra realization is read as an
     independent shadow of the same conclusion, from its closed form
     (``cohomology`` docstring) and without building a term: the maps onto
     an image S carry the superset sum c(S) of the signs a_k (``diagonals``
     docstring), and c(S) != 0 (``diagonals._live_images``) only for
     S = {1..m}, which no map from 2g points reaches for m >= 2g+1.  So the
     shadow is zero there, and is otherwise one profile per composition of
     2g into m positive parts, which the same bounded walk lists:
     C(2g-1, m-1) profiles, a count checked against that binomial, and
     each profile against the definition of a survivor, rather than
     against the list of step 5.

For m <= 2g the pigeonhole step reports its counterexample and the
certificate makes no claim about vanishing; nothing is overstated in
either direction.  ``claim`` is the one rule that reads a certificate's
verdict: "vanishing", "no claim" or "failed"; the command line exits 1
exactly on "failed".  Certificates serialize to deterministic JSON, byte
identical for identical inputs.
"""

from __future__ import annotations

# The C string escaping that json.encoder re-exports; taken from _json, it
# loads no module of the json package.
from _json import encode_basestring_ascii as _quote
from collections.abc import Iterable, Iterator
from itertools import islice
from math import comb
from operator import add

from .diagonals import Ambient, _as_int, _as_ints, _int_repr, _live_images, _orbit_signs, _Record, _require_in, normalize_twist

# The package's writer of an int, which goes through Decimal only past the
# int-to-text digit limit; bound here for the command line.
int_repr = _int_repr

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
DEFAULT_MAX_DIM = 10**14

# Survivor lists are embedded in witnesses only up to this many entries;
# beyond it the count is still exact and the omission is flagged.
SURVIVOR_LIST_CAP = 128

SCHEMA_VERSION = "1"


def weight_from_eigenvalue(g: int, m: int, w: int) -> int:
    """Total weight of a class whose mult(n) pushforward scales by n^w."""
    Ambient(g, m)  # rejects non-integers, bools and values below 1
    return 2 * g * m - _require_in("eigen-exponent", w, 0, 2 * g * m)


def _count_bounded(slots: int, total: int, cap: int) -> int:
    """Number of tuples in {0..cap}^slots with the given sum, by
    inclusion-exclusion on entries exceeding cap, for ``count_admissible``
    at any total; no certificate calls it.  The map i -> cap - i permutes
    {0..cap}^slots, so the sums total and slots*cap - total are counted
    alike, and the nearer one is used.  cap >= 1 and slots >= 1.

    Term k is (-1)^k C(slots, k) C(rest + slots - 1, slots - 1), with
    rest = total - k(cap + 1) >= 0.  Only term 0's C(total + slots - 1,
    slots - 1) is computed outright; both binomials are carried from term
    to term by exact multiply-then-divide steps, one for C(slots, k) and
    cap + 1 for the other, one per unit of rest.  So the work is about
    total big-int-by-small-int steps in place of two binomials of up to
    slots digits per term."""
    total = min(total, slots * cap - total)
    if total < 0:
        return 0
    k, rest, choose = 0, total, 1
    stars = comb(rest + slots - 1, slots - 1)
    out = stars
    while rest > cap:  # the next term's rest is at least 0
        k += 1
        choose = choose * (slots - k + 1) // k
        for _ in range(cap + 1):
            # C(n - 1, slots - 1) = C(n, slots - 1) * rest / n, n = rest + slots - 1
            stars = stars * rest // (rest + slots - 1)
            rest -= 1
        out += (-1) ** k * choose * stars
    return out


def count_admissible(g: int, m: int, nu: int) -> int:
    """Number of multidegrees in {0..2g}^m of total nu, without enumeration.
    At the certificate's total 2g(m-1) it is C(2g+m-1, 2g), the binomial
    the certificate computes itself."""
    Ambient(g, m)
    return _count_bounded(m, _as_int(nu), 2 * g)


def _iter_bounded(slots: int, total: int, cap: int) -> Iterator[MultiDegree]:
    """The tuples in {0..cap}^slots with the given sum, in lexicographic
    order: those that ``_count_bounded(slots, total, cap)`` counts.

    Each pass refills the entries after the pivot i from the right, using
    up the tail, and yields; then it raises the next pivot, the rightmost
    entry below cap whose tail is nonzero, taking one from that tail.  The
    first pass, with i = -1 and the whole total as its tail, fills the
    least tuple.  No recursion, so slots is not bounded by the
    interpreter's stack."""
    if not 0 <= total <= cap * slots:
        return
    degree = [0] * slots
    i, tail = -1, total
    while True:
        for j in range(slots - 1, i, -1):
            degree[j] = min(cap, tail)
            tail -= degree[j]
        yield tuple(degree)
        for i in range(slots - 1, -1, -1):
            if tail and degree[i] < cap:
                break
            tail += degree[i]
        else:
            return
        degree[i] += 1
        tail -= 1


def admissible_degrees(g: int, m: int, nu: int) -> list[MultiDegree]:
    """Multidegrees in {0..2g}^m of total nu, in lexicographic order."""
    Ambient(g, m)  # rejects non-integers, bools and values below 1
    return list(_iter_bounded(m, _as_int(nu), 2 * g))


def filter_top(degrees: Iterable[MultiDegree], g: int) -> list[MultiDegree]:
    """Drop every multidegree containing an entry equal to 2g (the top
    weight of one factor); input order is preserved."""
    Ambient(g, 1)  # rejects non-integers, bools and values below 1
    top = 2 * g
    return [d for d in degrees if top not in d]


def _rank(t: MultiDegree, cap: int) -> int:
    """The number of tuples in {0..cap}^len(t) with t's sum that precede t
    lexicographically, for t whose deficit len(t)*cap - sum(t) is at most
    cap, as every survivor's 2g - m is at cap = 2g - 1.  Those that first
    differ from t at position j hold some d < t_j there.  Their tails in
    the slots after j have a deficit no larger than t's, and read as cap
    minus each entry they are the tuples of that sum, none of whose
    entries can pass cap, so stars and bars counts them exactly.  d
    starts where the rest still fits in the slots after j, so no count is
    asked of zero slots."""
    rank, rest = 0, sum(t)
    for j, entry in enumerate(t):
        slots = len(t) - 1 - j
        for d in range(max(0, rest - cap * slots), entry):
            rank += comb(cap * slots - rest + d + slots - 1, slots - 1)
        rest -= entry
    return rank


def _kunneth_survivors(g: int, m: int) -> tuple[int, list[MultiDegree]]:
    """Count the multidegrees of total 2g(m-1) with an entry 2g, and list the
    first ``SURVIVOR_LIST_CAP`` of those without one, the survivors.

    The complements c_j = 2g - i_j of such a multidegree are at least 0 and
    sum to 2g, and an entry 2g is a factor j with c_j = 0.  A profile with
    exactly s nonzero complements is a choice of those s factors, C(m, s)
    ways, times a composition of 2g into s positive parts, C(2g-1, s-1)
    ways, so every class with s < m is counted in closed form and none is
    generated: the terms follow T(1) = m and T(s+1) = T(s) (m-s)(2g-s) /
    ((s+1) s) exactly, min(m-1, 2g) big-int-by-small-int steps.  The
    survivors, s = m, are the tuples in {0..2g-1}^m of total 2g(m-1), and
    ``_iter_bounded`` lists them in the order of ``filter_top(
    admissible_degrees(g, m, 2g(m-1)), g)``; for m >= 2g+1 there are none,
    so the empty list is enumerated, not assumed.
    """
    top = 2 * g
    missed, term = 0, m
    for s in range(1, min(m - 1, top) + 1):
        missed += term
        term = term * (m - s) * (top - s) // ((s + 1) * s)
    return missed, list(islice(_iter_bounded(m, top * (m - 1), top - 1), SURVIVOR_LIST_CAP))


def _is_survivor(t: MultiDegree, g: int, m: int) -> bool:
    """Whether t meets the definition of a survivor: total 2g(m-1), and
    every entry in 0..2g-1."""
    return sum(t) == 2 * g * (m - 1) and all(0 <= i < 2 * g for i in t)


class PigeonholeOutcome(_Record):
    """Result of the counting argument at total weight 2g(m-1).

    The complements 2g - i_j of a multidegree with no entry 2g are all at
    least 1 and sum to exactly complement_total = 2g, so survivors need
    m <= 2g.  ``holds`` means the survivor set is empty (m >= 2g+1);
    otherwise ``counterexample`` is the lexicographically smallest
    survivor, which for m = 2g is the unique one (2g-1, ..., 2g-1).
    """

    __match_args__ = ("g", "m", "weight", "complement_total", "holds", "counterexample")


def prove_empty_pigeonhole(g: int, m: int) -> PigeonholeOutcome:
    Ambient(g, m)
    holds = m >= 2 * g + 1
    cex = None if holds else (m - 1,) + (2 * g - 1,) * (m - 1)
    return PigeonholeOutcome(g, m, 2 * g * (m - 1), 2 * g, holds, cex)


class Step(_Record):
    __match_args__ = ("id", "kind", "statement", "reference", "status", "witness")


class Certificate(_Record):
    __match_args__ = ("schema_version", "g", "m", "steps", "result")


def certificate_to_json(cert: Certificate) -> str:
    """Deterministic JSON of the record fields, in ``__match_args__`` order,
    which is the key order, written directly by ``_to_json``.  The text is
    byte for byte ``json.dumps(cert, default=vars, indent=2) + "\\n"``, which
    the tests keep as the oracle; that form runs the standard library's
    pure-Python encoder, because ``indent`` turns its C encoder off.  Only
    the certificate grammar is written, and anything else in a witness
    raises TypeError (``_to_json``).  Every int is written by ``_int_repr``,
    the package's one writer of an int."""
    return _to_json(cert, "\n") + "\n"


def _to_json(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, default=vars, indent=2)`` writes it,
    with ``newline`` the line break plus the current indentation.  Only the
    certificate grammar is accepted: a dict with string keys, a list or
    tuple, or a ``_Record``, read through ``vars``, holding these or values
    of exactly the type ``str``, ``int`` or ``bool``.  Anything else raises
    TypeError: a float, None, a subclass of ``int`` or ``str`` such as an
    IntEnum, an object that is not a record, or a non-string key, which
    ``_quote`` refuses (a subclass of ``str`` as a key is quoted).  Every
    int is written by ``_int_repr``, the package's one writer of an int,
    which also writes one past Python's int-to-text digit limit.

    A container writes each exact ``str``, ``int`` and ``bool`` item in
    its own loop, and recurses for the rest.  Each container's text is one
    join of its pieces, brackets and separators included."""
    if isinstance(value, dict):
        keyed, pairs = True, value.items()  # _quote raises TypeError on a non-string key
    elif isinstance(value, (list, tuple)):
        keyed, pairs = False, enumerate(value)
    elif isinstance(value, _Record):
        return _to_json(vars(value), newline)  # a Certificate or a Step
    else:
        raise TypeError(f"a certificate holds no {type(value).__name__}")
    if not value:
        return "{}" if keyed else "[]"
    inner = newline + "  "
    opener = "{" if keyed else "["
    out = []
    for key, v in pairs:
        out += (opener, inner, _quote(key), ": ") if keyed else (opener, inner)
        opener = ","
        kind = type(v)
        if kind is str:
            out.append(_quote(v))
        elif kind is int:
            out.append(_int_repr(v))
        elif kind is bool:
            out.append("true" if v else "false")
        else:
            out.append(_to_json(v, inner))
    out += (newline, "}" if keyed else "]")
    return "".join(out)


def certificate_to_text(cert: Certificate) -> str:
    lines = [f"certificate schema {cert.schema_version}: g={_int_repr(cert.g)} m={_int_repr(cert.m)}"]
    for s in cert.steps:
        lines.append(f"[{s.status}] {s.kind} {s.id}: {s.statement}")
    lines.append(f"result: {cert.result}")
    return "\n".join(lines) + "\n"


def _formal_steps(g: int, m: int, mult_sample) -> list[Step]:
    # the run shapes of the indicator vectors 1_I (``diagonals`` docstring),
    # each with its ambient, built once for the whole sample
    shapes = [(run, Ambient(g, len(run))) for run in (((1, 0), (1,)) if m >= 2 else ((1,),))]
    checks = []
    for n in mult_sample:
        factor = n ** (2 * g)
        verified = all(normalize_twist([n * x for x in shape], ambient) == (factor, shape) for shape, ambient in shapes)
        checks.append({"n": n, "factor": factor, "verified": verified})
    mult_step = Step(
        "mult-eigenvalue",
        FORMAL_IDENTITY,
        (
            f"pushforward along multiplication by n scales the modified diagonal"
            f" through the zero section by n^{2 * g}, for each sampled n"
        ),
        "multiplication by n on a g-dimensional abelian variety is finite flat of degree n^(2g)",
        PASS if all(c["verified"] for c in checks) else FAIL,
        {"checks": checks},
    )
    # a contraction folds Gamma(m) = sum_k a_k O_k into sum_k (a_k + a_(k+1)) O_k,
    # k = 1..m-1, which is no sum at all at m = 1
    signs = _orbit_signs(m)
    vanishes = not any(map(add, signs, signs[1:]))
    if m >= 2:
        contractions = [{"j": j, "vanishes": vanishes} for j in range(1, m + 1)]
        statement = f"contracting any one of the {m} factors kills the modified diagonal"
    else:
        contractions = []
        statement = "no factor can be contracted at m = 1; the identity holds vacuously"
    contraction_step = Step(
        "contraction-vanishing",
        FORMAL_IDENTITY,
        statement,
        "terms pair off under I <-> I plus the contracted factor; the leftover singleton collapses to a point",
        PASS if vanishes else FAIL,
        {"checks": contractions},
    )
    return [mult_step, contraction_step]


def _grading_steps(g: int, m: int) -> list[Step]:
    nu = weight_from_eigenvalue(g, m, 2 * g)
    # the statements quote these texts, which _int_repr writes past the int-to-text digit limit
    top_text, m_text, nu_text = map(_int_repr, (2 * g, m, nu))
    steps = [
        Step(
            "motivic-decomposition",
            AXIOM,
            (
                "the rational motive of an abelian scheme splits into weight pieces"
                f" h^i, i = 0..{top_text}, with multiplication-by-n pushforward acting"
                " on h^i by n^(2g-i), and products decompose by Kunneth profile"
                " with projections an isomorphism on the top piece"
            ),
            (
                "C. Deninger, J. Murre, J. reine angew. Math. 422 (1991) 201-219;"
                " A. Beauville, Math. Ann. 273 (1986) 647-651"
            ),
            ASSUMED,
            {
                "imported": True,
                "base_point_note": (
                    "all diagonals pass through the zero section; translation by"
                    " any section transports the general case to this one"
                ),
            },
        )
    ]
    steps.append(
        Step(
            "eigenweight",
            EIGENWEIGHT,
            (
                f"the pushforward eigen-exponent {top_text} pins the modified diagonal"
                f" to total weight {nu_text} = 2g(m-1)"
            ),
            "eigen-exponent w on total weight nu satisfies w = 2gm - nu",
            PASS if nu == 2 * g * (m - 1) else FAIL,
            {"pushforward_exponent": 2 * g, "weight": nu},
        )
    )

    outcome = prove_empty_pigeonhole(g, m)
    # Stars and bars, each count exact: the complements of a profile sum to
    # 2g, so the cap 2g never binds, and a survivor's complements, each at
    # least 1, are one composition of 2g into m positive parts.
    admissible_count = comb(2 * g + m - 1, 2 * g)
    survivor_count = comb(2 * g - 1, m - 1)
    missed, survivors = _kunneth_survivors(g, m)
    # Distinct survivors in increasing order, min(count, cap) of them, are
    # all of them when the count fits under the cap; a truncated list is
    # exactly ranks 0..len-1 when its last entry has rank len - 1.
    consistent = (
        missed + survivor_count == admissible_count
        and all(_is_survivor(t, g, m) for t in survivors)
        and all(a < b for a, b in zip(survivors, survivors[1:]))
        and len(survivors) == min(survivor_count, SURVIVOR_LIST_CAP)
        and survivors[:1] == ([] if outcome.holds else [outcome.counterexample])
        and (survivor_count <= SURVIVOR_LIST_CAP or _rank(survivors[-1], 2 * g - 1) == SURVIVOR_LIST_CAP - 1)
    )
    statement = (
        f"enumerate the multidegrees in {{0..{top_text}}}^{m_text} of total {nu_text}"
        f" and drop those with an entry {top_text}, whose components die"
        " under a contraction; cross-check the count analytically"
    )
    reference = "bounded compositions by direct enumeration and by inclusion-exclusion"
    status = PASS if consistent else FAIL
    witness = {
        "admissible_count": admissible_count,
        "survivor_count": survivor_count,
        "survivors_listed": survivor_count <= SURVIVOR_LIST_CAP,
        "survivors": [list(s) for s in survivors],
        "matches_analytic": consistent,
    }
    steps.append(Step("kunneth-survivors", GRADING_FILTER, statement, reference, status, witness))

    # The survivor count is computed in both outcomes; it is 0 for m >= 2g+1.
    witness = {
        "weight": nu,
        "complement_total": outcome.complement_total,
        "factors": m,
        "survivor_count": survivor_count,
    }
    if outcome.holds:
        statement = (
            f"every multidegree in {{0..{top_text}}}^{m_text} of total {nu_text} has an entry"
            f" {top_text}: otherwise all {m_text} complements to {top_text} would be at least 1"
            f" while summing to {top_text}, impossible for m >= 2g+1"
        )
    else:
        statement = (
            f"multidegrees of total {nu_text} with no entry {top_text} exist for m <= 2g,"
            " so the weight argument does not conclude; vanishing is not claimed"
        )
        witness["counterexample"] = list(outcome.counterexample)
        witness["note"] = "no conclusion about vanishing; the argument needs m >= 2g+1"
    reference = "counting complements of a bounded composition"
    status = PASS if outcome.holds else FAIL
    steps.append(Step("top-degree-pigeonhole", PIGEONHOLE, statement, reference, status, witness))
    return steps


def _shadow_support(g: int, m: int) -> list[MultiDegree]:
    """The Kunneth support of [Gamma(m)], read from its closed form, in the
    order the walk yields it.

    A map kappa onto an image S writes c(S) * pi_kappa on its own monomial,
    whose profile is 2g - |kappa^-1(j)| on S and 2g off it (``cohomology``
    docstring).  So an image with c = 0 writes nothing, and c(S) != 0, as
    ``_live_images`` yields it, only for S = {1..m}, which carries one
    profile per composition of 2g into m positive parts, the fibre sizes:
    the tuples in {0..2g-1}^m of total 2g(m-1), which ``_iter_bounded``
    lists in lexicographic order.  The list is not sorted again, so the
    strict-order check of ``_cohomology_step`` reads the walk itself.  A
    partial image would give tuples of the wrong length and sum, which
    ``_is_survivor`` and the count C(2g-1, m-1) reject."""
    support = []
    for _, image in _live_images(g, m):
        support.extend(_iter_bounded(len(image), 2 * g * (len(image) - 1), 2 * g - 1))
    return support


def _cohomology_step(g: int, m: int, max_dim: int) -> Step:
    """The shadow step, and the one place that decides the shadow's bound.

    The bound is on C(2gm, 2g), the graded dimension.  It bounds the
    shadow's work soundly, if loosely: that work is at most min(2g, m)
    integer powers, for c(S), plus one profile per composition of 2g into
    m positive parts, C(2g-1, m-1) <= C(2gm, 2g) of them.
    Computed: c(S) for each image size, by ``_live_images``, and
    the profiles on the one live image {1..m}, by ``_shadow_support`` from
    the bounded walk.
    By construction: each map kappa writes its own monomial, so no component
    cancels, and the class is zero exactly when its support is empty; no
    term of the class is built.  The support must hold C(2g-1, m-1)
    profiles in the strictly increasing order the walk yields them, a
    binomial that does not come from the walk and is 0 for m >= 2g+1, and
    each of them is checked against the definition of a survivor, total
    2g(m-1) and every entry in 0..2g-1, not against the grading layer's
    list; the containment is written out at m <= 2g."""
    dim = comb(2 * g * m, 2 * g)
    witness: dict = {"graded_dimension": dim}
    if dim >= max_dim:
        statement = (
            f"the exterior-algebra realization would walk a graded piece of"
            f" dimension {_int_repr(dim)}, beyond the configured bound"
        )
        status = SKIPPED
        witness["max_dim"] = max_dim
    else:
        top = 2 * g
        support = _shadow_support(g, m)
        top_clear = all(top not in p for p in support)
        contained = all(_is_survivor(p, g, m) for p in support)
        distinct = all(a < b for a, b in zip(support, support[1:]))
        witness["is_zero"] = not support
        witness["support"] = [list(p) for p in support]
        witness["top_entry_components_zero"] = top_clear
        witness["scope"] = (
            "homological shadow only; the Chow-level weight argument rests on"
            " the motivic-decomposition axiom"
        )
        if m > top:
            statement = "the exterior-algebra realization of the modified diagonal vanishes identically"
        else:
            witness["survivor_containment"] = "verified" if contained else "violated"
            statement = (
                "the exterior-algebra realization is supported on surviving Kunneth"
                " profiles, none containing a top entry; nonvanishing is reported, not claimed"
            )
        ok = top_clear and contained and distinct and len(support) == comb(top - 1, m - 1)
        status = PASS if ok else FAIL
    reference = "exterior-algebra model of H*(abelian variety)"
    return Step("cohomology-shadow", COHOMOLOGY_CHECK, statement, reference, status, witness)


def replay_proof(
    g: int,
    m: int,
    *,
    layers: Iterable[str] = DEFAULT_LAYERS,
    mult_sample: Iterable[int] = DEFAULT_MULT_SAMPLE,
    max_dim: int = DEFAULT_MAX_DIM,
) -> Certificate:
    """Replay the vanishing argument for the modified diagonal on X^m.

    Emits the steps of the requested layers in canonical order and returns
    a deterministic certificate.  The result is PASS exactly when no step
    FAILed; for m <= 2g the pigeonhole step fails by design, carrying its
    counterexample and an explicit no-claim note, so the certificate never
    asserts a vanishing the argument does not give.  Resource-bound
    overruns surface as SKIPPED steps, never as silent truncation.
    Every bad ``mult_sample`` raises ValueError: one that is empty or not
    iterable, or holds a zero, a bool or a non-integer.  ``max_dim``, the
    shadow's bound, follows ``_as_int``: a bool, float or string raises
    TypeError.
    """
    Ambient(g, m)  # rejects non-integers, bools and values below 1
    layer_set = set(layers)
    unknown = layer_set - set(LAYERS)
    if unknown or not layer_set:
        raise ValueError(f"layers must be a nonempty subset of {LAYERS}")
    try:
        sample = _as_ints(mult_sample)
    except TypeError:  # not iterable, or a bool or a non-integer in it
        sample = ()
    if not sample or 0 in sample:
        raise ValueError("the multiplication sample must be nonzero integers")
    max_dim = _as_int(max_dim)

    steps: list[Step] = []
    if "formal" in layer_set:
        steps.extend(_formal_steps(g, m, sample))
    if "grading" in layer_set:
        steps.extend(_grading_steps(g, m))
    if "cohomology" in layer_set:
        steps.append(_cohomology_step(g, m, max_dim))

    result = PASS if all(s.status != FAIL for s in steps) else FAIL
    return Certificate(SCHEMA_VERSION, g, m, tuple(steps), result)


# The steps a vanishing claim rests on, each with the status it needs.
_GROUNDS = {
    "mult-eigenvalue": PASS,
    "contraction-vanishing": PASS,
    "motivic-decomposition": ASSUMED,
    "eigenweight": PASS,
    "kunneth-survivors": PASS,
    "top-degree-pigeonhole": PASS,
}


def claim(cert: Certificate) -> str:
    """What the certificate proves, the library's one reading of a verdict.

    "failed" when a step FAILed, other than the pigeonhole at m <= 2g,
    which fails by design there and reports its survivors.  "vanishing"
    when no step FAILed, the pigeonhole and every step it rests on PASSed,
    and the motivic decomposition is ASSUMED: the default layers at
    m >= 2g+1, with or without the shadow.  "no claim" otherwise: m <= 2g,
    or a layer the argument needs was left out.  A SKIPPED shadow does not
    change the claim.
    """
    if any(s.status == FAIL and not (s.kind == PIGEONHOLE and cert.m <= 2 * cert.g) for s in cert.steps):
        return "failed"
    grounds = {s.id: s.status for s in cert.steps if s.id in _GROUNDS}
    if grounds == _GROUNDS and FAIL not in (s.status for s in cert.steps):
        return "vanishing"
    return "no claim"
