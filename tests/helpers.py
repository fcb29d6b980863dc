"""Shared test utilities: independent oracles, seeded random generators and
the environment of a child interpreter.

The oracles here deliberately avoid the code paths they check.  Admissible
multidegrees are re-derived by filtering a full cartesian product, and
pushforwards are checked against the adjunction that defines them, using
only wedge, integrate and pullback, and against the dual-basis walk over
the whole target graded piece that their enumeration replaced.  Orbit
sums, given by their coefficients on O_1..O_m, are expanded back into all
2^m - 1 indicator diagonals and built through ``cycle``.  The Kunneth
survivors are re-walked flat, one size-2g multiset of factor positions at
a time.  Certificates are written by the standard library's
``json.dumps``, the form their direct writer replaced.  The shadow's image
coefficient c(S) is summed by superset size, one binomial per size, the
form its power of (+1) + (-1) replaced.  Bounded compositions are counted
by inclusion-exclusion with two fresh binomials per term and no
reflection, the form that carrying them from term to term replaced.  The
Koszul sign of two disjoint monomials counts its inversions one set bit at
a time, the form the prefix XOR replaced.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

from modiag import (
    Ambient,
    ExtClass,
    FormalCycle,
    cycle,
    ext_class,
    integrate,
    pullback,
    pushforward,
    wedge,
)
from modiag.cohomology import _degree_one_images, _pull_monomial
from modiag.exact import _add_term


def digit_limit():
    """The interpreter's int-to-text digit limit; Python 3.10 before 3.10.7
    has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def child_env() -> dict:
    """This process's environment with src/ in front of PYTHONPATH, for a
    child interpreter, which does not inherit pytest's sys.path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def json_oracle(cert) -> str:
    """The oracle for ``certificate_to_json``: the standard library's
    indented encoder, reading the record fields, in ``__match_args__``
    order, with ``vars``."""
    return json.dumps(cert, default=vars, indent=2) + "\n"


def binomial_image_coefficient(m: int, size: int) -> int:
    """The oracle for c(S) in ``diagonals._live_images``: the sum over
    I ⊇ S in {1..m} of (-1)^(m-|I|) for |S| = size, its supersets counted
    by size, C(m - size, t) of size size + t."""
    rest = m - size
    return sum((-1) ** (rest - t) * comb(rest, t) for t in range(rest + 1))


def per_term_count_bounded(slots: int, total: int, cap: int) -> int:
    """The oracle for ``grading._count_bounded``: the tuples in
    {0..cap}^slots of the given sum, by inclusion-exclusion on the entries
    exceeding cap, C(slots, k) C(rest + slots - 1, slots - 1) computed
    afresh for each term k, rest = total - k(cap + 1)."""
    terms = ((k, total - k * (cap + 1)) for k in range(slots + 1))
    return sum((-1) ** k * comb(slots, k) * comb(rest + slots - 1, slots - 1) for k, rest in terms if rest >= 0)


def brute_admissible(g: int, m: int, nu: int) -> list[tuple[int, ...]]:
    """All multidegrees in {0..2g}^m of total nu, by exhaustive filtering."""
    return [
        t for t in itertools.product(range(2 * g + 1), repeat=m) if sum(t) == nu
    ]


def flat_kunneth_survivors(g: int, m: int) -> tuple[int, list[tuple[int, ...]]]:
    """The oracle for ``grading._kunneth_survivors``, walked flat: every
    size-2g multiset of factor positions in lexicographic order, each tested
    on its own.  A profile survives when its multiset hits every factor; the
    multiplicities are the complements 2g - i_j.  Returns the number walked
    and the survivors."""
    top = 2 * g
    survivors = []
    for walked, positions in enumerate(itertools.combinations_with_replacement(range(m), top), 1):
        # a sorted multiset that misses the last factor cannot hit them all
        if positions[-1] == m - 1 and len(set(positions)) == m:
            survivors.append(tuple(top - positions.count(j) for j in range(m)))
    return walked, survivors


def monomials_of_degree(ambient: Ambient, degree: int) -> list[int]:
    n = 2 * ambient.g * ambient.m
    out = []
    for positions in itertools.combinations(range(n), degree):
        mask = 0
        for p in positions:
            mask |= 1 << p
        out.append(mask)
    return out


def adjunction_holds(f, alpha, beta) -> bool:
    """The defining property of pushforward, checked from the outside."""
    lhs = integrate(wedge(pushforward(f, alpha), beta))
    rhs = integrate(wedge(alpha, pullback(f, beta)))
    return lhs == rhs


def pushforward_satisfies_adjunction(f, alpha) -> bool:
    """Check the adjunction against every monomial of the pairing degree."""
    g = alpha.ambient.g
    n_in = 2 * g * f.source_blocks
    n_out = 2 * g * f.target_blocks
    target = Ambient(g, f.target_blocks)
    degrees = {mask.bit_count() for mask in alpha.terms} or {0}
    for d in degrees:
        pair_deg = n_in - d
        if not 0 <= pair_deg <= n_out:
            continue
        for mask in monomials_of_degree(target, pair_deg):
            beta = ext_class(target, {mask: Fraction(1)})
            if not adjunction_holds(f, alpha, beta):
                return False
    return True


def loop_merge_sign(a: int, b: int) -> int:
    """The oracle for ``cohomology._merge_sign``: for each set bit of a,
    count the bits of b below it."""
    inversions = 0
    rest = a
    while rest:
        low = rest & -rest
        inversions += (b & (low - 1)).bit_count()
        rest &= rest - 1
    return -1 if inversions & 1 else 1


def dual_basis_pushforward(f, c):
    """The oracle for ``cohomology.pushforward``: the dual-basis method.

    For each homogeneous part of degree d, walk the target monomials mu of
    degree (source generators - d): the pairing of c against pullback(mu)
    is the coefficient of the monomial complementary to mu, up to the
    Koszul sign that pairs them.  The target graded piece is walked once;
    nothing of the full 2^(2gm)-dimensional algebra is materialized.
    """
    amb = c.ambient
    if amb.m != f.source_blocks:
        raise ValueError("class does not live on the map's source")
    g = amb.g
    n_in = 2 * g * f.source_blocks
    n_out = 2 * g * f.target_blocks
    target = Ambient(g, f.target_blocks)
    image = _degree_one_images(f, g)
    src_top = (1 << n_in) - 1
    tgt_top = (1 << n_out) - 1

    by_degree: dict[int, dict] = {}
    for mask, coeff in c.terms.items():
        by_degree.setdefault(mask.bit_count(), {})[mask] = coeff

    out: dict = {}
    for d, part in sorted(by_degree.items()):
        comp_deg = n_in - d
        if comp_deg > n_out:
            continue  # would land below degree zero
        for positions in itertools.combinations(range(n_out), comp_deg):
            mu = 0
            for p in positions:
                mu |= 1 << p
            k, sigma = _pull_monomial(image, mu)
            if not k:
                continue
            coeff = part.get(src_top ^ sigma)
            if coeff is None:
                continue
            value = coeff * k * loop_merge_sign(src_top ^ sigma, sigma)
            nu = tgt_top ^ mu
            _add_term(out, nu, value * loop_merge_sign(nu, mu))
    return ExtClass(target, out)


def random_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([x for x in range(-5, 6) if x])
    return Fraction(num, rng.randint(1, 3))


def random_twist_vector(rng: random.Random, m: int, bound: int = 3) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(m))
        if any(v):
            return v


def random_cycle(rng: random.Random, ambient: Ambient, max_terms: int = 4):
    terms = [
        (random_twist_vector(rng, ambient.m), random_fraction(rng))
        for _ in range(rng.randint(1, max_terms))
    ]
    return cycle(ambient, terms)


def random_homogeneous(rng: random.Random, ambient: Ambient, degree: int, max_terms: int = 3):
    n = 2 * ambient.g * ambient.m
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mask = 0
        for p in rng.sample(range(n), degree):
            mask |= 1 << p
        terms[mask] = random_fraction(rng)
    return ext_class(ambient, terms)


def expand_orbits(ambient: Ambient, coeffs) -> FormalCycle:
    """sum_k coeffs[k-1] * O_k, k = 1..m, written out over every nonempty
    subset I of the factors and built through ``cycle``: the tuple form of
    the orbit sums that the formal layer's checks read."""
    m = ambient.m
    terms = []
    for bits in range(1, 1 << m):
        coeff = coeffs[bits.bit_count() - 1]
        if coeff:
            terms.append((tuple((bits >> i) & 1 for i in range(m)), coeff))
    return cycle(ambient, terms)
