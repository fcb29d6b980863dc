"""Exact cohomology of a power of an abelian variety, as an exterior algebra.

H^*(X; Q) for an abelian variety X of dimension g is the exterior algebra
on 2g degree-one generators, and for the m-fold product X^m it is the
exterior algebra on m blocks of 2g generators.  Everything here is computed
in that model, exactly, over the rationals.

Basis monomials are encoded as bitmasks over the 2*g*m generator positions:
generator (j, k), for block j in 1..m and index k in 1..2g, sits at bit
(j-1)*2g + (k-1), and a monomial is the wedge of its generators taken in
increasing position.  Signs are Koszul signs, i.e. parities of the
permutations that sort concatenated position sequences.

Orientation convention: integration returns the coefficient of the full
top monomial (every position set, in increasing order) and kills all lower
degrees; on one factor this reads top = e[1]^...^e[2g] with integral 1.

Pushforward is characterized against integration by the adjunction

    integrate(pushforward(f, a) ^ b) = integrate(a ^ pullback(f, b))

and computed by the dual-basis method: for each target monomial of the
complementary degree, pair the argument against its pullback and attach
the result to the pairing-dual monomial with the matching sign.  Only one
graded piece of the target is ever walked; for five blocks of four
generators that is C(20, 4) = 4845 monomials inside an algebra of
dimension 2^20, which keeps the computation cheap.

The maps realized are exactly the three the diagonal calculus pushes
along: twisted diagonals x -> (v_1*x, ..., v_m*x), projections forgetting
factors, and blockwise multiplication by integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .diagonals import Ambient, FormalCycle, _common_ambient
from .exact import _add_term, combo, combo_add, combo_scale, render_terms


@dataclass(frozen=True)
class LinearMap:
    """One of the three map kinds between powers of X.

    kind "diagonal":   data is an integer vector v; the map is
                       X -> X^len(v), x -> (v_1*x, ..., v_m*x).
    kind "projection": data lists the retained source factors in strictly
                       increasing order; the t-th target factor is source
                       factor data[t-1].
    kind "scaling":    data gives one integer per factor, acting as
                       multiplication by that integer on its factor.
    """

    kind: str
    source_blocks: int
    target_blocks: int
    data: tuple[int, ...]


def diagonal_map(v) -> LinearMap:
    v = tuple(int(x) for x in v)
    if not v:
        raise ValueError("a diagonal map needs at least one target factor")
    return LinearMap("diagonal", 1, len(v), v)


def projection_map(source_blocks: int, retained) -> LinearMap:
    retained = tuple(int(j) for j in retained)
    if not retained:
        raise ValueError("a projection must retain at least one factor")
    if any(not 1 <= j <= source_blocks for j in retained):
        raise ValueError(f"retained factors must lie in 1..{source_blocks}")
    if any(a >= b for a, b in zip(retained, retained[1:])):
        raise ValueError("retained factors must be strictly increasing")
    return LinearMap("projection", source_blocks, len(retained), retained)


def drop_factor_map(source_blocks: int, j: int) -> LinearMap:
    """The projection X^m -> X^(m-1) forgetting factor j."""
    if source_blocks < 2:
        raise ValueError("cannot drop the only factor")
    if not 1 <= j <= source_blocks:
        raise IndexError(f"factor index must lie in 1..{source_blocks}, got {j!r}")
    return projection_map(source_blocks, tuple(i for i in range(1, source_blocks + 1) if i != j))


def scaling_map(factors) -> LinearMap:
    factors = tuple(int(x) for x in factors)
    if not factors:
        raise ValueError("a scaling map needs at least one factor")
    return LinearMap("scaling", len(factors), len(factors), factors)


@dataclass(frozen=True)
class ExtClass:
    """An exact cohomology class: Fraction combination of basis monomials."""

    ambient: Ambient
    terms: dict  # bitmask -> nonzero Fraction

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _generator_count(ambient: Ambient) -> int:
    return 2 * ambient.g * ambient.m


def ext_class(ambient: Ambient, terms: Mapping | Iterable[tuple]) -> ExtClass:
    t = combo(terms)
    limit = 1 << _generator_count(ambient)
    for mask in t:
        if not isinstance(mask, int) or not 0 <= mask < limit:
            raise ValueError(f"monomial {mask!r} is outside the generator set")
    return ExtClass(ambient, t)


def zero_class(ambient: Ambient) -> ExtClass:
    return ExtClass(ambient, {})


def unit(ambient: Ambient) -> ExtClass:
    return ExtClass(ambient, {0: Fraction(1)})


def gen_position(ambient: Ambient, block: int, index: int) -> int:
    if not 1 <= block <= ambient.m:
        raise ValueError(f"block must lie in 1..{ambient.m}, got {block!r}")
    if not 1 <= index <= 2 * ambient.g:
        raise ValueError(f"index must lie in 1..{2 * ambient.g}, got {index!r}")
    return (block - 1) * 2 * ambient.g + (index - 1)


def monomial_mask(ambient: Ambient, gens: Iterable[tuple[int, int]]) -> int:
    """Bitmask of a monomial given as (block, index) pairs; repeats rejected."""
    mask = 0
    for block, index in gens:
        bit = 1 << gen_position(ambient, block, index)
        if mask & bit:
            raise ValueError(f"generator ({block}, {index}) repeats")
        mask |= bit
    return mask


def generator(ambient: Ambient, block: int, index: int) -> ExtClass:
    return ExtClass(ambient, {1 << gen_position(ambient, block, index): Fraction(1)})


def _merge_sign(a: int, b: int) -> int:
    """Koszul sign for concatenating disjoint monomials a then b."""
    inversions = 0
    rest = a
    while rest:
        low = rest & -rest
        inversions += (b & (low - 1)).bit_count()
        rest &= rest - 1
    return -1 if inversions & 1 else 1


def ext_add(a: ExtClass, b: ExtClass) -> ExtClass:
    return ExtClass(_common_ambient(a, b), combo_add(a.terms, b.terms))


def ext_scale(a: ExtClass, c) -> ExtClass:
    return ExtClass(a.ambient, combo_scale(a.terms, c))


def wedge(a: ExtClass, b: ExtClass) -> ExtClass:
    """Graded product; a repeated generator kills a term."""
    ambient = _common_ambient(a, b)
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            _add_term(out, ma | mb, ca * cb * _merge_sign(ma, mb))
    return ExtClass(ambient, out)


def integrate(c: ExtClass) -> Fraction:
    """Coefficient of the top monomial; zero on everything of lower degree."""
    top = (1 << _generator_count(c.ambient)) - 1
    return c.terms.get(top, Fraction(0))


def _degree_one_images(f: LinearMap, g: int):
    """Target position -> (integer coefficient, source position).

    All three map kinds send each degree-one generator to an integer
    multiple of a single source generator, which is what keeps pullbacks
    monomial-by-monomial.
    """
    two_g = 2 * g
    if f.kind == "diagonal":
        def image(pos: int) -> tuple[int, int]:
            j, k = divmod(pos, two_g)
            return f.data[j], k
    elif f.kind == "projection":
        def image(pos: int) -> tuple[int, int]:
            j, k = divmod(pos, two_g)
            return 1, (f.data[j] - 1) * two_g + k
    elif f.kind == "scaling":
        def image(pos: int) -> tuple[int, int]:
            j, _ = divmod(pos, two_g)
            return f.data[j], pos
    else:
        raise ValueError(f"unknown map kind {f.kind!r}")
    return image


def _pull_monomial(image, mask: int) -> tuple[int, int]:
    """Pull one target monomial back to (integer coefficient, source mask).

    Walks the target positions in increasing order, so the Koszul sign is
    the parity of sorting the image positions; a repeated image or a zero
    factor returns coefficient 0.
    """
    coeff = 1
    out = 0
    rest = mask
    while rest:
        low = rest & -rest
        c, q = image(low.bit_length() - 1)
        if c == 0:
            return 0, 0
        bit = 1 << q
        if out & bit:
            return 0, 0
        if (out >> (q + 1)).bit_count() & 1:
            coeff = -coeff
        coeff *= c
        out |= bit
        rest &= rest - 1
    return coeff, out


def pullback(f: LinearMap, c: ExtClass) -> ExtClass:
    """Pullback along f of a class on the target, monomial by monomial."""
    amb = c.ambient
    if amb.m != f.target_blocks:
        raise ValueError("class does not live on the map's target")
    image = _degree_one_images(f, amb.g)
    out: dict = {}
    for mask, coeff in c.terms.items():
        k, smask = _pull_monomial(image, mask)
        if k:
            _add_term(out, smask, coeff * k)
    return ExtClass(Ambient(amb.g, f.source_blocks), out)


def pushforward(f: LinearMap, c: ExtClass) -> ExtClass:
    """Pushforward along f, computed by the dual-basis method.

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
            value = coeff * k * _merge_sign(src_top ^ sigma, sigma)
            nu = tgt_top ^ mu
            _add_term(out, nu, value * _merge_sign(nu, mu))
    return ExtClass(target, out)


def class_of_twist(v, ambient: Ambient) -> ExtClass:
    """Realization of the twisted diagonal D(v): pushforward of 1 along the
    diagonal map of v.  Homogeneous of degree 2g(m-1); raw unnormalized
    vectors are fine and pick up the d^(2g) factor on their own."""
    entries = tuple(int(x) for x in v)
    if len(entries) != ambient.m:
        raise ValueError(f"expected a vector of length {ambient.m}, got {len(entries)}")
    if not any(entries):
        raise ValueError("the zero vector does not name a twisted diagonal")
    return pushforward(diagonal_map(entries), unit(Ambient(ambient.g, 1)))


def class_of_cycle(c: FormalCycle) -> ExtClass:
    """Linear extension of class_of_twist over a formal cycle."""
    out: dict = {}
    for v, coeff in sorted(c.terms.items()):
        for mask, k in class_of_twist(v, c.ambient).terms.items():
            _add_term(out, mask, coeff * k)
    return ExtClass(c.ambient, out)


def block_profile(ambient: Ambient, mask: int) -> tuple[int, ...]:
    """Generator count per block, the Kunneth profile of a monomial."""
    two_g = 2 * ambient.g
    blockbits = (1 << two_g) - 1
    return tuple(((mask >> (j * two_g)) & blockbits).bit_count() for j in range(ambient.m))


def kunneth_component(c: ExtClass, profile) -> ExtClass:
    """The part of c supported on monomials with the given block profile."""
    profile = tuple(int(x) for x in profile)
    if len(profile) != c.ambient.m:
        raise ValueError(f"profile must have length {c.ambient.m}, got {len(profile)}")
    return ExtClass(
        c.ambient,
        {mask: k for mask, k in c.terms.items() if block_profile(c.ambient, mask) == profile},
    )


def profile_support(c: ExtClass) -> set[tuple[int, ...]]:
    """The set of block profiles carrying a nonzero term of c."""
    return {block_profile(c.ambient, mask) for mask in c.terms}


def _positions(mask: int) -> tuple[int, ...]:
    out = []
    rest = mask
    while rest:
        low = rest & -rest
        out.append(low.bit_length() - 1)
        rest &= rest - 1
    return tuple(out)


def render_class(c: ExtClass) -> str:
    """Canonical text form: terms sorted by monomial, generators as e[j,k]."""
    two_g = 2 * c.ambient.g
    return render_terms(
        (coeff, "^".join(f"e[{pos // two_g + 1},{pos % two_g + 1}]" for pos in _positions(mask)))
        for mask, coeff in sorted(c.terms.items(), key=lambda kv: _positions(kv[0]))
    )
