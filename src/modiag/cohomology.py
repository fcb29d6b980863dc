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

and computed by the dual-basis method: a term a of the argument pairs
with the target monomials mu that pull back to its complement sigma, and
each contributes to the pairing-dual monomial of mu with the matching
sign.  Every map kind sends a degree-one generator to an integer multiple
of one source generator, so those mu are enumerated directly, as one
generator with a nonzero image over each position of sigma; no other
monomial of the target is visited.  Along the diagonal of v into four
factors of genus 3, pushing forward the unit costs 4^6 = 4096 monomials,
where its graded piece of the target holds C(24, 6) = 134596.

The maps realized are exactly the three the diagonal calculus pushes
along: twisted diagonals x -> (v_1*x, ..., v_m*x), projections forgetting
factors, and blockwise multiplication by integers.

The modified diagonal has a closed form, ``modified_diagonal_class``.  The
pushforward (``class_of_twist`` and ``class_of_cycle``) is kept as its
test oracle and is not on the certificate path.

Along the diagonal of v the only monomials of degree 2g with a nonzero
pullback are the transversals: one generator e[kappa(k),k] from each
column k, for a map kappa: {1..2g} -> {1..m}.  Let b_kappa be the monomial
on them.  The column-ordered wedge e[kappa(1),1]^...^e[kappa(2g),2g] pulls
back to prod_k v_kappa(k) * e[1]^...^e[2g], and it equals pi_kappa * b_kappa,
where pi_kappa = (-1)^#{k < k' : kappa(k) > kappa(k')} sorts its positions.
Write T - b_kappa for the monomial of every other generator.  Its pairing
sign against b_kappa is (-1)^(sum of the positions of b_kappa - C(2g, 2)),
which is +1 because the positions 2g(kappa(k)-1) + (k-1) sum to C(2g, 2)
modulo 2g.  The dual-basis method therefore gives

    class_of_twist(v) = sum_kappa pi_kappa * prod_k v_kappa(k) * (T - b_kappa).

Grouped by columns this is the product formula

    class_of_twist(v) = eps(g, m) * wedge_{k=1..2g} omega_k,
    omega_k = sum_j (-1)^(m-j) v_j ê_{j,k},   eps(g, m) = (-1)^(g(m-1)(m-2)/2),

where ê_{j,k} is the wedge of e[i,k] over i != j in increasing i.  To
derive eps, pair the product with the column-ordered wedge of a
transversal, using omega_k ^ e[j,k] = v_j C_k with
C_k = e[1,k]^...^e[m,k].  Moving each degree-one cofactor e[kappa(k),k]
left past the degree-(m-1) factors omega_k', k' > k, costs (m-1)g(2g-1)
transpositions, and reordering C_1^...^C_2g into the top monomial is the
transpose of an m x 2g array, C(m, 2)C(2g, 2) transpositions.  So the
product pairs with it to (-1)^(g(m-1) + g*m(m-1)/2) prod_k v_kappa(k), and
the adjunction needs its pullback, prod_k v_kappa(k); the two exponents sum
to g(m-1)(m-2)/2 modulo 2.

Gamma(m) sums D(v) over the indicator vectors of nonempty I in {1..m} with
sign (-1)^(m-|I|), so the term of kappa picks up c(S) = sum over I ⊇ S of
(-1)^(m-|I|), S the image of kappa.  That sum is 1 for S = {1..m} and 0
otherwise, and it is computed for every image size up to 2g rather than
assumed.  Hence [Gamma(m)] is the sum of pi_kappa * (T - b_kappa) over the
maps kappa onto {1..m}: zero for m > 2g, the pigeonhole read in cohomology
(Beauville 1986; Deninger-Murre 1991), and otherwise m! S(2g, m) terms of
coefficient +-1 supported on the profiles (2g - |kappa^-1(j)|)_j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

from .diagonals import Ambient, FormalCycle, _as_int, _as_ints, _common_ambient
from .exact import _add_term, _map_terms, combo, combo_add, combo_scale, render_terms


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

    The constructors take integers only (``operator.index``, and no
    ``bool``), as do ``class_of_twist``, ``kunneth_component`` and
    ``gen_position``.
    """

    kind: str
    source_blocks: int
    target_blocks: int
    data: tuple[int, ...]


def diagonal_map(v) -> LinearMap:
    v = _as_ints(v)
    if not v:
        raise ValueError("a diagonal map needs at least one target factor")
    return LinearMap("diagonal", 1, len(v), v)


def projection_map(source_blocks: int, retained) -> LinearMap:
    source_blocks = _as_int(source_blocks)
    retained = _as_ints(retained)
    if not retained:
        raise ValueError("a projection must retain at least one factor")
    if any(not 1 <= j <= source_blocks for j in retained):
        raise ValueError(f"retained factors must lie in 1..{source_blocks}")
    if any(a >= b for a, b in zip(retained, retained[1:])):
        raise ValueError("retained factors must be strictly increasing")
    return LinearMap("projection", source_blocks, len(retained), retained)


def drop_factor_map(source_blocks: int, j: int) -> LinearMap:
    """The projection X^m -> X^(m-1) forgetting factor j."""
    source_blocks, j = _as_ints((source_blocks, j))
    if source_blocks < 2:
        raise ValueError("cannot drop the only factor")
    if not 1 <= j <= source_blocks:
        raise IndexError(f"factor index must lie in 1..{source_blocks}, got {j!r}")
    return projection_map(source_blocks, tuple(i for i in range(1, source_blocks + 1) if i != j))


def scaling_map(factors) -> LinearMap:
    factors = _as_ints(factors)
    if not factors:
        raise ValueError("a scaling map needs at least one factor")
    return LinearMap("scaling", len(factors), len(factors), factors)


@dataclass(frozen=True)
class ExtClass:
    """An exact cohomology class: a combination of basis monomials whose
    coefficients follow ``modiag.exact``, plain ``int`` in the closed form of
    the modified diagonal and ``Fraction`` where a caller passes one."""

    ambient: Ambient
    terms: dict  # bitmask -> nonzero int or Fraction

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _generator_count(ambient: Ambient) -> int:
    return 2 * ambient.g * ambient.m


def ext_class(ambient: Ambient, terms: Mapping | Iterable[tuple]) -> ExtClass:
    t = combo(terms)
    limit = 1 << _generator_count(ambient)
    for mask in t:
        if isinstance(mask, bool) or not isinstance(mask, int) or not 0 <= mask < limit:
            raise ValueError(f"monomial {mask!r} is outside the generator set")
    return ExtClass(ambient, t)


def zero_class(ambient: Ambient) -> ExtClass:
    return ExtClass(ambient, {})


def unit(ambient: Ambient) -> ExtClass:
    return ExtClass(ambient, {0: Fraction(1)})


def gen_position(ambient: Ambient, block: int, index: int) -> int:
    block, index = _as_ints((block, index))
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


def _degree_one_images(f: LinearMap, g: int) -> list[tuple[int, int]]:
    """The table target position -> (integer coefficient, source position).

    All three map kinds send each degree-one generator to an integer
    multiple of a single source generator, which is what keeps pullbacks
    monomial-by-monomial.
    """
    two_g = 2 * g
    if f.kind == "diagonal":
        return [(v, k) for v in f.data for k in range(two_g)]
    if f.kind == "projection":
        return [(1, (j - 1) * two_g + k) for j in f.data for k in range(two_g)]
    if f.kind == "scaling":
        return [(n, j * two_g + k) for j, n in enumerate(f.data) for k in range(two_g)]
    raise ValueError(f"unknown map kind {f.kind!r}")


def _pull_monomial(image: list[tuple[int, int]], mask: int) -> tuple[int, int]:
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
        c, q = image[low.bit_length() - 1]
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
    return ExtClass(
        Ambient(amb.g, f.source_blocks), _map_terms(c.terms, lambda mask: _pull_monomial(image, mask))
    )


def pushforward(f: LinearMap, c: ExtClass) -> ExtClass:
    """Pushforward along f, enumerating only the target monomials that pull
    back nonzero.

    Each target generator pulls back to an integer multiple of one source
    generator, so the monomials mu pairing with a term a are the products of
    one nonzero preimage over each position of its complement sigma; mu
    pulls back to sigma, and its complement carries the pairing.  A term of
    degree d costs at most m^(2g-d) monomials along a diagonal into m
    factors, C(2g, d) * m^(2g-d) over its whole graded piece, and at most
    one along a projection or a scaling.
    """
    amb = c.ambient
    if amb.m != f.source_blocks:
        raise ValueError("class does not live on the map's source")
    g = amb.g
    target = Ambient(g, f.target_blocks)
    image = _degree_one_images(f, g)
    n_in = 2 * g * f.source_blocks
    src_top = (1 << n_in) - 1
    tgt_top = (1 << 2 * g * f.target_blocks) - 1
    preimages: list[list[int]] = [[] for _ in range(n_in)]
    for t, (k, q) in enumerate(image):
        if k:
            preimages[q].append(1 << t)

    out: dict = {}
    for a, coeff in c.terms.items():
        sigma = src_top ^ a
        value = coeff * _merge_sign(a, sigma)
        for choice in itertools.product(*(preimages[p] for p in _positions(sigma))):
            mu = sum(choice)
            nu = tgt_top ^ mu
            _add_term(out, nu, value * _pull_monomial(image, mu)[0] * _merge_sign(nu, mu))
    return ExtClass(target, out)


def class_of_twist(v, ambient: Ambient) -> ExtClass:
    """Realization of the twisted diagonal D(v): pushforward of 1 along the
    diagonal map of v.  Homogeneous of degree 2g(m-1); raw unnormalized
    vectors are fine and pick up the d^(2g) factor on their own."""
    f = diagonal_map(v)
    if f.target_blocks != ambient.m:
        raise ValueError(f"expected a vector of length {ambient.m}, got {f.target_blocks}")
    if not any(f.data):
        raise ValueError("the zero vector does not name a twisted diagonal")
    return pushforward(f, unit(Ambient(ambient.g, 1)))


def class_of_cycle(c: FormalCycle) -> ExtClass:
    """Linear extension of class_of_twist over a formal cycle."""
    out: dict = {}
    for v, coeff in sorted(c.terms.items()):
        for mask, k in class_of_twist(v, c.ambient).terms.items():
            _add_term(out, mask, coeff * k)
    return ExtClass(c.ambient, out)


def _image_coefficient(m: int, size: int) -> int:
    """c(S) = sum over I ⊇ S in {1..m} of (-1)^(m-|I|), for any |S| = size.

    The supersets of S are S plus a subset of its complement, so they are
    counted by size, C(m - size, t) of size size + t.  The sum is computed,
    not asserted: it is 1 for S = {1..m} and cancels to 0 otherwise.
    """
    rest = m - size
    return sum((-1) ** (rest - t) * comb(rest, t) for t in range(rest + 1))


def modified_diagonal_class(ambient: Ambient) -> ExtClass:
    """[Gamma(m)] in closed form; equals class_of_cycle(modified_diagonal(ambient)).

    The term of a map kappa: {1..2g} -> {1..m} is c(image) * pi_kappa times
    the monomial of every generator outside the transversal e[kappa(k), k]
    (see the module docstring).  Only images with c != 0 are expanded, and
    the maps onto such an image are enumerated directly.
    """
    g, m = ambient.g, ambient.m
    two_g = 2 * g
    top = (1 << (two_g * m)) - 1
    out: dict = {}

    def expand(image, c: int, k: int, b: int, inversions: int, unhit: int) -> None:
        # kappa(1..k) is fixed; b is its transversal and unhit the image
        # blocks not yet reached, which must fit in the 2g - k columns left.
        if unhit.bit_count() > two_g - k:
            return
        if k == two_g:
            # b determines kappa, so no monomial is written twice.
            out[top ^ b] = -c if inversions & 1 else c
            return
        for j in image:
            # Columns before k already placed in a later block are inverted.
            later = (b >> ((j + 1) * two_g)).bit_count()
            expand(image, c, k + 1, b | 1 << (j * two_g + k), inversions + later, unhit & ~(1 << j))

    for size in range(1, min(two_g, m) + 1):
        c = _image_coefficient(m, size)
        if c:
            for image in itertools.combinations(range(m), size):
                expand(image, c, 0, 0, 0, sum(1 << j for j in image))
    return ExtClass(ambient, out)


def block_profile(ambient: Ambient, mask: int) -> tuple[int, ...]:
    """Generator count per block, the Kunneth profile of a monomial."""
    two_g = 2 * ambient.g
    blockbits = (1 << two_g) - 1
    return tuple(((mask >> (j * two_g)) & blockbits).bit_count() for j in range(ambient.m))


def kunneth_component(c: ExtClass, profile) -> ExtClass:
    """The part of c supported on monomials with the given block profile."""
    profile = _as_ints(profile)
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
