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
test oracle.  Neither is on the certificate path, and ``grading`` imports
nothing from this module: the certificate reads the support from the
closed form below, walking the same images with c(S) != 0
(``diagonals._live_images``), and builds no term
(``grading._shadow_support``).

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
sign (-1)^(m-|I|), so the term of kappa picks up the superset sum c(S) of
its image S, which is 1 for S = {1..m} and 0 otherwise (``diagonals``
docstring, where it is derived).  ``diagonals._live_images`` yields the
images with c != 0; the closed form and the certificate's support both
walk them.  Hence
[Gamma(m)] is the sum of pi_kappa * (T - b_kappa) over the maps kappa
onto {1..m}: zero for m > 2g, the pigeonhole read in cohomology (Beauville
1986; Deninger-Murre 1991), and otherwise m! S(2g, m) terms of coefficient
+-1 supported on the profiles (2g - |kappa^-1(j)|)_j.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .cycles import FormalCycle, _Combination, _common_ambient, twist_cycle
from .cycles import cycle_add as ext_add, cycle_scale as ext_scale
from .diagonals import Ambient, _as_int, _as_ints, _int_repr, _live_images, _Record, _require_in
from .exact import _add_term, _map_terms, combo, render_terms


class LinearMap(_Record):
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

    __match_args__ = ("kind", "source_blocks", "target_blocks", "data")


def diagonal_map(v) -> LinearMap:
    v = _as_ints(v)
    if not v:
        raise ValueError("a diagonal map needs at least one target factor")
    return LinearMap("diagonal", 1, len(v), v)


def projection_map(source_blocks: int, retained) -> LinearMap:
    """The projection of X^source_blocks onto the retained factors.

    The map stores a tuple of ``len(retained)`` entries, at most
    ``source_blocks`` since they strictly increase, so its time and memory
    grow with ``source_blocks``; no bound is applied.
    """
    source_blocks = _as_int(source_blocks)
    retained = _as_ints(retained)
    if not retained:
        raise ValueError("a projection must retain at least one factor")
    for j in retained:
        _require_in("retained factor", j, 1, source_blocks)
    if any(a >= b for a, b in zip(retained, retained[1:])):
        raise ValueError("retained factors must be strictly increasing")
    return LinearMap("projection", source_blocks, len(retained), retained)


def drop_factor_map(source_blocks: int, j: int) -> LinearMap:
    """The projection X^m -> X^(m-1) forgetting factor j, m = source_blocks.

    The map stores a tuple of ``source_blocks - 1`` entries, so its time and
    memory grow with ``source_blocks``; no bound is applied.
    """
    source_blocks, j = _as_ints((source_blocks, j))
    if source_blocks < 2:
        raise ValueError("cannot drop the only factor")
    _require_in("factor index", j, 1, source_blocks, IndexError)
    return projection_map(source_blocks, tuple(i for i in range(1, source_blocks + 1) if i != j))


def scaling_map(factors) -> LinearMap:
    factors = _as_ints(factors)
    if not factors:
        raise ValueError("a scaling map needs at least one factor")
    return LinearMap("scaling", len(factors), len(factors), factors)


class ExtClass(_Combination):
    """An exact cohomology class: a combination of basis monomials whose
    coefficients follow the one rule of ``modiag.exact``: plain ``int``
    where every coefficient given is an integer (the unit, the generators,
    the closed form of the modified diagonal and their pushforwards), and
    ``Fraction`` where a caller passes one."""


def _top(ambient: Ambient) -> int:
    """The top monomial: every one of the 2gm generators."""
    return (1 << 2 * ambient.g * ambient.m) - 1


def ext_class(ambient: Ambient, terms: Mapping | Iterable[tuple]) -> ExtClass:
    t = combo(terms)
    top = _top(ambient)
    for mask in t:
        if isinstance(mask, bool) or not isinstance(mask, int) or not 0 <= mask <= top:
            raise ValueError(f"monomial {_int_repr(mask)} is outside the generator set")
    return ExtClass(ambient, t)


def zero_class(ambient: Ambient) -> ExtClass:
    return ExtClass(ambient, {})


def unit(ambient: Ambient) -> ExtClass:
    return ExtClass(ambient, {0: 1})


def gen_position(ambient: Ambient, block: int, index: int) -> int:
    block, index = _as_ints((block, index))  # a bad type is refused before a bad range
    _require_in("block", block, 1, ambient.m)
    _require_in("index", index, 1, 2 * ambient.g)
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
    return ExtClass(ambient, {1 << gen_position(ambient, block, index): 1})


def _merge_sign(a: int, b: int) -> int:
    """Koszul sign for concatenating disjoint monomials a then b: the parity
    of the pairs (p in a, q in b) with q < p.  A prefix XOR turns bit p of
    ``below`` into the parity of b's bits under p."""
    below, step = b << 1, 1
    while step < a.bit_length():
        below, step = below ^ below << step, step << 1
    return -1 if (a & below).bit_count() & 1 else 1


def wedge(a: ExtClass, b: ExtClass) -> ExtClass:
    """Graded product; a repeated generator kills a term."""
    ambient = _common_ambient(ExtClass, a, b)
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            _add_term(out, ma | mb, ca * cb * _merge_sign(ma, mb))
    return ExtClass(ambient, out)


def integrate(c: ExtClass) -> int | Fraction:
    """Coefficient of the top monomial; zero on everything of lower degree."""
    return c.terms.get(_top(_common_ambient(ExtClass, c)), 0)


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
    the parity of sorting the image positions; a repeated image returns
    coefficient 0, and a zero factor zeroes it through the product.
    """
    coeff = 1
    out = 0
    rest = mask
    while rest:
        low = rest & -rest
        c, q = image[low.bit_length() - 1]
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
    amb = _common_ambient(ExtClass, c)
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
    amb = _common_ambient(ExtClass, c)
    if amb.m != f.source_blocks:
        raise ValueError("class does not live on the map's source")
    g = amb.g
    target = Ambient(g, f.target_blocks)
    image = _degree_one_images(f, g)
    src_top = _top(amb)
    tgt_top = _top(target)
    preimages: list[list[int]] = [[] for _ in range(src_top.bit_length())]
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
    twist_cycle(ambient, f.data)  # refuses a vector of the wrong length and the zero vector
    return pushforward(f, unit(Ambient(ambient.g, 1)))


def class_of_cycle(c: FormalCycle) -> ExtClass:
    """Linear extension of class_of_twist over a formal cycle."""
    ambient = _common_ambient(FormalCycle, c)
    out: dict = {}
    for v, coeff in sorted(c.terms.items()):
        for mask, k in class_of_twist(v, ambient).terms.items():
            _add_term(out, mask, coeff * k)
    return ExtClass(ambient, out)


def modified_diagonal_class(ambient: Ambient) -> ExtClass:
    """[Gamma(m)] in closed form; equals class_of_cycle(modified_diagonal(ambient)).

    The term of a map kappa: {1..2g} -> {1..m} is c(image) * pi_kappa times
    the monomial of every generator outside the transversal e[kappa(k), k]
    (see the module docstring).  Only images with c != 0 are expanded, and
    the maps onto such an image are walked from a stack, with no recursion.
    """
    g, m = ambient.g, ambient.m
    two_g = 2 * g
    top = _top(ambient)
    out: dict = {}
    for c, image in _live_images(g, m):
        # An entry fixes kappa(1..k): b is its transversal, odd its inversion parity and
        # unhit the image blocks not yet reached, which a child must fit in its columns left.
        stack = [(0, 0, 0, sum(1 << j for j in image))]
        while stack:
            k, b, odd, unhit = stack.pop()
            if k == two_g:
                # b determines kappa, so no monomial is written twice.
                out[top ^ b] = -c if odd else c
                continue
            for j in image:
                rest = unhit & ~(1 << j)
                if rest.bit_count() < two_g - k:
                    # Columns before k already placed in a later block are inverted.
                    later = (b >> ((j + 1) * two_g)).bit_count()
                    stack.append((k + 1, b | 1 << (j * two_g + k), odd ^ (later & 1), rest))
    return ExtClass(ambient, out)


def block_profile(ambient: Ambient, mask: int) -> tuple[int, ...]:
    """Generator count per block, the Kunneth profile of a monomial."""
    two_g = 2 * ambient.g
    blockbits = (1 << two_g) - 1
    return tuple(((mask >> (j * two_g)) & blockbits).bit_count() for j in range(ambient.m))


def kunneth_component(c: ExtClass, profile) -> ExtClass:
    """The part of c supported on monomials with the given block profile."""
    ambient, profile = _common_ambient(ExtClass, c), _as_ints(profile)
    if len(profile) != ambient.m:
        raise ValueError(f"profile must have length {ambient.m}, got {len(profile)}")
    return ExtClass(ambient, {mask: k for mask, k in c.terms.items() if block_profile(ambient, mask) == profile})


def profile_support(c: ExtClass) -> set[tuple[int, ...]]:
    """The set of block profiles carrying a nonzero term of c."""
    ambient = _common_ambient(ExtClass, c)
    return {block_profile(ambient, mask) for mask in c.terms}


def _positions(mask: int) -> tuple[int, ...]:
    """The set bits of mask, in increasing position: one scan of its binary
    digits, read from the lowest."""
    return tuple(i for i, bit in enumerate(reversed(f"{mask:b}")) if bit == "1")


def render_class(c: ExtClass) -> str:
    """Canonical text form: terms sorted by monomial, generators as e[j,k]."""
    two_g = 2 * _common_ambient(ExtClass, c).g
    return render_terms(
        (coeff, "^".join(f"e[{pos // two_g + 1},{pos % two_g + 1}]" for pos in _positions(mask)))
        for mask, coeff in sorted(c.terms.items(), key=lambda kv: _positions(kv[0]))
    )
