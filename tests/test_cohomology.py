import collections
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from helpers import (
    binomial_image_coefficient,
    dual_basis_pushforward,
    loop_merge_sign,
    monomials_of_degree,
    pushforward_satisfies_adjunction,
    random_homogeneous,
)
from modiag import (
    Ambient,
    ExtClass,
    FormalCycle,
    LinearMap,
    admissible_degrees,
    block_profile,
    class_of_cycle,
    class_of_twist,
    cycle_add,
    cycle_equal,
    diagonal_map,
    drop_factor_map,
    ext_add,
    ext_class,
    ext_scale,
    filter_top,
    gen_position,
    generator,
    integrate,
    kunneth_component,
    modified_diagonal,
    modified_diagonal_class,
    monomial_mask,
    mult_pushforward_all,
    mult_pushforward_factor,
    profile_support,
    proj_pushforward,
    projection_map,
    pullback,
    pushforward,
    render_class,
    render_cycle,
    scaling_map,
    twist_cycle,
    unit,
    wedge,
    zero_class,
    zero_cycle,
)
from modiag.cohomology import _merge_sign
from modiag.diagonals import _live_images
from modiag.grading import LAYERS, PASS, replay_proof

E1 = Ambient(1, 1)
E2 = Ambient(1, 2)


def mono(ambient, *gens):
    return ext_class(ambient, {monomial_mask(ambient, gens): Fraction(1)})


# the diagonal class on E x E, solved by hand from the adjunction
def diagonal_class_g1():
    return ext_add(
        ext_add(mono(E2, (1, 1), (1, 2)), mono(E2, (2, 1), (2, 2))),
        ext_add(ext_scale(mono(E2, (1, 1), (2, 2)), -1), mono(E2, (1, 2), (2, 1))),
    )


def test_wedge_basic():
    a = generator(E2, 1, 1)
    b = generator(E2, 1, 2)
    assert wedge(a, b) == mono(E2, (1, 1), (1, 2))
    assert wedge(a, a).is_zero
    assert wedge(b, a) == ext_scale(mono(E2, (1, 1), (1, 2)), -1)


def test_wedge_unit_is_identity():
    c = diagonal_class_g1()
    assert wedge(unit(E2), c) == c
    assert wedge(c, unit(E2)) == c


def test_wedge_koszul_sign_deg2_commutes():
    # even-degree classes commute
    a = mono(E2, (1, 1), (1, 2))
    b = mono(E2, (2, 1), (2, 2))
    assert wedge(a, b) == wedge(b, a)


def test_wedge_anticommutes_in_odd_degree():
    rng = random.Random(3)
    for _ in range(30):
        g = rng.randint(1, 2)
        m = rng.randint(1, 2)
        amb = Ambient(g, m)
        n = 2 * g * m
        d1 = rng.choice([d for d in range(1, n) if d % 2 == 1])
        d2 = rng.choice([d for d in range(1, n) if d % 2 == 1])
        a = random_homogeneous(rng, amb, d1)
        b = random_homogeneous(rng, amb, d2)
        assert wedge(a, b) == ext_scale(wedge(b, a), -1)


def test_ext_class_rejects_foreign_monomials():
    with pytest.raises(ValueError):
        ext_class(E1, {1 << 2: 1})
    with pytest.raises(ValueError):
        ext_class(E1, {True: 1})
    with pytest.raises(ValueError):
        monomial_mask(E1, [(1, 1), (1, 1)])


@pytest.mark.parametrize("ambient", [E2, Ambient(2, 3)])
def test_ext_class_accepts_the_top_monomial_and_nothing_above(ambient):
    top = (1 << 2 * ambient.g * ambient.m) - 1
    assert integrate(ext_class(ambient, {top: 1})) == 1
    with pytest.raises(ValueError, match="outside the generator set"):
        ext_class(ambient, {top + 1: 1})


def test_merge_sign_matches_the_per_bit_loop_below_nine_bits():
    for a in range(1 << 9):
        free = (1 << 9) - 1 ^ a
        b = free
        while True:  # every submask of the complement of a
            assert _merge_sign(a, b) == loop_merge_sign(a, b), (a, b)
            if not b:
                break
            b = (b - 1) & free


def test_merge_sign_matches_the_per_bit_loop_up_to_sixty_bits():
    # 2gm = 60 at g = 3, m = 10
    rng = random.Random(29)
    for _ in range(2000):
        n = rng.randint(1, 60)
        labels = [rng.randrange(3) for _ in range(n)]
        a = sum(1 << p for p, t in enumerate(labels) if t == 1)
        b = sum(1 << p for p, t in enumerate(labels) if t == 2)
        assert _merge_sign(a, b) == loop_merge_sign(a, b), (a, b)


def test_a_cycle_and_a_class_do_not_combine():
    # Twist vectors and monomial bitmasks name different bases, so the one
    # shared sum and equality refuse a cycle and a class together, either
    # way round, also when both are zero.
    cyc, cls = modified_diagonal(E2), unit(E2)
    pairs = [(cyc, cls), (cls, cyc), (zero_cycle(E2), zero_class(E2))]
    for combine in (cycle_add, ext_add, cycle_equal, wedge):
        for a, b in pairs:
            with pytest.raises(TypeError) as err:
                combine(a, b)
            assert str(err.value) == f"cannot combine {type(a).__name__} with {type(b).__name__}"
    # Read as the other kind, one record fails deep inside or gives a number
    # that proves nothing (integrating a cycle read 0), so each operation
    # checks the kind it is given.
    on_classes = [
        integrate,
        render_class,
        profile_support,
        lambda c: wedge(c, c),
        lambda c: pullback(scaling_map((1, 1)), c),
        lambda c: pushforward(drop_factor_map(2, 1), c),
        lambda c: kunneth_component(c, (0, 0)),
    ]
    on_cycles = [
        class_of_cycle,
        render_cycle,
        lambda c: cycle_equal(c, c),
        lambda c: mult_pushforward_all(c, 2),
        lambda c: mult_pushforward_factor(c, 1, 2),
        lambda c: proj_pushforward(c, 1),
    ]
    for operations, kind, wrongs in (
        (on_classes, "ExtClass", (cyc, zero_cycle(E2))),
        (on_cycles, "FormalCycle", (cls, zero_class(E2))),
    ):
        for operation, wrong in itertools.product(operations, wrongs):
            with pytest.raises(TypeError) as err:
                operation(wrong)
            assert str(err.value) == f"expected {kind}, got {type(wrong).__name__}"


def test_integrate_picks_top_coefficient():
    assert integrate(mono(E1, (1, 1), (1, 2))) == 1
    assert integrate(ext_scale(mono(E1, (1, 1), (1, 2)), Fraction(-2, 3))) == Fraction(-2, 3)
    assert integrate(generator(E1, 1, 1)) == 0
    assert integrate(unit(E1)) == 0
    assert integrate(zero_class(E1)) == 0


def test_pullback_diagonal_scales_generators():
    f = diagonal_map((2, 3))
    for k in (1, 2):
        assert pullback(f, generator(E2, 1, k)) == ext_scale(generator(E1, 1, k), 2)
        assert pullback(f, generator(E2, 2, k)) == ext_scale(generator(E1, 1, k), 3)


def test_pullback_diagonal_kills_colliding_monomial():
    f = diagonal_map((1, 1))
    assert pullback(f, mono(E2, (1, 1), (2, 1))).is_zero
    got = pullback(f, mono(E2, (1, 1), (2, 2)))
    assert got == mono(E1, (1, 1), (1, 2))
    # order reversal picks up the Koszul sign
    got = pullback(f, mono(E2, (1, 2), (2, 1)))
    assert got == ext_scale(mono(E1, (1, 1), (1, 2)), -1)


def test_pullback_is_an_algebra_map():
    rng = random.Random(11)
    for _ in range(40):
        g = rng.randint(1, 2)
        m_out = rng.randint(1, 3)
        kind = rng.choice(("diagonal", "projection", "scaling"))
        if kind == "diagonal":
            f = diagonal_map(tuple(rng.randint(-3, 3) for _ in range(m_out)))
            m_in = 1
        elif kind == "projection":
            m_in = m_out + rng.randint(1, 2)
            retained = sorted(rng.sample(range(1, m_in + 1), m_out))
            f = projection_map(m_in, retained)
        else:
            f = scaling_map(tuple(rng.randint(-3, 3) for _ in range(m_out)))
            m_in = m_out
        target = Ambient(g, m_out)
        n = 2 * g * m_out
        a = random_homogeneous(rng, target, rng.randint(0, n // 2))
        b = random_homogeneous(rng, target, rng.randint(0, n - n // 2))
        assert pullback(f, wedge(a, b)) == wedge(pullback(f, a), pullback(f, b))


def test_pullback_scaling_weights_by_block_degree():
    amb = Ambient(1, 2)
    f = scaling_map((2, 3))
    c = mono(amb, (1, 1), (2, 1), (2, 2))
    assert pullback(f, c) == ext_scale(c, 2 * 3 * 3)


def test_pullback_through_a_zero_factor_drops_every_term_it_touches():
    # every monomial of E2 with its own coefficient; scaling by 0 on block 1
    # kills each one holding a block-1 generator, and scaling by 2 on block 2
    # multiplies the rest by 2 per generator, with no reordering sign
    block1 = (1 << gen_position(E2, 1, 1)) | (1 << gen_position(E2, 1, 2))
    c = ext_class(E2, {mask: Fraction(mask + 1) for mask in range(16)})
    expected = {mask: Fraction(mask + 1) * 2 ** mask.bit_count() for mask in range(16) if not mask & block1}
    assert len(expected) == 4
    assert pullback(scaling_map((0, 2)), c) == ext_class(E2, expected)


def test_pullback_along_a_zero_diagonal_factor_is_zero():
    for k in (1, 2):
        assert pullback(diagonal_map((0, 1)), generator(E2, 1, k)).is_zero
        assert pullback(diagonal_map((0, 1)), generator(E2, 2, k)) == generator(E1, 1, k)


def test_pushforward_identity_diagonal():
    assert pushforward(diagonal_map((1,)), unit(E1)) == unit(E1)


def test_pushforward_diagonal_g1_frozen_value():
    got = pushforward(diagonal_map((1, 1)), unit(E1))
    assert got == diagonal_class_g1()


def test_pushforward_diagonal_satisfies_adjunction_oracle():
    # the defining property, checked against every complementary monomial
    assert pushforward_satisfies_adjunction(diagonal_map((1, 1)), unit(E1))
    assert pushforward_satisfies_adjunction(diagonal_map((0, 1)), unit(E1))
    assert pushforward_satisfies_adjunction(diagonal_map((2, -3)), unit(E1))


def test_pushforward_projection_examples():
    f = drop_factor_map(2, 2)
    # pt x 1 dies under the projection that forgets the second factor
    assert pushforward(f, mono(E2, (1, 1), (1, 2))).is_zero
    # 1 x pt integrates to 1 along it
    assert pushforward(f, mono(E2, (2, 1), (2, 2))) == unit(E1)
    # low degrees push to zero outright
    assert pushforward(f, unit(E2)).is_zero
    assert pushforward(f, generator(E2, 1, 1)).is_zero


def test_pushforward_matches_dual_basis_oracle():
    # the enumeration of nonzero pullbacks against the graded-piece walk it
    # replaced, term for term, on mixed-degree classes along every map kind
    rng = random.Random(17)
    zero_entries = set()
    nonzero = 0
    for trial in range(240):
        g = rng.randint(1, 2)
        kind = ("diagonal", "projection", "scaling")[trial % 3]
        if kind == "projection":
            m_in = rng.randint(1, 4)
            f = projection_map(m_in, sorted(rng.sample(range(1, m_in + 1), rng.randint(1, m_in))))
        else:
            data = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 4)))
            f = (diagonal_map if kind == "diagonal" else scaling_map)(data)
            if 0 in data:
                zero_entries.add(kind)
        source = Ambient(g, f.source_blocks)
        n = 2 * g * f.source_blocks
        c = zero_class(source)
        for _ in range(rng.randint(1, 3)):
            c = ext_add(c, random_homogeneous(rng, source, rng.randint(0, n)))
        got = pushforward(f, c)
        assert got == dual_basis_pushforward(f, c)
        nonzero += not got.is_zero
    assert zero_entries == {"diagonal", "scaling"}
    assert nonzero > 100


def test_class_of_twist_frozen_values():
    assert class_of_twist((1,), E1) == unit(E1)
    assert class_of_twist((0, 1), E2) == mono(E2, (1, 1), (1, 2))
    assert class_of_twist((1, 0), E2) == mono(E2, (2, 1), (2, 2))
    assert class_of_twist((1, 1), E2) == diagonal_class_g1()


def test_class_of_twist_normalization_shadow():
    for g, m, v, d in ((1, 3, (1, 2, 3), 2), (2, 2, (1, -2), 2), (1, 2, (0, 1), 3)):
        amb = Ambient(g, m)
        scaled = tuple(d * x for x in v)
        assert class_of_twist(scaled, amb) == ext_scale(class_of_twist(v, amb), d ** (2 * g))


def test_class_of_twist_sign_shadow():
    for g, m, v in ((1, 2, (1, -1)), (2, 2, (1, 2)), (1, 3, (1, 0, 2))):
        amb = Ambient(g, m)
        neg = tuple(-x for x in v)
        assert class_of_twist(neg, amb) == class_of_twist(v, amb)


def test_class_of_twist_is_homogeneous():
    for g, m, v in ((1, 3, (1, 2, 0)), (2, 2, (1, 1)), (1, 4, (1, 1, 1, 1))):
        amb = Ambient(g, m)
        cls = class_of_twist(v, amb)
        degree = 2 * g * (m - 1)
        assert cls.terms
        assert all(mask.bit_count() == degree for mask in cls.terms)


def test_class_of_twist_rejects_zero_vector():
    with pytest.raises(ValueError):
        class_of_twist((0, 0), E2)


def test_class_of_cycle_gamma2_frozen_value():
    got = class_of_cycle(modified_diagonal(E2))
    expected = ext_add(
        ext_scale(mono(E2, (1, 1), (2, 2)), -1), mono(E2, (1, 2), (2, 1))
    )
    assert got == expected
    assert render_class(got) == "-1 * e[1,1]^e[2,2] + 1 * e[1,2]^e[2,1]"


def test_class_of_cycle_gamma3_vanishes():
    assert class_of_cycle(modified_diagonal(Ambient(1, 3))).is_zero


def test_class_of_cycle_is_linear():
    rng = random.Random(5)
    from helpers import random_cycle
    from modiag import cycle_add, cycle_scale

    for _ in range(20):
        amb = Ambient(rng.randint(1, 2), rng.randint(1, 3))
        a = random_cycle(rng, amb)
        b = random_cycle(rng, amb)
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert class_of_cycle(cycle_add(a, b)) == ext_add(class_of_cycle(a), class_of_cycle(b))
        assert class_of_cycle(cycle_scale(a, k)) == ext_scale(class_of_cycle(a), k)
        # The one sum and scale keep the record type.
        cls = class_of_cycle(a)
        assert type(cycle_add(a, b)) is type(cycle_scale(a, k)) is FormalCycle
        assert type(ext_add(cls, cls)) is type(ext_scale(cls, k)) is ExtClass
    # An int scalar keeps int coefficients, by combo_scale's rule.
    for record in (FormalCycle(E1, {(1,): 2}), ExtClass(E1, {0: 2})):
        scaled = cycle_scale(record, 3)
        assert type(scaled) is type(record) and [(type(c), c) for c in scaled.terms.values()] == [(int, 6)]


def test_block_profile_and_kunneth_component():
    c = diagonal_class_g1()
    assert block_profile(E2, monomial_mask(E2, [(1, 1), (2, 2)])) == (1, 1)
    mixed = kunneth_component(c, (1, 1))
    assert mixed == ext_add(
        ext_scale(mono(E2, (1, 1), (2, 2)), -1), mono(E2, (1, 2), (2, 1))
    )
    assert kunneth_component(c, (2, 0)) == mono(E2, (1, 1), (1, 2))
    assert kunneth_component(c, (0, 0)).is_zero
    with pytest.raises(ValueError):
        kunneth_component(c, (1, 1, 0))


NON_INTEGERS = [2.5, 2.0, "3", True]


@pytest.mark.parametrize("bad", NON_INTEGERS)
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: diagonal_map((1, bad)),
        lambda bad: projection_map(3, (1, bad)),
        lambda bad: projection_map(bad, (1, 2)),
        lambda bad: drop_factor_map(3, bad),
        lambda bad: drop_factor_map(bad, 2),
        lambda bad: scaling_map((2, bad)),
        lambda bad: class_of_twist((bad, 1), E2),
        lambda bad: kunneth_component(diagonal_class_g1(), (bad, 1)),
        lambda bad: gen_position(E2, bad, 1),
        lambda bad: gen_position(E2, 1, bad),
        lambda bad: generator(E2, 1, bad),
        lambda bad: monomial_mask(E2, [(bad, 2)]),
        # a bad type is refused before a bad range
        lambda bad: gen_position(E2, 3, bad),
        lambda bad: drop_factor_map(1, bad),
    ],
)
def test_map_data_and_profiles_must_be_integers(build, bad):
    with pytest.raises(TypeError):
        build(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: diagonal_map(()),
        lambda: projection_map(3, ()),
        lambda: projection_map(3, (4,)),
        lambda: projection_map(3, (2, 1)),
        lambda: drop_factor_map(1, 1),
        lambda: scaling_map(()),
        lambda: gen_position(E2, 3, 1),
        lambda: gen_position(E2, 1, 3),
        lambda: pullback(LinearMap("bogus", 1, 1, (1,)), unit(E1)),
        lambda: pullback(diagonal_map((1, 1)), unit(E1)),
        lambda: pushforward(diagonal_map((1, 1)), unit(E2)),
        lambda: class_of_twist((1, 1), Ambient(1, 3)),
    ],
)
def test_maps_positions_and_classes_reject_out_of_range_data(build):
    with pytest.raises(ValueError):
        build()


def test_drop_factor_map_index_must_name_a_factor():
    with pytest.raises(IndexError):
        drop_factor_map(3, 4)


def test_kunneth_components_sum_back():
    rng = random.Random(9)
    for _ in range(20):
        g = rng.randint(1, 2)
        m = rng.randint(1, 3)
        amb = Ambient(g, m)
        d = rng.randint(0, 2 * g * m)
        c = random_homogeneous(rng, amb, d)
        total = zero_class(amb)
        for profile in admissible_degrees(g, m, d):
            total = ext_add(total, kunneth_component(c, profile))
        assert total == c


def test_profile_support_examples():
    assert profile_support(class_of_cycle(modified_diagonal(E2))) == {(1, 1)}
    assert profile_support(zero_class(E2)) == set()
    support = profile_support(class_of_cycle(modified_diagonal(Ambient(2, 2))))
    assert support == {(1, 3), (2, 2), (3, 1)}


def test_pairing_matrix_is_signed_permutation_small():
    for amb in (E1, E2):
        n = 2 * amb.g * amb.m
        for d in range(n + 1):
            rows = monomials_of_degree(amb, d)
            cols = monomials_of_degree(amb, n - d)
            for mask in rows:
                row_class = ext_class(amb, {mask: Fraction(1)})
                hits = []
                for other in cols:
                    val = integrate(wedge(row_class, ext_class(amb, {other: Fraction(1)})))
                    if val:
                        hits.append((other, val))
                assert len(hits) == 1
                assert hits[0][1] in (1, -1)


def test_pushforward_random_adjunction_spot():
    rng = random.Random(13)
    for _ in range(50):
        g = rng.randint(1, 2)
        kind = rng.choice(("diagonal", "projection", "scaling"))
        if kind == "diagonal":
            m_out = rng.randint(1, 3)
            f = diagonal_map(tuple(rng.randint(-3, 3) for _ in range(m_out)))
            m_in = 1
        elif kind == "projection":
            m_out = rng.randint(1, 2)
            m_in = m_out + rng.randint(1, 2)
            f = projection_map(m_in, sorted(rng.sample(range(1, m_in + 1), m_out)))
        else:
            m_in = m_out = rng.randint(1, 2)
            f = scaling_map(tuple(rng.randint(-3, 3) for _ in range(m_in)))
        n_in, n_out = 2 * g * m_in, 2 * g * m_out
        d = rng.randint(max(0, n_in - n_out), n_in)
        alpha = random_homogeneous(rng, Ambient(g, m_in), d)
        assert pushforward_satisfies_adjunction(f, alpha)


def test_render_class_golden():
    assert render_class(diagonal_class_g1()) == (
        "1 * e[1,1]^e[1,2] - 1 * e[1,1]^e[2,2] + 1 * e[1,2]^e[2,1] + 1 * e[2,1]^e[2,2]"
    )
    assert render_class(zero_class(E2)) == "0"
    assert render_class(ext_scale(unit(E1), Fraction(5, 3))) == "5/3"


def test_vanishing_shadow_small():
    # profiles containing the top entry 2g never survive in the realization
    for g, m in ((1, 2), (1, 3)):
        amb = Ambient(g, m)
        cls = class_of_cycle(modified_diagonal(amb))
        for profile in admissible_degrees(g, m, 2 * g * (m - 1)):
            if 2 * g in profile:
                assert kunneth_component(cls, profile).is_zero


# (g, m) pairs on which the closed form is checked term for term against
# class_of_cycle, the pushforward of every twisted diagonal summed over the
# inclusion-exclusion.
ORACLE_PAIRS = (
    [(1, m) for m in range(1, 11)]
    + [(2, m) for m in range(1, 7)]
    + [(3, m) for m in range(1, 8)]
    + [(4, 3)]
)


@pytest.mark.parametrize("g,m", ORACLE_PAIRS)
def test_modified_diagonal_class_matches_dual_basis_oracle(g, m):
    amb = Ambient(g, m)
    assert modified_diagonal_class(amb) == class_of_cycle(modified_diagonal(amb))


def stirling2(n, k):
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)) // math.factorial(k)


@pytest.mark.parametrize("g,m", [(g, m) for g in (1, 2, 3) for m in range(1, 2 * g + 1)] + [(4, 8)])
def test_modified_diagonal_class_below_threshold_structure(g, m):
    # one term per map {1..2g} -> {1..m} onto every factor, each +-1, on
    # exactly the Kunneth profiles the grading layer lets survive
    cls = modified_diagonal_class(Ambient(g, m))
    assert len(cls.terms) == math.factorial(m) * stirling2(2 * g, m)
    assert set(cls.terms.values()) <= {1, -1}
    assert all(type(k) is int for k in cls.terms.values())
    survivors = filter_top(admissible_degrees(g, m, 2 * g * (m - 1)), g)
    assert profile_support(cls) == set(survivors)


def test_per_profile_term_count_is_the_multinomial_of_the_fibres():
    # The maps kappa with fibre sizes 2g - p_j each write one term on the
    # profile p, and no two cancel: multinomial(2g; 2g - p_1, ..., 2g - p_m).
    for g, m in [(g, m) for g in (1, 2, 3) for m in range(1, 2 * g + 1)] + [(4, 7), (4, 8)]:
        amb = Ambient(g, m)
        counts = collections.Counter(
            block_profile(amb, mask) for mask in modified_diagonal_class(amb).terms
        )
        for profile, count in counts.items():
            fibres = [2 * g - p for p in profile]
            assert count == math.factorial(2 * g) // math.prod(map(math.factorial, fibres))


def test_live_images_are_the_images_with_a_nonzero_superset_sum():
    for g in (1, 2, 3):
        for m in range(1, 8):
            expected = []
            for size in range(1, min(2 * g, m) + 1):
                for image in itertools.combinations(range(m), size):
                    rest = [j for j in range(m) if j not in image]
                    explicit = sum(
                        (-1) ** (m - size - t)
                        for t in range(len(rest) + 1)
                        for _ in itertools.combinations(rest, t)
                    )
                    if explicit:
                        expected.append((explicit, image))
            assert list(_live_images(g, m)) == expected


def test_live_images_match_the_binomial_row_sum():
    for g in (1, 2, 3, 4):
        for m in range(1, 301):
            sizes = collections.Counter()
            for c, image in _live_images(g, m):
                assert c == binomial_image_coefficient(m, len(image))
                sizes[len(image)] += 1
            for size in range(1, min(2 * g, m) + 1):
                live = binomial_image_coefficient(m, size) != 0
                assert sizes[size] == (math.comb(m, size) if live else 0)


def test_shadow_and_closed_form_take_no_binomial(monkeypatch):
    # c(S) is one power of (+1) + (-1), so no binomial of about m/3 digits
    # is summed per image size: (3, 3000) took about 3 s when it was.
    def refuse(*args):
        raise AssertionError("c(S) must not be summed by binomials")

    monkeypatch.setattr("modiag.diagonals.comb", refuse, raising=False)
    # (1, 7071068) is the largest g = 1 power the default bound admits.
    for g, m, kwargs in [(1, 7071068, {}), (3, 3000, {"max_dim": 10**40})]:
        shadow = replay_proof(g, m, layers=("cohomology",), **kwargs).steps[0]
        assert shadow.status == PASS
        assert shadow.witness["support"] == [] and shadow.witness["is_zero"]
    amb = Ambient(2, 4)
    assert modified_diagonal_class(amb) == class_of_cycle(modified_diagonal(amb))


def test_shadow_reads_c_of_s_as_one_power():
    # A one-point image has 10^8 - 1 factors outside it: their product, taken
    # one factor at a time, kept the shadow alone at (1, 10^8) for about 6.3 s.
    start = time.perf_counter()
    shadow = replay_proof(1, 10**8, layers=("cohomology",), max_dim=10**17).steps[0]
    assert time.perf_counter() - start < 1
    assert (shadow.status, shadow.witness["is_zero"]) == (PASS, True)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_modified_diagonal_class_cancels_beyond_threshold(g):
    for m in range(2 * g + 1, 2 * g + 4):
        assert not list(_live_images(g, m))
        assert modified_diagonal_class(Ambient(g, m)).is_zero


def test_modified_diagonal_class_walks_without_recursion():
    # 2g = 1200 columns are beyond the interpreter's recursion limit.
    assert sys.getrecursionlimit() < 1200
    assert modified_diagonal_class(Ambient(600, 1)).terms == {0: 1}
    cert = replay_proof(600, 1, layers=LAYERS)
    shadow = next(s for s in cert.steps if s.id == "cohomology-shadow")
    assert shadow.status == PASS and not shadow.witness["is_zero"]


def column_product_class(v, amb):
    """eps(g, m) times the wedge over k of sum_j (-1)^(m-j) v_j ê_{j,k}."""
    g, m = amb.g, amb.m
    eps = -1 if g * (m - 1) * (m - 2) // 2 % 2 else 1
    out = ext_scale(unit(amb), eps)
    for k in range(1, 2 * g + 1):
        omega = zero_class(amb)
        for j in range(1, m + 1):
            hat = monomial_mask(amb, [(i, k) for i in range(1, m + 1) if i != j])
            omega = ext_add(omega, ext_class(amb, {hat: Fraction((-1) ** (m - j) * v[j - 1])}))
        out = wedge(out, omega)
    return out


def test_class_of_twist_product_formula():
    rng = random.Random(17)
    for g, m in [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        amb = Ambient(g, m)
        for _ in range(4):
            v = [rng.randint(-3, 3) for _ in range(m)]
            if not any(v):
                v[0] = 1
            assert column_product_class(v, amb) == class_of_twist(v, amb)
