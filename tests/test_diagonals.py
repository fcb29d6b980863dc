import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import modiag.diagonals
from helpers import random_cycle
from modiag import (
    Ambient,
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


def test_ambient_validation():
    with pytest.raises(ValueError):
        Ambient(0, 2)
    with pytest.raises(ValueError):
        Ambient(1, 0)
    with pytest.raises(ValueError):
        Ambient(True, 2)
    with pytest.raises(ValueError):
        Ambient(1, True)


def test_normalize_twist_examples():
    assert normalize_twist((1, 0, 1), Ambient(1, 3)) == (1, (1, 0, 1))
    assert normalize_twist((2, 4, 6), Ambient(1, 3)) == (4, (1, 2, 3))
    assert normalize_twist((-2, 4), Ambient(2, 2)) == (16, (1, -2))
    assert normalize_twist((0, 0, 0), Ambient(1, 3)) == (1, None)


def test_normalize_twist_sign_rule():
    # the first nonzero entry of the canonical form is positive
    assert normalize_twist((-3,), Ambient(1, 1)) == (9, (1,))
    assert normalize_twist((0, -2, 2), Ambient(1, 3)) == (4, (0, 1, -1))


def test_normalize_twist_length_mismatch():
    with pytest.raises(ValueError):
        normalize_twist((1, 2), Ambient(1, 3))


@given(st.integers(1, 3), st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_normalize_twist_idempotent(g, raw):
    ambient = Ambient(g, len(raw))
    coeff, v = normalize_twist(tuple(raw), ambient)
    if v is None:
        return
    again, w = normalize_twist(v, ambient)
    assert (again, w) == (1, v)
    assert coeff == Fraction(max(1, __import__("math").gcd(*raw))) ** (2 * g)


def test_cycle_constructor_normalizes_raw_vectors():
    amb = Ambient(1, 2)
    assert cycle_equal(cycle(amb, {(2, 2): 1}), cycle_scale(twist_cycle(amb, (1, 1)), 4))
    amb2 = Ambient(2, 2)
    assert cycle_equal(cycle(amb2, {(2, 2): 1}), cycle_scale(twist_cycle(amb2, (1, 1)), 16))


def test_cycle_constructor_rejects_zero_vector():
    with pytest.raises(ValueError):
        cycle(Ambient(1, 2), {(0, 0): 1})


def test_cycle_constructor_folds_equivalent_keys():
    amb = Ambient(1, 2)
    c = cycle(amb, [((1, 1), 1), ((-1, -1), -1)])
    assert c.is_zero


def test_modified_diagonal_m1():
    md = modified_diagonal(Ambient(2, 1))
    assert md.terms == {(1,): Fraction(1)}


def test_modified_diagonal_m2():
    md = modified_diagonal(Ambient(1, 2))
    assert md.terms == {
        (1, 1): Fraction(1),
        (1, 0): Fraction(-1),
        (0, 1): Fraction(-1),
    }


def test_modified_diagonal_m3():
    md = modified_diagonal(Ambient(1, 3))
    assert md.terms == {
        (1, 1, 1): Fraction(1),
        (1, 1, 0): Fraction(-1),
        (1, 0, 1): Fraction(-1),
        (0, 1, 1): Fraction(-1),
        (1, 0, 0): Fraction(1),
        (0, 1, 0): Fraction(1),
        (0, 0, 1): Fraction(1),
    }


def test_modified_diagonal_term_count():
    for m in range(1, 7):
        md = modified_diagonal(Ambient(1, m))
        assert len(md.terms) == 2**m - 1
        assert all(coeff in (1, -1) for coeff in md.terms.values())


def test_mult_factor_examples():
    amb = Ambient(1, 2)
    assert cycle_equal(
        mult_pushforward_factor(twist_cycle(amb, (1, 1)), 1, 0),
        twist_cycle(amb, (0, 1)),
    )
    amb3 = Ambient(1, 3)
    assert mult_pushforward_factor(twist_cycle(amb3, (1, 0, 0)), 1, 0).is_zero
    assert cycle_equal(
        mult_pushforward_factor(twist_cycle(amb, (1, 1)), 2, 2),
        twist_cycle(amb, (1, 2)),
    )


def test_mult_factor_extracts_gcd():
    amb = Ambient(2, 2)
    got = mult_pushforward_factor(twist_cycle(amb, (1, 2)), 1, 2)
    # (2, 2) -> 2^(2g) * D((1, 1))
    assert cycle_equal(got, cycle_scale(twist_cycle(amb, (1, 1)), 16))


def test_mult_factor_index_errors():
    amb = Ambient(1, 2)
    c = twist_cycle(amb, (1, 1))
    with pytest.raises(IndexError):
        mult_pushforward_factor(c, 0, 2)
    with pytest.raises(IndexError):
        mult_pushforward_factor(c, 3, 2)


def test_mult_all_scales_by_2g_power():
    md3 = modified_diagonal(Ambient(1, 3))
    assert cycle_equal(mult_pushforward_all(md3, 2), cycle_scale(md3, 4))
    md22 = modified_diagonal(Ambient(2, 2))
    assert cycle_equal(mult_pushforward_all(md22, 3), cycle_scale(md22, 81))
    c = twist_cycle(Ambient(1, 2), (1, 2))
    assert cycle_equal(mult_pushforward_all(c, -1), c)


def test_mult_all_rejects_zero():
    with pytest.raises(ValueError):
        mult_pushforward_all(twist_cycle(Ambient(1, 2), (1, 1)), 0)


def test_proj_examples():
    amb = Ambient(1, 2)
    got = proj_pushforward(twist_cycle(amb, (1, 0)), 2)
    assert got.ambient == Ambient(1, 1)
    assert cycle_equal(got, twist_cycle(Ambient(1, 1), (1,)))
    assert proj_pushforward(twist_cycle(amb, (0, 1)), 2).is_zero


def test_proj_kills_modified_diagonal():
    md3 = modified_diagonal(Ambient(1, 3))
    assert proj_pushforward(md3, 1).is_zero


def test_proj_errors():
    with pytest.raises(ValueError):
        proj_pushforward(twist_cycle(Ambient(1, 1), (1,)), 1)
    with pytest.raises(IndexError):
        proj_pushforward(twist_cycle(Ambient(1, 2), (1, 1)), 3)


def test_cycle_equal_ambient_mismatch():
    with pytest.raises(ValueError):
        cycle_equal(twist_cycle(Ambient(1, 2), (1, 1)), twist_cycle(Ambient(2, 2), (1, 1)))
    with pytest.raises(ValueError):
        cycle_add(twist_cycle(Ambient(1, 2), (1, 1)), twist_cycle(Ambient(1, 3), (1, 1, 1)))


def test_render_cycle_golden():
    assert render_cycle(modified_diagonal(Ambient(1, 2))) == (
        "-1 * D(0,1) - 1 * D(1,0) + 1 * D(1,1)"
    )
    assert render_cycle(zero_cycle(Ambient(1, 2))) == "0"
    assert render_cycle(twist_cycle(Ambient(1, 2), (1, 2), Fraction(3, 2))) == "3/2 * D(1,2)"


def test_lemma_identities_small_sweep():
    for g, m in itertools.product((1, 2), (1, 2, 3, 4)):
        md = modified_diagonal(Ambient(g, m))
        for n in (-3, -2, 2, 3):
            assert cycle_equal(mult_pushforward_all(md, n), cycle_scale(md, n ** (2 * g)))
        for j in range(1, m + 1):
            if m >= 2:
                assert proj_pushforward(md, j).is_zero


def test_factor_pushforwards_commute():
    rng = random.Random(7)
    for _ in range(60):
        g = rng.randint(1, 2)
        m = rng.randint(2, 4)
        c = random_cycle(rng, Ambient(g, m))
        j1, j2 = rng.sample(range(1, m + 1), 2)
        n1, n2 = rng.randint(-3, 3), rng.randint(-3, 3)
        one = mult_pushforward_factor(mult_pushforward_factor(c, j1, n1), j2, n2)
        two = mult_pushforward_factor(mult_pushforward_factor(c, j2, n2), j1, n1)
        assert cycle_equal(one, two)


def test_proj_absorbs_factor_scaling():
    rng = random.Random(8)
    for _ in range(60):
        g = rng.randint(1, 2)
        m = rng.randint(2, 4)
        c = random_cycle(rng, Ambient(g, m))
        j = rng.randint(1, m)
        n = rng.choice([x for x in range(-3, 4) if x])
        assert cycle_equal(
            proj_pushforward(mult_pushforward_factor(c, j, n), j),
            proj_pushforward(c, j),
        )


def test_soundness_asymmetry_documented():
    doc = modiag.diagonals.__doc__
    assert "formal result of zero proves vanishing" in doc
    assert "formal nonzero result proves nothing" in doc.lower()
