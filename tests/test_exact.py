from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from modiag.exact import combo, combo_add, combo_scale, combo_sorted_items

keys = st.integers(-5, 5)
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=8)
combos = st.dictionaries(keys, coefficients, max_size=6).map(combo)


def test_add_disjoint():
    a = combo({(1,): Fraction(1, 2)})
    b = combo({(2,): 3})
    assert combo_add(a, b) == {(1,): Fraction(1, 2), (2,): Fraction(3)}


def test_add_cancels_to_zero():
    a = combo({(1,): 1})
    b = combo({(1,): -1})
    assert combo_add(a, b) == {}


def test_add_empty_is_identity():
    a = combo({(1,): Fraction(2, 3), (4,): -1})
    assert combo_add(a, {}) == a
    assert combo_add({}, a) == a


def test_scale_examples():
    assert combo_scale(combo({(1,): 2}), Fraction(1, 2)) == {(1,): Fraction(1)}
    assert combo_scale(combo({(1,): 5}), 0) == {}
    assert combo_scale({}, 7) == {}
    # an int scalar keeps int coefficients int; any other becomes a Fraction
    assert [type(c) for c in combo_scale({(1,): -1}, 16).values()] == [int]
    assert combo_scale({(1,): -1}, 0.5) == {(1,): Fraction(-1, 2)}


def test_constructor_folds_duplicates_and_drops_zeros():
    built = combo([((1,), Fraction(1, 2)), ((1,), Fraction(1, 2)), ((2,), 0)])
    assert built == {(1,): Fraction(1)}


def test_sorted_items_orders_by_key():
    a = combo({(2, 0): 1, (1, 5): 2, (1, 3): 3})
    assert [k for k, _ in combo_sorted_items(a)] == [(1, 3), (1, 5), (2, 0)]


@given(combos, combos)
def test_add_commutative(a, b):
    assert combo_add(a, b) == combo_add(b, a)


@given(combos, combos, combos)
def test_add_associative(a, b, c):
    assert combo_add(combo_add(a, b), c) == combo_add(a, combo_add(b, c))


@given(combos, coefficients, coefficients)
def test_scale_composes(a, c, d):
    assert combo_scale(combo_scale(a, c), d) == combo_scale(a, c * d)


@given(combos)
def test_canonical_form_is_idempotent(a):
    assert combo(a) == a
    assert all(coeff != 0 for coeff in a.values())
    assert all(isinstance(coeff, Fraction) for coeff in a.values())


@given(combos, combos)
def test_add_never_stores_zero(a, b):
    assert all(coeff != 0 for coeff in combo_add(a, b).values())
