from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modiag import Ambient, cycle, cycle_scale, ext_class, twist_cycle
from modiag.exact import _int_repr, combo, combo_add, combo_scale, combo_sorted_items, render_terms

keys = st.integers(-5, 5)
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=8)
# Every exact value a caller may pass: an int, a bool, or a Fraction, which
# may be integral.
exact_values = st.one_of(st.integers(-20, 20), st.booleans(), coefficients)
combos = st.dictionaries(keys, exact_values, max_size=6).map(combo)


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
    assert combo_scale({(1,): -1}, Decimal("0.5")) == {(1,): Fraction(-1, 2)}
    # a float is refused, not read as the binary fraction it holds
    with pytest.raises(TypeError):
        combo_scale({(1,): -1}, 0.5)


@pytest.mark.parametrize("value", [0.5, 0.1, 0.0, 2.0, float("inf")])
def test_a_float_coefficient_is_refused(value):
    # 0.1 would be stored as 3602879701896397/36028797018963968, and 0.0 as
    # nothing, though neither is an exact number the caller wrote.
    amb = Ambient(1, 1)
    for build in (
        lambda: combo({0: value}),
        lambda: combo_scale({0: 1}, value),
        lambda: cycle(amb, {(1,): value}),
        lambda: twist_cycle(amb, (1,), value),
        lambda: cycle_scale(twist_cycle(amb, (1,)), value),
        lambda: ext_class(amb, {0: value}),
    ):
        with pytest.raises(TypeError):
            build()


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
    # the one rule: a plain int or a Fraction, and canonicalizing again keeps each type
    assert all(type(coeff) in (int, Fraction) for coeff in a.values())
    assert [type(coeff) for coeff in combo(a).values()] == [type(coeff) for coeff in a.values()]


@given(exact_values)
def test_an_int_is_stored_exactly_when_one_is_given(value):
    # combo, combo_scale, cycle and ext_class follow one rule: an int (a
    # bool included) is stored as a plain int, anything else as a Fraction,
    # equal to Fraction(value) either way; zero stores nothing.
    amb = Ambient(1, 1)
    stored = [
        combo({0: value}).get(0),
        combo_scale({0: 1}, value).get(0),
        cycle(amb, {(1,): value}).terms.get((1,)),
        ext_class(amb, {0: value}).terms.get(0),
    ]
    if not value:
        assert stored == [None] * 4
        return
    for coeff in stored:
        assert type(coeff) is (int if isinstance(value, int) else Fraction)
        assert coeff == Fraction(value)


@given(combos, combos)
def test_add_never_stores_zero(a, b):
    assert all(coeff != 0 for coeff in combo_add(a, b).values())


@given(st.one_of(st.integers(-10**6, 10**6).filter(bool), coefficients.filter(bool)))
def test_render_terms_writes_a_magnitude_as_str_does(c):
    sign = "-" if c < 0 else ""
    assert render_terms([(c, "x")]) == f"{sign}{abs(c)} * x"
    assert render_terms([(1, "y"), (c, "")]) == f"1 * y {'-' if c < 0 else '+'} {abs(c)}"


# 10**5000 has 5,001 digits, past the interpreter's default int-to-text limit.
_PAST_LIMIT = 10**5000


def test_int_repr_writes_nested_values_past_the_digit_limit():
    digits = str(Decimal(_PAST_LIMIT))
    value = [(_PAST_LIMIT,), {"k": [Fraction(-_PAST_LIMIT, 3), 1]}, (), (2, -_PAST_LIMIT), {}, "s"]
    assert _int_repr(value) == f"[({digits},), {{'k': [Fraction(-{digits}, 3), 1]}}, (), (2, -{digits}), {{}}, 's']"


def test_int_repr_raises_again_where_it_cannot_look_inside():
    class Opaque:
        def __repr__(self):
            return f"Opaque({_PAST_LIMIT})"

    with pytest.raises(ValueError):
        _int_repr([Opaque()])
