import itertools
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import modiag.diagonals
from helpers import digit_limit, expand_orbits, random_cycle
from modiag import (
    Ambient,
    class_of_twist,
    cycle,
    cycle_add,
    cycle_equal,
    cycle_scale,
    diagonal_map,
    drop_factor_map,
    ext_scale,
    gen_position,
    generator,
    modified_diagonal,
    mult_pushforward_all,
    mult_pushforward_factor,
    normalize_twist,
    projection_map,
    proj_pushforward,
    render_class,
    render_cycle,
    twist_cycle,
    unit,
    weight_from_eigenvalue,
    zero_cycle,
)
from modiag import grading, replay_proof
from modiag.diagonals import _orbit_signs


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


def test_normalize_twist_rejects_non_integer_entries():
    amb = Ambient(1, 2)
    for raw in ((2.5, 1), (2.0, 1), ("3", 1), (Fraction(2), 1), (True, 1)):
        with pytest.raises(TypeError):
            normalize_twist(raw, amb)


@given(st.integers(1, 3), st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_normalize_twist_idempotent(g, raw):
    ambient = Ambient(g, len(raw))
    coeff, v = normalize_twist(tuple(raw), ambient)
    assert type(coeff) is int
    if v is None:
        return
    again, w = normalize_twist(v, ambient)
    assert (again, w) == (1, v)
    assert type(again) is int
    assert coeff == max(1, math.gcd(*raw)) ** (2 * g)


def _fraction_normalize(raw, g):
    """The Fraction-valued normalization the integer one replaced."""
    entries = tuple(int(x) for x in raw)
    if not any(entries):
        return Fraction(1), None
    d = math.gcd(*entries)
    sign = 1 if next(x for x in entries if x) > 0 else -1
    return Fraction(d) ** (2 * g), tuple((sign * x) // d for x in entries)


@given(st.integers(1, 3), st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_normalize_twist_matches_fraction_oracle(g, raw):
    assert normalize_twist(raw, Ambient(g, len(raw))) == _fraction_normalize(raw, g)


def test_cycle_constructor_normalizes_raw_vectors():
    amb = Ambient(1, 2)
    assert cycle_equal(cycle(amb, {(2, 2): 1}), cycle_scale(twist_cycle(amb, (1, 1)), 4))
    amb2 = Ambient(2, 2)
    assert cycle_equal(cycle(amb2, {(2, 2): 1}), cycle_scale(twist_cycle(amb2, (1, 1)), 16))


def test_twist_cycle_rejects_non_integer_entries():
    for raw in (("3", 1), (True, 1)):
        with pytest.raises(TypeError):
            twist_cycle(Ambient(1, 2), raw)


def test_cycle_constructor_rejects_zero_vector():
    with pytest.raises(ValueError):
        cycle(Ambient(1, 2), {(0, 0): 1})


def test_cycle_constructor_folds_equivalent_keys():
    amb = Ambient(1, 2)
    c = cycle(amb, [((1, 1), 1), ((-1, -1), -1)])
    assert c.is_zero


def test_cycle_constructor_drops_zero_coefficients():
    amb = Ambient(1, 2)
    assert cycle(amb, {(1, 1): 0, (1, 0): 2}) == cycle(amb, {(1, 0): 2})
    # a zero coefficient is dropped before its vector is normalized
    assert cycle(amb, {(0, 0): 0}).is_zero


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
    for m in range(1, 8):
        md = modified_diagonal(Ambient(1, m))
        assert len(md.terms) == 2**m - 1
        for v, coeff in md.terms.items():
            assert type(coeff) is int
            assert coeff == (-1) ** (m - sum(v))


def test_integer_pushforwards_match_fraction_oracle():
    # The modified diagonal carries int coefficients; its copy built by
    # cycle() from explicit Fractions carries Fractions.  Every pushforward
    # must agree on both.
    for g, m in itertools.product((1, 2), range(1, 8)):
        amb = Ambient(g, m)
        md = modified_diagonal(amb)
        oracle = cycle(amb, {v: Fraction(c) for v, c in md.terms.items()})
        assert all(type(c) is Fraction for c in oracle.terms.values())
        for n in (n for n in range(-5, 6) if n):
            got = mult_pushforward_all(md, n)
            assert cycle_equal(got, mult_pushforward_all(oracle, n))
            assert all(type(c) is int for c in got.terms.values())
            for j in range(1, m + 1):
                assert cycle_equal(
                    mult_pushforward_factor(md, j, n),
                    mult_pushforward_factor(oracle, j, n),
                )
        for j in range(1, m + 1) if m >= 2 else ():
            assert cycle_equal(proj_pushforward(md, j), proj_pushforward(oracle, j))


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


@pytest.mark.parametrize("n", [1.5, 0.5, True])
def test_mult_all_rejects_non_integer_multiplier(n):
    with pytest.raises(TypeError):
        mult_pushforward_all(modified_diagonal(Ambient(1, 2)), n)


def test_mult_factor_rejects_non_integer_multiplier():
    md = modified_diagonal(Ambient(1, 2))
    for j, n in ((1, 1.5), (1, True), (True, 2)):
        with pytest.raises(TypeError):
            mult_pushforward_factor(md, j, n)


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
    for j in (True, 1.0):
        with pytest.raises(TypeError):
            proj_pushforward(twist_cycle(Ambient(1, 2), (1, 1)), j)


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


NONZERO_N = tuple(n for n in range(-5, 6) if n)


def test_modified_diagonal_orbits_expand_to_the_modified_diagonal():
    for g, m in itertools.product((1, 2), range(1, 13)):
        amb = Ambient(g, m)
        assert cycle_equal(expand_orbits(amb, _orbit_signs(m)), modified_diagonal(amb))


def test_orbit_path_agrees_with_the_tuple_calculus():
    # The certificate's formal witnesses, read from the run shapes and the
    # orbit signs, against the same checks run on all 2^m - 1 twisted
    # diagonals (md is the expansion of the signs, test above).
    for g, m in itertools.product((1, 2, 3), range(1, 13)):
        amb = Ambient(g, m)
        md = modified_diagonal(amb)
        cert = replay_proof(g, m, layers=("formal",), mult_sample=NONZERO_N)
        mult, contraction = cert.steps
        assert [c["n"] for c in mult.witness["checks"]] == list(NONZERO_N)
        for check in mult.witness["checks"]:
            n = check["n"]
            expected = cycle_scale(md, n ** (2 * g))
            assert check["verified"] is cycle_equal(mult_pushforward_all(md, n), expected) is True
        assert [c["j"] for c in contraction.witness["checks"]] == list(range(1, m + 1) if m >= 2 else [])
        signs = _orbit_signs(m)
        fold = [a + b for a, b in zip(signs, signs[1:])]
        folded = expand_orbits(Ambient(g, m - 1), fold) if m >= 2 else None
        for check in contraction.witness["checks"]:
            contracted = proj_pushforward(md, check["j"])
            assert check["vanishes"] is contracted.is_zero is True
            assert cycle_equal(contracted, folded)


@st.composite
def orbit_coefficients(draw):
    g = draw(st.integers(1, 2))
    m = draw(st.integers(2, 7))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m) | st.just(list(_orbit_signs(m))))
    return Ambient(g, m), tuple(coeffs)


@given(orbit_coefficients())
def test_orbit_contraction_matches_the_expanded_pushforward(case):
    # The step's verdict on any coefficients a_1..a_m put in place of the
    # signs of Gamma(m), against contracting each factor of their expansion.
    amb, coeffs = case
    with mock.patch.object(grading, "_orbit_signs", lambda m: coeffs):
        cert = replay_proof(amb.g, amb.m, layers=("formal",))
    expanded = expand_orbits(amb, coeffs)
    checks = cert.steps[1].witness["checks"]
    assert [c["j"] for c in checks] == list(range(1, amb.m + 1))
    for check in checks:
        assert check["vanishes"] is proj_pushforward(expanded, check["j"]).is_zero


def test_contraction_witness_is_computed_from_the_orbits(monkeypatch):
    # Signs that do not alternate, O_1 alone or every O_k with +1, survive
    # every contraction.
    for signs in ((1, 0, 0, 0, 0), (1, 1, 1, 1, 1)):
        calls = []
        monkeypatch.setattr(grading, "_orbit_signs", lambda m: calls.append(m) or signs)
        cert = replay_proof(1, 5, layers=("formal",))
        assert calls == [5]
        contraction = cert.steps[1]
        assert [c["vanishes"] for c in contraction.witness["checks"]] == [False] * 5
        assert (contraction.status, cert.result) == ("FAIL", "FAIL")


def _patch_normalize_twist(monkeypatch, rewrite) -> list:
    """Replace the normalization the formal step calls by rewrite(raw, amb,
    real), and return the list of the raw vectors it is asked for."""
    calls = []
    real = grading.normalize_twist
    assert real is modiag.diagonals.normalize_twist
    monkeypatch.setattr(
        grading, "normalize_twist", lambda raw, amb: calls.append(tuple(raw)) or rewrite(raw, amb, real)
    )
    return calls


def test_mult_witness_is_computed_from_the_representatives(monkeypatch):
    # A normalization that keeps the runs but reports the factor 1 is right
    # only for n = 1.
    calls = _patch_normalize_twist(monkeypatch, lambda raw, amb, real: (1, real(raw, amb)[1]))
    cert = replay_proof(1, 4, layers=("formal",), mult_sample=(1, 2))
    assert calls
    assert [c["verified"] for c in cert.steps[0].witness["checks"]] == [True, False]


@pytest.mark.parametrize("runs", [(0, 1), (2, 0)], ids=["other-orbit", "no-indicator"])
def test_mult_witness_fails_when_an_image_leaves_its_orbit(monkeypatch, runs):
    # Under n = 1 the representatives' runs (1, 0) come back as another
    # orbit's (the complement: O_k -> O_(5-k), which Gamma(5) does not
    # satisfy) or as no indicator at all; neither may verify.
    calls = _patch_normalize_twist(
        monkeypatch, lambda raw, amb, real: (1, runs) if len(raw) == 2 else real(raw, amb)
    )
    cert = replay_proof(1, 5, layers=("formal",), mult_sample=(1,))
    assert (1, 0) in calls
    assert [c["verified"] for c in cert.steps[0].witness["checks"]] == [False]
    assert (cert.steps[0].status, cert.result) == ("FAIL", "FAIL")


@pytest.mark.parametrize("m", [1, 3, 50, 500])
def test_formal_layer_normalizes_each_run_shape_once_per_n(monkeypatch, m):
    # The multiplication check's work does not grow with m: one
    # normalization per run shape and sampled n, of (n, 0) and (n,), and of
    # (n,) alone at m = 1.
    calls = _patch_normalize_twist(monkeypatch, lambda raw, amb, real: real(raw, amb))
    sample = (-3, -2, 2, 3)
    assert replay_proof(1, m, layers=("formal",), mult_sample=sample).result == "PASS"
    shapes = [(n,) for n in sample] if m == 1 else [(n, 0) for n in sample] + [(n,) for n in sample]
    assert sorted(calls) == sorted(shapes)


@pytest.mark.parametrize(
    "g,m,sample",
    [(1, 1, (-3, -2, 2, 3)), (2, 1, (5,)), (1, 2, (-3, -2, 2, 3)), (3, 7, (7,)),
     (2, 1000, (-5, -1, 1, 4, 9)), (1, 100_000, (-3, -2, 2, 3))],
    ids=["g1-m1", "g2-m1-one-n", "g1-m2", "g3-m7-one-n", "g2-m1000", "g1-m100000"],
)
def test_formal_layer_work_does_not_grow_with_m(monkeypatch, g, m, sample):
    # The multiplication check normalizes 2 run shapes per sampled n, (n, 0)
    # and (n,), and (n,) alone at m = 1, each in an ambient built once for
    # the whole certificate; none of it grows with m.
    calls, ambients = [], []
    real = grading.normalize_twist

    def counted(raw, amb):
        calls.append(tuple(raw))
        ambients.append(amb)
        return real(raw, amb)

    monkeypatch.setattr(grading, "normalize_twist", counted)
    assert replay_proof(g, m, layers=("formal",), mult_sample=sample).result == "PASS"
    shapes = 1 if m == 1 else 2
    assert len(calls) == shapes * len(sample)
    assert len({id(amb) for amb in ambients}) == shapes
    assert {(amb.g, amb.m) for amb in ambients} == {(g, k) for k in range(1, shapes + 1)}


@pytest.mark.parametrize("m", [20, 200, 5000])
def test_formal_layer_passes_at_large_m(m):
    cert = replay_proof(1, m, layers=("formal",))
    assert cert.result == "PASS"
    assert len(cert.steps[1].witness["checks"]) == m


# 10**5000 has 5,001 digits, past the interpreter's default int-to-text limit
# of 4,300, where repr and f-strings raise ValueError.
_PAST_LIMIT = 10**5000


@pytest.mark.parametrize(
    "call,error,message,quoted",
    [
        (lambda: mult_pushforward_factor(modified_diagonal(Ambient(1, 2)), _PAST_LIMIT, 2),
         IndexError, "factor index must lie in 1..2, got", _PAST_LIMIT),
        (lambda: proj_pushforward(modified_diagonal(Ambient(1, 2)), -_PAST_LIMIT),
         IndexError, "factor index must lie in 1..2, got", -_PAST_LIMIT),
        (lambda: drop_factor_map(3, _PAST_LIMIT), IndexError, "factor index must lie in 1..3, got", _PAST_LIMIT),
        (lambda: generator(Ambient(1, 2), _PAST_LIMIT, 1), ValueError, "block must lie in 1..2, got", _PAST_LIMIT),
        (lambda: Ambient(-_PAST_LIMIT, 1), ValueError, "g must be an integer >= 1, got", -_PAST_LIMIT),
        (lambda: weight_from_eigenvalue(1, 2, _PAST_LIMIT), ValueError, "eigen-exponent must lie in 0..4, got",
         _PAST_LIMIT),
    ],
    ids=["mult-factor", "proj", "drop-factor-map", "generator", "ambient", "eigen-exponent"],
)
def test_messages_quote_an_integer_past_the_digit_limit(call, error, message, quoted):
    limit = digit_limit()
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == f"{message} {Decimal(quoted)}"
    assert digit_limit() == limit


_E2 = Ambient(1, 2)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: mult_pushforward_factor(modified_diagonal(_E2), 3, 2), IndexError,
         "factor index must lie in 1..2, got 3"),
        (lambda: proj_pushforward(modified_diagonal(_E2), 0), IndexError, "factor index must lie in 1..2, got 0"),
        (lambda: drop_factor_map(3, 4), IndexError, "factor index must lie in 1..3, got 4"),
        (lambda: gen_position(_E2, 3, 1), ValueError, "block must lie in 1..2, got 3"),
        (lambda: gen_position(_E2, 1, 3), ValueError, "index must lie in 1..2, got 3"),
        (lambda: weight_from_eigenvalue(1, 2, 5), ValueError, "eigen-exponent must lie in 0..4, got 5"),
        (lambda: class_of_twist((1, 1), Ambient(1, 3)), ValueError, "expected a vector of length 3, got 2"),
        (lambda: class_of_twist((0, 0), _E2), ValueError, "the zero vector does not name a twisted diagonal"),
        (lambda: projection_map(3, (1, 4)), ValueError, "retained factor must lie in 1..3, got 4"),
    ],
    ids=["mult-factor", "proj", "drop-factor-map", "block", "index", "eigen-exponent", "twist-length",
         "twist-zero", "retained-factor"],
)
def test_messages_name_an_out_of_range_value(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def _with_the_limit_lifted(call):
    """``call()`` with the int-to-text digit limit lifted, then restored."""
    limit = digit_limit()
    if limit is None:
        return call()
    sys.set_int_max_str_digits(0)
    try:
        return call()
    finally:
        sys.set_int_max_str_digits(limit)


def test_record_repr_past_the_digit_limit():
    assert repr(Ambient(_PAST_LIMIT, 1)) == f"Ambient(g={Decimal(_PAST_LIMIT)}, m=1)"
    # At the default limit, each text reads as Python writes it with the
    # limit lifted: nested fields, dicts, Fractions and both renders.
    limit = digit_limit()
    texts = [
        lambda: render_cycle(twist_cycle(_E2, (1, 1), _PAST_LIMIT)),
        lambda: render_cycle(twist_cycle(_E2, (1, 1), Fraction(-_PAST_LIMIT, _PAST_LIMIT + 1))),
        lambda: render_class(ext_scale(unit(Ambient(1, 1)), _PAST_LIMIT)),
        lambda: repr(twist_cycle(_E2, (1, 1), _PAST_LIMIT)),
        lambda: repr(diagonal_map((_PAST_LIMIT,))),
        lambda: repr(replay_proof(2600, 3, layers=("cohomology",))),
        lambda: repr(replay_proof(5000, 1, layers=("formal",))),
    ]
    for text in texts:
        assert text() == _with_the_limit_lifted(text)
        assert digit_limit() == limit
