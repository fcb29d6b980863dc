import enum
import itertools
import json
import math
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import modiag
from helpers import brute_admissible, digit_limit, flat_kunneth_survivors, json_oracle, per_term_count_bounded
from modiag import (
    Ambient,
    admissible_degrees,
    certificate_to_json,
    certificate_to_text,
    count_admissible,
    filter_top,
    modified_diagonal_class,
    profile_support,
    prove_empty_pigeonhole,
    replay_proof,
    weight_from_eigenvalue,
)
from modiag import grading
from modiag.grading import (
    ASSUMED,
    DEFAULT_MAX_DIM,
    FAIL,
    LAYERS,
    PASS,
    PIGEONHOLE,
    SKIPPED,
    STEP_KINDS,
    SURVIVOR_LIST_CAP,
    Certificate,
    Step,
    _kunneth_survivors,
    claim,
)
from modiag.diagonals import _Record


def test_weight_examples():
    assert weight_from_eigenvalue(1, 3, 2) == 4
    assert weight_from_eigenvalue(2, 5, 4) == 16
    assert weight_from_eigenvalue(1, 1, 2) == 0


def test_weight_errors():
    with pytest.raises(ValueError):
        weight_from_eigenvalue(1, 2, -1)
    with pytest.raises(ValueError):
        weight_from_eigenvalue(1, 2, 5)


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", True])
def test_weight_rejects_non_integer_exponent(bad):
    with pytest.raises(TypeError):
        weight_from_eigenvalue(1, 2, bad)


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("call", [count_admissible, admissible_degrees])
def test_weight_total_rejects_non_integer(call, bad):
    with pytest.raises(TypeError):
        call(1, 2, bad)


@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_weight_inverts_exponent(g, m, data):
    w = data.draw(st.integers(0, 2 * g * m))
    assert 2 * g * m - weight_from_eigenvalue(g, m, w) == w


def test_admissible_examples():
    assert admissible_degrees(1, 2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert admissible_degrees(1, 3, 4) == [
        (0, 2, 2),
        (1, 1, 2),
        (1, 2, 1),
        (2, 0, 2),
        (2, 1, 1),
        (2, 2, 0),
    ]
    assert admissible_degrees(1, 1, 0) == [(0,)]
    assert admissible_degrees(1, 1, 3) == []


def test_admissible_matches_brute_force():
    # Every total from -1 to 2gm+2, so both ends of the reflection i -> 2g - i
    # that count_admissible counts from, and the totals beyond them.
    for g in (1, 2):
        for m in (1, 2, 3, 4):
            for nu in range(-1, 2 * g * m + 3):
                expected = brute_admissible(g, m, nu)
                got = admissible_degrees(g, m, nu)
                assert got == expected  # brute force product is already lex ordered
                assert count_admissible(g, m, nu) == len(expected)


def test_admissible_is_lex_sorted():
    out = admissible_degrees(2, 3, 7)
    assert out == sorted(out)


@pytest.mark.parametrize("nu, degree", [(0, 0), (2400, 2)])
def test_admissible_degrees_walks_without_recursion(nu, degree):
    # 1200 factors are beyond the interpreter's recursion limit.
    assert admissible_degrees(1, 1200, nu) == [(degree,) * 1200]
    assert count_admissible(1, 1200, nu) == 1


def test_count_admissible_large_values():
    # counting never enumerates, so huge spaces are fine
    assert count_admissible(3, 9, 2 * 3 * 8) == len(admissible_degrees(3, 9, 48))


@given(st.integers(1, 40), st.integers(1, 12), st.data())
def test_count_bounded_matches_the_per_term_oracle(slots, cap, data):
    total = data.draw(st.integers(-2, slots * cap + 2))
    assert grading._count_bounded(slots, total, cap) == per_term_count_bounded(slots, total, cap)


@pytest.mark.parametrize("g", range(1, 7))
def test_the_certificate_counts_are_single_binomials(g):
    # At the certificate's total 2g(m-1) the complements sum to 2g, so the
    # cap 2g never binds, and a survivor's complements are a composition of
    # 2g into m positive parts: one stars-and-bars binomial each.
    for m in range(1, 2 * g + 4):
        nu = 2 * g * (m - 1)
        assert count_admissible(g, m, nu) == math.comb(2 * g + m - 1, 2 * g)
        assert grading._count_bounded(m, nu, 2 * g - 1) == math.comb(2 * g - 1, m - 1)


def test_count_admissible_at_a_middle_total_carries_its_binomials():
    # 1,667 inclusion-exclusion terms, each a product of binomials of up to
    # about 3,000 digits: computing both afresh per term took about 2.7 s.
    start = time.perf_counter()
    count = count_admissible(1, 5000, 5000)
    assert time.perf_counter() - start < 1
    assert count == per_term_count_bounded(5000, 5000, 2)


def test_filter_top_examples():
    assert filter_top([(0, 2), (1, 1), (2, 0)], 1) == [(1, 1)]
    assert filter_top([(2, 2)], 1) == []
    assert filter_top([(3, 3, 3, 3)], 2) == [(3, 3, 3, 3)]


def test_pigeonhole_examples():
    assert prove_empty_pigeonhole(1, 3).holds
    assert prove_empty_pigeonhole(1, 3).counterexample is None

    out = prove_empty_pigeonhole(1, 2)
    assert not out.holds and out.counterexample == (1, 1)

    out = prove_empty_pigeonhole(2, 4)
    assert not out.holds and out.counterexample == (3, 3, 3, 3)


def test_pigeonhole_agrees_with_enumeration():
    for g in (1, 2, 3):
        for m in range(1, 2 * g + 4):
            nu = 2 * g * (m - 1)
            survivors = filter_top(admissible_degrees(g, m, nu), g)
            out = prove_empty_pigeonhole(g, m)
            assert out.holds == (not survivors)
            assert out.holds == (m >= 2 * g + 1)
            if not out.holds:
                assert out.counterexample in survivors
                assert out.counterexample == min(survivors)
            if m == 2 * g:
                assert survivors == [(2 * g - 1,) * m]


WALK_CASES = [(g, m) for g in range(1, 4) for m in range(1, 2 * g + 4)] + [
    (4, 8),
    (4, 9),
    (5, 10),
    (5, 11),
    (5, 6),
    (6, 5),
    (1, 40),
    (2, 30),
]


@pytest.mark.parametrize("g,m", WALK_CASES)
def test_survivor_walk_matches_enumeration(g, m):
    degrees = admissible_degrees(g, m, 2 * g * (m - 1))
    missed, survivors = _kunneth_survivors(g, m)
    walked, flat = flat_kunneth_survivors(g, m)
    assert survivors == filter_top(degrees, g)[:SURVIVOR_LIST_CAP] == flat[:SURVIVOR_LIST_CAP]
    assert missed + len(flat) == len(degrees) == walked


@given(st.integers(1, 4), st.integers(1, 9))
def test_survivor_walk_matches_flat_walk(g, m):
    # At most C(7, 3) = 35 survivors here, so the whole list is taken.
    missed, survivors = _kunneth_survivors(g, m)
    assert (missed + len(survivors), survivors) == flat_kunneth_survivors(g, m)
    assert survivors == filter_top(admissible_degrees(g, m, 2 * g * (m - 1)), g)


@pytest.mark.parametrize("g,m", [(700, 1), (1000, 2), (300, 3)])
def test_survivor_walk_is_iterative_and_fast_at_large_genus(g, m):
    # A walk that recursed once per factor slot would exceed the recursion
    # limit here; the flat walk takes seconds at (300, 3).
    start = time.perf_counter()
    cert = replay_proof(g, m, layers=("grading",))
    assert time.perf_counter() - start < 1
    step = next(s for s in cert.steps if s.id == "kunneth-survivors")
    assert step.status == PASS and step.witness["matches_analytic"]
    nu = 2 * g * (m - 1)
    missed, survivors = _kunneth_survivors(g, m)
    count = grading._count_bounded(m, nu, 2 * g - 1)
    assert missed + count == count_admissible(g, m, nu) == step.witness["admissible_count"]
    assert survivors == filter_top(admissible_degrees(g, m, nu), g)[:SURVIVOR_LIST_CAP]
    assert step.witness["survivors"] == [list(t) for t in survivors]
    assert survivors[:1] == [prove_empty_pigeonhole(g, m).counterexample]


@pytest.mark.parametrize(
    "g,m,walked,survivors",
    [
        (7, 14, 20_058_300, [(13,) * 14]),
        (7, 15, 40_116_600, []),
        (8, 17, 601_080_390, []),
        (12, 24, 16_123_801_841_550, [(23,) * 24]),
        (12, 25, 32_247_603_683_100, []),
    ],
)
def test_survivor_walk_counts_dead_classes_without_enumerating_them(g, m, walked, survivors):
    # Generating the profiles that miss a factor one by one, even in C,
    # overruns the 1 s bound at (7, 15) and (8, 17), and so does walking the
    # 2^(2g-1) prefixes of the survivors' complements at (12, 24) and
    # (12, 25); the profiles with s < m nonzero complements are counted by
    # C(m, s) C(2g-1, s-1) and only the survivors are generated.
    start = time.perf_counter()
    missed, listed = _kunneth_survivors(g, m)
    assert time.perf_counter() - start < 1
    assert (missed + len(listed), listed) == (walked, survivors)
    assert walked == count_admissible(g, m, 2 * g * (m - 1))


def test_replay_proof_walks_far_beyond_the_default_bound():
    # 40,116,600 profiles, which the retired enumeration bound SKIPped at
    # its default of 10^6, though they are counted by 14 terms.
    start = time.perf_counter()
    cert = replay_proof(7, 15, layers=("grading",))
    assert time.perf_counter() - start < 1
    steps = {s.id: s for s in cert.steps}
    walk = steps["kunneth-survivors"]
    assert (walk.status, walk.witness["matches_analytic"]) == (PASS, True)
    assert walk.witness["admissible_count"] == 40_116_600
    assert steps["top-degree-pigeonhole"].status == PASS
    assert cert.result == PASS


def test_replay_proof_counts_profiles_from_the_near_end_at_large_power():
    # Inclusion-exclusion at the total 2(m-1) itself runs about m terms of
    # m-digit binomials, about 30 s at m = 5000; the reflected total 2 is one.
    start = time.perf_counter()
    cert = replay_proof(1, 5000)
    assert time.perf_counter() - start < 1
    walk = next(s for s in cert.steps if s.id == "kunneth-survivors")
    assert (walk.status, walk.witness["matches_analytic"]) == (PASS, True)
    assert walk.witness["admissible_count"] == math.comb(5001, 2)
    assert (walk.witness["survivor_count"], walk.witness["survivors"]) == (0, [])
    assert cert.result == PASS


def test_survivor_count_cross_checks_the_walk(monkeypatch):
    step = next(s for s in replay_proof(2, 3).steps if s.id == "kunneth-survivors")
    assert (step.status, step.witness["matches_analytic"]) == (PASS, True)
    # one more profile in {0..2g}^m, g = 2, C(2g+m-1, 2g) = C(6, 4), and the
    # survivor count C(2g-1, m-1) = C(3, 2) left exact
    exact = math.comb
    monkeypatch.setattr(grading, "comb", lambda n, k: exact(n, k) + ((n, k) == (6, 4)))
    step = next(s for s in replay_proof(2, 3).steps if s.id == "kunneth-survivors")
    assert (step.status, step.witness["matches_analytic"]) == (FAIL, False)


def test_replay_proof_passes_beyond_threshold():
    cert = replay_proof(1, 3, layers=("formal", "grading", "cohomology"))
    assert cert.result == PASS
    assert [s.id for s in cert.steps] == [
        "mult-eigenvalue",
        "contraction-vanishing",
        "motivic-decomposition",
        "eigenweight",
        "kunneth-survivors",
        "top-degree-pigeonhole",
        "cohomology-shadow",
    ]
    assert all(s.kind in STEP_KINDS for s in cert.steps)


def test_replay_proof_axiom_is_assumed_and_cited():
    cert = replay_proof(2, 5)
    axiom = next(s for s in cert.steps if s.kind == "AXIOM")
    assert axiom.status == ASSUMED
    assert "Deninger" in axiom.reference and "Murre" in axiom.reference
    assert "zero section" in axiom.witness["base_point_note"]


def test_replay_proof_small_m_reports_survivors_without_claiming():
    cert = replay_proof(1, 2)
    assert cert.result == FAIL
    pigeon = next(s for s in cert.steps if s.kind == "PIGEONHOLE")
    assert pigeon.status == FAIL
    assert pigeon.witness["counterexample"] == [1, 1]
    assert "no conclusion about vanishing" in pigeon.witness["note"]
    survivors = next(s for s in cert.steps if s.kind == "GRADING_FILTER")
    assert survivors.status == PASS
    assert survivors.witness["survivors"] == [[1, 1]]
    # everything except the designed pigeonhole failure passed
    assert all(s.status != FAIL for s in cert.steps if s.kind != "PIGEONHOLE")


def _accepted(cert) -> bool:
    """The oracle for ``claim``: the exit-code rule the command line applied
    itself before the rule moved into grading.  A pigeonhole FAIL is
    accepted only at m <= 2g, where no vanishing is claimed."""
    return all(s.status != FAIL or (s.kind == PIGEONHOLE and cert.m <= 2 * cert.g) for s in cert.steps)


def _flipped(cert, step_id):
    """The certificate with one step marked FAIL, as tests/test_cli.py
    builds its failing copies."""
    steps = tuple(type(s)(**{**vars(s), "status": FAIL}) if s.id == step_id else s for s in cert.steps)
    return type(cert)(**{**vars(cert), "steps": steps, "result": FAIL})


LAYER_SUBSETS = [c for k in range(1, 4) for c in itertools.combinations(LAYERS, k)]


def test_claim_agrees_with_the_exit_code_rule():
    assert len(LAYER_SUBSETS) == 7
    for g in range(1, 5):
        for m in range(1, 2 * g + 3):
            for layers in LAYER_SUBSETS:
                cert = replay_proof(g, m, layers=layers)
                concludes = m >= 2 * g + 1 and {"formal", "grading"} <= set(layers)
                assert claim(cert) == ("vanishing" if concludes else "no claim"), (g, m, layers)
                for copy in (cert, *(_flipped(cert, s.id) for s in cert.steps)):
                    assert (claim(copy) == "failed") == (not _accepted(copy)), (g, m, layers, copy.steps)
                    assert claim(copy) != "vanishing" or copy is cert


def test_claim_named_cases():
    assert claim(replay_proof(1, 3)) == "vanishing"
    assert claim(replay_proof(1, 3, layers=LAYERS)) == "vanishing"
    assert claim(replay_proof(1, 3, layers=("grading",))) == "no claim"
    assert claim(replay_proof(2, 4)) == "no claim"
    assert claim(_flipped(replay_proof(1, 3), "contraction-vanishing")) == "failed"
    # the pigeonhole fails by design at m <= 2g, and nowhere else
    assert claim(_flipped(replay_proof(1, 2), "top-degree-pigeonhole")) == "no claim"
    assert claim(_flipped(replay_proof(1, 3), "top-degree-pigeonhole")) == "failed"
    # a skipped shadow leaves the claim to the layers that ran
    skipped = replay_proof(1, 3, layers=LAYERS, max_dim=1)
    assert skipped.steps[-1].status == SKIPPED
    assert claim(skipped) == "vanishing"
    # the axiom must be ASSUMED, never reported as computed: marked PASS, no claim
    axiom = replay_proof(1, 3)
    steps = tuple(type(s)(**{**vars(s), "status": PASS}) if s.status == ASSUMED else s for s in axiom.steps)
    assert claim(type(axiom)(**{**vars(axiom), "steps": steps})) == "no claim"


def test_replay_proof_is_byte_deterministic():
    a = certificate_to_json(replay_proof(2, 5, layers=("formal", "grading")))
    b = certificate_to_json(replay_proof(2, 5, layers=("formal", "grading")))
    assert a.encode() == b.encode()


def test_certificate_json_field_order():
    payload = json.loads(certificate_to_json(replay_proof(1, 3)))
    assert list(payload) == ["schema_version", "g", "m", "steps", "result"]
    assert payload["schema_version"] == "1"
    for step in payload["steps"]:
        assert list(step) == ["id", "kind", "statement", "reference", "status", "witness"]


LAYER_SUBSETS = [c for r in range(1, 4) for c in itertools.combinations(LAYERS, r)]


@pytest.mark.parametrize("sample", [(-3, -2, 2, 3), (-1, 1, 5, -4)])
@pytest.mark.parametrize("layers", LAYER_SUBSETS, ids=",".join)
def test_certificate_json_matches_the_standard_encoder(layers, sample):
    for g in range(1, 6):
        for m in range(1, 13):
            cert = replay_proof(g, m, layers=layers, mult_sample=sample)
            assert certificate_to_json(cert) == json_oracle(cert), (g, m)


def _with_witness(witness) -> Certificate:
    step = Step("id", "kind", "statement", "reference", PASS, witness)
    return Certificate("1", 1, 1, (step,), PASS)


class _Colour(enum.IntEnum):
    RED = 1


class _Text(str):
    pass


class _Box(_Record):
    """A record nested in a witness; the writer reads its fields through
    ``vars``, as it reads a Step's."""

    def __init__(self, fields: dict) -> None:
        self.__dict__.update(fields)


# The values a witness holds: exact ints, bools and strs, in nested lists,
# tuples, string-keyed dicts and records; a key may be a subclass of str,
# which the writer quotes as json.dumps does.  The strings favour what the
# encoder must escape.
_TRICKY_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f\xe9\u2028\U0001f600'))
_KEYS = st.text() | _TRICKY_TEXT | _TRICKY_TEXT.map(_Text)
_WITNESS_LEAVES = st.booleans() | st.integers() | st.integers(max_value=-(2**70)) | st.text() | _TRICKY_TEXT
_WITNESS_VALUES = st.recursive(
    _WITNESS_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.booleans(), min_size=1, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4).map(_Box),
    max_leaves=24,
)


@given(st.dictionaries(st.text() | _TRICKY_TEXT, _WITNESS_VALUES, max_size=4))
def test_witness_json_matches_the_standard_encoder(witness):
    cert = _with_witness(witness)
    assert certificate_to_json(cert) == json_oracle(cert)


class _Plain:
    """An object with a ``__dict__`` that is not a record."""

    def __init__(self) -> None:
        self.field = 1


_REFUSED = [
    0.5,
    Fraction(1, 2),
    {1: "int key"},
    {None: "null key"},
    object(),
    None,
    _Colour.RED,
    _Text("text"),
    _Plain(),
]
_REFUSED_IDS = [
    "float", "fraction", "int-key", "none-key", "no-dict", "none", "int-enum", "str-subclass", "not-a-record"
]


@pytest.mark.parametrize("value", _REFUSED, ids=_REFUSED_IDS)
def test_certificate_json_refuses_what_the_encoder_writes_otherwise(value):
    # json.dumps would write a float, None, a subclass of int or str, and a
    # non-record object through vars, and turn a non-string key into a
    # string; certificates hold none of them, and the writer refuses each.
    with pytest.raises(TypeError):
        certificate_to_json(_with_witness({"value": value}))


@pytest.mark.parametrize("value", _REFUSED, ids=_REFUSED_IDS)
@pytest.mark.parametrize(
    "place", [lambda v: [1, "a", True, v], lambda v: [[], {"a": 1, "b": v}]], ids=["in-list", "in-dict-in-list"]
)
def test_certificate_json_refuses_nested_values(place, value):
    # A container writes exact str, int and bool items itself; anything else,
    # however deep, still reaches the checks that refuse it.
    with pytest.raises(TypeError):
        certificate_to_json(_with_witness({"value": place(value)}))


def test_certificate_json_writes_nested_ints_past_the_digit_limit():
    # The oracle cannot write these ints at the default limit, so it writes
    # small stand-ins that the expected text then replaces by the Decimal text.
    def witness(a, b, c):
        return {"items": [a, [b, True]], "values": {"a": c, "b": [{"c": a}]}}

    big = (10**5000, -(10**4400), 7**6000)
    stand_ins = (111111111, 222222222, 333333333)
    limit = digit_limit()
    text = certificate_to_json(_with_witness(witness(*big)))
    expected = json_oracle(_with_witness(witness(*stand_ins)))
    for stand_in, value in zip(stand_ins, big):
        expected = expected.replace(str(stand_in), str(Decimal(value)))
    assert text == expected
    assert digit_limit() == limit


def test_certificate_text_format():
    text = certificate_to_text(replay_proof(1, 3))
    assert text.startswith("certificate schema 1: g=1 m=3")
    assert text.rstrip().endswith("result: PASS")


def test_replay_proof_has_no_enumeration_bound():
    # The survivor step's work is bounded by the survivors it lists, so no
    # bound gates it.
    with pytest.raises(TypeError):
        replay_proof(1, 3, enum_bound=1)
    assert not hasattr(grading, "DEFAULT_ENUM_BOUND")


@pytest.mark.parametrize("g,m", [(300, 3), (10, 11), (12, 13), (5000, 5000)])
def test_survivor_step_lists_only_the_survivors_it_embeds(g, m):
    # The whole list is 179,101 survivors at (300, 3) and 1,352,078 at
    # (12, 13); at (5000, 5000) the partition sum by comb products takes
    # about 8 s, and its recurrence about 0.02 s.
    start = time.perf_counter()
    cert = replay_proof(g, m, layers=("grading",))
    assert time.perf_counter() - start < 2
    step = next(s for s in cert.steps if s.id == "kunneth-survivors")
    assert (step.status, step.witness["matches_analytic"]) == (PASS, True)
    assert step.witness["survivor_count"] == math.comb(2 * g - 1, m - 1)
    assert len(step.witness["survivors"]) == SURVIVOR_LIST_CAP
    assert step.witness["survivors_listed"] is False


@pytest.mark.parametrize("cap", range(1, 5))
@pytest.mark.parametrize("slots", range(1, 6))
def test_rank_is_the_index_in_the_brute_force_filter(slots, cap):
    # _rank's domain is a deficit slots*cap - total of at most cap, where
    # every survivor lies (2g - m at cap = 2g - 1); its stars-and-bars tail
    # counts are exact there, and beyond it they may overcount.
    by_total: dict[int, list] = {}
    for t in itertools.product(range(cap + 1), repeat=slots):
        by_total.setdefault(sum(t), []).append(t)
    for total, tuples in by_total.items():
        if slots * cap - total <= cap:
            assert [grading._rank(t, cap) for t in tuples] == list(range(len(tuples)))


def _nudge_top(ts):
    # Move one unit into the last entry of the second tuple: it then holds
    # 2g, and still sorts between its neighbours.
    *head, before, last = ts[1]
    return [ts[0], (*head, before - 1, last + 1), *ts[2:]]


WALK_FAULTS = {
    "none": lambda ts: ts,
    "drop-2nd": lambda ts: ts[:1] + ts[2:],
    "drop-5th": lambda ts: ts[:4] + ts[5:],
    "swap-100th-200th": lambda ts: ts[:99] + [ts[199]] + ts[100:199] + [ts[99]] + ts[200:],
    "top-entry": _nudge_top,
}


@pytest.mark.parametrize(
    "g,m,fault",
    [
        (6, 5, "none"),
        (6, 5, "drop-5th"),
        (300, 3, "drop-5th"),
        (2, 3, "drop-2nd"),
        (6, 5, "swap-100th-200th"),
        (2, 3, "top-entry"),
        (6, 5, "top-entry"),
    ],
)
def test_survivor_step_fails_on_a_faulty_walk(monkeypatch, g, m, fault):
    real = grading._iter_bounded
    monkeypatch.setattr(
        grading,
        "_iter_bounded",
        lambda *args: iter(WALK_FAULTS[fault](list(itertools.islice(real(*args), 300)))),
    )
    step = next(s for s in replay_proof(g, m, layers=("grading",)).steps if s.id == "kunneth-survivors")
    ok = fault == "none"
    assert (step.status, step.witness["matches_analytic"]) == (PASS if ok else FAIL, ok)


def test_cohomology_bound_skips_without_silence():
    cert = replay_proof(1, 3, layers=("formal", "grading", "cohomology"), max_dim=5)
    shadow = next(s for s in cert.steps if s.kind == "COHOMOLOGY_CHECK")
    assert shadow.status == SKIPPED
    assert shadow.witness["max_dim"] == 5
    assert cert.result == PASS


def test_cohomology_bound_skips_past_the_digit_limit():
    # C(2gm, 2g) has 4,311 digits at (2600, 3); the SKIPPED statement and the
    # JSON state it exactly, and the interpreter's limit stays as it was.
    limit = digit_limit()
    cert = replay_proof(2600, 3, layers=("cohomology",))
    (shadow,) = cert.steps
    assert shadow.status == SKIPPED
    dimension = str(Decimal(math.comb(15600, 5200)))
    assert len(dimension) == 4311
    assert shadow.statement.endswith(f" dimension {dimension}, beyond the configured bound")
    assert f'"graded_dimension": {dimension},' in certificate_to_json(cert)
    assert digit_limit() == limit


def test_default_bound_admits_at_most_462_profiles():
    # The shadow lists C(2g-1, m-1) profiles at m <= 2g and none beyond.
    # C(2gm, 2g) grows with m, and C(4g, 2g) with g, so once (g, 2) is
    # refused only m = 1 is admitted at that g and every larger one, with
    # one profile.  No walk: binomials alone.
    profiles = {}
    g = 1
    while math.comb(4 * g, 2 * g) < DEFAULT_MAX_DIM:
        for m in range(1, 2 * g + 1):
            if math.comb(2 * g * m, 2 * g) < DEFAULT_MAX_DIM:
                profiles[g, m] = math.comb(2 * g - 1, m - 1)
        g += 1
    assert max(profiles.values()) == profiles[6, 6] == 462
    (shadow,) = replay_proof(6, 6, layers=("cohomology",)).steps
    assert (shadow.status, len(shadow.witness["support"])) == (PASS, 462)


def test_cohomology_step_consistent_for_small_m():
    cert = replay_proof(2, 2, layers=("grading", "cohomology"))
    shadow = next(s for s in cert.steps if s.kind == "COHOMOLOGY_CHECK")
    assert shadow.status == PASS
    assert shadow.witness["is_zero"] is False
    assert shadow.witness["survivor_containment"] == "verified"
    assert shadow.witness["support"] == [[1, 3], [2, 2], [3, 1]]


@pytest.mark.parametrize("cap", range(1, 5))
@pytest.mark.parametrize("slots", range(1, 7))
def test_bounded_walk_is_the_brute_force_filter_in_order(slots, cap):
    by_total: dict[int, list] = {}
    for t in itertools.product(range(cap + 1), repeat=slots):
        by_total.setdefault(sum(t), []).append(t)
    for total in range(-1, cap * slots + 2):
        walked = list(grading._iter_bounded(slots, total, cap))
        assert walked == by_total.get(total, [])
        assert len(walked) == grading._count_bounded(slots, total, cap)


@pytest.mark.parametrize("total", range(1, 7))
@pytest.mark.parametrize("parts", range(1, 8))
def test_compositions_are_stars_and_bars_in_descending_order(total, parts):
    # The complements to total of the walk at cap total - 1 are the
    # compositions of total into parts positive parts, C(total-1, parts-1)
    # of them by stars and bars: the survivors and the shadow's support
    # carry one profile per composition of 2g.
    brute = [c for c in itertools.product(range(1, total + 1), repeat=parts) if sum(c) == total]
    walked = grading._iter_bounded(parts, total * (parts - 1), total - 1)
    comps = [tuple(total - i for i in t) for t in walked]
    assert comps == sorted(brute, reverse=True)
    assert len(comps) == math.comb(total - 1, parts - 1)


def test_grading_has_one_enumerator_of_bounded_tuples():
    for name in ("combinations", "_compositions", "iter_admissible", "itertools"):
        assert not hasattr(grading, name), name


SHADOW_ORACLE_CASES = [(g, m) for g in range(1, 4) for m in range(1, 2 * g + 3)] + [
    (4, m) for m in (3, 4, 7, 8)
]


@pytest.mark.parametrize("g,m", SHADOW_ORACLE_CASES)
def test_shadow_support_matches_the_closed_form_class(g, m):
    cls = modified_diagonal_class(Ambient(g, m))
    assert grading._shadow_support(g, m) == sorted(profile_support(cls))


def test_shadow_builds_no_class_and_reads_no_survivor_walk():
    # Building the class at (6, 12) would take 479M terms; the support comes
    # from compositions and is checked against the survivor definition.
    def refuse(*args):
        raise AssertionError("the shadow step must not call this")

    # Only modules that bind the name are patched: reading a lazy name from
    # the package would bind it into vars(modiag) on the undo.
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name == "modiag" or name.startswith("modiag."):
                for attr in ("modified_diagonal_class", "_kunneth_survivors"):
                    if attr in vars(module):
                        patch.setattr(module, attr, refuse)
        for g in range(1, 7):
            for m in range(1, 2 * g + 2):
                shadow = replay_proof(g, m, layers=("cohomology",), max_dim=10**80).steps[0]
                assert shadow.status == PASS
                assert len(shadow.witness["support"]) == math.comb(2 * g - 1, m - 1)
                assert shadow.witness["is_zero"] is (m > 2 * g)
    assert not set(vars(modiag)) & set(modiag._LAZY)


@pytest.mark.parametrize(
    "m,support,containment",
    [(3, [(3, 3, 3)], "violated"), (3, [(1, 3, 4)], "violated"), (5, [(4, 4, 4, 4, 0)], None)],
    ids=["off-weight", "top-entry", "beyond-threshold"],
)
def test_shadow_step_fails_on_a_support_that_is_no_survivor(monkeypatch, m, support, containment):
    monkeypatch.setattr(grading, "_shadow_support", lambda g, m: support)
    shadow = replay_proof(2, m, layers=("cohomology",)).steps[0]
    assert shadow.status == FAIL
    assert shadow.witness.get("survivor_containment") == containment


SHADOW_WALK_FAULTS = {
    "drop": lambda tuples: tuples[:1] + tuples[2:],
    "repeat": lambda tuples: tuples[:1] + tuples[:1] + tuples[2:],
    "reverse": lambda tuples: tuples[::-1],
}


@pytest.mark.parametrize(
    "g,m,fault",
    [
        pytest.param(g, m, fault, id=f"{g}-{m}" if fault == "drop" else f"{g}-{m}-{fault}")
        for fault in SHADOW_WALK_FAULTS
        for g, m in [(2, 3), (3, 4), (3, 5), (4, 5)]
    ],
)
def test_shadow_step_fails_when_the_walk_drops_a_profile(monkeypatch, g, m, fault):
    # Every profile the faulty walk lists is still a survivor.  Only the count
    # against C(2g-1, m-1) catches the one it drops, and only the strict order
    # of the support as walked the one it repeats in place of another, or a
    # walk out of lexicographic order, which sorting the support would hide.
    real = grading._iter_bounded
    walked = []

    def faulty(slots, total, cap):
        tuples = list(real(slots, total, cap))
        walked.append(len(tuples))
        return iter(SHADOW_WALK_FAULTS[fault](tuples))

    monkeypatch.setattr(grading, "_iter_bounded", faulty)
    cert = replay_proof(g, m, layers=("cohomology",), max_dim=10**14)
    shadow = cert.steps[0]
    assert walked == [math.comb(2 * g - 1, m - 1)]
    assert len(shadow.witness["support"]) == walked[0] - (fault == "drop")
    assert shadow.witness["survivor_containment"] == "verified"
    assert (shadow.status, cert.result, claim(cert)) == (FAIL, FAIL, "failed")


@pytest.mark.parametrize(
    "call",
    [
        lambda: weight_from_eigenvalue(True, 2, 1),
        lambda: weight_from_eigenvalue(1, True, 1),
        lambda: count_admissible(True, 3, 4),
        lambda: count_admissible(1, True, 0),
        lambda: admissible_degrees(True, 2, 2),
        lambda: admissible_degrees(1, True, 0),
        lambda: prove_empty_pigeonhole(True, 3),
        lambda: prove_empty_pigeonhole(1, True),
        lambda: count_admissible(0, 3, 4),
        lambda: admissible_degrees(1, 2.0, 2),
        lambda: filter_top([(2, 0), (1, 1)], True),
        lambda: filter_top([(2, 0), (1, 1)], 1.0),
        lambda: filter_top([(2, 0), (1, 1)], 0),
    ],
)
def test_grading_helpers_reject_bool_and_non_integer_shapes(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("g", [3, 4, 5])
def test_replay_proof_first_vanishing_power_with_every_layer(g):
    cert = replay_proof(g, 2 * g + 1, layers=("formal", "grading", "cohomology"), max_dim=10**40)
    assert cert.result == PASS
    shadow = cert.steps[-1]
    assert (shadow.id, shadow.status, shadow.witness["is_zero"]) == ("cohomology-shadow", PASS, True)


def test_replay_proof_input_validation():
    with pytest.raises(ValueError):
        replay_proof(0, 2)
    with pytest.raises(ValueError):
        replay_proof(True, 3, layers=["grading"])
    with pytest.raises(ValueError):
        replay_proof(1, True, layers=["grading"])
    with pytest.raises(ValueError):
        replay_proof(1, 2, layers=("formal", "nonsense"))
    with pytest.raises(ValueError):
        replay_proof(1, 2, layers=())
    # A sample that is not iterable gets the same refusal as a zero in one.
    for sample in ((2, 0), 3, None):
        with pytest.raises(ValueError, match="must be nonzero integers"):
            replay_proof(1, 2, mult_sample=sample)


@pytest.mark.parametrize("bad", [True, 5.0, float("nan"), "5"], ids=repr)
@pytest.mark.parametrize("bound", ["max_dim"])
def test_replay_proof_bounds_follow_the_integer_rule(bound, bad):
    with pytest.raises(TypeError):
        replay_proof(1, 3, layers=LAYERS, **{bound: bad})


@pytest.mark.parametrize("bad", [True, 2.0, 2.5, "2"])
@pytest.mark.parametrize("layers", [("formal", "grading"), ("grading",)])
def test_replay_proof_rejects_non_integer_mult_sample(bad, layers):
    with pytest.raises(ValueError, match="must be nonzero integers"):
        replay_proof(1, 3, layers=layers, mult_sample=(2, bad))
